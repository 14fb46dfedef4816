"""Span tracing from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` replaces public
entry points (class methods and module functions, patched where their
callers look them up) with wrappers that record one :class:`Span` per
call.  Spans are kept in memory -- name, start, end, parent span and
request id -- and written at exit as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open.

Wrappers are installed for the traced rounds only and removed again for
the untraced ones, so one traced run measures its own overhead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, object] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


#: ``note(span, args, kwargs, result)`` attaches attributes after a call.
Note = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """In-memory span recorder plus the reversible entry-point patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: Request id stamped on every span opened from now on.
        self.request: object = None
        self._patches: List[Tuple[object, str, object, object]] = []
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must nest"

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: Optional[str] = None,
             note: Optional[Note] = None) -> None:
        """Register a patch of ``owner.attr`` (a class or a module).

        For a class only an attribute defined on that class itself is
        patched, so wrapping a base and a subclass method nests cleanly.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(label)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in reversed(self._patches):
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        events = []
        for s in self.spans:
            args = {"span": s.sid, "parent": s.parent, "request": s.request}
            args.update({k: v for k, v in s.attrs.items()
                         if isinstance(v, (int, float, str, bool))})
            events.append({
                "name": s.name,
                "ph": "X",
                "ts": (s.start - self.t0) * 1e6,
                "dur": s.dur * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "metadata": metadata or {}}

    def write(self, path, metadata: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)


# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """span id -> duration minus the part of it its children cover.

    Children may overlap one another (they do not in one thread, but the
    arithmetic does not assume it): the union of their intervals, clipped
    to the parent's, is subtracted once.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        lo_edge = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo = max(c.start, lo_edge)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                lo_edge = hi
        out[s.sid] = s.dur - covered
    return out


def has_ancestor(span: Span, by_id: Dict[int, Span],
                 pred: Callable[[Span], bool]) -> bool:
    p = span.parent
    while p is not None:
        anc = by_id[p]
        if pred(anc):
            return True
        p = anc.parent
    return False


def descendants(span: Span, children: Dict[int, List[Span]]) -> List[Span]:
    out, todo = [], list(children.get(span.sid, ()))
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(children.get(c.sid, ()))
    return out
