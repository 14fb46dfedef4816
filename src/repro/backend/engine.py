"""Launch machinery for the native C executor tier.

:class:`NativeEngine` mirrors :class:`repro.mem.vectorize.VecEngine`'s
contract: ``try_run_map`` either executes one outermost ``map``
statement completely -- outputs *and* every simulated ``ExecStats``
quantity bit-identical to the interpreted walk -- and returns ``True``,
or touches nothing and returns ``False`` so the executor falls through
to the vectorized/interpreted tiers.

The first launch of a statement drives :func:`repro.backend.cemit.
emit_kernel` over the kernel subtree, producing launch-*structure*-
specialized C plus a list of argument directives (which host scalars,
symbolic expressions, index-function components, and buffers to marshal
per launch).  The compiled entry point is cached by source digest
(:mod:`repro.backend.build`); the per-statement plan is shared across
all executors of a :class:`repro.runtime.Program`, exactly like the
vectorized dispatch plans.  A statement whose subtree the emitter
rejects is marked :class:`Rejected`, keeping the reason, and is never
attempted again; a launch whose concrete structure no longer matches
the plan (a rank or scalar-kind change) falls back for that launch only.
"""

from __future__ import annotations

import ctypes
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.backend import build
from repro.backend.cemit import SLOTS, KernelSpec, Reject, emit_kernel
from repro.ir.interp import InterpError, eval_sym
from repro.ir.types import DTYPE_INFO


@dataclass(frozen=True)
class Rejected:
    """Plan marker: this statement's subtree never runs natively.

    ``reason`` is the :class:`Reject` or :class:`~repro.backend.build.
    BuildError` message, kept so a fallback can be explained later.
    """

    reason: str


class _Mismatch(Exception):
    """This launch's concrete structure diverges from the cached plan."""


def _eval_int(expr, env) -> int:
    v = eval_sym(expr, env)
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if not isinstance(v, (int, np.integer)):
        raise _Mismatch("non-integer symbolic value")
    return int(v)


class NativeEngine:
    """Shared native-tier state: dispatch plans + compiled kernels."""

    def __init__(self, plans: Optional[Dict[int, object]] = None):
        #: id(stmt) -> KernelSpec | Rejected (shared per Program, like
        #: the vectorized dispatch plans).
        self.plans: Dict[int, object] = plans if plans is not None else {}
        self._lock = threading.Lock()
        #: Cumulative emission + cc wall clock (ExecStats.codegen_seconds).
        self.codegen_seconds = 0.0

    # ------------------------------------------------------------------
    def try_run_map(self, ex, stmt, exp, env, width, dests) -> bool:
        if ex.shared_memory_model:
            return False
        plan = self.plans.get(id(stmt))
        if plan is None:
            plan = self._emit(ex, stmt, exp, env, dests)
        if isinstance(plan, Rejected):
            return False
        try:
            self._launch(plan, ex, env, width, dests)
        except (_Mismatch, InterpError):
            return False
        return True

    # ------------------------------------------------------------------
    def _emit(self, ex, stmt, exp, env, dests):
        with self._lock:
            plan = self.plans.get(id(stmt))
            if plan is not None:
                return plan
            t0 = time.perf_counter()
            try:
                spec = emit_kernel(ex, stmt, exp, env, dests)
                fn, digest = build.compile_kernel(spec.source)
                spec.fn = fn
                spec.digest = digest
                plan = spec
            except (Reject, build.BuildError) as e:
                plan = Rejected(str(e))
            self.codegen_seconds += time.perf_counter() - t0
            self.plans[id(stmt)] = plan
            return plan

    def reject_reasons(self) -> List[str]:
        """Distinct reasons of every statement that stays off this tier."""
        return sorted(
            {p.reason for p in self.plans.values() if isinstance(p, Rejected)}
        )

    # ------------------------------------------------------------------
    def _launch(self, spec: KernelSpec, ex, env, width, dests) -> None:
        ia: list = []
        for d in spec.int_dirs:
            tag = d[0]
            if tag == "env":
                ia.append(self._scalar(env, d[1], d[2], want_int=True))
            elif tag == "sym":
                ia.append(_eval_int(d[1], env))
            else:  # ("arrcomp", source, ranks, dtype)
                _, source, ranks, dtype = d
                ra = self._source_array(source, env, dests)
                if ra.dtype != dtype:
                    raise _Mismatch("array dtype changed")
                if tuple(len(l.dims) for l in ra.ixfn.lmads) != ranks:
                    raise _Mismatch("index-function structure changed")
                for lmad in ra.ixfn.lmads:
                    ia.append(self._concrete(lmad.offset))
                    for dim in lmad.dims:
                        ia.append(self._concrete(dim.shape))
                        ia.append(self._concrete(dim.stride))
        fa = [
            self._scalar(env, d[1], d[2], want_int=False)
            for d in spec.flt_dirs
        ]

        # Resolve every concrete buffer (and pre-size the in-kernel
        # allocations) before mutating any executor state, so a mismatch
        # is a clean no-op fallback.
        bufs: list = [None] * len(spec.buf_dirs)
        allocs = []
        for i, d in enumerate(spec.buf_dirs):
            tag = d[0]
            if tag == "arr":
                ra = self._source_array(d[1], env, dests)
                bufs[i] = self._buffer(ex, ra.mem, env)
            elif tag == "mem":
                bufs[i] = self._buffer(ex, d[1], env)
            else:  # ("alloc", site_idx)
                name, size_sym, count_syms, dtype, space = (
                    spec.alloc_sites[d[1]]
                )
                size = _eval_int(size_sym, env)
                total = 1
                for cs in count_syms:
                    total *= _eval_int(cs, env)
                allocs.append((i, name, size, total, dtype, space))

        # Commit point: allocate the per-site backing blocks with the
        # interpreter's exact accounting (one fresh zeroed block per
        # site holding all per-execution slots; freed wholesale when the
        # outermost map ends, via the kernel-alloc log).
        for i, name, size, total, dtype, space in allocs:
            buf = np.zeros(total * size, dtype=DTYPE_INFO[dtype][0])
            ex._alloc_counter += 1
            unique = f"{name}@{ex._alloc_counter}"
            ex.mem[unique] = buf
            nbytes = total * size * DTYPE_INFO[dtype][1]
            ex.stats.alloc_count += total
            ex.stats.alloc_bytes += nbytes
            ex._note_alloc(name, unique, nbytes, space)
            bufs[i] = buf

        counters = np.zeros(len(spec.sites) * SLOTS, dtype=np.int64)
        ia_arr = np.asarray(ia, dtype=np.int64)
        fa_arr = np.asarray(fa, dtype=np.float64)
        buf_ptrs = (ctypes.c_void_p * max(1, len(bufs)))(
            *[b.ctypes.data for b in bufs] or [0]
        )
        spec.fn(
            ctypes.c_longlong(int(width)),
            ia_arr.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong)),
            fa_arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            buf_ptrs,
            counters.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong)),
        )

        # Distribute the counters the C code accumulated.  Site 0 is the
        # outermost map's already-pushed KernelStat; nested sites create
        # their stat only if the statement actually executed (entered >
        # 0), matching the interpreter's per-execution registry.
        for si, (sstmt, kind, label) in enumerate(spec.sites):
            ent, br, bw, fl, elc, elb, scr, scw, rgr, rgw = (
                int(x) for x in counters[si * SLOTS:(si + 1) * SLOTS]
            )
            if si == 0:
                ks = ex._kernel_stack[-1]
            else:
                if ent == 0:
                    continue
                ks = ex.stats.kernel(id(sstmt), kind, label)
            ks.bytes_read += br
            ks.bytes_written += bw
            ks.flops += fl
            # Space slots duplicate the part of br/bw that touched a
            # non-HBM space (see cemit.SPACE_SLOTS).
            for sp, rd, wr in (("scratch", scr, scw), ("regs", rgr, rgw)):
                if rd:
                    ks.space_read[sp] = ks.space_read.get(sp, 0) + rd
                if wr:
                    ks.space_written[sp] = (
                        ks.space_written.get(sp, 0) + wr
                    )
            ex.stats.elided_copies += elc
            ex.stats.elided_bytes += elb

    # ------------------------------------------------------------------
    @staticmethod
    def _scalar(env, name, kind, want_int):
        v = env.get(name)
        if v is None and name not in env:
            raise _Mismatch(f"free variable {name!r} vanished")
        ok = (
            kind == "pyint" and type(v) is int
            or kind == "npint" and isinstance(v, np.integer)
            or kind == "pybool" and type(v) is bool
            or kind == "npbool" and isinstance(v, np.bool_)
            or kind == "f32" and isinstance(v, np.float32)
            or kind == "pyfloat" and type(v) is float
            or kind == "f64"
            and isinstance(v, np.floating)
            and not isinstance(v, np.float32)
        )
        if not ok:
            raise _Mismatch(f"scalar kind of {name!r} changed")
        return int(v) if want_int else float(v)

    @staticmethod
    def _source_array(source, env, dests):
        from repro.mem.exec import RuntimeArray

        tag, key = source
        ra = env.get(key) if tag == "env" else dests[key]
        if not isinstance(ra, RuntimeArray):
            raise _Mismatch("array argument vanished")
        return ra

    @staticmethod
    def _concrete(expr) -> int:
        v = expr.as_int()
        if v is None:
            raise _Mismatch("symbolic index-function component")
        return v

    @staticmethod
    def _buffer(ex, mem, env) -> np.ndarray:
        buf = ex.mem[ex._resolve_mem(mem, env)]
        if not isinstance(buf, np.ndarray):
            raise _Mismatch("memory block is not materialized")
        return buf
