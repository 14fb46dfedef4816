"""The four workloads: set-up, one timed request, and output checks.

Each workload is a closed loop with one client: the runner sends the
next request only after the previous one returned.  A *round* is one
request per item (program, program x preset pair, or sharded
benchmark); the runner measures whole rounds.  Every request gets fresh
inputs made from the run's seed and the request index; a benchmark
module's ``make_input(s)`` / ``make_f0`` receives that seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.compiler as compiler
import repro.reuse as reuse
import repro.runtime as rt
from repro.backend import build as native_build
from repro.bench.harness import PERF_DATASETS, QUICK_DATASETS, materialize
from repro.bench.programs import (
    hotspot,
    lbm,
    locvolcalib,
    lud,
    nn,
    nw,
    optionpricing,
)
from repro.gpu import A100, CostModel
from repro.ir.pretty import pretty_fun
from repro.mem.exec import MemExecutor
from repro.pipeline import PRESETS
from repro.shard import runner as shard_runner

from layers import BENCHES, SHARD_BENCHES

MODULES = {
    "nw": nw, "lud": lud, "hotspot": hotspot, "lbm": lbm,
    "optionpricing": optionpricing, "locvolcalib": locvolcalib, "nn": nn,
}

#: The harness tolerance for served outputs against the NumPy reference.
RTOL = ATOL = 1e-3

#: Shard sizes: (n, steps) for hotspot/lbm, (q, b) for nw; two devices.
SHARD_ARGS = {"hotspot": (256, 3), "lbm": (128, 4), "nw": (8, 16)}
SHARD_DEVICES = 2


def make_inputs(name: str, args: Tuple[int, ...], seed: int) -> Dict:
    """The module's inputs at ``args``, drawn from ``seed`` where the
    module's generator takes one (nw's boundary matrix and the two
    finance programs have no random inputs)."""
    m = MODULES[name]
    if name in ("nw", "lud"):
        q, b = args
        n = q * b + 1 if name == "nw" else q * b
        return {"q": q, "b": b, "n": n, "A": m.make_input(n, seed)}
    if name == "hotspot":
        n, iters = args
        return {"n": n, "iters": iters, **m.make_inputs(n, seed)}
    if name == "lbm":
        n, steps = args
        return {"n": n, "steps": steps, "f": m.make_f0(n, seed),
                "dirs": m.DIRS.copy(), "w": m.WEIGHTS.copy()}
    if name == "nn":
        return m.make_inputs(args[0], seed)
    return m.inputs_for(*args)


def reference(name: str, args, inp) -> List[np.ndarray]:
    """The module's NumPy reference outputs for one request.

    Kept here rather than borrowed from the harness so the benchmark's
    notion of a correct answer does not move with ``src/``."""
    m = MODULES[name]
    if name in ("nw", "lud"):
        return [m.reference(inp["A"], inp["n"])]
    if name == "hotspot":
        return [m.reference(inp["T"], inp["P"], inp["iters"])]
    if name == "lbm":
        return [m.reference(inp["f"], inp["n"], inp["steps"])]
    if name == "locvolcalib":
        return [m.reference(*args)]
    if name == "optionpricing":
        return [np.float32(v) for v in m.reference(*args)]
    return list(m.reference(inp["lat"], inp["lng"], inp["qlat"], inp["qlng"]))


def outputs_match(got, expected) -> bool:
    """Element-wise agreement within the harness tolerance."""
    if len(got) != len(expected):
        return False
    for g, e in zip(got, expected):
        g = np.asarray(g, dtype=np.float64).reshape(-1)
        e = np.asarray(e, dtype=np.float64).reshape(-1)
        if g.shape != e.shape or not np.allclose(g, e, rtol=RTOL, atol=ATOL):
            return False
    return True


def digest(inp: Dict) -> str:
    h = hashlib.sha256()
    for k in sorted(inp):
        v = inp[k]
        h.update(k.encode())
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


@dataclass
class Record:
    """One request: what was asked, how long it took, what came back."""

    item: object
    seed: int
    latency_s: float
    traced: bool = False
    payload: Dict = field(default_factory=dict)


class Workload:
    #: Set-up repetitions in an untraced run (setup_s is their median).
    setup_reps = 3

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.items: List = []

    def setup(self, seed: int) -> float:
        raise NotImplementedError

    def request(self, item, seed: int) -> Record:
        raise NotImplementedError

    def check(self, records: List[Record]) -> List[str]:
        """Failure descriptions for requests with wrong outputs."""
        raise NotImplementedError

    def exact(self, records: List[Record]) -> Dict[str, float]:
        """traffic_bytes / peak_bytes: exact counts, not timings."""
        raise NotImplementedError

    def layer_extras(self, records: List[Record]) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {}

    def compile_scope(self, traced_requests) -> Tuple[List, int]:
        """(request ids whose spans hold compile work, rounds covered)."""
        return ["setup"], 1

    def notes(self, records: List[Record]) -> Dict[str, object]:
        """Extra facts for the report (not metrics)."""
        return {}


def saving_bytes(fun, inputs) -> int:
    """Bytes the reuse layer's lifetime model keeps off the peak."""
    est = reuse.estimate_peak(fun, inputs)
    return est.naive_bytes - est.peak_bytes


def _median_ms_by_item(records: List[Record]) -> Dict:
    by: Dict = {}
    for r in records:
        if not r.traced:
            by.setdefault(r.item, []).append(r.latency_s * 1e3)
    return {k: float(np.median(v)) for k, v in by.items()}


# ----------------------------------------------------------------------
class Serve(Workload):
    """Round-robin ``Program.run`` over the seven benchmarks."""

    def __init__(self, tmp: Path, datasets: Dict[str, Tuple]):
        super().__init__(tmp)
        self.args = datasets
        self.items = list(BENCHES)
        self.progs: Dict = {}
        self.cache_dirs: List[Path] = []

    def setup(self, seed: int) -> float:
        # A new, empty native kernel cache: every set-up pays emission + cc.
        cache = self.tmp / f"nativecache{len(self.cache_dirs)}"
        cache.mkdir()
        os.environ["REPRO_NATIVE_CACHE"] = str(cache)
        native_build.clear_memo()
        self.cache_dirs.append(cache)
        t0 = time.perf_counter()
        progs = {n: rt.compile(MODULES[n].build(), cache=False, memoize=False)
                 for n in self.items}
        for n in self.items:
            progs[n].run(make_inputs(n, self.args[n], seed))
        elapsed = time.perf_counter() - t0
        self.progs = progs
        return elapsed

    def request(self, item, seed: int) -> Record:
        inp = make_inputs(item, self.args[item], seed)
        prog = self.progs[item]
        t0 = time.perf_counter()
        outs, stats = prog.run(inp)
        dt = time.perf_counter() - t0
        return Record(item, seed, dt, payload={"outs": outs, "stats": stats})

    def check(self, records):
        failures, memo = [], {}
        for r in records:
            inp = make_inputs(r.item, self.args[r.item], r.seed)
            key = (r.item, digest(inp))
            if key not in memo:
                memo[key] = reference(r.item, self.args[r.item], inp)
            if not outputs_match(r.payload["outs"], memo[key]):
                failures.append(f"{r.item} seed {r.seed}: output mismatch")
        return failures

    def _first_stats(self, records):
        first = {}
        for r in records:
            first.setdefault(r.item, r.payload["stats"])
        return first

    def exact(self, records):
        first = self._first_stats(records)
        return {
            "traffic_bytes": float(sum(s.bytes_total for s in first.values())),
            "peak_bytes": float(sum(s.peak_bytes for s in first.values())),
        }

    def layer_extras(self, records):
        first = self._first_stats(records)
        cm = CostModel(A100)
        out = {f"gpu.sim_ms.{b}": cm.total_time(first[b]) * 1e3
               for b in self.items if b in first}
        for b, ms in _median_ms_by_item(records).items():
            out[f"run_ms.{b}"] = ms
        out["runtime.memo_hits"] = float(
            sum(p.memo_hits for p in self.progs.values()))
        out["native.cc_builds"] = float(sum(
            len(list(d.glob("*.so"))) for d in self.cache_dirs))
        out["reuse.saving_bytes"] = float(sum(
            saving_bytes(self.progs[b].fun, make_inputs(b, self.args[b], 0))
            for b in self.items))
        return out


# ----------------------------------------------------------------------
class Compile(Workload):
    """Cold compiles of the seven ``build()`` programs under every preset."""

    #: Input size for the exact traffic/peak of the compiled programs.
    DATASET = "small"

    def __init__(self, tmp: Path):
        super().__init__(tmp)
        self.items = [(p, b) for p in PRESETS for b in BENCHES]
        self.first: Dict = {}

    def setup(self, seed: int) -> float:
        t0 = time.perf_counter()
        for b in BENCHES:
            MODULES[b].build()
        return time.perf_counter() - t0

    def request(self, item, seed: int) -> Record:
        preset, b = item
        fun = MODULES[b].build()
        t0 = time.perf_counter()
        c = compiler.compile_fun(fun, pipeline=preset, cache=False)
        dt = time.perf_counter() - t0
        self.first.setdefault(item, c)
        ir = hashlib.sha256(pretty_fun(c.fun).encode()).hexdigest()
        return Record(item, seed, dt, payload={"ir": ir})

    def check(self, records):
        failures, hashes = [], {}
        for r in records:
            want = hashes.setdefault(r.item, r.payload["ir"])
            if r.payload["ir"] != want:
                failures.append(f"{r.item}: IR differs across rounds")
        # The compiled programs must also compute the right answer.
        for (preset, b), c in self.first.items():
            args = MODULES[b].TEST_DATASETS[self.DATASET]
            inp = MODULES[b].inputs_for(*args)
            ex = MemExecutor(c.fun)
            vals, _ = ex.run(**inp)
            got = [materialize(ex, v) for v in vals]
            if not outputs_match(got, reference(b, args, inp)):
                failures.append(f"{preset}/{b}: compiled output mismatch")
        return failures

    def exact(self, records):
        traffic = peak = 0
        for (_preset, b), c in self.first.items():
            args = MODULES[b].TEST_DATASETS[self.DATASET]
            dry = MODULES[b].dry_inputs_for(*args)
            _, st = MemExecutor(c.fun, mode="dry").run(**dict(dry))
            traffic += st.bytes_total
            peak += reuse.estimate_peak(c.fun, MODULES[b].inputs_for(*args)
                                        ).peak_bytes
        return {"traffic_bytes": float(traffic), "peak_bytes": float(peak)}

    def layer_extras(self, records):
        return {"reuse.saving_bytes": float(sum(
            saving_bytes(c.fun, MODULES[b].inputs_for(
                *MODULES[b].TEST_DATASETS[self.DATASET]))
            for (_p, b), c in self.first.items()))}

    def notes(self, records):
        """One digest of every compiled program's IR, for comparing runs."""
        h = hashlib.sha256()
        for item in self.items:
            r = next((r for r in records if r.item == item), None)
            h.update((r.payload["ir"] if r else "missing").encode())
        return {"ir_digest": h.hexdigest()[:16]}

    def compile_scope(self, traced_requests):
        return traced_requests, len(traced_requests) // len(self.items)


# ----------------------------------------------------------------------
@contextlib.contextmanager
def seeded_shard_inputs(name: str, seed: int):
    """Make ``run_sharded`` draw its inputs from ``seed``.

    The shard runner builds its own inputs through the module's
    ``inputs_for`` (hotspot, lbm) or ``make_input`` (nw); this swaps in
    the seeded generator for the duration of one call."""
    m = MODULES[name]
    attr = "make_input" if name == "nw" else "inputs_for"
    original = getattr(m, attr)
    if name == "nw":
        setattr(m, attr, lambda nv: original(nv, seed))
    else:
        setattr(m, attr, lambda *args: make_inputs(name, args, seed))
    try:
        yield
    finally:
        setattr(m, attr, original)


def shard_inputs(name: str, seed: int) -> Dict:
    """The whole-grid inputs a seeded sharded run of ``name`` uses."""
    if name == "nw":
        q, b = SHARD_ARGS[name]
        return {"A": nw.make_input(q * b + 1, seed), "n": q * b + 1}
    return make_inputs(name, SHARD_ARGS[name], seed)


class Shard(Workload):
    """Repeated two-device ``run_sharded`` of hotspot, lbm and nw."""

    #: A second set-up would recompile nw's shard step cold (about a
    #: minute), so the shard workload sets up once.
    setup_reps = 1

    def __init__(self, tmp: Path):
        super().__init__(tmp)
        self.items = list(SHARD_BENCHES)

    def setup(self, seed: int) -> float:
        t0 = time.perf_counter()
        for b in self.items:
            with seeded_shard_inputs(b, seed):
                shard_runner.run_sharded(b, SHARD_ARGS[b], SHARD_DEVICES)
        return time.perf_counter() - t0

    def request(self, item, seed: int) -> Record:
        with seeded_shard_inputs(item, seed):
            t0 = time.perf_counter()
            res = shard_runner.run_sharded(item, SHARD_ARGS[item],
                                           SHARD_DEVICES)
            dt = time.perf_counter() - t0
        return Record(item, seed, dt, payload={
            "outs": res.outputs,
            "halo_bytes": res.halo_bytes,
            "halo_exchanges": res.halo_exchanges,
            "bytes_total": res.stats.bytes_total,
            "peak_bytes": res.stats.peak_bytes,
        })

    def check(self, records):
        failures, single, refs = [], {}, {}
        for r in records:
            inp = shard_inputs(r.item, r.seed)
            key = (r.item, digest(inp))
            if key not in single:
                with seeded_shard_inputs(r.item, r.seed):
                    single[key] = shard_runner.run_sharded(
                        r.item, SHARD_ARGS[r.item], 1).outputs
                refs[key] = reference(r.item, SHARD_ARGS[r.item], inp)
            outs = r.payload["outs"]
            if len(outs) != len(single[key]) or not all(
                np.array_equal(a, b) for a, b in zip(outs, single[key])
            ):
                failures.append(f"{r.item} seed {r.seed}: differs from 1 device")
            elif not outputs_match(outs, refs[key]):
                failures.append(f"{r.item} seed {r.seed}: reference mismatch")
        return failures

    def _first(self, records):
        first = {}
        for r in records:
            first.setdefault(r.item, r.payload)
        return first

    def exact(self, records):
        first = self._first(records)
        return {
            "traffic_bytes": float(sum(p["bytes_total"] for p in first.values())),
            "peak_bytes": float(sum(p["peak_bytes"] for p in first.values())),
        }

    def layer_extras(self, records):
        first = self._first(records)
        out = {
            "shard.halo_exchanges": float(
                sum(p["halo_exchanges"] for p in first.values())),
            "shard.halo_bytes": float(
                sum(p["halo_bytes"] for p in first.values())),
        }
        for b, ms in _median_ms_by_item(records).items():
            out[f"shard.ms.{b}"] = ms
        return out


def make_workload(name: str, tmp: Path) -> Workload:
    quick = {k: next(iter(v.values())) for k, v in QUICK_DATASETS.items()}
    if name == "serve_small":
        return Serve(tmp, dict(PERF_DATASETS))
    if name == "serve_large":
        return Serve(tmp, quick)
    if name == "compile":
        return Compile(tmp)
    if name == "shard":
        return Shard(tmp)
    raise KeyError(name)


WORKLOADS = ("serve_small", "serve_large", "compile", "shard")
