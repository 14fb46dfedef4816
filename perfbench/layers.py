"""The layers the traced run measures: which entry points it wraps, and
how the per-layer metrics are derived from the recorded spans.

Layers are named after the modules of ``src/repro``.  ``ir`` runs only
inside the ``typecheck`` pass and ``analysis`` only under
``verify=True`` (a CI gate, not a user path), so neither has metrics of
its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from tracing import Span, Tracer, descendants, has_ancestor, self_times

BENCHES = ("nw", "lud", "hotspot", "lbm", "optionpricing", "locvolcalib", "nn")
SHARD_BENCHES = ("hotspot", "lbm", "nw")
#: Every pass (and auto-inserted analysis) a preset can schedule.
PASSES = (
    "typecheck", "introduce_memory", "hoist", "alias", "last_use",
    "short_circuit", "dead_allocs", "fuse", "reuse", "mem_frees",
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"pipeline.pass_s.{p}", "s", "lower") for p in PASSES]
    + [(f"pipeline.compile_s.{b}", "s", "lower") for b in BENCHES]
    + [
        ("prover.queries", "count", "lower"),
        ("prover.structural", "count", "higher"),
        ("prover.polyhedral", "count", "lower"),
        ("prover.unknown", "count", "lower"),
        ("prover.decided_ratio", "ratio", "higher"),
        ("prover.query_s", "s", "lower"),
        ("prover.max_query_s", "s", "lower"),
        ("isl.engine_s", "s", "lower"),
        ("opt.sc_commits", "count", "higher"),
        ("opt.sc_rejects", "count", "lower"),
        ("opt.fuse_commits", "count", "higher"),
        ("opt.fuse_rejects", "count", "lower"),
        ("reuse.merges", "count", "higher"),
        ("reuse.saving_bytes", "B", "higher"),
        ("runtime.request_self_ms", "ms", "lower"),
        ("runtime.pool_hit_ratio", "ratio", "higher"),
        ("runtime.memo_hits", "count", "lower"),
        ("exec.self_ms", "ms", "lower"),
        ("exec.launches", "count", "lower"),
        ("exec.interp_launches", "count", "lower"),
        ("vec.launches", "count", "lower"),
        ("vec.launch_ms", "ms", "lower"),
        ("vec.hit_ratio", "ratio", "higher"),
        ("native.launches", "count", "higher"),
        ("native.launch_ms", "ms", "lower"),
        ("native.hit_ratio", "ratio", "higher"),
        ("native.codegen_s", "s", "lower"),
        ("native.cc_s", "s", "lower"),
        ("native.cc_builds", "count", "lower"),
    ]
    + [(f"gpu.sim_ms.{b}", "ms", "lower") for b in BENCHES]
    + [
        ("shard.halo_exchanges", "count", "lower"),
        ("shard.halo_bytes", "B", "lower"),
        ("shard.halo_ms", "ms", "lower"),
        ("shard.slab_ms", "ms", "lower"),
    ]
    + [(f"shard.ms.{b}", "ms", "lower") for b in SHARD_BENCHES]
    + [(f"run_ms.{b}", "ms", "lower") for b in BENCHES]
    + [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)

QUERY_SPANS = ("overlap.check", "overlap.tiered_check", "overlap.injective")


def bench_of(fun_name: str) -> str:
    """Source function name -> benchmark (``nw_rect`` is nw's shard step)."""
    return fun_name[:-5] if fun_name.endswith("_rect") else fun_name


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _note_result(span, args, kwargs, result):
    span.attrs["result"] = bool(result)


def _note_pass(span, args, kwargs, result):
    span.attrs["pass"] = args[0].name


def _note_pipeline(span, args, kwargs, result):
    ctx = args[1]
    span.attrs["fun"] = ctx.source.name
    sc, fu, re = ctx.sc_stats, ctx.fuse_stats, ctx.reuse_stats
    span.attrs["sc_commits"] = sc.committed if sc else 0
    span.attrs["sc_rejects"] = sum(sc.failures.values()) if sc else 0
    span.attrs["fuse_commits"] = fu.committed if fu else 0
    span.attrs["fuse_rejects"] = sum(fu.failures.values()) if fu else 0
    span.attrs["reuse_merges"] = re.merged if re else 0


def _note_program(span, args, kwargs, result):
    stats = result[1]
    span.attrs["pool_hits"] = stats.pool_hits
    span.attrs["pool_misses"] = stats.pool_misses


def _note_exec(span, args, kwargs, result):
    ex, stats = args[0], result[1]
    span.attrs["fun"] = ex.fun.name
    span.attrs["launches"] = (
        stats.vec_launches + stats.interp_launches + stats.native_launches
    )
    span.attrs["interp_launches"] = stats.interp_launches


def _note_estimate(span, args, kwargs, result):
    span.attrs["saving"] = result.saving


def instrument(tracer: Tracer) -> None:
    """Register a wrapper for every public entry point of every layer."""
    import repro.compiler as compiler
    import repro.reuse as reuse
    import repro.runtime as rt
    from repro.backend import build, engine as native
    from repro.gpu.costmodel import CostModel
    from repro.isl.engine import PolyEngine
    from repro.lmad.overlap import NonOverlapChecker, ProverPool, TieredChecker
    from repro.mem.exec import MemExecutor
    from repro.mem.vectorize import VecEngine
    from repro.pipeline import passes
    from repro.pipeline.manager import PassManager
    from repro.runtime.program import Program
    from repro.shard import runner

    w = tracer.wrap
    # pipeline
    w(compiler, "compile_fun", "compile_fun")
    w(runner, "compile_fun", "compile_fun")  # the shard runner's import
    w(rt, "compile", "rt.compile")
    w(PassManager, "run", "pipeline", _note_pipeline)
    for cls in vars(passes).values():
        if isinstance(cls, type) and issubclass(cls, passes.Pass) \
                and "run" in cls.__dict__ and cls is not passes.Pass:
            w(cls, "run", "pass", _note_pass)
    # prover: query level only (never per Prover.nonneg call)
    w(NonOverlapChecker, "check", "overlap.check", _note_result)
    w(TieredChecker, "check", "overlap.tiered_check", _note_result)
    w(ProverPool, "injective", "overlap.injective", _note_result)
    for m in ("set_is_empty", "accesses_disjoint", "disjoint_from_extra",
              "lmad_injective", "entails_nonneg"):
        w(PolyEngine, m, f"isl.{m}")
    # runtime, mem
    w(Program, "run", "runtime.run", _note_program)
    w(MemExecutor, "run", "exec.run", _note_exec)
    w(VecEngine, "try_run_map", "vec.try_run_map", _note_result)
    # backend: engine.py imports emit_kernel by name and calls
    # build.compile_kernel through the module
    w(native.NativeEngine, "try_run_map", "native.try_run_map", _note_result)
    w(native, "emit_kernel", "native.emit")
    w(build, "compile_kernel", "native.cc")
    # gpu, shard, reuse
    w(CostModel, "total_time", "gpu.total_time")
    w(runner, "run_sharded", "shard.run")
    w(reuse, "estimate_peak", "reuse.estimate_peak", _note_estimate)


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def _query_tier(span: Span, children) -> str:
    if not span.attrs.get("result"):
        return "unknown"
    if span.name == "overlap.check":
        return "structural"
    poly = ("isl.accesses_disjoint", "isl.lmad_injective")
    if any(d.name in poly for d in descendants(span, children)):
        return "polyhedral"
    return "structural"


def from_spans(
    spans: Sequence[Span],
    compile_scope: Iterable[object],
    compile_per: int,
    exec_scope: Iterable[object],
    exec_rounds: int,
) -> Dict[str, float]:
    """Span-derived per-layer metrics.

    Compile-side layers (pipeline, prover, isl, opt, reuse) are totals
    over the spans of ``compile_scope`` divided by ``compile_per`` (the
    number of compile rounds those spans cover); execution-side layers
    are per traced round of ``exec_scope``.  Native code generation is
    a total over the whole run, since only set-up pays it.
    """
    compile_scope, exec_scope = set(compile_scope), set(exec_scope)
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    selft = self_times(spans)
    cs = [s for s in spans if s.request in compile_scope]
    xs = [s for s in spans if s.request in exec_scope]
    cp = max(compile_per, 1)
    xr = max(exec_rounds, 1)
    out: Dict[str, float] = {}

    for p in PASSES:
        out[f"pipeline.pass_s.{p}"] = sum(
            s.dur for s in cs if s.name == "pass" and s.attrs.get("pass") == p
        ) / cp
    pipes = [s for s in cs if s.name == "pipeline"]
    for b in BENCHES:
        out[f"pipeline.compile_s.{b}"] = sum(
            s.dur for s in pipes if bench_of(str(s.attrs.get("fun"))) == b
        ) / cp

    def is_query(s):
        return s.name in QUERY_SPANS

    queries = [s for s in cs if is_query(s)
               and not has_ancestor(s, by_id, is_query)]
    tiers = {"structural": 0, "polyhedral": 0, "unknown": 0}
    for q in queries:
        tiers[_query_tier(q, children)] += 1
    n = len(queries)
    out["prover.queries"] = n / cp
    for t, v in tiers.items():
        out[f"prover.{t}"] = v / cp
    out["prover.decided_ratio"] = (
        (tiers["structural"] + tiers["polyhedral"]) / n if n else 0.0
    )
    out["prover.query_s"] = sum(q.dur for q in queries) / cp
    out["prover.max_query_s"] = max((q.dur for q in queries), default=0.0)

    def is_isl(s):
        return s.name.startswith("isl.")

    out["isl.engine_s"] = sum(
        s.dur for s in cs if is_isl(s) and not has_ancestor(s, by_id, is_isl)
    ) / cp

    for key in ("sc_commits", "sc_rejects", "fuse_commits", "fuse_rejects"):
        out[f"opt.{key}"] = sum(s.attrs.get(key, 0) for s in pipes) / cp
    out["reuse.merges"] = sum(s.attrs.get("reuse_merges", 0) for s in pipes) / cp

    runs = [s for s in xs if s.name == "runtime.run"]
    out["runtime.request_self_ms"] = (
        sum(selft[s.sid] for s in runs) / len(runs) * 1e3 if runs else 0.0
    )
    hits = sum(s.attrs.get("pool_hits", 0) for s in runs)
    looked = hits + sum(s.attrs.get("pool_misses", 0) for s in runs)
    out["runtime.pool_hit_ratio"] = hits / looked if looked else 0.0

    execs = [s for s in xs if s.name == "exec.run"]
    out["exec.self_ms"] = sum(selft[s.sid] for s in execs) / xr * 1e3
    out["exec.launches"] = sum(s.attrs.get("launches", 0) for s in execs) / xr
    out["exec.interp_launches"] = sum(
        s.attrs.get("interp_launches", 0) for s in execs) / xr

    for tier, span_name in (("vec", "vec.try_run_map"),
                            ("native", "native.try_run_map")):
        tries = [s for s in xs if s.name == span_name]
        ran = [s for s in tries if s.attrs.get("result")]
        out[f"{tier}.launches"] = len(ran) / xr
        out[f"{tier}.launch_ms"] = sum(s.dur for s in tries) / xr * 1e3
        out[f"{tier}.hit_ratio"] = len(ran) / len(tries) if tries else 0.0
    out["native.codegen_s"] = sum(s.dur for s in spans if s.name == "native.emit")
    out["native.cc_s"] = sum(s.dur for s in spans if s.name == "native.cc")

    halo = [s for s in execs if s.attrs.get("fun") == "halo_copy"]
    out["shard.halo_ms"] = sum(s.dur for s in halo) / xr * 1e3
    slab = [s for s in execs if s.attrs.get("fun") != "halo_copy"
            and has_ancestor(s, by_id, lambda a: a.name == "shard.run")]
    out["shard.slab_ms"] = sum(s.dur for s in slab) / xr * 1e3
    out["trace.spans"] = float(len(spans))
    return out
