"""Generated-C structure: fused kernels lower to single-loop bodies.

The point of emitting from the *post-pipeline* memory IR is that the
fusion pass's work survives lowering: a producer inlined into its
consumer must yield one C loop over the thread space with the producer's
scalar expression spliced inline -- not a loop per original kernel and
not a materialized intermediate.
"""

import numpy as np
import pytest

from repro.backend import NativeEngine, native_enabled
from repro.backend.cemit import KernelSpec
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = pytest.mark.skipif(
    not native_enabled(), reason="no C compiler available"
)


def _fused_specs(fun, engine):
    """KernelSpecs of outermost map statements carrying FusedRecords."""
    specs = []
    for stmt in fun.body.stmts:
        if getattr(stmt, "fused", ()) and id(stmt) in engine.plans:
            spec = engine.plans[id(stmt)]
            if isinstance(spec, KernelSpec):
                specs.append(spec)
    return specs


def test_fused_two_stage_pipeline_is_single_loop():
    # Seed 2 fuses, and its fused kernel lowers to C.
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(2)),
        pipeline="full",
    ).fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    data = np.random.RandomState(0)
    ex.run(n=33, xs=data.randn(33).astype(np.float32))
    specs = _fused_specs(fun, eng)
    assert specs, "pipeline did not fuse or did not lower"
    for spec in specs:
        # Exactly one loop: the thread loop.  The inlined producer
        # contributes scalar statements, never a second loop or a
        # buffer round-trip.
        assert spec.source.count("for (") == 1, spec.source


def test_fused_benchmark_kernel_is_single_loop():
    from repro.bench.programs import nn

    fun = compile_fun(nn.build(), pipeline="full").fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    inp = nn.inputs_for(*nn.TEST_DATASETS["small"])
    ex.run(**inp)
    specs = _fused_specs(fun, eng)
    assert specs, "nn did not fuse or did not lower"
    for spec in specs:
        assert spec.source.count("for (") == 1, spec.source


def _seed2_spec():
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(2)),
        pipeline="full",
    ).fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    data = np.random.RandomState(0)
    ex.run(n=33, xs=data.randn(33).astype(np.float32))
    (spec,) = _fused_specs(fun, eng)
    return spec


def test_counter_stores_present():
    """The emitted C charges the simulated counters itself -- traffic
    accounting is compiled in, not replayed in Python."""
    spec = _seed2_spec()
    assert "C[1] +=" in spec.source  # bytes read
    assert "C[2] +=" in spec.source  # bytes written
    assert "C[3] +=" in spec.source  # flops


def test_signature_restricts_arguments_not_buffers():
    """``ia``, ``fa`` and ``C`` are distinct arrays made fresh per launch,
    so they are ``restrict`` (counter stores cannot alias the LMAD
    arguments); data buffers may alias each other and stay unqualified."""
    src = _seed2_spec().source
    assert (
        "void repro_kernel(long long W, const long long* restrict ia, "
        "const double* restrict fa, char** bufs, long long* restrict C)"
    ) in src
    assert "restrict bufs" not in src
