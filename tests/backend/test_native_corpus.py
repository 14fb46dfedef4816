"""The fusion corpus, replayed through the native tier.

The 30-seed random two-stage pipelines from ``tests/opt`` exercise the
emitter over a much wider space of scalar expressions and LMAD read
patterns (reflected indices, double read sites) than the hand-written
benchmarks.  Every seed must be bit-identical between the native tier
and the interpreter, and every seed must actually lower to C: ``min``/
``max`` over mixed scalar kinds has one static result type (the
operands' promoted type) in every tier, so nothing in the corpus is
outside the native set.
"""

import numpy as np
import pytest

from repro.backend import NativeEngine, native_enabled
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = pytest.mark.skipif(
    not native_enabled(), reason="no C compiler available"
)

N = 33
SEEDS = range(30)


def _inputs(seed):
    data = np.random.RandomState(1000 + seed)
    return {"n": N, "xs": data.randn(N).astype(np.float32)}


def _run(fun, seed, **kw):
    ex = MemExecutor(fun, **kw)
    vals, stats = ex.run(**_inputs(seed))
    outs = [
        np.asarray(ex.mem[v.mem][v.ixfn.gather_offsets({})]) for v in vals
    ]
    return outs, stats


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_native_matches_interpreter(seed):
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(seed)),
        pipeline="full",
    ).fun
    outs_n, st_n = _run(fun, seed, native=NativeEngine())
    outs_i, st_i = _run(fun, seed, vectorize=False)
    for a, b in zip(outs_n, outs_i):
        assert np.array_equal(a, b), seed
    assert st_n.signature() == st_i.signature(), seed
    assert st_n.peak_bytes == st_i.peak_bytes, seed


def test_corpus_coverage():
    """Every seed of the fixed-seed corpus lowers fully to C."""
    lowered = 0
    for seed in SEEDS:
        fun = compile_fun(
            random_two_stage_pipeline(np.random.RandomState(seed)),
            pipeline="full",
        ).fun
        _, stats = _run(fun, seed, native=NativeEngine())
        assert stats.native_launches or stats.vec_launches, seed
        if stats.native_launches and not stats.vec_launches:
            lowered += 1
    assert lowered == len(SEEDS), lowered
