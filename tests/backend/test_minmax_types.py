"""``min``/``max`` have one static result type in every tier.

The scalar result takes the operands' promoted type -- the type ``x + y``
has under NEP 50, weak only when both operands are weak -- while the
value stays Python's selection (``y`` only when strictly less / greater).
Before this rule the interpreter returned whichever *operand* won, so
``max(f32_elem, 0.0)`` was a strong ``float32`` or a weak Python float
depending on the data, and a later weak-float addition rounded
differently in the interpreted tier than in the vectorized one.
"""

import numpy as np
import pytest

from repro.backend import NativeEngine, native_enabled
from repro.bench.harness import materialize
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir.interp import Interpreter, run_fun
from repro.mem.exec import MemExecutor
from repro.symbolic import Var

n = Var("n")
XS = np.array([-1.0, 2.0, -3.0, 0.5], dtype=np.float32)


def weak_chain(op: str, lhs: str):
    """``out[i] = (op(lhs, xs[i]) + 16777217.0) - 16777216.0``.

    2**24 + 1 is not a float32, so the chain's result shows whether the
    min/max result was float32 (rounds) or a Python float (exact).
    ``lhs`` is the weak literal ``0.0`` or the thread index ``i``.
    """
    b = FunBuilder(f"weak_{op}_{lhs}")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    m = b.map_(n, index="i")
    x = m.index(xs, [m.idx])
    y = m.binop(op, x, 0.0) if lhs == "0.0" else m.binop(op, m.idx, x)
    z = m.binop("+", y, 16777217.0)
    m.returns(m.binop("-", z, 16777216.0))
    (out,) = m.end()
    b.returns(out)
    return b.build()


def _tier(fun, **kw):
    ex = MemExecutor(fun, **kw)
    vals, stats = ex.run(n=len(XS), xs=XS.copy())
    return np.asarray(materialize(ex, vals[0])), stats


CASES = [("max", "0.0"), ("min", "0.0"), ("max", "i"), ("min", "i")]


@pytest.mark.skipif(not native_enabled(), reason="no C compiler available")
@pytest.mark.parametrize("op,lhs", CASES)
def test_weak_chain_identical_across_tiers(op, lhs):
    (ref,) = run_fun(weak_chain(op, lhs), n=len(XS), xs=XS.copy())
    fun = compile_fun(weak_chain(op, lhs), pipeline="full").fun
    interp, st_i = _tier(fun, vectorize=False)
    vec, st_v = _tier(fun)
    native, st_n = _tier(fun, native=NativeEngine())
    assert ref.dtype == np.float32
    for out in (interp, vec, native):
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
    assert st_i.signature() == st_v.signature() == st_n.signature()
    assert st_n.native_launches > 0
    assert st_v.vec_launches > 0


def test_weak_chain_rounds_at_float32():
    (out,) = run_fun(weak_chain("max", "0.0"), n=len(XS), xs=XS.copy())
    assert out.tolist() == [0.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("op", ["min", "max"])
@pytest.mark.parametrize(
    "x,y,rtype",
    [
        (np.float32(-1.0), 0.0, np.float32),  # strong f32, weak float
        (0.0, np.float32(-1.0), np.float32),
        (np.int64(3), 2.5, np.float64),  # strong i64, weak float
        (2.5, np.int64(3), np.float64),
        (3, 2.5, float),  # weak int, weak float
        (2.5, 3, float),
        (True, False, bool),  # bool, bool
        (np.bool_(True), np.bool_(False), np.bool_),
    ],
)
def test_binop_result_type_is_static(op, x, y, rtype):
    r = Interpreter._binop(op, x, y)
    assert type(r) is rtype
    assert r == (min(x, y) if op == "min" else max(x, y))


def test_binop_keeps_pythons_selection():
    # Ties keep x: the sign of zero shows which operand was picked.
    assert np.signbit(Interpreter._binop("min", np.float32(-0.0), 0.0))
    assert not np.signbit(Interpreter._binop("max", np.float32(0.0), -0.0))
    nan = float("nan")
    assert np.isnan(Interpreter._binop("min", np.float32(nan), 1.0))
    assert Interpreter._binop("min", np.float32(1.0), nan) == 1.0
