import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import dual, mechanics
from mslab.dual import Dual
from mslab.lagrangian import quartic_test_density


def fd_derivative(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


class TestArithmetic:
    def test_add_mul(self):
        a = Dual(2.0, 1.0)
        out = a * a + 3.0 * a - 1.0
        assert out.re == pytest.approx(9.0)
        assert out.du == pytest.approx(7.0)  # d/dx (x^2 + 3x - 1) at 2

    def test_division(self):
        a = Dual(4.0, 1.0)
        out = 1.0 / a
        assert out.re == pytest.approx(0.25)
        assert out.du == pytest.approx(-1.0 / 16.0)

    def test_integer_power(self):
        a = Dual(3.0, 1.0)
        out = a ** 4
        assert out.re == pytest.approx(81.0)
        assert out.du == pytest.approx(4.0 * 27.0)

    def test_float_power(self):
        a = Dual(2.0, 1.0)
        out = a ** 0.5
        assert out.re == pytest.approx(math.sqrt(2.0))
        assert out.du == pytest.approx(0.5 / math.sqrt(2.0))

    def test_comparisons_use_value(self):
        assert Dual(1.0, 99.0) < Dual(2.0, -99.0)
        assert Dual(2.0, 0.0) >= 2.0

    def test_float_strips(self):
        assert float(Dual(1.5, 2.0)) == 1.5
        assert dual.value(Dual(Dual(1.5, 1.0), 1.0)) == 1.5


class TestNumpyScalars:
    """numpy integer and float32 scalars combine with duals like Python numbers."""

    def test_integer_operands(self):
        out = Dual(1.0, 1.0) + np.int64(2)
        assert (out.re, out.du) == (3.0, 1.0)
        out = np.int64(2) * Dual(1.0, 1.0)
        assert (out.re, out.du) == (2.0, 2.0)

    def test_float32_operand(self):
        out = Dual(1.0, 1.0) * np.float32(2)
        assert (out.re, out.du) == (2.0, 2.0)

    def test_integer_powers(self):
        out = Dual(2.0, 1.0) ** np.int64(2)
        assert (out.re, out.du) == (4.0, 4.0)
        grad = dual.gradient(lambda a, b: a ** np.int64(3) + b, (2.0, 1.0))
        assert grad == [12.0, 1.0]


class TestPowersAndAbs:
    def test_real_power_of_a_negative_base(self):
        out = Dual(-2.0, 1.0) ** 2.0
        assert (out.re, out.du) == (4.0, -4.0)
        assert dual.hessian(lambda x: x ** 3.0, (-2.0,))[0][0] == pytest.approx(-12.0)

    def test_abs(self):
        out = abs(Dual(-1.5, 2.0))
        assert (out.re, out.du) == (1.5, -2.0)
        assert dual.hessian(lambda x: abs(x) * x, (-3.0,))[0][0] == -2.0

    def test_scalar_base_power(self):
        out = 2.0 ** Dual(3.0, 1.0)
        assert out.re == 8.0
        assert out.du == pytest.approx(8.0 * math.log(2.0), rel=1e-15)
        assert dual.hessian(lambda x: 2.0 ** x, (3.0,))[0][0] == pytest.approx(
            8.0 * math.log(2.0) ** 2, rel=1e-14)


class TestArrays:
    def test_ndarray_operands_defer_to_the_dual(self):
        out = np.array([1.0, 2.0]) * Dual(np.array([3.0, 4.0]), 1.0)
        assert isinstance(out, Dual)
        assert out.re.tolist() == [3.0, 8.0]
        assert out.du.tolist() == [1.0, 2.0]

    def test_numpy_ufuncs_are_unsupported(self):
        with pytest.raises(TypeError):
            np.cosh(Dual(0.5, 1.0))

    def test_slices_act_on_the_trailing_axis(self):
        x = Dual(np.arange(4.0), np.eye(4))[1:3]
        assert x.re.tolist() == [1.0, 2.0]
        assert x.du.tolist() == np.eye(4)[:, 1:3].tolist()
        assert Dual(np.arange(4.0), 0.0)[2:].du == 0.0
        assert dual.concatenate((x, x[:1])).du.tolist() == np.eye(4)[:, [1, 2, 1]].tolist()

    def test_scalar_arguments_broadcast_against_arrays(self):
        gx, gy = dual.gradient(lambda x, y: x * y * y, (np.array([1.0, 2.0]), 3.0))
        assert gx.tolist() == [9.0, 9.0]
        assert gy.tolist() == [6.0, 12.0]
        h = dual.hessian(lambda x, y: x * y * y, (np.array([1.0, 2.0]), 3.0))
        assert h[1][1].tolist() == [2.0, 4.0]
        assert h[0][0].tolist() == [0.0, 0.0]


class TestElementaryFunctions:
    @pytest.mark.parametrize("fn,dfn", [
        (dual.sin, math.cos),
        (dual.exp, math.exp),
        (dual.sqrt, lambda x: 0.5 / math.sqrt(x)),
        (dual.log, lambda x: 1.0 / x),
    ])
    def test_first_derivative(self, fn, dfn):
        x = 0.7
        out = fn(Dual(x, 1.0))
        assert out.du == pytest.approx(dfn(x), rel=1e-12)

    def test_cos(self):
        out = dual.cos(Dual(0.7, 1.0))
        assert out.du == pytest.approx(-math.sin(0.7), rel=1e-12)


class TestDerivativeHelpers:
    def test_derivative(self):
        fn = lambda x: x * dual.sin(x)
        assert dual.derivative(fn, 1.2) == pytest.approx(
            math.sin(1.2) + 1.2 * math.cos(1.2), rel=1e-12)

    def test_gradient(self):
        fn = lambda x, y: x * x * y + dual.exp(y)
        gx, gy = dual.gradient(fn, (2.0, 0.3))
        assert gx == pytest.approx(2.0 * 2.0 * 0.3, rel=1e-12)
        assert gy == pytest.approx(4.0 + math.exp(0.3), rel=1e-12)

    def test_hessian_symmetric_and_exact(self):
        fn = lambda x, y: x ** 3 * y + y * y
        h = dual.hessian(fn, (1.5, -0.5))
        assert h[0][0] == pytest.approx(6.0 * 1.5 * -0.5, rel=1e-12)
        assert h[0][1] == pytest.approx(3.0 * 1.5 ** 2, rel=1e-12)
        assert h[1][0] == pytest.approx(h[0][1], rel=1e-14)
        assert h[1][1] == pytest.approx(2.0, rel=1e-12)

    def test_partial_plain_floats(self):
        fn = lambda x, y: x * y + y
        assert dual.partial(fn, 0, (2.0, 3.0)) == pytest.approx(3.0)
        assert dual.partial(fn, 1, (2.0, 3.0)) == pytest.approx(3.0)

    def test_partial_inside_seeded_jacobian(self):
        # partial must stay differentiable when its arguments already carry
        # a tangent from an outer seeding (nested first derivatives).
        def grad0(x, y):
            return dual.partial(lambda a, b: a * a * b, 0, (x, y))

        outer = grad0(Dual(2.0, 1.0), 3.0)
        assert isinstance(outer, Dual)
        assert outer.re == pytest.approx(12.0)   # 2xy
        assert outer.du == pytest.approx(6.0)    # d/dx 2xy = 2y


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_product_rule_property(x, y):
    f = lambda t: (t * t + 1.0) * dual.sin(t)
    expected = 2.0 * x * math.sin(x) + (x * x + 1.0) * math.cos(x)
    assert dual.derivative(f, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 3.0))
def test_chain_rule_matches_fd(x):
    f = lambda t: dual.exp(dual.sin(t)) / dual.sqrt(t)
    exact = dual.derivative(f, x)
    approx = fd_derivative(lambda t: math.exp(math.sin(t)) / math.sqrt(t), x)
    assert exact == pytest.approx(approx, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# Array evaluations against scalar calls, bit for bit


DENSITY_FNS = {
    "quartic": quartic_test_density(0.7).value,
    "polynomial": lambda v, w, u: (0.5 * v * v - 0.5 * w * w + 0.1 * v * w * u
                                   + 0.05 * u ** 4),
    "exp_sin": lambda v, w, u: (dual.exp(0.3 * u) * dual.sin(v) - 0.5 * w * w
                                + dual.cos(w * u)),
}

point_sets = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "size": st.integers(1, 40),
    "fn": st.sampled_from(sorted(DENSITY_FNS)),
})


def random_points(case):
    rng = np.random.default_rng(case["seed"])
    return tuple(rng.standard_normal(case["size"]) for _ in range(3))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=point_sets)
def test_array_gradient_equals_scalar_calls(case):
    fn, args = DENSITY_FNS[case["fn"]], random_points(case)
    scalar = [dual.gradient(fn, point) for point in zip(*args)]
    assert same_bits(np.array(dual.gradient(fn, args)).T, scalar)


@settings(max_examples=60, deadline=None)
@given(case=point_sets)
def test_array_hessian_equals_scalar_calls(case):
    fn, args = DENSITY_FNS[case["fn"]], random_points(case)
    scalar = [dual.hessian(fn, point) for point in zip(*args)]
    assert same_bits(np.moveaxis(np.array(dual.hessian(fn, args)), -1, 0), scalar)


# ---------------------------------------------------------------------------
# Stacked directions against one dual pass per direction, bit for bit


def points_and_shape(args):
    if not any(isinstance(a, np.ndarray) for a in args):
        return [float(a) for a in args], None
    points = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return points, points[0].shape


def tangent_of(y, shape):
    t = dual.value(y.du) if isinstance(y, Dual) else 0.0
    return t if shape is None else np.broadcast_to(t, shape).copy()


def gradient_per_direction(fn, args):
    """Reference gradient: one dual pass per argument."""
    args, shape = points_and_shape(args)
    base = [Dual(a, 0.0) for a in args]
    return [tangent_of(fn(*base[:k], Dual(a, 1.0), *base[k + 1:]), shape)
            for k, a in enumerate(args)]


def hessian_per_pair(fn, args):
    """Reference Hessian: one nested dual pass per pair a <= b."""
    args, shape = points_and_shape(args)
    m = len(args)
    h = [[0.0] * m for _ in range(m)]
    one, zero = Dual(1.0, 0.0), Dual(0.0, 0.0)
    for a in range(m):
        inner = [Dual(x, 1.0 if j == a else 0.0) for j, x in enumerate(args)]
        for b in range(a, m):
            y = fn(*(Dual(x, one if j == b else zero) for j, x in enumerate(inner)))
            h[a][b] = h[b][a] = tangent_of(y.du if isinstance(y, Dual) else 0.0, shape)
    return h


REFERENCE_FNS = dict(
    DENSITY_FNS,
    constant=lambda v, w, u: 2.5,
    linear=lambda v, w, u: 2.0 * v - w + 0.5 * u,
    abs=lambda v, w, u: abs(v * w) + u * abs(u - w),
)

reference_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "size": st.integers(1, 40),
    "fn": st.sampled_from(sorted(REFERENCE_FNS)),
})


@settings(max_examples=80, deadline=None)
@given(case=reference_cases)
def test_stacked_gradient_equals_one_pass_per_direction(case):
    fn, args = REFERENCE_FNS[case["fn"]], random_points(case)
    for point in (tuple(a[0] for a in args), args):
        assert same_bits(dual.gradient(fn, point), gradient_per_direction(fn, point))


@settings(max_examples=80, deadline=None)
@given(case=reference_cases)
def test_stacked_hessian_equals_one_pass_per_pair(case):
    fn, args = REFERENCE_FNS[case["fn"]], random_points(case)
    for point in (tuple(a[0] for a in args), args):
        assert same_bits(dual.hessian(fn, point), hessian_per_pair(fn, point))


def test_scalar_points_give_floats():
    fn = REFERENCE_FNS["polynomial"]
    assert {type(g) for g in dual.gradient(fn, (0.3, -0.2, 0.7))} == {float}
    assert {type(e) for row in dual.hessian(fn, (0.3, -0.2, 0.7)) for e in row} == {float}


def test_one_evaluation_per_gradient_and_hessian():
    calls = []

    def fn(v, w, u):
        calls.append(1)
        return DENSITY_FNS["exp_sin"](v, w, u)

    for point in ((0.3, -0.2, 0.7), random_points({"seed": 3, "size": 5})):
        calls.clear()
        dual.gradient(fn, point)
        assert len(calls) == 1
        calls.clear()
        dual.hessian(fn, point)
        assert len(calls) == 1


def dot_row(row, values):
    """Plain-Python dot product, the reference for :func:`dual.matvec`."""
    out = 0.0
    for a, v in zip(row, values):
        out = out + a * v
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_matvec_equals_row_by_row_dot_products(seed, rows, cols):
    rng = np.random.default_rng(seed)
    matrix, x, tangents = (rng.standard_normal(s) for s in ((rows, cols), cols, (2, cols)))
    assert same_bits(dual.matvec(matrix, x), [dot_row(r, x) for r in matrix])
    out = dual.matvec(matrix, Dual(x, tangents))
    ref = [dot_row(r, [Dual(xk, t) for xk, t in zip(x, tangents.T)]) for r in matrix]
    assert same_bits(out.re, [r.re for r in ref])
    assert same_bits(out.du.T, [r.du for r in ref])


# ---------------------------------------------------------------------------
# The one-pass Newton Jacobian against a column-by-column reference


class Pendulum(mechanics.MechLagrangian):
    """L = qdot^2/2 + cos q: derivatives through dual.partial and dual.cos."""

    name = "pendulum"

    def value(self, q, qdot):
        return 0.5 * qdot * qdot + dual.cos(q)


def pendulum_hamiltonian(q, p):
    return 0.5 * p * p - dual.cos(q)


class _Captured(Exception):
    pass


def newton_problem(call):
    """The residual function and start point that ``call`` hands to Newton."""
    seen = []

    def capture(residual_fn, x0, *args):
        seen.append((residual_fn, np.asarray(x0, dtype=float)))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanics, "_newton_dense", capture)
        with pytest.raises(_Captured):
            call()
    return seen[0]


def per_column_jacobian(residual_fn, x):
    """One residual evaluation per column, each seeding one unit tangent."""
    n = len(x)
    jac = np.empty((n, n))
    for m, e_m in enumerate(np.eye(n)):
        col = residual_fn(Dual(x, e_m))
        jac[:, m] = col.du if isinstance(col, Dual) else 0.0
    return jac


collocation_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n_nodes": st.integers(2, 10),
    "h": st.floats(0.05, 1.0),
    "q0": st.floats(-1.0, 1.0),
    "end": st.floats(-1.0, 1.0),
    "omega": st.floats(0.5, 1.5),
})


def assert_one_pass_jacobian(residual, x0, seed):
    # Off the start point, so no row is at a special value.
    x = x0 + 0.1 * np.random.default_rng(seed).standard_normal(len(x0))
    assert same_bits(mechanics._jacobian(residual, x), per_column_jacobian(residual, x))


@settings(max_examples=30, deadline=None)
@given(case=collocation_cases)
def test_one_pass_jacobian_of_the_lagrangian_collocation(case):
    for lagr in (mechanics.HarmonicOscillator(case["omega"]), Pendulum()):
        residual, x0 = newton_problem(lambda: mechanics.exact_discrete_lagrangian(
            lagr, case["q0"], case["end"], case["h"], n_nodes=case["n_nodes"]))
        assert_one_pass_jacobian(residual, x0, case["seed"])


@settings(max_examples=30, deadline=None)
@given(case=collocation_cases)
def test_one_pass_jacobian_of_the_canonical_collocation(case):
    for h_fn in (mechanics.harmonic_hamiltonian(case["omega"]), pendulum_hamiltonian):
        residual, x0 = newton_problem(lambda: mechanics.exact_discrete_hamiltonian(
            h_fn, case["q0"], case["end"], case["h"], n_nodes=case["n_nodes"]))
        assert_one_pass_jacobian(residual, x0, case["seed"])


@settings(max_examples=30, deadline=None)
@given(case=collocation_cases)
def test_one_pass_jacobian_of_the_type1_map(case):
    for lagr in (mechanics.HarmonicOscillator(case["omega"]), Pendulum()):
        ld = mechanics.midpoint_rule(lagr)(case["h"])
        residual, x0 = newton_problem(lambda: mechanics.type1_map(
            ld, mechanics.PhasePoint(case["q0"], case["end"]), case["h"]))
        assert_one_pass_jacobian(residual, x0, case["seed"])


def test_one_residual_evaluation_per_jacobian():
    lagr = Pendulum()
    for call in (
            lambda: mechanics.exact_discrete_lagrangian(lagr, 0.1, 0.4, 0.3),
            lambda: mechanics.exact_discrete_hamiltonian(pendulum_hamiltonian, 0.1, 0.4, 0.3),
            lambda: mechanics.type1_map(mechanics.midpoint_rule(lagr)(0.3),
                                        mechanics.PhasePoint(0.1, 0.4), 0.3)):
        residual, x0 = newton_problem(call)
        calls = []
        mechanics._jacobian(lambda x: calls.append(1) or residual(x), x0)
        assert calls == [1]
