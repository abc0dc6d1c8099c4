import math
import operator

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


class TestProtocol:
    """The edges of the operator protocol: operands that are not reals,
    zero and negative integer powers, every comparison, a constant function
    and the repr."""

    @pytest.mark.parametrize("op, symbol", [
        (operator.add, "+"), (operator.sub, "-"), (operator.mul, "*"),
        (operator.truediv, "/"), (operator.pow, "** or pow()")],
        ids=["add", "sub", "mul", "truediv", "pow"])
    def test_an_operand_that_is_not_real_is_a_type_error(self, op, symbol):
        foreign = object()
        for left, right, names in ((Dual(1.0, 1.0), foreign, "'Dual' and 'object'"),
                                   (foreign, Dual(1.0, 1.0), "'object' and 'Dual'")):
            with pytest.raises(TypeError) as info:
                op(left, right)
            assert str(info.value) == f"unsupported operand type(s) for {symbol}: {names}"

    @pytest.mark.parametrize("point", [1.5, np.array([0.5, -2.0, 3.0])],
                             ids=["scalar", "array"])
    def test_zero_and_negative_integer_powers(self, point):
        x = np.asarray(point)
        zero = Dual(point, 1.0) ** 0
        assert (zero.re, zero.du) == (1.0, 0.0)
        inverse = Dual(point, 1.0) ** -2
        np.testing.assert_allclose(inverse.re, x ** -2.0, rtol=1e-15)
        np.testing.assert_allclose(inverse.du, -2.0 * x ** -3.0, rtol=1e-14)
        # Nested duals: the second derivatives 0 and 6 x^-4.
        assert np.all(dual.hessian(lambda t: t ** 0, (point,))[0][0] == 0.0)
        np.testing.assert_allclose(dual.hessian(lambda t: t ** -2, (point,))[0][0],
                                   6.0 * x ** -4.0, rtol=1e-14)

    def test_comparisons_use_value(self):
        assert Dual(1.0, 5.0) <= 1.0 and not Dual(1.0, 5.0) <= 0.5
        assert Dual(2.0, -1.0) > Dual(1.0, 9.0) and not Dual(1.0, 9.0) > 1.0

    def test_partial_of_a_constant_function(self):
        assert dual.partial(lambda x, y: 3.0, 0, (1.0, 2.0)) == 0.0
        assert dual.partial(lambda x, y: 3.0, 1, (Dual(1.0, 1.0), 2.0)) == 0.0

    def test_repr(self):
        assert repr(Dual(1.5, -2.0)) == "Dual(1.5, -2.0)"
        assert repr(Dual(Dual(1.0, 2.0), 0.0)) == "Dual(Dual(1.0, 2.0), 0.0)"


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

    @staticmethod
    def _nested():
        # Inner tangents eye(3); outer tangent a dual with a scalar tangent.
        return Dual(Dual(np.arange(3.0), np.eye(3)),
                    Dual(np.arange(6.0).reshape(2, 1, 3), 0.0))

    def test_slices_act_on_every_nested_level(self):
        x = self._nested()[1:2]
        assert x.re.re.tolist() == [1.0]
        assert x.re.du.tolist() == np.eye(3)[:, 1:2].tolist()
        assert x.du.re.tolist() == [[[1.0]], [[4.0]]]
        assert x.du.du == 0.0

    def test_concatenate_joins_every_nested_level(self):
        x = self._nested()
        y = dual.concatenate((x, x))
        twice = [0, 1, 2, 0, 1, 2]
        assert y.re.re.tolist() == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]
        assert y.re.du.tolist() == np.eye(3)[:, twice].tolist()
        assert y.du.re.tolist() == np.arange(6.0).reshape(2, 1, 3)[..., twice].tolist()
        assert np.broadcast_to(y.du.du, (2, 1, 6)).tolist() == np.zeros((2, 1, 6)).tolist()
        # Scalar tangents are broadcast to their part's length.
        z = dual.concatenate((Dual(np.ones(2), 1.0), Dual(np.ones(1), 0.0)))
        assert z.du.tolist() == [1.0, 1.0, 0.0]

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
# Real operands inline against Dual(other, 0.0) arithmetic, bit for bit


def leaves(x):
    """The float or array leaves of a (nested) dual, value before tangent."""
    return leaves(x.re) + leaves(x.du) if isinstance(x, Dual) else [x]


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def coerced(op, a, b):
    """``a op b`` with every real operand of a dual promoted to
    ``Dual(other, 0.0)`` and the truncated-Taylor rules spelled out."""
    if not isinstance(a, Dual) and not isinstance(b, Dual):
        return OPERATORS[op](a, b)
    if not isinstance(a, Dual):
        # Reflected: a sum or product is computed with the dual on the left.
        return coerced(op, b, a) if op in "+*" else coerced(op, Dual(a, 0.0), b)
    b = b if isinstance(b, Dual) else Dual(b, 0.0)
    if op in "+-":
        return Dual(coerced(op, a.re, b.re), coerced(op, a.du, b.du))
    if op == "*":
        return Dual(coerced("*", a.re, b.re),
                    coerced("+", coerced("*", a.re, b.du), coerced("*", a.du, b.re)))
    q = coerced("/", a.re, b.re)
    return Dual(q, coerced("/", coerced("-", a.du, coerced("*", q, b.du)), b.re))


def outcome(fn):
    """The leaves of ``fn()`` as (type, dtype, shape, bytes), or the
    exception type it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except ArithmeticError as err:
        return type(err)
    return [(type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())
            for v in leaves(out)]


floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]))
float_vectors = st.lists(floats, min_size=3, max_size=3).map(np.array)


@st.composite
def real_operands(draw):
    kind = draw(st.sampled_from(["float", "int", "float64", "float32", "0-d", "n-d"]))
    if kind == "int":
        return draw(st.integers(-3, 3))
    if kind == "n-d":
        return draw(float_vectors)
    v = draw(floats)
    with np.errstate(all="ignore"):
        return {"float": v, "float64": np.float64(v), "float32": np.float32(v),
                "0-d": np.array(v)}[kind]


@st.composite
def dual_operands(draw):
    kind = draw(st.sampled_from(["scalar", "vector", "nested"]))
    if kind == "scalar":
        return Dual(np.float64(draw(floats)), draw(floats))
    x, inner = draw(float_vectors), np.stack([draw(float_vectors) for _ in range(2)])
    if kind == "vector":
        return Dual(x, inner)
    outer = np.stack([draw(float_vectors) for _ in range(2)])[:, None, :]
    return Dual(Dual(x, inner), Dual(outer, 0.0))


@settings(max_examples=300, deadline=None)
@given(d=dual_operands(), other=real_operands(), op=st.sampled_from("+-*/"))
def test_real_operands_match_coerced_arithmetic(d, other, op):
    fn = OPERATORS[op]
    assert outcome(lambda: fn(d, other)) == outcome(lambda: coerced(op, d, other))
    assert outcome(lambda: fn(other, d)) == outcome(lambda: coerced(op, other, d))


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


def same_bits_up_to_nan_sign(a, b):
    """Equal shapes, NaN at the same places and identical bits elsewhere.
    numpy's scalar and array loops pick different operands when two NaNs
    of opposite sign meet, so a NaN's sign is not pinned."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    for arr in (a, b):
        arr[np.isnan(arr)] = np.nan
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def vector_and_elements(kind, x, inner, outer):
    """The unknowns ``x`` as one vector for :func:`dual.matvec` and as
    elements for :func:`dot_row`: floats, duals with a scalar tangent 0.0 or
    with ``inner`` (directions on axis 0), or nested duals seeded as
    :func:`dual.hessian` seeds its arguments (inner directions on tangent
    axis 1, ``outer`` ones on axis 0)."""
    cols = range(len(x))
    if kind == "float":
        return x, list(x)
    if kind == "scalar_tangent":
        return Dual(x, 0.0), [Dual(x[k], 0.0) for k in cols]
    if kind == "tangents":
        return Dual(x, inner), [Dual(x[k], inner[:, k]) for k in cols]
    return (Dual(Dual(x, inner), Dual(outer, 0.0)),
            [Dual(Dual(x[k], inner[:, k]), Dual(outer[..., k], 0.0)) for k in cols])


MATVEC_KINDS = ["float", "scalar_tangent", "tangents", "nested"]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9), cols=st.integers(0, 9),
       kind=st.sampled_from(MATVEC_KINDS),
       values=st.sampled_from(["finite", "inf_nan", "negative_zero_rows"]))
def test_matvec_equals_row_by_row_dot_products(seed, rows, cols, kind, values):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in ((rows, cols), cols, (2, cols), (3, 1, cols))]
    matrix = arrays[0]
    if values == "inf_nan":
        specials = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0])
        for arr in arrays:
            hit = rng.random(arr.shape) < 0.25
            arr[hit] = rng.choice(specials, hit.sum())
    elif values == "negative_zero_rows":
        # Rows of +0.0 against negative unknowns and tangents: every product,
        # value and tangent, is -0.0, and summed from 0.0 such a row is +0.0.
        zero_rows = rng.random(rows) < 0.5
        matrix[zero_rows] = 0.0
        for arr in arrays[1:]:
            np.negative(np.abs(arr), out=arr)
    x, elements = vector_and_elements(kind, *arrays[1:])
    with np.errstate(all="ignore"):
        out = dual.matvec(matrix, x)
        ref = [dot_row(r, elements) for r in matrix]
    if cols == 0:  # the float 0.0 that each row's empty sum gives
        assert type(out) is float and out.hex() == "0x0.0p+0"
        assert {(type(r), r.hex()) for r in ref} == {(float, "0x0.0p+0")}
        return
    ref_leaves = [np.stack(parts, axis=-1) for parts in zip(*map(leaves, ref))]
    assert len(leaves(out)) == len(ref_leaves)
    for got, want in zip(leaves(out), ref_leaves):
        assert same_bits_up_to_nan_sign(got, want)
        if values == "negative_zero_rows":
            assert not np.signbit(got[..., zero_rows]).any()


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
    assert same_bits(mechanics._jacobian(residual, x)[1], per_column_jacobian(residual, x))


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


def dense_problems(case):
    """Calls that hand Newton the Lagrangian collocation, canonical
    collocation and type1_map residuals of the harmonic oscillator, the free
    particle and the pendulum."""
    lagrangians = (mechanics.HarmonicOscillator(case["omega"]), mechanics.FreeParticle(),
                   Pendulum())
    hamiltonians = (mechanics.harmonic_hamiltonian(case["omega"]),
                    mechanics.free_particle_hamiltonian(), pendulum_hamiltonian)
    args = (case["q0"], case["end"], case["h"])
    for lagr in lagrangians:
        yield lambda: mechanics.exact_discrete_lagrangian(lagr, *args,
                                                          n_nodes=case["n_nodes"])
        yield lambda: mechanics.type1_map(mechanics.midpoint_rule(lagr)(case["h"]),
                                          mechanics.PhasePoint(case["q0"], case["end"]),
                                          case["h"])
    for h_fn in hamiltonians:
        yield lambda: mechanics.exact_discrete_hamiltonian(h_fn, *args,
                                                           n_nodes=case["n_nodes"])


@settings(max_examples=30, deadline=None)
@given(case=collocation_cases)
def test_dual_value_is_the_float_residual(case):
    # The dense lane takes its start residual from the start Jacobian's
    # dual evaluation, so its value part must be the float residual.
    for call in dense_problems(case):
        residual, x0 = newton_problem(call)
        moved = x0 + 0.1 * np.random.default_rng(case["seed"]).standard_normal(len(x0))
        for x in (x0, moved):
            expected = np.atleast_1d(residual(x))
            assert same_bits(np.atleast_1d(dual.value(residual(Dual(x, np.eye(len(x)))))),
                             expected)
            assert same_bits(mechanics._jacobian(residual, x)[0], expected)


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
