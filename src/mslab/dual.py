"""Forward-mode dual numbers for exact first and second derivatives.

A :class:`Dual` carries a value and a tangent.  Arithmetic follows the usual
truncated-Taylor rules, and because the components may themselves be duals,
nesting two levels gives exact second derivatives (the tangent of the outer
tangent).  Values and tangents may be floats or numpy arrays: one evaluation
on arrays of points differentiates every point at once.  Tangent arrays
carry many directions on leading axes, in front of the value's axes:
``Dual(x, eye(n))`` seeds every unit direction of a vector x, and
:func:`gradient` and :func:`hessian` stack all directions into one
evaluation (nested: inner directions on tangent axis 1, outer on axis 0).
Every entry sees the floating-point operations of a one-direction scalar
call, so the two agree bit for bit.  Functions differentiated on arrays may
use arithmetic and the functions of this module, but no Python ``if`` on
values.  ``x[i:j]`` slices the trailing (element) axis of a vector's value
and tangents; with :func:`matvec` (one broadcast product, then one running
sum from 0.0 per row) and :func:`concatenate` a residual on n unknowns
yields its Jacobian from one evaluation.

Implemented: +, -, *, /, abs, powers (integer exponents by repeated
multiplication, real exponents by the power rule, ``c ** Dual``) and
sin/cos/exp/log/sqrt, evaluated through numpy for floats and arrays alike.
Plain operands are Python or numpy reals and arrays, used inline with the
operations of ``Dual(other, 0.0)`` (``re * 0.0 + du * other``, ``du + 0.0``,
...) but no temporary dual.  numpy ufuncs do not accept duals:
``np.cosh(Dual(...))`` raises TypeError, since ``__array_ufunc__ = None``
(which also makes ``ndarray op Dual`` use the dual's reflected operator).
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

# Concrete types first: they are matched without the slower ABC check.
_SCALARS = (float, int, np.ndarray, numbers.Real)


class Dual:
    """Truncated first-order Taylor number ``re + eps * du`` with eps**2 = 0."""

    __slots__ = ("re", "du")
    __array_ufunc__ = None

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __getitem__(self, key):
        """Slice the trailing (element) axis of the value and tangent arrays,
        at every nested level; a scalar tangent is kept."""
        re, du = self.re, self.du
        return Dual(re[key] if isinstance(re, Dual) else re[..., key],
                    du[key] if isinstance(du, Dual) else du[..., key] if np.ndim(du) else du)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        if isinstance(other, _SCALARS):
            return Dual(self.re + other, self.du + 0.0)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __abs__(self):
        sign = np.sign(value(self))  # derivative 0 at 0
        return Dual(abs(self.re), self.du * sign)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        if isinstance(other, _SCALARS):
            return Dual(self.re - other, self.du - 0.0)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Dual(other - self.re, 0.0 - self.du)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        if isinstance(other, _SCALARS):
            return Dual(self.re * other, self.re * 0.0 + self.du * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.re / other.re
            return Dual(q, (self.du - q * other.du) / other.re)
        if isinstance(other, _SCALARS):
            q = self.re / other
            return Dual(q, (self.du - q * 0.0) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            q = other / self.re
            return Dual(q, (0.0 - q * self.du) / self.re)
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, (int, numbers.Integral)):
            if exponent == 0:
                return Dual(1.0, 0.0)
            if exponent < 0:
                return 1.0 / (self ** (-exponent))
            result = self
            for _ in range(exponent - 1):
                result = result * self
            return result
        if isinstance(exponent, (float, numbers.Real)):
            return Dual(_pow(self.re, exponent),
                        exponent * _pow(self.re, exponent - 1.0) * self.du)
        return NotImplemented

    def __rpow__(self, base):
        if not isinstance(base, _SCALARS):
            return NotImplemented
        out = _pow(base, self.re)
        return Dual(out, out * log(base) * self.du)

    # Ordering acts on the value part (used by line searches and tolerances).

    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __float__(self):
        return value(self)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.du)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -(sin(x.re)) * x.du)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.du)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.re), x.du / x.re)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, 0.5 * x.du / s)
    return np.sqrt(x)


def _pow(base, exponent):
    if isinstance(base, Dual) or isinstance(exponent, Dual):
        return base ** exponent
    return np.power(base, exponent)


def value(x):
    """Strip all tangent parts, returning the underlying float or array."""
    while isinstance(x, Dual):
        x = x.re
    return x if isinstance(x, np.ndarray) else float(x)


def _points(args) -> tuple:
    """(floats, None), or (arrays, shape) broadcast if any is an array (and
    their shapes differ)."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return [float(a) for a in args], None
    points = [np.asarray(a, dtype=float) for a in args]
    if any(p.shape != points[0].shape for p in points):
        points = np.broadcast_arrays(*points)
    return points, points[0].shape


def _tangent(y, lead=(), shape=None):
    """y's tangent on ``lead + shape``: (lists of) floats at scalar points;
    broadcast only if it does not have that shape already."""
    t = value(y.du) if isinstance(y, Dual) else 0.0
    full = lead + (shape or ())
    t = np.asarray(t) if np.shape(t) == full else np.broadcast_to(t, full)
    return t.tolist() if shape is None else t.copy()


@lru_cache(maxsize=32)
def _unit_tangents(m: int, ndim: int) -> np.ndarray:
    """m unit directions on a leading axis, broadcasting against ``ndim``
    point axes (read-only: every evaluation shares it)."""
    units = np.eye(m).reshape((m, m) + (1,) * ndim)
    units.setflags(write=False)
    return units


def derivative(fn, x):
    """d fn / dx at a scalar point by one dual evaluation."""
    return _tangent(fn(Dual(float(x), 1.0)))


def gradient(fn, args):
    """Gradient of ``fn(*args)`` from one dual evaluation, the unit tangents
    stacked on a leading axis: floats, or arrays of the arguments' broadcast
    shape if any argument is an array."""
    args, shape = _points(args)
    y = fn(*map(Dual, args, _unit_tangents(len(args), len(shape or ()))))
    return list(_tangent(y, (len(args),), shape))


def matvec(matrix, x):
    """``matrix @ x`` for floats or duals, summed column by column from 0.0 as
    a plain-Python dot product of each row would be (BLAS may reorder): one
    broadcast product forms every ``matrix[:, k] * x[k]`` (for a dual, as
    ``x[k] * matrix[:, k]``), then one running sum adds each row's terms."""
    if not matrix.shape[1]:
        return 0.0
    columns = _leafwise(lambda a: a[..., None, :] if np.ndim(a) else a, x)
    terms = columns * matrix if isinstance(x, Dual) else matrix * columns
    # 0.0 + s turns a -0.0 sum into +0.0, as starting the sum from 0.0 does.
    return _leafwise(lambda t: 0.0 + t.cumsum(axis=-1)[..., -1], terms)


def _leafwise(fn, x):
    """``fn`` applied to every float or array leaf of a (nested) dual."""
    return Dual(_leafwise(fn, x.re), _leafwise(fn, x.du)) if isinstance(x, Dual) else fn(x)


def concatenate(parts):
    """Join vectors, all floats or all duals, along the trailing axis, at
    every nested level; a scalar tangent is broadcast to its part's length."""
    if not isinstance(parts[0], Dual):
        return np.concatenate(parts, axis=-1)
    return Dual(concatenate([p.re for p in parts]),
                concatenate([p.du if isinstance(p.du, Dual) or np.ndim(p.du)
                             else np.broadcast_to(p.du, np.shape(value(p))) for p in parts]))


def partial(fn, index, args):
    """Partial derivative of ``fn`` w.r.t. ``args[index]``, level-preserving.

    Unlike :func:`gradient` the arguments may themselves be duals; the
    result then carries their tangent structure, so this composes inside
    outer dual computations (e.g. building exact Newton Jacobians of
    residuals that contain first derivatives).
    """
    seeded = []
    for j, a in enumerate(args):
        if isinstance(a, Dual):
            tang = a * 0.0
            if j == index:
                tang = tang + 1.0
        else:
            tang = 1.0 if j == index else 0.0
        seeded.append(Dual(a, tang))
    out = fn(*seeded)
    if isinstance(out, Dual):
        return out.du
    return 0.0


def hessian(fn, args):
    """Dense symmetric Hessian of ``fn(*args)`` from one nested dual
    evaluation (lists of lists; entries are arrays for array arguments, as
    in :func:`gradient`)."""
    args, shape = _points(args)
    m = len(args)
    units = _unit_tangents(m, len(shape or ()))
    # Inner directions on tangent axis 1, outer ones on axis 0.
    y = fn(*(Dual(Dual(a, u), Dual(u[:, None], 0.0)) for a, u in zip(args, units)))
    t = _tangent(y.du if isinstance(y, Dual) else 0.0, (m, m), shape)
    # Entry (outer b, inner a) with b >= a sees the operations of a pass
    # seeding only a inside and b outside; H[a][b] and H[b][a] both read it.
    return [[t[max(a, b)][min(a, b)] for b in range(m)] for a in range(m)]
