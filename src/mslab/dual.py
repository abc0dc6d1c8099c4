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
and tangents; with :func:`matvec` and :func:`concatenate` a residual on n
unknowns yields its Jacobian from one evaluation.

Implemented: +, -, *, /, abs, powers (integer exponents by repeated
multiplication, real exponents by the power rule, ``c ** Dual``) and
sin/cos/exp/log/sqrt, evaluated through numpy for floats and arrays alike;
plain operands are Python or numpy reals and arrays.  numpy ufuncs do not
accept duals: ``np.cosh(Dual(...))`` raises TypeError, since
``__array_ufunc__ = None`` (which also makes ``ndarray op Dual`` use the
dual's reflected operator).
"""

from __future__ import annotations

import numbers

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

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, _SCALARS):
            return Dual(other, 0.0)
        return None

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __getitem__(self, key):
        """Slice the trailing (element) axis of the value and tangent arrays."""
        return Dual(self.re[..., key], self.du[..., key] if np.ndim(self.du) else self.du)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re + o.re, self.du + o.du)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __abs__(self):
        sign = np.sign(value(self))  # derivative 0 at 0
        return Dual(abs(self.re), self.du * sign)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re - o.re, self.du - o.du)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(o.re - self.re, o.du - self.du)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re * o.re, self.re * o.du + self.du * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self.re / o.re
        return Dual(q, (self.du - q * o.du) / o.re)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

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
    """(floats, None), or (arrays, shape) broadcast if any is an array."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return [float(a) for a in args], None
    points = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return points, points[0].shape


def _tangent(y, lead=(), shape=None):
    """y's tangent on ``lead + shape``: (lists of) floats at scalar points."""
    t = np.broadcast_to(value(y.du) if isinstance(y, Dual) else 0.0, lead + (shape or ()))
    return t.tolist() if shape is None else t.copy()


def _unit_tangents(m: int, shape) -> np.ndarray:
    """m unit directions on a leading axis, broadcasting against ``shape``."""
    return np.eye(m).reshape((m, m) + (1,) * len(shape or ()))


def derivative(fn, x):
    """d fn / dx at a scalar point by one dual evaluation."""
    return _tangent(fn(Dual(float(x), 1.0)))


def gradient(fn, args):
    """Gradient of ``fn(*args)`` from one dual evaluation, the unit tangents
    stacked on a leading axis: floats, or arrays of the arguments' broadcast
    shape if any argument is an array."""
    args, shape = _points(args)
    y = fn(*map(Dual, args, _unit_tangents(len(args), shape)))
    return list(_tangent(y, (len(args),), shape))


def matvec(matrix, x):
    """``matrix @ x`` for floats or duals, summed column by column from 0.0 as
    a plain-Python dot product of each row would be (BLAS may reorder)."""
    out = 0.0
    for k in range(matrix.shape[1]):
        out = out + matrix[:, k] * x[k:k + 1]
    return out


def concatenate(parts):
    """Join vectors, all floats or all duals, along the trailing axis."""
    if not isinstance(parts[0], Dual):
        return np.concatenate(parts, axis=-1)
    return Dual(np.concatenate([p.re for p in parts], axis=-1),
                np.concatenate([p.du for p in parts], axis=-1))


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
    units = _unit_tangents(m, shape)
    # Inner directions on tangent axis 1, outer ones on axis 0.
    y = fn(*(Dual(Dual(a, u), Dual(u[:, None], 0.0)) for a, u in zip(args, units)))
    t = _tangent(y.du if isinstance(y, Dual) else 0.0, (m, m), shape)
    # Entry (outer b, inner a) with b >= a sees the operations of a pass
    # seeding only a inside and b outside; H[a][b] and H[b][a] both read it.
    return [[t[max(a, b)][min(a, b)] for b in range(m)] for a in range(m)]
