"""Continuum reference solutions and boundary functionals (oracle routes).

Everything in this module is independent of the mesh machinery: exact
solutions with analytic derivatives, edge-trace data on the unit square,
characteristic-variable reconstruction for the wave equation, and the
closed-form boundary functionals of two model problems (wave on the unit
square, Dirichlet energy on the unit disc).  The discrete modules are tested
against these routes, never the other way around.

Unit-square conventions: coordinates (t, x) in [0, 1]^2; the four edge
traces are bottom(x) = u(0, x), top(x) = u(1, x), left(t) = u(t, 0),
right(t) = u(t, 1), each with its tangential derivative.

A caveat specific to the unit square: it is resonant for the wave equation.
Edge data determine a solution only up to the modes sin(k pi x) sin(k pi t),
which vanish on all four edges, and determine the characteristic functions
F, G of u = F(x - t) + G(x + t) only up to an opposite constant.  The
reconstruction returns a canonical representative: the constant split is
pinned by F(0) = u(0,0)/2 and the search space (polynomials up to degree 6
plus sin(k pi s) up to k = 6 per characteristic function) contains no other
null direction, so in-span data are recovered to round-off and out-of-span
data surface as a reported residual instead of being silently projected.
The bulk wave action is insensitive to the invisible kernel modes (their
self-action vanishes and the cross term is killed by stationarity), so the
action route below is well-defined despite the non-uniqueness.

Imports: numpy only; the quadrature oracles use fixed numpy rules, so no
subcommand loads scipy.integrate or the scipy.optimize chain behind it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg

_CORNER_TOL = 1e-9


# ---------------------------------------------------------------------------
# Exact solutions


@dataclass(frozen=True)
class WaveSolution:
    """A space-time function with analytic first derivatives."""

    name: str
    value: Callable[[float, float], float]
    dt: Callable[[float, float], float]
    dx: Callable[[float, float], float]

    def trace_square(self) -> "SquareBoundaryData":
        """Edge traces (values and tangential derivatives) on [0, 1]^2."""
        return SquareBoundaryData(
            bottom=EdgeTrace(lambda x: self.value(0.0, x), lambda x: self.dx(0.0, x)),
            top=EdgeTrace(lambda x: self.value(1.0, x), lambda x: self.dx(1.0, x)),
            left=EdgeTrace(lambda t: self.value(t, 0.0), lambda t: self.dt(t, 0.0)),
            right=EdgeTrace(lambda t: self.value(t, 1.0), lambda t: self.dt(t, 1.0)),
        )


def wave_exact_solutions(name: str) -> WaveSolution:
    """Catalogue of exact unit-speed wave solutions.

    Names: ``zero``, ``bilinear`` (t*x), ``cubic`` (t^3 + 3*t*x^2),
    ``standing:k`` (sin(k pi x) cos(k pi t)) and ``travelling:k``
    ((x - t)^k), with 1 <= k <= 6 so the d'Alembert reconstruction space
    contains them.
    """
    if name == "zero":
        return WaveSolution("zero", lambda t, x: 0.0, lambda t, x: 0.0,
                            lambda t, x: 0.0)
    if name == "bilinear":
        return WaveSolution("bilinear", lambda t, x: t * x, lambda t, x: x,
                            lambda t, x: t)
    if name == "cubic":
        return WaveSolution(
            "cubic",
            lambda t, x: t ** 3 + 3.0 * t * x * x,
            lambda t, x: 3.0 * t * t + 3.0 * x * x,
            lambda t, x: 6.0 * t * x)
    if name.startswith("standing:") or name.startswith("travelling:"):
        kind, _, num = name.partition(":")
        k = int(num)
        if not 1 <= k <= 6:
            raise ValueError(f"mode number {k} outside the supported range 1..6")
        if kind == "standing":
            w = k * math.pi
            return WaveSolution(
                name,
                lambda t, x: math.sin(w * x) * math.cos(w * t),
                lambda t, x: -w * math.sin(w * x) * math.sin(w * t),
                lambda t, x: w * math.cos(w * x) * math.cos(w * t))
        return WaveSolution(
            name,
            lambda t, x: (x - t) ** k,
            lambda t, x: -k * (x - t) ** (k - 1),
            lambda t, x: k * (x - t) ** (k - 1))
    raise ValueError(f"unknown exact solution {name!r}")


# ---------------------------------------------------------------------------
# Edge-trace data on the unit square


@dataclass(frozen=True)
class EdgeTrace:
    """One edge trace: parameter value and tangential derivative callables."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]


class SquareBoundaryData:
    """Four validated edge traces of a function on the unit square."""

    __slots__ = ("bottom", "top", "left", "right")

    def __init__(self, bottom: EdgeTrace, top: EdgeTrace, left: EdgeTrace,
                 right: EdgeTrace) -> None:
        corners = [
            ("bottom(0)", bottom.value(0.0), "left(0)", left.value(0.0)),
            ("bottom(1)", bottom.value(1.0), "right(0)", right.value(0.0)),
            ("top(0)", top.value(0.0), "left(1)", left.value(1.0)),
            ("top(1)", top.value(1.0), "right(1)", right.value(1.0)),
        ]
        for name_a, val_a, name_b, val_b in corners:
            scale = max(1.0, abs(val_a), abs(val_b))
            if abs(val_a - val_b) > _CORNER_TOL * scale:
                raise ValueError(f"corner mismatch: {name_a} = {val_a!r} but "
                                 f"{name_b} = {val_b!r}")
        self.bottom = bottom
        self.top = top
        self.left = left
        self.right = right

    def with_edge(self, which: str, trace: EdgeTrace) -> "SquareBoundaryData":
        edges = {"bottom": self.bottom, "top": self.top,
                 "left": self.left, "right": self.right}
        if which not in edges:
            raise ValueError(f"unknown edge {which!r}")
        edges[which] = trace
        return SquareBoundaryData(**edges)


def compatibility_residual(data: SquareBoundaryData) -> float:
    """Sup-norm of the characteristic compatibility combination.

    For traces of any u = F(x-t) + G(x+t),

        C(a) = left(a) + right(1-a) - bottom(a) - top(1-a)

    vanishes identically (matched parameter on all four edges).  The returned
    value is max |C| over a uniform closed grid of 401 samples (spacing
    1/400, finer than the highest catalogue mode), an oracle for whether
    edge data can come from a single wave solution.
    """
    return float(max(0.0, *(abs(data.left.value(a) + data.right.value(1.0 - a)
                                - data.bottom.value(a) - data.top.value(1.0 - a))
                            for a in np.linspace(0.0, 1.0, 401))))


# ---------------------------------------------------------------------------
# d'Alembert reconstruction


def _sin_val(s, coeffs) -> float:
    return sum(c * math.sin((k + 1) * math.pi * s) for k, c in enumerate(coeffs))


def _sin_deriv(s, coeffs) -> float:
    return sum(c * (k + 1) * math.pi * math.cos((k + 1) * math.pi * s)
               for k, c in enumerate(coeffs))


def _collocation_basis(s, shift: float, poly_degree: int,
                       n_sine: int) -> np.ndarray:
    """Basis values at the samples ``s``, one row per sample.

    Columns: the Legendre polynomials P_0..P_poly_degree at ``s - shift``,
    then sin(k pi s) for k = 1..n_sine.  Each unit polynomial is evaluated
    once on the whole array (the same Clenshaw recurrence per element as a
    scalar ``legval``); the sines stay elementwise ``math.sin``.
    """
    s = np.asarray(s, dtype=float)
    leg = npleg.legval(s - shift, np.eye(poly_degree + 1)).T
    sines = np.array([[math.sin(k * math.pi * v) for k in range(1, n_sine + 1)]
                      for v in s.tolist()]).reshape(len(s), n_sine)
    return np.hstack([leg, sines])


class DalembertSolution:
    """u(t, x) = F(x - t) + G(x + t) with explicit characteristic functions.

    F lives on [-1, 1] and G on [0, 2] (shifted Legendre + sine coefficients).
    ``fit_residual`` is the sup-norm of the edge-relation residual at the
    collocation points of the solve that produced this object.
    """

    __slots__ = ("f_poly", "f_sin", "g_poly", "g_sin", "fit_residual")

    def __init__(self, f_poly, f_sin, g_poly, g_sin, fit_residual=0.0):
        self.f_poly = np.asarray(f_poly, dtype=float)
        self.f_sin = np.asarray(f_sin, dtype=float)
        self.g_poly = np.asarray(g_poly, dtype=float)
        self.g_sin = np.asarray(g_sin, dtype=float)
        self.fit_residual = float(fit_residual)

    def f(self, s: float) -> float:
        return float(npleg.legval(s, self.f_poly) + _sin_val(s, self.f_sin))

    def f_prime(self, s: float) -> float:
        return float(npleg.legval(s, npleg.legder(self.f_poly))
                     + _sin_deriv(s, self.f_sin))

    def g(self, s: float) -> float:
        return float(npleg.legval(s - 1.0, self.g_poly) + _sin_val(s, self.g_sin))

    def g_prime(self, s: float) -> float:
        return float(npleg.legval(s - 1.0, npleg.legder(self.g_poly))
                     + _sin_deriv(s, self.g_sin))

    def value(self, t: float, x: float) -> float:
        return self.f(x - t) + self.g(x + t)

    def dt(self, t: float, x: float) -> float:
        return -self.f_prime(x - t) + self.g_prime(x + t)

    def dx(self, t: float, x: float) -> float:
        return self.f_prime(x - t) + self.g_prime(x + t)


def dalembert_solve(data: SquareBoundaryData) -> DalembertSolution:
    """Characteristic functions F, G from the four edge traces.

    Collocates the four edge relations

        F(x) + G(x)         = bottom(x),
        F(-t) + G(t)        = left(t),
        F(x - 1) + G(x + 1) = top(x),
        F(1 - t) + G(1 + t) = right(t),

    in the least-squares sense at 80 samples per edge over the fixed basis
    (Legendre polynomials to degree 6 plus sin(k pi s) for k <= 6, per
    function), with F(0) = G(0) = u(0,0)/2 pinning the constant split.
    Within this basis the relations have no other null direction, so the
    solve is well-posed; a collocation residual above 1e-8 means the data
    lie outside the representable class (or are incompatible) and raises.
    The smallest legitimate singular values of the system sit near 1e-3,
    hence the gentle lstsq cutoff rcond = 1e-13 — aggressive truncation
    would delete real components.
    """
    poly_degree = 6
    n_sine = 6
    n_collocation = 80
    nf = poly_degree + 1 + n_sine

    def basis(s, shift: float) -> np.ndarray:
        return _collocation_basis(s, shift, poly_degree, n_sine)

    def relation(f_at, g_at) -> np.ndarray:  # G is expanded about s = 1
        return np.hstack([basis(f_at, 0.0), basis(g_at, 1.0)])

    samples = np.linspace(0.0, 1.0, n_collocation)
    # The four edge relations, interleaved sample by sample.
    blocks = np.stack([relation(samples, samples),
                       relation(-samples, samples),
                       relation(samples - 1.0, samples + 1.0),
                       relation(1.0 - samples, 1.0 + samples)], axis=1)
    rhs = []
    for s in samples:
        rhs += [data.bottom.value(s), data.left.value(s), data.top.value(s),
                data.right.value(s)]
    pins = np.zeros((2, 2 * nf))
    pins[0, :nf] = basis([0.0], 0.0)
    pins[1, nf:] = basis([0.0], 1.0)
    rhs += [0.5 * data.bottom.value(0.0)] * 2

    a = np.vstack([blocks.reshape(4 * n_collocation, 2 * nf), pins])
    b = np.array(rhs)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=1e-13)
    fit_residual = float(np.max(np.abs(a @ coeffs - b)))
    if fit_residual > 1e-8:
        raise ValueError(
            "edge data admit no characteristic representation in the "
            f"reconstruction space (collocation residual {fit_residual:.3e}); "
            "the traces are incompatible or outside the supported class")
    f_coeffs, g_coeffs = coeffs[:nf], coeffs[nf:]
    deg = poly_degree + 1
    return DalembertSolution(f_coeffs[:deg], f_coeffs[deg:],
                             g_coeffs[:deg], g_coeffs[deg:],
                             fit_residual=fit_residual)


# ---------------------------------------------------------------------------
# Wave boundary Lagrangian on the unit square (two independent routes)


@dataclass(frozen=True)
class WaveSquareReport:
    """Closed-form edge integral vs bulk action of the reconstruction.

    With the traversal orientation used here the closed-form value is the
    negative of the bulk action; the two magnitudes agree for compatible
    data.  ``solution`` is the reconstruction behind the action route.
    """

    formula_value: float
    action_value: float
    solution: DalembertSolution

    @property
    def magnitude_gap(self) -> float:
        return abs(abs(self.formula_value) - abs(self.action_value))


def wave_square_boundary_lagrangian(data: SquareBoundaryData) -> WaveSquareReport:
    """Boundary Lagrangian of the unit-speed wave on the unit square.

    Route one is the data-only closed form

        integral_0^1 [bottom'(a) - left'(a)] * [right(1-a) - bottom(a)] da

    (the first factor equals F'(a) + F'(-a) by the edge relations, i.e. the
    normal-derivative combination of the two outgoing characteristics).
    Route two reconstructs F, G and evaluates the bulk action
    integral of (u_t^2 - u_x^2)/2, which reduces along characteristics to

        - integral_{-1}^{1} F'(a) [G(2 - |a|) - G(|a|)] da.

    The kernel modes invisible to the edge data contribute nothing to the
    action, so both routes are well-defined functions of the data.  Each
    integral is the 32-point Gauss-Legendre rule on [0, 1], or on [-1, 0] and
    [0, 1] to put the kink at a = 0 at an interval end: exact to polynomial
    degree 63, and at round-off for the reconstruction space (degree 6,
    sines to frequency 6 pi), far below the 1e-8 gate on the gap.
    """
    def formula_integrand(alpha):
        return ((data.bottom.derivative(alpha) - data.left.derivative(alpha))
                * (data.right.value(1.0 - alpha) - data.bottom.value(alpha)))

    solution = dalembert_solve(data)

    def action_integrand(a):
        return solution.f_prime(a) * (solution.g(2.0 - abs(a)) - solution.g(abs(a)))

    action = -(_gauss(action_integrand, -1.0, 0.0) + _gauss(action_integrand, 0.0, 1.0))
    return WaveSquareReport(formula_value=_gauss(formula_integrand, 0.0, 1.0),
                            action_value=action, solution=solution)


def _gauss(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The 32-point Gauss-Legendre rule for the scalar function f on [lo, hi]."""
    half = 0.5 * (hi - lo)
    return float(half * sum(w * f(lo + half + half * s) for s, w in zip(*_gauss_rule())))


@functools.cache  # on first use: processes that never integrate skip its eigensolve
def _gauss_rule():
    return npleg.leggauss(32)


# ---------------------------------------------------------------------------
# Dirichlet energy on the unit disc (Fourier route)


class FourierBoundaryData:
    """Real Fourier data a0 + sum_k (a_k cos k theta + b_k sin k theta)."""

    __slots__ = ("a0", "a", "b")

    def __init__(self, a0: float = 0.0, a: Sequence[float] = (),
                 b: Sequence[float] = ()) -> None:
        a = tuple(float(v) for v in a)
        b = tuple(float(v) for v in b)
        k = max(len(a), len(b))
        a += (0.0,) * (k - len(a))
        b += (0.0,) * (k - len(b))
        vals = (float(a0),) + a + b
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("Fourier data contains NaN/Inf")
        self.a0 = float(a0)
        self.a = a
        self.b = b

    def trace(self, theta: float) -> float:
        out = self.a0
        for k, (ak, bk) in enumerate(zip(self.a, self.b), start=1):
            out += ak * math.cos(k * theta) + bk * math.sin(k * theta)
        return out

    def to_json(self) -> dict:
        return {"a0": self.a0, "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json(cls, obj) -> "FourierBoundaryData":
        if not isinstance(obj, dict):
            raise ValueError(f"Fourier data must be a mapping, got {obj!r}")
        extra = set(obj) - {"a0", "a", "b"}
        if extra:
            raise ValueError(f"unknown Fourier data keys {sorted(extra)}")
        if not all(isinstance(obj.get(key, []), list) for key in ("a", "b")):
            raise ValueError(f"Fourier modes 'a' and 'b' must be lists, got {obj!r}")
        return cls(float(obj.get("a0", 0.0)), obj.get("a", ()), obj.get("b", ()))


def fourier_inner(f: FourierBoundaryData, g: FourierBoundaryData) -> float:
    """L2 inner product of two circle functions from their coefficients."""
    out = 2.0 * math.pi * f.a0 * g.a0
    for ak, bk, ck, dk in zip(f.a, f.b, g.a, g.b):
        out += math.pi * (ak * ck + bk * dk)
    return out


@dataclass(frozen=True)
class HarmonicDiscResult:
    """Harmonic extension of circle data with its boundary functionals."""

    data: FourierBoundaryData
    dtn: FourierBoundaryData
    boundary_lagrangian: float
    value: Callable[[float, float], float]


def harmonic_extension_disc(data: FourierBoundaryData) -> HarmonicDiscResult:
    """Dirichlet energy model problem on the unit disc, solved exactly.

    The harmonic extension of the Fourier data is
    a0 + sum_k r^k (a_k cos + b_k sin); the normal-derivative map sends mode
    k to k times itself (killing the mean), and the boundary Lagrangian
    (extremal Dirichlet energy, equal to half the boundary pairing of the
    trace with its normal derivative) is (pi/2) * sum_k k (a_k^2 + b_k^2).
    """
    dtn = FourierBoundaryData(
        0.0,
        tuple(k * ak for k, ak in enumerate(data.a, start=1)),
        tuple(k * bk for k, bk in enumerate(data.b, start=1)))
    # Summed in units of 2^(e-1), e the binary exponent of the largest
    # coefficient (never 0 nor inf), so that no square of a tiny coefficient
    # goes subnormal; exact otherwise.  An energy that overflows is inf.
    unit = 2.0 ** (math.frexp(max(map(abs, data.a + data.b), default=0.0))[1] - 1)
    a, b = (np.array(c, dtype=float) / unit for c in (data.a, data.b))
    energy = 0.5 * math.pi * float(sum(
        k * (ak * ak + bk * bk) for k, (ak, bk) in enumerate(zip(a, b), start=1))) * unit * unit

    def value(r: float, theta: float) -> float:
        out = data.a0
        for k, (ak, bk) in enumerate(zip(data.a, data.b), start=1):
            out += (r ** k) * (ak * math.cos(k * theta) + bk * math.sin(k * theta))
        return out

    return HarmonicDiscResult(data=data, dtn=dtn, boundary_lagrangian=energy,
                              value=value)


def dtn_pairing(f: FourierBoundaryData, g: FourierBoundaryData) -> float:
    """Boundary pairing <f, Lambda g> of circle data (Lambda = mode-k map).

    The mode map is self-adjoint, so the pairing is symmetric in its
    arguments.  Each mode is summed as k * (product of coefficients) so the
    symmetry is exact in floating point too; tests cross-check the value
    against the one-sided route (inner product of f with the
    normal-derivative data of the extension of g).
    """
    out = 0.0
    for k, (ak, bk, ck, dk) in enumerate(zip(f.a, f.b, g.a, g.b), start=1):
        out += math.pi * k * (ak * ck + bk * dk)
    return out


def _disc_bound(data: FourierBoundaryData) -> float:
    """B = pi (|a0| + sum_k (|a_k| + |b_k|)) sum_k k (|a_k| + |b_k|), a bound
    of the terms the two disc routes sum, so both agree to a few ulps of B."""
    return (math.pi * (abs(data.a0) + sum(map(abs, data.a + data.b)))
            * sum(k * (abs(a) + abs(b)) for k, (a, b) in
                  enumerate(zip(data.a, data.b), start=1)))


def disc_boundary_lagrangian_quadrature(data: FourierBoundaryData) -> float:
    """Quadrature route for the disc boundary Lagrangian: (1/2) ∮ u Λu dθ.

    The periodic trapezoid rule on N = 2K + 2 equispaced nodes, for K modes.
    The integrand is a trigonometric polynomial of degree at most 2K, which
    the rule integrates exactly, so the route differs from the closed form
    by round-off only.  ValueError, before the sum, if a bound of the
    integral overflows.
    """
    if not math.isfinite(2.0 * _disc_bound(data)):
        raise ValueError("coefficients too large: the integrand bound overflows")
    k = np.arange(1, len(data.a) + 1)
    n = 2 * len(k) + 2
    angles = np.outer(2.0 * math.pi / n * np.arange(n), k)
    # In units of a power of two over the modes, as in the closed form.  u
    # leaves a0 out: its term a0 ∮ Λu dθ is 0, since Λu has no constant mode
    # and the rule integrates its modes exactly; and a large a0 in the unit
    # left small modes subnormal.
    unit = 2.0 ** (math.frexp(max(map(abs, data.a + data.b), default=0.0))[1] - 1)
    waves, coeffs = np.hstack([np.cos(angles), np.sin(angles)]), np.array(data.a + data.b) / unit
    u, lam_u = waves @ coeffs, waves @ (np.tile(k, 2) * coeffs)
    return math.pi * float((u / n) @ lam_u) * unit * unit  # each partial sum within the bound
