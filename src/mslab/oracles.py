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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.integrate import quad

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


def compatibility_residual(data: SquareBoundaryData, n_samples: int = 401) -> float:
    """Sup-norm of the characteristic compatibility combination.

    For traces of any u = F(x-t) + G(x+t),

        C(a) = left(a) + right(1-a) - bottom(a) - top(1-a)

    vanishes identically (matched parameter on all four edges).  The returned
    value is max |C| over a uniform closed grid, an oracle for whether edge
    data can come from a single wave solution.
    """
    if n_samples < 2:
        raise ValueError("need at least the two endpoint samples")
    return float(max(0.0, *(abs(data.left.value(a) + data.right.value(1.0 - a)
                                - data.bottom.value(a) - data.top.value(1.0 - a))
                            for a in np.linspace(0.0, 1.0, n_samples))))


# ---------------------------------------------------------------------------
# d'Alembert reconstruction


def _sin_val(s, coeffs) -> float:
    return sum(c * math.sin((k + 1) * math.pi * s) for k, c in enumerate(coeffs))


def _sin_deriv(s, coeffs) -> float:
    return sum(c * (k + 1) * math.pi * math.cos((k + 1) * math.pi * s)
               for k, c in enumerate(coeffs))


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


def dalembert_solve(data: SquareBoundaryData, *, poly_degree: int = 6,
                    n_sine: int = 6, n_collocation: int = 80,
                    residual_tol: float = 1e-8,
                    lstsq_rcond: float = 1e-13) -> DalembertSolution:
    """Characteristic functions F, G from the four edge traces.

    Collocates the four edge relations

        F(x) + G(x)         = bottom(x),
        F(-t) + G(t)        = left(t),
        F(x - 1) + G(x + 1) = top(x),
        F(1 - t) + G(1 + t) = right(t),

    in the least-squares sense over the fixed basis (Legendre polynomials to
    ``poly_degree`` plus sin(k pi s) for k <= ``n_sine``, per function), with
    F(0) = G(0) = u(0,0)/2 pinning the constant split.  Within this basis the
    relations have no other null direction, so the solve is well-posed; a
    collocation residual above ``residual_tol`` means the data lie outside
    the representable class (or are incompatible) and raises.  The smallest
    legitimate singular values of the system sit near 1e-3, hence the gentle
    ``lstsq_rcond`` — aggressive truncation would delete real components.
    """
    if poly_degree < 0 or n_sine < 0 or n_collocation < 4:
        raise ValueError("degenerate basis/collocation sizes")
    nf = poly_degree + 1 + n_sine

    def f_row(s: float, shift: float = 0.0) -> list:
        leg = [float(npleg.legval(s - shift, unit))
               for unit in np.eye(poly_degree + 1)]
        return leg + [math.sin(k * math.pi * s) for k in range(1, n_sine + 1)]

    def g_row(s: float) -> list:  # G is expanded about s = 1
        return f_row(s, 1.0)

    rows, rhs = [], []
    samples = np.linspace(0.0, 1.0, n_collocation)
    for s in samples:
        rows.append(f_row(s) + g_row(s))
        rhs.append(data.bottom.value(s))
        rows.append(f_row(-s) + g_row(s))
        rhs.append(data.left.value(s))
        rows.append(f_row(s - 1.0) + g_row(s + 1.0))
        rhs.append(data.top.value(s))
        rows.append(f_row(1.0 - s) + g_row(1.0 + s))
        rhs.append(data.right.value(s))
    u00 = data.bottom.value(0.0)
    rows.append(f_row(0.0) + [0.0] * nf)
    rhs.append(0.5 * u00)
    rows.append([0.0] * nf + g_row(0.0))
    rhs.append(0.5 * u00)

    a = np.array(rows)
    b = np.array(rhs)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=lstsq_rcond)
    fit_residual = float(np.max(np.abs(a @ coeffs - b)))
    if fit_residual > residual_tol:
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


def wave_square_boundary_lagrangian(data: SquareBoundaryData, *,
                                    quad_tol: float = 1e-12) -> WaveSquareReport:
    """Boundary Lagrangian of the unit-speed wave on the unit square.

    Route one is the data-only closed form

        integral_0^1 [bottom'(a) - left'(a)] * [right(1-a) - bottom(a)] da

    (the first factor equals F'(a) + F'(-a) by the edge relations, i.e. the
    normal-derivative combination of the two outgoing characteristics).
    Route two reconstructs F, G and evaluates the bulk action
    integral of (u_t^2 - u_x^2)/2, which reduces along characteristics to

        - integral_{-1}^{1} F'(a) [G(2 - |a|) - G(|a|)] da.

    The kernel modes invisible to the edge data contribute nothing to the
    action, so both routes are well-defined functions of the data.
    """
    def formula_integrand(alpha):
        return ((data.bottom.derivative(alpha) - data.left.derivative(alpha))
                * (data.right.value(1.0 - alpha) - data.bottom.value(alpha)))

    formula, _ = quad(formula_integrand, 0.0, 1.0, epsabs=quad_tol,
                      epsrel=1e-12, limit=200)

    solution = dalembert_solve(data)

    def action_integrand(a):
        return solution.f_prime(a) * (solution.g(2.0 - abs(a)) - solution.g(abs(a)))

    neg, _ = quad(action_integrand, -1.0, 0.0, epsabs=quad_tol, epsrel=1e-12,
                  limit=200)
    pos, _ = quad(action_integrand, 0.0, 1.0, epsabs=quad_tol, epsrel=1e-12,
                  limit=200)
    action = -(neg + pos)
    return WaveSquareReport(formula_value=float(formula),
                            action_value=float(action), solution=solution)


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
    energy = 0.5 * math.pi * sum(
        k * (ak * ak + bk * bk)
        for k, (ak, bk) in enumerate(zip(data.a, data.b), start=1))

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


def disc_boundary_lagrangian_quadrature(data: FourierBoundaryData,
                                        tol: float = 1e-11) -> float:
    """Quadrature route for the disc boundary Lagrangian: (1/2) ∮ u Λu dθ.

    ValueError, before ``quad`` runs, if a bound of the integral overflows.
    """
    if not math.isfinite(2.0 * math.pi * (abs(data.a0) + sum(map(abs, data.a + data.b)))
                         * sum(k * (abs(a) + abs(b)) for k, (a, b) in
                               enumerate(zip(data.a, data.b), start=1))):
        raise ValueError("coefficients too large: the integrand bound overflows")
    ext = harmonic_extension_disc(data)

    def integrand(theta):
        return data.trace(theta) * ext.dtn.trace(theta)

    val, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=tol, epsrel=1e-12,
                  limit=200)
    return 0.5 * val
