"""Exact discrete Lagrangians and Hamiltonians of one-degree-of-freedom systems.

This is the mechanics (0+1 dimensional) limit of the boundary-functional
machinery: the "region" is a time interval [0, h], the boundary data are the
endpoint values (or one value and one endpoint momentum), and the generating
functions are

    Ld(q0, q1; h)   extremal action with q(0) = q0, q(h) = q1,
    Hd(q0, p1; h)   p(h) q(h) - integral(p qdot - H) on the extremal with
                    q(0) = q0, p(h) = p1,

related by Hd(q0, p1) = p1 q1 - Ld(q0, q1) on matched data.  Extremals are
computed by Gauss-Lobatto collocation (8 nodes by default, quadrature on the
same nodes, the Newton core of :mod:`mslab.delsolve` to its round-off
floor, or to 1e-12 after a step, with a dense Jacobian from one dual
evaluation of the vector residual, whose value part at the start is the
start residual: a one-step solve makes one dual and one float evaluation),
which is spectrally exact for the polynomial and trigonometric model
problems used in tests.  The residuals call a Lagrangian's ``value``,
``d_q`` and ``d_qdot`` (or a Hamiltonian) once on arrays of node values.

The endpoint derivatives of Ld are the one-dimensional normal momenta
(d1 Ld = -p(0), d2 Ld = +p(h): outward time orientation at t = 0), mirroring
the slot-sum boundary momenta of the field modules.  Approximate one-step
discrete Lagrangians (midpoint, rectangle) can be compared against the exact
objects with :func:`variational_order_check`, and any phase-space map can be
probed for area preservation with :func:`symplecticity_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg

from . import dual
from .delsolve import SolverError, _newton, _roundoff_floor


class PhasePoint(NamedTuple):
    q: float
    p: float


# ---------------------------------------------------------------------------
# Lagrangians


class MechLagrangian:
    """Smooth L(q, qdot); derivatives default to dual-number evaluation.
    ``value``, ``d_q`` and ``d_qdot`` run on arrays of node values (nested
    duals included): arithmetic and ``dual.*`` only, no Python ``if`` on values."""

    name = "mechanical"
    conjugate_time = math.inf  # upper bound on h for a unique extremal

    def value(self, q, qdot):
        raise NotImplementedError

    def d_q(self, q, qdot):
        return dual.partial(self.value, 0, (q, qdot))

    def d_qdot(self, q, qdot):
        return dual.partial(self.value, 1, (q, qdot))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FreeParticle(MechLagrangian):
    """L = qdot^2 / 2."""

    name = "free_particle"

    def value(self, q, qdot):
        return 0.5 * qdot * qdot

    def d_q(self, q, qdot):
        return 0.0 * q

    def d_qdot(self, q, qdot):
        return qdot

    def exact_ld(self, q0, q1, h):
        return (q1 - q0) ** 2 / (2.0 * h)

    def exact_flow(self, z: PhasePoint, h: float) -> PhasePoint:
        return PhasePoint(z.q + h * z.p, z.p)


class HarmonicOscillator(MechLagrangian):
    """L = qdot^2 / 2 - omega^2 q^2 / 2 (unit mass)."""

    def __init__(self, omega: float = 1.0):
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {omega!r}")
        self.omega = float(omega)
        self.name = f"harmonic[{self.omega}]"
        self.conjugate_time = math.pi / self.omega

    def value(self, q, qdot):
        return 0.5 * qdot * qdot - 0.5 * self.omega ** 2 * q * q

    def d_q(self, q, qdot):
        return -self.omega ** 2 * q

    def d_qdot(self, q, qdot):
        return qdot

    def exact_ld(self, q0, q1, h):
        wh = self.omega * h
        if not 0.0 < wh < math.pi:
            raise ValueError(f"h*omega = {wh:.6g} outside (0, pi): extremal "
                             "not unique (conjugate point)")
        return (self.omega / (2.0 * math.sin(wh))) * (
            (q0 * q0 + q1 * q1) * math.cos(wh) - 2.0 * q0 * q1)

    def exact_flow(self, z: PhasePoint, h: float) -> PhasePoint:
        c, s = math.cos(self.omega * h), math.sin(self.omega * h)
        return PhasePoint(z.q * c + z.p * s / self.omega,
                          -z.q * self.omega * s + z.p * c)


def free_particle_hamiltonian() -> Callable:
    """H(q, p) = p^2 / 2 (dual-friendly callable)."""

    def h_fn(q, p):
        return 0.5 * p * p

    h_fn.name = "free_particle"
    return h_fn


def harmonic_hamiltonian(omega: float = 1.0) -> Callable:
    """H(q, p) = p^2 / 2 + omega^2 q^2 / 2 (dual-friendly callable)."""
    w2 = float(omega) ** 2

    def h_fn(q, p):
        return 0.5 * p * p + 0.5 * w2 * q * q

    h_fn.name = f"harmonic[{omega}]"
    return h_fn


# ---------------------------------------------------------------------------
# Gauss-Lobatto collocation machinery


@lru_cache(maxsize=32)
def lobatto(n_nodes: int):
    """Gauss-Lobatto nodes and weights on [-1, 1] (read-only arrays)."""
    if n_nodes < 2:
        raise ValueError("need at least the two endpoint nodes")
    coeff = np.zeros(n_nodes)
    coeff[-1] = 1.0  # Legendre P_{n-1}
    interior = npleg.legroots(npleg.legder(coeff))
    nodes = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    pvals = npleg.legval(nodes, coeff)
    weights = 2.0 / (n_nodes * (n_nodes - 1) * pvals ** 2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=32)
def _diff_matrix_unit(n_nodes: int):
    """Spectral differentiation matrix on the Lobatto nodes of [-1, 1]."""
    nodes, _ = lobatto(n_nodes)
    n = len(nodes)
    c = np.array([np.prod(nodes[j] - np.delete(nodes, j)) for j in range(n)])
    gaps = nodes[:, None] - nodes[None, :] + np.eye(n)  # no 0/0 on the diagonal
    d = (c[:, None] / c[None, :]) / gaps * (1.0 - np.eye(n))
    d[np.diag_indices(n)] = -d.sum(axis=1)
    d.setflags(write=False)
    return d


def _jacobian(residual_fn, x: np.ndarray):
    """(F(x), dense Jacobian) from one residual evaluation on every unit
    tangent stacked, ``Dual(x, eye(n))``: row i of ``du.T`` is the gradient
    of F_i, and the value part is F(x) as a float evaluation gives it, bit
    for bit.  One unknown is seeded with the scalar tangent 1.0 and no
    direction axis, so its (nested) duals carry float tangents rather than
    length-1 arrays.  Its value ``x[0]`` is a 0-d array, so the operations
    that read it run as numpy array operations: slower than numpy scalars,
    but a floating-point error in them reads as the array operation's (for
    example ``overflow encountered in add``, as the CLI's error line shows
    it), where a scalar's would read ``scalar add``."""
    n = len(x)
    # eye(n), shared read-only by every Jacobian of n unknowns.
    res = residual_fn(dual.Dual(x, dual._unit_tangents(n, 0) if n > 1 else 1.0))
    jac = np.empty((n, n))
    jac.T[...] = getattr(res, "du", 0.0)  # broadcasts a scalar tangent
    return np.atleast_1d(dual.value(res)), jac


def _dense_floor(jac):
    """``floor(x)``: :func:`~mslab.delsolve._roundoff_floor` of ``jac`` at an
    iterate x, bit for bit, with the unit per ||x||_inf (64 ulps of
    ||jac||_inf, the first factors of the product) taken once, here, when
    the factor is made."""
    unit = _roundoff_floor(jac)
    return lambda x: unit * float(np.abs(x).max())


def _newton_dense(residual_fn, x0, context: str) -> np.ndarray:
    """:func:`~mslab.delsolve._newton`, with its stopping rule, on a vector
    residual (a scalar for one unknown), with the dual-number Jacobian taken
    and solved densely at every iterate (Newton's method).

    The start's Jacobian is taken first, under the caller's floating-point
    state, and its value part is the start residual, so the start costs one
    dual evaluation and no float one.  Each Jacobian's round-off floor per
    unit of ||x||_inf is taken once, when it is factored
    (:func:`_dense_floor`), and scaled at each iterate tested on it.  If
    the start's evaluation raises (a numpy warning counts when warnings are
    errors), the start is evaluated as a trial iterate is, silenced, to
    decide the error: a non-finite start residual is a
    :class:`SolverError`; a finite one leaves the Jacobian, taken again, to
    raise its own error."""
    x0, start = np.array(x0, dtype=float), []
    try:
        f0, jac = _jacobian(residual_fn, x0)
    except (ArithmeticError, ValueError, RuntimeWarning):
        f0 = None
    else:
        start.append(jac)

    def factor(x, context):
        jac = start.pop() if start else _jacobian(residual_fn, x)[1]

        def solve(b):
            try:
                return np.linalg.solve(jac, b)
            except np.linalg.LinAlgError as err:
                raise SolverError(f"{context}: singular Jacobian ({err})") from None

        # Accept an iterate at the round-off floor even when the absolute
        # tolerance is tighter than the floor.
        return SimpleNamespace(solve=solve), None, _dense_floor(jac)

    return _newton(lambda x: np.atleast_1d(residual_fn(x)), factor, x0, context,
                   theta_max=0.0, f0=f0)[0]


def _check_step(lagr: MechLagrangian, h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if h >= lagr.conjugate_time:
        raise ValueError(f"step h = {h:.6g} reaches the conjugate time "
                         f"{lagr.conjugate_time:.6g} of {lagr.name}; the "
                         "extremal is not unique")


def _collocation_extremal(lagr: MechLagrangian, q0: float, q1: float, h: float,
                          n_nodes: int):
    """Solve the endpoint problem; returns (weights*h/2, qs, qdots)."""
    _check_step(lagr, h)
    nodes, weights = lobatto(n_nodes)
    d_unit = _diff_matrix_unit(n_nodes)
    d = d_unit * (2.0 / h)
    n = n_nodes

    def residual(qs):
        qdots = dual.matvec(d, qs)
        # Interior rows are scaled by h/2 so every residual entry is O(1);
        # otherwise the 1/h in the differentiation matrix puts the round-off
        # floor above an absolute tolerance at small steps.
        interior = (dual.matvec(d_unit[1:-1], lagr.d_qdot(qs, qdots))
                    - (h / 2.0) * lagr.d_q(qs[1:-1], qdots[1:-1]))
        return dual.concatenate((qs[:1] - q0, interior, qs[n - 1:] - q1))

    x0 = q0 + (q1 - q0) * (nodes + 1.0) / 2.0
    qs = _newton_dense(residual, x0, "collocation")
    qdots = d @ qs
    return weights * (h / 2.0), qs, qdots


def exact_discrete_lagrangian(lagr: MechLagrangian, q0: float, q1: float,
                              h: float, *, n_nodes: int = 8) -> float:
    """Extremal action over [0, h] with endpoint values (q0, q1)."""
    wts, qs, qdots = _collocation_extremal(lagr, q0, q1, h, n_nodes)
    return float(sum(w * lagr.value(q, qd) for w, q, qd in zip(wts, qs, qdots)))


def endpoint_momenta(lagr: MechLagrangian, q0: float, q1: float, h: float,
                     *, n_nodes: int = 8) -> tuple:
    """Outward endpoint momenta (-p(0), +p(h)) of the extremal.

    These are the two partial derivatives of the exact discrete Lagrangian —
    the mechanics limit of the slot-sum boundary momenta.
    """
    _, qs, qdots = _collocation_extremal(lagr, q0, q1, h, n_nodes)
    return (-float(lagr.d_qdot(qs[0], qdots[0])), float(lagr.d_qdot(qs[-1], qdots[-1])))


def exact_discrete_hamiltonian(h_fn: Callable, q0: float, p1: float, h: float,
                               *, n_nodes: int = 8) -> float:
    """Type-II generating value with q(0) = q0 and p(h) = p1.

    Collocates the canonical equations (value equation at all nodes but the
    first, momentum equation at all nodes but the last, plus the two endpoint
    conditions) and evaluates p(h) q(h) - integral(p qdot - H).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    nodes, weights = lobatto(n_nodes)
    d_unit = _diff_matrix_unit(n_nodes)
    n = n_nodes

    def residual(z):
        qs, ps = z[:n], z[n:]
        # Rows scaled by h/2 for an O(1) round-off floor, as in the
        # Lagrangian collocation above.
        return dual.concatenate((
            qs[:1] - q0,
            dual.matvec(d_unit[1:], qs)
            - (h / 2.0) * dual.partial(h_fn, 1, (qs[1:], ps[1:])),
            dual.matvec(d_unit[:-1], ps)
            + (h / 2.0) * dual.partial(h_fn, 0, (qs[:-1], ps[:-1])),
            ps[n - 1:] - p1))

    slope0 = dual.partial(h_fn, 1, (float(q0), float(p1)))
    x0 = np.concatenate((q0 + slope0 * (nodes + 1.0) * h / 2.0,
                         np.full(n, float(p1))))
    z = _newton_dense(residual, x0, "canonical collocation")
    qs, ps = z[:n], z[n:]
    qdots = (d_unit * (2.0 / h)) @ qs
    wts = weights * (h / 2.0)
    integral = sum(w * (p * qd - h_fn(q, p))
                   for w, q, p, qd in zip(wts, qs, ps, qdots))
    return float(ps[-1] * qs[-1] - integral)


# ---------------------------------------------------------------------------
# One-step maps from discrete Lagrangians


def type1_map(ld: Callable, z0: PhasePoint, h: float) -> PhasePoint:
    """Advance (q0, p0) through a discrete Lagrangian ld(q0, q1).

    Solves d1 ld(q0, q1) + p0 = 0 for q1 with the collocation Newton
    (dual-number Jacobian, backtracking, round-off floor), then reads
    p1 = d2 ld(q0, q1).  ``h`` only scales the initial guess q1 = q0 + h p0.
    """
    q0, p0 = float(z0.q), float(z0.p)

    def residual(x):  # on the scalar x[0]: one unknown needs no arrays
        return dual.partial(ld, 0, (q0, x[0])) + p0

    q1 = float(_newton_dense(residual, [q0 + h * p0], "type1_map")[0])
    return PhasePoint(q1, float(dual.partial(ld, 1, (q0, q1))))


def symplecticity_check(map_fn: Callable, z0: PhasePoint) -> float:
    """|det(Jacobian) - 1| of a phase-space map at z0.

    Central differences of step 1e-6: the truncation error is O(1e-12), and
    map values accurate to the Newton tolerance 1e-12 move each derivative
    by about 1e-6 at most.
    """
    q, p = float(z0.q), float(z0.p)
    fd_step = 1e-6

    def at(dq, dp):
        out = map_fn(PhasePoint(q + dq, p + dp))
        return np.array([out.q, out.p])

    col_q = (at(fd_step, 0.0) - at(-fd_step, 0.0)) / (2.0 * fd_step)
    col_p = (at(0.0, fd_step) - at(0.0, -fd_step)) / (2.0 * fd_step)
    det = col_q[0] * col_p[1] - col_q[1] * col_p[0]
    return abs(float(det) - 1.0)


# ---------------------------------------------------------------------------
# Order diagnostics of approximate discrete Lagrangians


def midpoint_rule(lagr: MechLagrangian) -> Callable:
    """Family h -> ld(q0, q1) = h L((q0+q1)/2, (q1-q0)/h)."""

    def family(h):
        def ld(q0, q1):
            return h * lagr.value((q0 + q1) * 0.5, (q1 - q0) / h)
        return ld

    family.label = "midpoint"
    return family


def rectangle_rule(lagr: MechLagrangian) -> Callable:
    """Family h -> ld(q0, q1) = h L(q0, (q1-q0)/h) (left-endpoint rule)."""

    def family(h):
        def ld(q0, q1):
            return h * lagr.value(q0, (q1 - q0) / h)
        return ld

    family.label = "rectangle"
    return family


@dataclass(frozen=True)
class OrderReport:
    """Observed convergence orders of a discrete-Lagrangian family.

    ``functional_order`` is the rate of |ld - Ld_exact| along the diagonal of
    exact steps (one above the method order, since the defect of a single
    step accumulates nothing); ``map_order`` is the global convergence order
    of the induced one-step map, measured by composing it up to a fixed time
    horizon and comparing against the exact flow.  math.inf marks error
    sequences already at round-off level (an exact method).
    """

    functional_order: float
    map_order: float
    h_values: tuple
    functional_errors: tuple
    map_errors: tuple


def _fit_order(h_values, errors) -> float:
    errs = np.asarray(errors, dtype=float)
    if np.max(errs) < 1e-13:
        return math.inf
    mask = errs > 0.0
    if mask.sum() < 2:
        return math.inf
    slope = np.polyfit(np.log(np.asarray(h_values)[mask]), np.log(errs[mask]), 1)[0]
    return float(slope)


def variational_order_check(family: Callable, lagr: MechLagrangian,
                            z0: PhasePoint, h_values: Sequence[float]) -> OrderReport:
    """Fit convergence orders of a one-step discrete-Lagrangian family.

    For each h the reference endpoint q1 comes from the exact flow of z0 (the
    error theory of discrete Lagrangians lives near the flow diagonal); the
    functional error compares the family against the exact discrete
    Lagrangian.  The map error composes the induced one-step map over
    round(1 / h) steps, up to the unit time horizon, and compares against
    the exact flow over the same elapsed time, so its fitted rate is the
    usual global order of the method.  Requires a Lagrangian from the
    built-in catalogue (``exact_flow`` and ``exact_ld`` available) and at
    least three distinct ladder steps.  An error that is not finite (data
    that overflow) raises :class:`SolverError` before the fit.
    """
    if len(set(h_values)) < 3:
        raise ValueError("order fit needs at least three distinct step sizes")
    if not (hasattr(lagr, "exact_flow") and hasattr(lagr, "exact_ld")):
        raise ValueError(f"{lagr.name} lacks exact_flow or exact_ld; cannot fit orders")
    e_func, e_map = [], []
    for h in h_values:
        _check_step(lagr, h)
        z1 = lagr.exact_flow(z0, h)
        ld_exact = lagr.exact_ld(z0.q, z1.q, h)
        ld_h = family(h)
        e_func.append(abs(ld_h(z0.q, z1.q) - ld_exact))
        n_steps = max(1, round(1.0 / h))
        z_num = z0
        for _ in range(n_steps):
            z_num = type1_map(ld_h, z_num, h)
        z_ref = lagr.exact_flow(z0, n_steps * h)
        e_map.append(max(abs(z_num.q - z_ref.q), abs(z_num.p - z_ref.p)))
    if not np.isfinite(e_func + e_map).all():
        raise SolverError("order study: an error is not finite (the data overflow)")
    return OrderReport(functional_order=_fit_order(h_values, e_func),
                       map_order=_fit_order(h_values, e_map),
                       h_values=tuple(float(h) for h in h_values),
                       functional_errors=tuple(e_func),
                       map_errors=tuple(e_map))
