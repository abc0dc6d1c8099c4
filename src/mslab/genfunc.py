"""Generating functionals of boundary data: Type-I and Type-II.

The *boundary Lagrangian* of a region is the discrete action evaluated on
the solution of the Dirichlet boundary-value problem — a scalar function of
the boundary values alone.  By the envelope property its exact gradient is
the field of *normal momenta*: at boundary node b the gradient equals the
sum of vertex-slot derivatives of the triangle actions over the region
triangles containing b.  Both routes are implemented independently so tests
can cross-check them.

An action is summed one of two ways.  :func:`region_action` adds one
``eval_Ld`` per triangle; it is the reference, and :func:`boundary_lagrangian`
still takes it, because the tests of the benchmark's tracer count those
calls.  :func:`boundary_hamiltonian` (and the CLI's wave-square ladder) take
``lagrangian._action_sum``, which calls the density once on the jet arrays
and adds the terms in the same order, so a quadratic density's sum is the
same to the bit.

The *boundary Hamiltonian* is the Type-II transform for the supported mixed
split of a rectangle boundary: values prescribed on the bottom row and both
full side columns (side A, including all four corners), momenta prescribed
on the strict interior of the top row (side B).  It is defined for every
density: the mixed problem is solved by the Newton driver of the Dirichlet
solver (on one LU for a quadratic density, whose mixed system is linear).
With u* the solution of the mixed problem,

    H(phi_A, pi_B) = -S(u*) + sum_B pi_b * u*_b,

using plain node sums: the slot-sum momenta already carry the boundary
measure, which makes the Type-I and Type-II functionals exactly compatible
and gives the exact derivative structure

    dH/dphi_a = -pi_a(u*)   (a in A),      dH/dpi_b = u*_b   (b in B),

together with H + S(u*) = sum_B pi_b u*_b (discrete Legendre relation).
``NormalMomentumField`` additionally carries trapezoidal arc-length weights
of the boundary polyline for converting momentum sums into densities when
comparing against continuum quantities; the functionals never use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .delsolve import BvpSolveReport, _del_newton, solve_bvp
from .jetmesh import (BoundaryData, DiscreteField, JetTriple, QuadMesh, RectRegion,
                      Region, boundary_nodes, check_region_fits, interior_index,
                      node_index, parse_region, region_index, region_to_json)
from .lagrangian import (LagrangianDensity, _action_sum, _check_finite, _triangle_jets,
                         eval_Ld, triangle_kernel)


def region_action(density: LagrangianDensity, field: DiscreteField,
                  region: Region) -> float:
    """Sum of triangle actions of ``field`` over the region.

    One ``eval_Ld`` per triangle, added from 0.0 in the order of
    :func:`~mslab.jetmesh.region_triangles`: the per-triangle reference of
    ``lagrangian._action_sum``, which the type-II value and the CLI's
    wave-square ladder take instead."""
    mesh = field.mesh
    check_region_fits(region, mesh)
    flat, dt, dx = field.values.ravel(), mesh.dt, mesh.dx
    total = 0.0
    for u1, u2, u3 in zip(*flat[region_index(region, mesh.nx + 1)].tolist()):
        total += eval_Ld(density, JetTriple(u1, u2, u3, dt, dx))
    return float(total)


@dataclass(frozen=True)
class BoundaryLagrangianResult:
    """Extremal action value together with the solve it came from."""

    value: float
    report: BvpSolveReport


def boundary_lagrangian(density: LagrangianDensity, mesh: QuadMesh,
                        boundary: BoundaryData, *,
                        initial: DiscreteField = None) -> BoundaryLagrangianResult:
    """Extremal discrete action as a function of Dirichlet boundary data.

    The action is summed by :func:`region_action`, one ``eval_Ld`` per
    triangle, which the tests of the benchmark's tracer count; it moves to the
    array sum together with those tests."""
    report = solve_bvp(density, mesh, boundary, initial=initial)
    value = region_action(density, report.field, boundary.region)
    return BoundaryLagrangianResult(value=value, report=report)


# ---------------------------------------------------------------------------
# Normal momenta


class NormalMomentumField:
    """Slot-sum momenta at the boundary nodes of a region.

    ``values[k]`` is the momentum at ``nodes[k]`` (ordered as
    :func:`~mslab.jetmesh.boundary_nodes`): the sum of vertex-slot derivatives
    of the triangle action over region triangles containing the node.  For a
    field solving the interior equations this equals the exact gradient of
    the extremal action in the boundary values.  ``weights`` are trapezoidal
    arc-length weights of the boundary polyline (reporting aid for momentum
    densities; not used by the functionals).
    """

    __slots__ = ("region", "nodes", "values", "weights")

    def __init__(self, region: Region, nodes, values, weights) -> None:
        self.region, self.nodes = region, tuple(nodes)
        self.values, self.weights = (np.asarray(a, dtype=float) for a in (values, weights))
        self.values.setflags(write=False)
        self.weights.setflags(write=False)

    def as_mapping(self) -> dict:
        return {nd: float(v) for nd, v in zip(self.nodes, self.values)}

    def densities(self) -> np.ndarray:
        """Momentum per unit boundary length (values / weights)."""
        return self.values / self.weights


def _trapezoid_weights(region: Region, mesh: QuadMesh) -> np.ndarray:
    """Half the summed lengths of the two boundary segments at each node."""
    n, i = np.array(boundary_nodes(region)).T
    x, t = i * mesh.dx, n * mesh.dt
    seg = np.hypot(np.roll(x, -1) - x, np.roll(t, -1) - t)  # node k to k + 1
    return 0.5 * (seg + np.roll(seg, 1))


def _momentum_stencil(region: Region, mesh: QuadMesh):
    """(boundary nodes, their flat indices, the (3, m) index of the region
    triangles with a boundary vertex).  The kernel's slot sums on that index,
    read at those flat indices, are the momenta: no other region triangle
    touches a boundary node."""
    check_region_fits(region, mesh)
    nodes = boundary_nodes(region)
    flat = node_index(nodes, mesh.nx + 1)
    on_boundary = np.zeros((mesh.nt + 1) * (mesh.nx + 1), dtype=bool)
    on_boundary[flat] = True
    index = region_index(region, mesh.nx + 1)
    return nodes, flat, index[:, on_boundary[index].any(axis=0)]


def normal_momenta(density: LagrangianDensity, field: DiscreteField,
                   region: Region) -> NormalMomentumField:
    """Slot-sum boundary momenta of ``field`` on ``region``: the kernel's slot
    sums at the boundary nodes over the triangles of
    ``_momentum_stencil``, which ``hessian_symmetry(method="fd")`` reads the
    same way on its work array."""
    mesh = field.mesh
    nodes, flat, index = _momentum_stencil(region, mesh)
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx)
    return NormalMomentumField(region, nodes, terms.residual[flat],
                               _trapezoid_weights(region, mesh))


# ---------------------------------------------------------------------------
# Pointwise momentum map and canonical field equations


@dataclass(frozen=True)
class LegendreData:
    """Covariant momenta and energy of one jet point.

    ``p_t`` and ``p_x`` are the partials of the density in the time and
    space quotients; ``hamiltonian`` is p_t*v + p_x*w - L (the negative of
    the covariant scalar momentum, kept internal to this record).
    """

    p_t: float
    p_x: float
    hamiltonian: float


def legendre(density: LagrangianDensity, v: float, w: float,
             ubar: float = 0.0) -> LegendreData:
    """Pointwise momentum map of a density at jet values (v, w, ubar).

    ValueError if a momentum or the Hamiltonian is NaN/Inf, as in
    :func:`~mslab.lagrangian.eval_Ld`."""
    try:
        with np.errstate(all="ignore"):  # the finiteness check below reports it
            lv, lw, _ = (float(p) for p in density.partials(v, w, ubar))
            lval = float(density.value(v, w, ubar))
    except OverflowError:  # a float ** past the float range; numpy gives inf
        lv = lw = lval = math.inf
    hamiltonian = lv * v + lw * w - lval
    _check_finite(f"density {density.name}", lv, lw, hamiltonian)
    return LegendreData(p_t=lv, p_x=lw, hamiltonian=hamiltonian)


@dataclass(frozen=True)
class DdwResidualReport:
    """Sup-norms of the canonical field-equation residuals on a field.

    ``transport_sup`` covers the two gradient equations (jet quotients equal
    the momentum-gradient of the energy), ``divergence_sup`` the momentum
    divergence equation.  On DEL solutions both vanish at first order under
    refinement.
    """

    transport_sup: float
    divergence_sup: float
    n_sites: int


def ddw_residual(density: LagrangianDensity, field: DiscreteField,
                 region: Region = None) -> DdwResidualReport:
    """Forward-difference residuals of the canonical (first-order) equations.

    Momenta are the density's partials in (v, w) at each triangle jet, as in
    :func:`legendre`; the divergence equation is evaluated with the forward differences matching
    the jet map:

        [p_t(n+1, i) - p_t(n, i)]/dt + [p_x(n, i+1) - p_x(n, i)]/dx
            + dH/du(u(n, i), p(n, i))  ->  0,

    and the gradient equations compare (v, w) at each triangle with the
    momentum-gradient of the energy at (u(n, i), p(n, i)).  Requires a
    density whose ``is_quadratic`` is set, with an invertible velocity block
    (Lvv*Lww != Lvw^2); its constant ``second_partials`` is the coefficient
    matrix that inverts the momentum map.
    """
    if not density.is_quadratic:
        raise ValueError("canonical-equation residuals support quadratic densities")
    (lvv, lvw, lvu), (_, lww, lwu), (_, _, luu) = density.second_partials(0.0, 0.0, 0.0)
    det = lvv * lww - lvw * lvw
    if det == 0.0:
        raise ValueError("velocity block of the density is singular; no "
                         "momentum form of the equations exists")
    mesh = field.mesh
    if region is None:
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
    check_region_fits(region, mesh)

    ncols = mesh.nx + 1
    index = region_index(region, ncols)
    # Sites are region triangles whose upper and right neighbours are region
    # triangles too; ``pos`` maps an anchor node to its triangle number.
    pos = np.full(field.values.size, -1, dtype=np.intp)
    pos[index[0]] = np.arange(len(index[0]))
    here = np.flatnonzero((pos[index[0] + ncols] >= 0) & (pos[index[0] + 1] >= 0))
    if here.size == 0:
        raise ValueError("region too small: no site has both forward neighbours")
    above, beside = pos[index[0][here] + ncols], pos[index[0][here] + 1]
    flat, index, (v, w, ubar) = _triangle_jets(field.values, index, mesh.dt, mesh.dx)
    p_t, p_x, _ = density.partials(v, w, ubar)

    u_here = flat[index[0][here]]
    # invert the momentum map at (u, p): velocities from the quadratic block
    bt = p_t[here] - lvu * u_here
    bx = p_x[here] - lwu * u_here
    v_rec = (lww * bt - lvw * bx) / det
    w_rec = (lvv * bx - lvw * bt) / det
    du_energy = -(luu * u_here + lvu * v_rec + lwu * w_rec)
    div = ((p_t[above] - p_t[here]) / mesh.dt
           + (p_x[beside] - p_x[here]) / mesh.dx
           - du_energy)
    return DdwResidualReport(
        transport_sup=float(max(np.max(np.abs(v[here] - v_rec)),
                                np.max(np.abs(w[here] - w_rec)))),
        divergence_sup=float(np.max(np.abs(div))), n_sites=int(here.size))


# ---------------------------------------------------------------------------
# Type-II data and boundary Hamiltonian


def canonical_type2_split(region: RectRegion) -> tuple:
    """(A, B) node lists of the supported mixed split.

    A = bottom row plus both full side columns (all four corners included);
    B = strict interior of the top row.  Requires at least two space cells so
    B is non-empty.
    """
    if not isinstance(region, RectRegion):
        raise ValueError("the mixed split is defined for rectangle regions")
    if region.nx < 2:
        raise ValueError("need nx >= 2 cells so the top row has interior nodes")
    b_side = [(region.n1, i) for i in range(region.i0 + 1, region.i1)]
    b_set = set(b_side)
    a_side = [nd for nd in boundary_nodes(region) if nd not in b_set]
    return a_side, b_side


class MixedBoundaryData:
    """Dirichlet values on side A and momenta on side B of a rectangle.

    Only the canonical split of :func:`canonical_type2_split` is supported;
    the constructor validates that the two mappings cover exactly those node
    sets.
    """

    __slots__ = ("region", "dirichlet", "momenta")

    def __init__(self, region: RectRegion, dirichlet: Mapping, momenta: Mapping):
        a_side, b_side = canonical_type2_split(region)
        if set(dirichlet) != set(a_side):
            raise ValueError("value data must cover exactly the bottom row and "
                             "both side columns")
        if set(momenta) != set(b_side):
            raise ValueError("momentum data must cover exactly the strict "
                             "interior of the top row")
        vals = list(dirichlet.values()) + list(momenta.values())
        if not all(math.isfinite(float(v)) for v in vals):
            raise ValueError("mixed boundary data contains NaN/Inf")
        self.region = region
        self.dirichlet = {nd: float(dirichlet[nd]) for nd in a_side}
        self.momenta = {nd: float(momenta[nd]) for nd in b_side}

    def to_json(self) -> dict:
        return {
            "region": region_to_json(self.region),
            "A": {f"{n},{i}": v for (n, i), v in self.dirichlet.items()},
            "B": {f"{n},{i}": v for (n, i), v in self.momenta.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "MixedBoundaryData":
        if set(obj) != {"region", "A", "B"}:
            raise ValueError("mixed data needs exactly the keys region/A/B")
        region = parse_region(obj["region"])

        def decode(side):
            try:
                pairs = ((key.split(","), val) for key, val in obj[side].items())
                return {(int(n), int(i)): float(val) for (n, i), val in pairs}
            except (AttributeError, ValueError):  # not a mapping, or a bad key or value
                raise ValueError(f'side {side} must map "n,i" keys to numbers, '
                                 f'got {obj[side]!r}') from None

        return cls(region, decode("A"), decode("B"))

    def perturbed_value(self, node, delta: float) -> "MixedBoundaryData":
        d = dict(self.dirichlet)
        d[node] += delta
        return MixedBoundaryData(self.region, d, self.momenta)

    def perturbed_momentum(self, node, delta: float) -> "MixedBoundaryData":
        m = dict(self.momenta)
        m[node] += delta
        return MixedBoundaryData(self.region, self.dirichlet, m)


def type2_data_from_field(density: LagrangianDensity, field: DiscreteField,
                          region: RectRegion) -> MixedBoundaryData:
    """Read canonical mixed data (values on A, slot-sum momenta on B) off a field."""
    a_side, b_side = canonical_type2_split(region)
    pi = normal_momenta(density, field, region).as_mapping()
    return MixedBoundaryData(region,
                             {nd: field[nd] for nd in a_side},
                             {nd: pi[nd] for nd in b_side})


@dataclass(frozen=True)
class BoundaryHamiltonianResult:
    """Type-II value, the mixed-problem solution and the condition indicator
    of the LU its solve ended on, which may have been taken at an earlier
    iterate (a nonlinear density's kept LU; see :mod:`~mslab.delsolve`)."""

    value: float
    field: DiscreteField
    rcond: float


def boundary_hamiltonian(density: LagrangianDensity, mesh: QuadMesh,
                         data: MixedBoundaryData) -> BoundaryHamiltonianResult:
    """Type-II generating value of the canonical mixed problem.

    Solves the DEL equations at the strict interior nodes together with the
    momentum conditions (slot sum = prescribed momentum) at the B nodes, for
    the values at both, with the Newton driver of
    :func:`~mslab.delsolve.solve_bvp` from zero, then evaluates
    ``-S(u*) + sum_B pi_b * u*_b``.  A quadratic density's system is linear:
    one step on one LU solves it, and the solve stops at the round-off floor
    of its residual.  The factorisation shares the condition guard of the
    Dirichlet solver.
    """
    region = data.region
    check_region_fits(region, mesh)
    ncols = mesh.nx + 1
    # Interior rows are DEL slot sums over the node's three triangles; B rows
    # are slot sums over the region triangles containing the node.
    flat = np.concatenate([interior_index(region, ncols), node_index(list(data.momenta), ncols)])
    target = np.zeros(len(flat))
    target[len(flat) - len(data.momenta):] = list(data.momenta.values())
    arr = np.zeros(mesh.shape)
    arr.flat[node_index(list(data.dirichlet), ncols)] = list(data.dirichlet.values())
    index = region_index(region, ncols)
    solve = _del_newton(density, arr, index, flat, flat, mesh.dt, mesh.dx, target=target)
    _, _, rcond = solve(np.zeros(len(flat)), "boundary_hamiltonian")
    field = DiscreteField(mesh, arr)
    action = _action_sum(density, arr, index, mesh.dt, mesh.dx)
    pairing = sum(pi * field[nd] for nd, pi in data.momenta.items())
    return BoundaryHamiltonianResult(value=float(-action + pairing),
                                     field=field, rcond=rcond)
