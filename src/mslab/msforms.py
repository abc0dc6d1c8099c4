"""Boundary two-form identities on solutions and their first variations.

For a field solving the discrete Euler-Lagrange equations at an interior
node, and two first variations V, W solving the linearised equations there,
the six slot two-forms of the node's three triangles cancel:

    omega_2(tri(n, i)) + omega_3(tri(n, i))
  + omega_1(tri(n, i-1)) + omega_3(tri(n, i-1))
  + omega_1(tri(n-1, i)) + omega_2(tri(n-1, i))  =  0,

each evaluated on the restrictions of (V, W) to the triangle's vertices; the
slot owned by the centre node is the one omitted for each triangle.  This is
the discrete conservation of symplecticity in the sense of field theory.
Summing the patch identity over the interior nodes of a region gives the
region form of the statement.

For the wave density the same cancellation, divided by the cell area
dt*dx/2, is a classical discrete conservation law relating space and time
differences of the wedge quantities dv^du and dw^du (arrays over whole time
levels); :func:`bridges_residuals` evaluates it at every interior node and
:func:`symplectic_flux` gives the conserved per-slice flux of periodic runs.

:func:`hessian_symmetry` checks symmetry of the second derivative of the
extremal action with respect to boundary data (equality of mixed partials —
the generating-function face of the same structure; a sparse Schur
complement of the Hessian at the solution, or finite differences of the
boundary momenta), and
:func:`continuous_msff_residual` evaluates the continuum boundary integral
for exact solutions as an independent cross-check of the discrete route.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .delsolve import (_check_solution, _del_newton, _factor_and_rcond, _field_hessian,
                       _hessian_operator, _sparse_block, solve_bvp)
from .genfunc import _momentum_stencil
from .jetmesh import (BoundaryData, DiscreteField, Patch3Region, QuadMesh,
                      Region, boundary_nodes, check_region_fits, interior_index,
                      node_index, region_index)
from .lagrangian import LagrangianDensity, _slot_two_forms, triangle_kernel
from .oracles import _gauss


def _check_meshes(mesh: QuadMesh, variations: dict) -> None:
    """ValueError naming the first of ``variations`` (label: field) that is
    not on ``mesh``; its values would be read at other nodes."""
    for label, var in variations.items():
        if var.mesh != mesh:
            raise ValueError(f"{label} is on {var.mesh}, not on {mesh}")


@dataclass(frozen=True)
class FormResidualReport:
    """Outcome of a form identity evaluation.

    ``residual`` is the signed sum that should vanish, ``max_term`` the
    largest single contribution (the natural scale to judge cancellation
    against) and ``n_terms`` the number of contributions summed.  A region
    report's ``node_residuals`` are the patch residuals at its interior
    nodes, ordered as :func:`~mslab.jetmesh.interior_nodes` (empty for the
    continuum route); reports compare and hash on the other fields.
    """

    residual: float
    max_term: float
    n_terms: int
    node_residuals: np.ndarray = dataclasses.field(compare=False)


def linearized_del_residual(density: LagrangianDensity, field: DiscreteField,
                            variation: DiscreteField, n: int, i: int) -> float:
    """Residual of the linearised DEL equations at (n, i) for a variation."""
    mesh = field.mesh
    ncols = mesh.nx + 1
    _check_meshes(mesh, {"variation": variation})
    check_region_fits(patch := Patch3Region(n, i), mesh)
    k = _hessian_operator(density, field.values, region_index(patch, ncols),
                          [n * ncols + i], mesh.dt, mesh.dx, "linearized_del_residual")
    return float((k @ variation.values.ravel())[0])


def _region_patch_terms(density, field, v_var, w_var, region, flat):
    """Kernel terms of the region, and the six slot two-form contributions of
    the patch at each of the flat nodes ``flat``, shape (len(flat), 6).

    Each of the three triangles of a patch (here, left, below) contributes
    its two slots not owned by the centre node, in slot order.
    """
    mesh = field.mesh
    check_region_fits(region, mesh)
    ncols = mesh.nx + 1
    index = region_index(region, ncols)
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx,
                            hessian=True)
    omega = _slot_two_forms(terms.hess, v_var.values.ravel()[index],
                            w_var.values.ravel()[index])
    pos = np.full(field.values.size, -1, dtype=np.intp)
    pos[index[0]] = np.arange(index.shape[1])
    here, left, below = pos[flat], pos[flat - 1], pos[flat - ncols]
    return terms, np.stack([omega[1][here], omega[2][here], omega[0][left],
                            omega[2][left], omega[0][below], omega[1][below]], axis=1)


def msff_residual_patch(density: LagrangianDensity, field: DiscreteField,
                        v_var: DiscreteField, w_var: DiscreteField,
                        n: int, i: int, *,
                        check_variations: bool = False) -> FormResidualReport:
    """Six-term two-form cancellation at one interior node.

    The field must solve the DEL equations at (n, i) (always checked); V and
    W must solve the linearised equations there for the identity to hold —
    pass ``check_variations=True`` to have that verified too (left off by
    default so deliberate negative controls can be evaluated).  Both are
    judged as in :func:`msff_residual_region`.
    """
    return msff_residual_region(density, field, v_var, w_var, Patch3Region(n, i),
                                check_variations=check_variations)


def msff_residual_region(density: LagrangianDensity, field: DiscreteField,
                         v_var: DiscreteField, w_var: DiscreteField,
                         region: Region, *,
                         check_variations: bool = False) -> FormResidualReport:
    """Patch identity at every interior node of a region, and its sum.

    Raises ValueError if V or W is on another mesh than the field, or if
    the field does not solve the DEL equations or, when checked, V or W the
    linearised ones, naming the first node (in order) of the first of these
    that fails.  Each is the test of
    :mod:`~mslab.delsolve`: every residual within twice the level at which
    the Newton solves stop, max(``NEWTON_TOL``, the round-off floor of the
    field's Hessian K, over its whole mesh, and the field or variation).
    """
    _check_meshes(field.mesh, {"variation V": v_var, "variation W": w_var})
    ncols = field.mesh.nx + 1
    flat = interior_index(region, ncols)
    if not flat.size:
        raise ValueError(f"region {region} has no interior nodes")
    terms, contributions = _region_patch_terms(density, field, v_var, w_var,
                                               region, flat)
    k = functools.cache(lambda: _field_hessian(density, field, "msff_residual_region"))
    _check_solution(terms.residual[flat], flat, ncols,
                    "field does not satisfy the DEL equations", k, field.values)
    if check_variations:
        block = _sparse_block(terms.triplets, field.values.size, flat)
        for label, var in (("V", v_var), ("W", w_var)):
            _check_solution(block @ var.values.ravel(), flat, ncols,
                            f"variation {label} does not satisfy the linearised DEL equations",
                            k, var.values)
    sums = np.zeros(flat.size)
    for column in contributions.T:  # a running total, term by term
        sums += column
    return FormResidualReport(residual=float(np.cumsum(sums)[-1]),
                              max_term=float(np.max(np.abs(contributions))),
                              n_terms=contributions.size, node_residuals=sums)


# ---------------------------------------------------------------------------
# Wave-density conservation law (wedge-quantity form)


def _wedges(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
            lo: int, hi: int):
    """dv^du and dw^du of the (V, W) pair on the triangles anchored at every
    node of time levels lo..hi-1, shape (hi-lo, nx+1).  Column i+1 wraps
    mod nx+1, so column nx only means something for periodic fields."""
    _check_meshes(mesh, {"variation V": v_var, "variation W": w_var})
    av, aw = v_var.values[lo:hi + 1], w_var.values[lo:hi + 1]
    v0, w0 = av[:-1], aw[:-1]
    dv_v, dv_w = np.diff(av, axis=0) / mesh.dt, np.diff(aw, axis=0) / mesh.dt
    dw_v, dw_w = ((np.roll(a, -1, axis=1) - a) / mesh.dx for a in (v0, w0))
    return dv_v * w0 - dv_w * v0, dw_v * w0 - dw_w * v0


def _bridges_rows(mesh, v_var, w_var, lo: int, hi: int) -> np.ndarray:
    """Ring residuals of :func:`bridges_residual` on time levels lo..hi-1."""
    dvdu, dwdu = _wedges(mesh, v_var, w_var, lo - 1, hi)
    return ((dwdu[1:] - np.roll(dwdu[1:], 1, axis=1)) / mesh.dx
            - np.diff(dvdu, axis=0) / mesh.dt)


def bridges_residual(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
                     n: int, i: int, periodic: bool = False) -> float:
    """Discrete conservation-of-symplecticity residual of the wave density.

    With dv^du and dw^du the wedge quantities of the variation pair on the
    triangle anchored at a node,

        residual = (dw^du|_(n,i) - dw^du|_(n,i-1)) / dx
                 - (dv^du|_(n,i) - dv^du|_(n-1,i)) / dt.

    It vanishes identically when V and W solve the linearised wave equations
    around any field, and equals the patch two-form sum divided by the
    triangle area dt*dx/2.
    """
    ncols = mesh.nx + 1
    if not periodic and not 0 < i < ncols - 1:
        raise ValueError(f"column {i} has no interior stencil")
    if not 1 <= n <= mesh.nt - 1:
        raise ValueError(f"row {n} has no interior stencil")
    return float(_bridges_rows(mesh, v_var, w_var, n, n + 1)[0, i % ncols])


def bridges_residuals(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
                      periodic: bool = False) -> np.ndarray:
    """:func:`bridges_residual` at every interior node: row k is time level
    k+1, with columns 0..nx for ``periodic`` and 1..nx-1 otherwise."""
    res = _bridges_rows(mesh, v_var, w_var, 1, mesh.nt)
    return res if periodic else res[:, 1:-1]


def symplectic_flux(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
                    n: int) -> float:
    """Per-slice symplectic flux of a periodic variation pair.

    Sums dv^du over the ring of nx+1 distinct columns between time levels n
    and n+1.  Exactly conserved in n when V and W solve the linearised wave
    equations with the periodic closure (telescoping of
    :func:`bridges_residual` around the ring).
    """
    if not 0 <= n <= mesh.nt - 1:
        raise ValueError(f"slice {n} needs rows n and n+1 inside the mesh")
    return float(_fluxes(mesh, v_var, w_var, n, n + 1)[0])


def _fluxes(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
            lo: int, hi: int) -> np.ndarray:
    """:func:`symplectic_flux` of slices lo..hi-1, from one wedge pass."""
    dvdu, _ = _wedges(mesh, v_var, w_var, lo, hi)
    # A running total from 0.0 in column order; np.sum would add pairwise.
    return np.cumsum(np.hstack([np.zeros((hi - lo, 1)), dvdu]), axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Symmetry of the extremal-action Hessian


@dataclass(frozen=True)
class SymmetryReport:
    """Hessian of the extremal action in the boundary data, plus its defect;
    reports compare and hash on the fields other than ``hessian``."""

    max_asymmetry: float
    hessian: np.ndarray = dataclasses.field(compare=False)
    method: str
    nodes: tuple


def hessian_symmetry(density: LagrangianDensity, mesh: QuadMesh,
                     boundary: BoundaryData, *, method: str = "analytic") -> SymmetryReport:
    """Second derivative of the extremal action w.r.t. boundary values.

    ``analytic`` eliminates the interior block, factored once under the
    solvers' singular-system guard, from the sparse region-wide vertex-slot
    Hessian K (Schur complement), solving for 32 boundary columns at a time
    so that no dense array spans them all: H = K_bb - K_bi K_ii^-1 K_ib, with
    each block read from K, so the asymmetry of H also checks that of K's
    off-diagonal blocks rather than assuming it.  K is taken at the
    :func:`~mslab.delsolve.solve_bvp` field, where by the implicit-function
    theorem its Schur complement is the exact Hessian; a quadratic density's
    K is the same everywhere and needs no solve.  ``fd`` recovers the
    same matrix by central differences of the boundary momenta around the
    given data, which probes the nonlinear solve path; each perturbed solve
    starts from the solution for the given data.  All 2 * nb of them run on
    one solver, which factors K at the start of the first and keeps that LU
    for the others while their steps contract (the monitor of
    :mod:`~mslab.delsolve`), so the sweep factors once, not once per solve.
    Each perturbed solution's momenta are read as
    :func:`~mslab.genfunc.normal_momenta` reads them, as the kernel's slot
    sums at the boundary nodes, but on the solver's work array and over a
    stencil of boundary-touching triangles built once per sweep: no field
    copy and no trapezoid weights per solve.
    The step 1e-4 keeps both the O(step^2) truncation error and the Newton
    tolerance 1e-12 divided by the step near 1e-8.  Either way the matrix
    is the mixed-partials matrix of a single scalar function, so its
    asymmetry measures only numerical error.
    """
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown method {method!r}; use 'analytic' or 'fd'")
    region = boundary.region
    check_region_fits(region, mesh)
    bnodes = boundary_nodes(region)
    nb = len(bnodes)
    # The solution for the given data: where K is taken, and where each
    # perturbed fd solve starts.  A quadratic density's K needs none.
    base = (DiscreteField.zeros(mesh) if method == "analytic" and density.is_quadratic
            else solve_bvp(density, mesh, boundary).field)

    if method == "analytic":
        ncols = mesh.nx + 1
        nodes = np.concatenate([node_index(bnodes, ncols), interior_index(region, ncols)])
        k = _hessian_operator(density, base.values, region_index(region, ncols),
                              nodes, mesh.dt, mesh.dx, "hessian_symmetry", nodes)
        h = k[:nb, :nb].toarray()
        if len(nodes) > nb:
            # K_bb - K_bi K_ii^-1 K_ib, with K_ii factored once.
            lu, _ = _factor_and_rcond(k[nb:, nb:], "hessian_symmetry")
            k_bi, k_ib, block = k[:nb, nb:], k[nb:, :nb], 32  # boundary columns per solve
            for lo in range(0, nb, block):
                cols = slice(lo, lo + block)
                h[:, cols] -= k_bi @ lu.solve(k_ib[:, cols].toarray())
    else:
        fd_step = 1e-4
        ncols = mesh.nx + 1
        _, flat, touch = _momentum_stencil(region, mesh)
        inner = interior_index(region, ncols)
        work, start = base.values.copy(), base.values.ravel()[inner]
        solve = _del_newton(density, work, region_index(region, ncols), inner, inner,
                            mesh.dt, mesh.dx)

        def momenta(a, step):  # of the solution for the data moved by step at node a
            work.flat[flat[a]] = boundary.values[a] + step
            solve(start, "hessian_symmetry")
            return triangle_kernel(density, work, touch, mesh.dt, mesh.dx).residual[flat]

        h = np.zeros((nb, nb))
        for a in range(nb):
            h[a, :] = (momenta(a, fd_step) - momenta(a, -fd_step)) / (2.0 * fd_step)
            work.flat[flat[a]] = boundary.values[a]

    asym = float(np.max(np.abs(h - h.T))) if h.size else 0.0
    return SymmetryReport(max_asymmetry=asym, hessian=h, method=method,
                          nodes=tuple(bnodes))


# ---------------------------------------------------------------------------
# Continuum boundary integral (independent of the mesh machinery)


def continuous_msff_residual(density: LagrangianDensity, v_sol,
                             w_sol) -> FormResidualReport:
    """Boundary circulation of the variation one-form for exact solutions.

    ``v_sol``/``w_sol`` are first variations given as objects with
    ``value(t, x)``, ``dt(t, x)`` and ``dx(t, x)`` methods (analytic
    derivatives; the exact-solution catalogue provides them).  The one-form

        alpha = A0 dx - A1 dt,
        A0 = Lvv*(V Wt - W Vt) + Lvw*(V Wx - W Vx),
        A1 = Lvw*(V Wt - W Vt) + Lww*(V Wx - W Vx),

    is integrated counterclockwise around the unit square [0, 1]^2 with a
    32-point Gauss-Legendre rule per edge, exact to degree 63 and so at
    round-off for the catalogue's polynomial and low-mode trigonometric
    solutions.  For solutions of the continuum field equations the
    circulation vanishes.

    The density must have ``is_quadratic`` set; Lvv, Lvw and Lww are read
    from its constant ``second_partials``.  Densities coupling the cell
    average (a nonzero last row there) have no continuum transcription here;
    they are checked through the discrete route only.
    """
    if not density.is_quadratic:
        raise ValueError("continuum circulation supports quadratic densities only")
    (lvv, lvw, _), (_, lww, _), average_row = density.second_partials(0.0, 0.0, 0.0)
    if np.any(average_row != 0.0):
        raise ValueError("densities coupling the cell average route through "
                         "the discrete identity only")

    def a_components(t, x):
        vt = v_sol.value(t, x) * w_sol.dt(t, x) - w_sol.value(t, x) * v_sol.dt(t, x)
        vx = v_sol.value(t, x) * w_sol.dx(t, x) - w_sol.value(t, x) * v_sol.dx(t, x)
        return lvv * vt + lvw * vx, lvw * vt + lww * vx

    edges = [_gauss(lambda x: a_components(0.0, x)[0], 0.0, 1.0),   # bottom
             _gauss(lambda t: -a_components(t, 1.0)[1], 0.0, 1.0),  # right
             -_gauss(lambda x: a_components(1.0, x)[0], 0.0, 1.0),  # top
             _gauss(lambda t: a_components(t, 0.0)[1], 0.0, 1.0)]   # left
    return FormResidualReport(residual=float(sum(edges)),
                              max_term=float(max(abs(e) for e in edges)),
                              n_terms=4, node_residuals=np.zeros(0))
