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
complement for quadratic densities), and
:func:`continuous_msff_residual` evaluates the continuum boundary integral
for exact solutions as an independent cross-check of the discrete route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delsolve import _factor_and_rcond, _sparse_block, solve_bvp
from .jetmesh import (BoundaryData, DiscreteField, Patch3Region, QuadMesh,
                      Region, boundary_nodes, check_region_fits, interior_nodes,
                      node_index, region_index)
from .lagrangian import LagrangianDensity, QuadraticDensity, triangle_kernel


@dataclass(frozen=True)
class FormResidualReport:
    """Outcome of a form identity evaluation.

    ``residual`` is the signed sum that should vanish, ``max_term`` the
    largest single contribution (the natural scale to judge cancellation
    against) and ``n_terms`` the number of contributions summed.
    """

    residual: float
    max_term: float
    n_terms: int

    def to_json(self) -> dict:
        return {"residual": self.residual, "max_term": self.max_term,
                "n_terms": self.n_terms}


def _hessian_product(triplets, x, size: int) -> np.ndarray:
    """Hessian triplets applied to the flat node values ``x``, per row node."""
    rows, cols, vals = triplets
    return np.bincount(rows, weights=vals * x[cols], minlength=size)


def linearized_del_residual(density: LagrangianDensity, field: DiscreteField,
                            variation: DiscreteField, n: int, i: int) -> float:
    """Residual of the linearised DEL equations at (n, i) for a variation."""
    mesh = field.mesh
    ncols = mesh.nx + 1
    check_region_fits(patch := Patch3Region(n, i), mesh)
    terms = triangle_kernel(density, field.values, region_index(patch, ncols),
                            mesh.dt, mesh.dx, gradient=False, hessian=True)
    lin = _hessian_product(terms.triplets, variation.values.ravel(), field.values.size)
    return float(lin[n * ncols + i])


def _region_patch_terms(density, field, v_var, w_var, region, nodes):
    """Kernel terms of the region, and the six slot two-form contributions of
    the patch at each of ``nodes``, shape (len(nodes), 6).

    Each of the three triangles of a patch (here, left, below) contributes
    its two slots not owned by the centre node, in slot order.
    """
    mesh = field.mesh
    check_region_fits(region, mesh)
    ncols = mesh.nx + 1
    index = region_index(region, ncols)
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx,
                            hessian=True)
    xi = [v_var.values.ravel()[ix] for ix in index]
    eta = [w_var.values.ravel()[ix] for ix in index]
    omega = []
    for k in range(3):
        out = np.zeros(len(index[0]))
        for j in range(3):
            out -= terms.hess[:, j, k] * (xi[j] * eta[k] - eta[j] * xi[k])
        omega.append(out)
    pos = np.full(field.values.size, -1, dtype=np.intp)
    pos[index[0]] = np.arange(len(index[0]))
    flat = node_index(nodes, ncols)
    here, left, below = pos[flat], pos[flat - 1], pos[flat - ncols]
    return terms, np.stack([omega[1][here], omega[2][here], omega[0][left],
                            omega[2][left], omega[0][below], omega[1][below]], axis=1)


def _patch_terms(density, field, v_var, w_var, n, i):
    """The six slot two-form contributions of the patch at (n, i)."""
    _, terms = _region_patch_terms(density, field, v_var, w_var,
                                   Patch3Region(n, i), [(n, i)])
    return list(terms[0])


def _patch_sums(density, field, v_var, w_var, region, base_tol, variation_tol,
                check_variations):
    """Six-term sums at the interior nodes of the region, and all terms.

    Raises at the first node (in order) where the field does not solve the
    DEL equations or, when checked, a variation the linearised ones.
    """
    nodes = interior_nodes(region)
    if not nodes:
        raise ValueError(f"region {region} has no interior nodes")
    terms, contributions = _region_patch_terms(density, field, v_var, w_var,
                                               region, nodes)
    flat = node_index(nodes, field.mesh.nx + 1)
    checks = [("field does not satisfy the DEL equations",
               terms.residual[flat], base_tol)]
    if check_variations:
        checks += [(f"variation {label} does not satisfy the linearised DEL equations",
                    _hessian_product(terms.triplets, var.values.ravel(),
                                     len(terms.residual))[flat], variation_tol)
                   for label, var in (("V", v_var), ("W", w_var))]
    failures = [(bad[0], c) for c, (_, res, tol) in enumerate(checks)
                if (bad := np.flatnonzero(np.abs(res) > tol)).size]
    if failures:
        k, c = min(failures)
        what, res, tol = checks[c]
        n, i = nodes[k]
        raise ValueError(f"{what} at ({n}, {i}): residual {res[k]:.3e} "
                         f"exceeds {tol:.1e}")
    sums = np.zeros(len(nodes))
    for column in contributions.T:  # a running total, term by term
        sums += column
    return sums, contributions


def msff_residual_patch(density: LagrangianDensity, field: DiscreteField,
                        v_var: DiscreteField, w_var: DiscreteField,
                        n: int, i: int, *, base_tol: float = 1e-9,
                        variation_tol: float = 1e-9,
                        check_variations: bool = False) -> FormResidualReport:
    """Six-term two-form cancellation at one interior node.

    The field must solve the DEL equations at (n, i) (always checked); V and
    W must solve the linearised equations there for the identity to hold —
    pass ``check_variations=True`` to have that verified too (left off by
    default so deliberate negative controls can be evaluated).
    """
    return msff_residual_region(density, field, v_var, w_var, Patch3Region(n, i),
                                base_tol=base_tol, variation_tol=variation_tol,
                                check_variations=check_variations)


def msff_patch_residuals(density: LagrangianDensity, field: DiscreteField,
                         v_var: DiscreteField, w_var: DiscreteField,
                         region: Region, *, base_tol: float = 1e-9,
                         variation_tol: float = 1e-9,
                         check_variations: bool = False) -> np.ndarray:
    """The residual of :func:`msff_residual_patch` at every interior node of
    a region, ordered as :func:`~mslab.jetmesh.interior_nodes`."""
    return _patch_sums(density, field, v_var, w_var, region, base_tol,
                       variation_tol, check_variations)[0]


def msff_residual_region(density: LagrangianDensity, field: DiscreteField,
                         v_var: DiscreteField, w_var: DiscreteField,
                         region: Region, *, base_tol: float = 1e-9,
                         variation_tol: float = 1e-9,
                         check_variations: bool = False) -> FormResidualReport:
    """Patch identity summed over the interior nodes of a region."""
    sums, contributions = _patch_sums(density, field, v_var, w_var, region,
                                      base_tol, variation_tol, check_variations)
    return FormResidualReport(residual=float(np.cumsum(sums)[-1]),
                              max_term=float(np.max(np.abs(contributions))),
                              n_terms=contributions.size)


# ---------------------------------------------------------------------------
# Wave-density conservation law (wedge-quantity form)


def _wedges(mesh: QuadMesh, v_var: DiscreteField, w_var: DiscreteField,
            lo: int, hi: int):
    """dv^du and dw^du of the (V, W) pair on the triangles anchored at every
    node of time levels lo..hi-1, shape (hi-lo, nx+1).  Column i+1 wraps
    mod nx+1, so column nx only means something for periodic fields."""
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
    dvdu, _ = _wedges(mesh, v_var, w_var, n, n + 1)
    # A running total from 0.0 in column order; np.sum would add pairwise.
    return float(np.cumsum(np.append(0.0, dvdu))[-1])


# ---------------------------------------------------------------------------
# Symmetry of the extremal-action Hessian


@dataclass(frozen=True)
class SymmetryReport:
    """Hessian of the extremal action in the boundary data, plus its defect."""

    max_asymmetry: float
    hessian: np.ndarray
    method: str
    nodes: tuple


def hessian_symmetry(density: LagrangianDensity, mesh: QuadMesh,
                     boundary: BoundaryData, *, method: str = "auto",
                     fd_step: float = 1e-4, tol: float = 1e-12,
                     max_iter: int = 50) -> SymmetryReport:
    """Second derivative of the extremal action w.r.t. boundary values.

    ``analytic`` (quadratic densities) eliminates the interior block, factored
    once under the solvers' singular-system guard, from the sparse region-wide
    vertex-slot Hessian (Schur complement).  ``fd`` recovers the
    same matrix by central differences of the boundary momenta around the
    given data, which probes the nonlinear solve path; each perturbed solve
    starts from the solution for the given data.  Either way the matrix
    is the mixed-partials matrix of a single scalar function, so its
    asymmetry measures only numerical error.
    """
    from .genfunc import normal_momenta

    if method == "auto":
        method = "analytic" if getattr(density, "is_quadratic", False) else "fd"
    region = boundary.region
    check_region_fits(region, mesh)
    bnodes = boundary_nodes(region)

    if method == "analytic":
        if not getattr(density, "is_quadratic", False):
            raise ValueError("analytic Hessian requires a quadratic density")
        inner = interior_nodes(region)
        ncols = mesh.nx + 1
        terms = triangle_kernel(density, np.zeros(mesh.shape), region_index(region, ncols),
                                mesh.dt, mesh.dx, gradient=False, hessian=True)
        size = mesh.shape[0] * ncols
        bd, inn = node_index(bnodes, ncols), node_index(inner, ncols)
        h = _sparse_block(terms.triplets, size, bd, bd).toarray()
        if inner:
            # K_bb - K_bi K_ii^-1 K_ib, with K_ii factored once.
            lu, _ = _factor_and_rcond(_sparse_block(terms.triplets, size, inn, inn),
                                      "hessian_symmetry")
            k_bi = _sparse_block(terms.triplets, size, bd, inn)
            h -= k_bi @ lu.solve(k_bi.T.toarray())
    elif method == "fd":
        base = solve_bvp(density, mesh, boundary, tol=tol, max_iter=max_iter).field
        nb = len(bnodes)
        h = np.zeros((nb, nb))
        for a in range(nb):
            plus = solve_bvp(density, mesh, boundary.perturbed(a, fd_step),
                             tol=tol, max_iter=max_iter, initial=base)
            minus = solve_bvp(density, mesh, boundary.perturbed(a, -fd_step),
                              tol=tol, max_iter=max_iter, initial=base)
            pi_plus = normal_momenta(density, plus.field, region)
            pi_minus = normal_momenta(density, minus.field, region)
            h[a, :] = (pi_plus.values - pi_minus.values) / (2.0 * fd_step)
    else:
        raise ValueError(f"unknown method {method!r}; use 'auto', 'analytic' or 'fd'")

    asym = float(np.max(np.abs(h - h.T))) if h.size else 0.0
    return SymmetryReport(max_asymmetry=asym, hessian=h, method=method,
                          nodes=tuple(bnodes))


# ---------------------------------------------------------------------------
# Continuum boundary integral (independent of the mesh machinery)


def continuous_msff_residual(density: QuadraticDensity, v_sol, w_sol, *,
                             rect=(0.0, 1.0, 0.0, 1.0),
                             n_points: int = 32) -> FormResidualReport:
    """Boundary circulation of the variation one-form for exact solutions.

    ``v_sol``/``w_sol`` are first variations given as objects with
    ``value(t, x)``, ``dt(t, x)`` and ``dx(t, x)`` methods (analytic
    derivatives; the exact-solution catalogue provides them).  The one-form

        alpha = A0 dx - A1 dt,
        A0 = Lvv*(V Wt - W Vt) + Lvw*(V Wx - W Vx),
        A1 = Lvw*(V Wt - W Vt) + Lww*(V Wx - W Vx),

    is integrated counterclockwise around the rectangle (t0, t1, x0, x1)
    with a fixed-order Gauss-Legendre rule per edge.  For solutions of the
    continuum field equations the circulation vanishes.

    Densities coupling the cell average have no continuum transcription here;
    they are checked through the discrete route only.
    """
    if not isinstance(density, QuadraticDensity):
        raise ValueError("continuum circulation supports quadratic densities only")
    if density.couples_average:
        raise ValueError("densities coupling the cell average route through "
                         "the discrete identity only")
    lvv, lvw, lww = density.vv, density.vw, density.ww
    t0, t1, x0, x1 = (float(s) for s in rect)
    if not (t1 > t0 and x1 > x0):
        raise ValueError(f"degenerate rectangle {rect!r}")

    def a_components(t, x):
        vt = v_sol.value(t, x) * w_sol.dt(t, x) - w_sol.value(t, x) * v_sol.dt(t, x)
        vx = v_sol.value(t, x) * w_sol.dx(t, x) - w_sol.value(t, x) * v_sol.dx(t, x)
        return lvv * vt + lvw * vx, lvw * vt + lww * vx

    nodes, weights = np.polynomial.legendre.leggauss(n_points)

    def line(f, lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return half * sum(w * f(mid + half * s) for s, w in zip(nodes, weights))

    bottom = line(lambda x: a_components(t0, x)[0], x0, x1)
    right = line(lambda t: -a_components(t, x1)[1], t0, t1)
    top = -line(lambda x: a_components(t1, x)[0], x0, x1)
    left = line(lambda t: a_components(t, x0)[1], t0, t1)
    edges = [bottom, right, top, left]
    return FormResidualReport(residual=float(sum(edges)),
                              max_term=float(max(abs(e) for e in edges)),
                              n_terms=4)
