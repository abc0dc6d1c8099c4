"""Discrete Euler-Lagrange equations: residuals, stepping and BVP solves.

The discrete action of a region is the sum of triangle actions.  Varying the
value at an interior node touches the three triangles containing it (once in
each vertex slot), so the discrete Euler-Lagrange (DEL) residual at (n, i) is

    R(n, i) = d1 Ld(tri(n, i)) + d2 Ld(tri(n, i-1)) + d3 Ld(tri(n-1, i)),

where dk is the k-th vertex-slot derivative.  For the wave density this is
the classical leapfrog stencil scaled by dt*dx/2.

The solvers evaluate residuals and Jacobians for all triangles at once with
:func:`~mslab.lagrangian.triangle_kernel`: the residual vector is the
scatter-add of the slot gradients, and the sparse Jacobian is assembled from
the kernel's Hessian triplets.  :func:`del_residual` is the per-node view,
built on the per-triangle :func:`~mslab.lagrangian.grad_Ld`.

Three solution drivers are provided:

* :func:`step_row` advances one time level by solving the DEL equations of
  the current level for the new row (a bidiagonal system, explicit for the
  wave density); its errors name the row.  :func:`propagate` steps a whole
  field with one row stepper;
* :func:`solve_bvp` solves the space-time boundary-value problem on a region
  with Dirichlet data on the single boundary layer;
* :func:`tangent_solve` solves the linearised DEL equations for first
  variations with prescribed boundary tangents, one back-solve per tangent
  on a single factorisation.

Both nonlinear drivers, and the mechanics collocations with a dense Jacobian,
run one Newton core (Armijo backtracking).  A quadratic density's Jacobian is
the same at every iterate and row, so one sparse LU serves a whole
:func:`propagate` run or :func:`solve_bvp`, whatever its iteration count.

Every factorisation is accompanied by a reciprocal condition indicator

    rcond = 1 / (max(1, ||J||_1) * ||J^-1||_1),

exact for small systems and estimated on the sparse LU otherwise.  The
indicator is scale-sensitive on purpose: the three-triangle point stencil
degenerates when dt = dx (its 1x1 Jacobian dx/dt - dt/dx vanishes with
bounded data), and a scale-invariant measure would hide that.  Indicators
below 1e-12, and exactly singular factorisations, raise
:class:`SingularSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .jetmesh import (BoundaryData, DiscreteField, QuadMesh, Region,
                      TriangleIndex, check_region_fits, interior_nodes,
                      jet_extension, node_index, region_index, triangle_index)
from .lagrangian import LagrangianDensity, grad_Ld, triangle_kernel

RCOND_FLOOR = 1e-12


class SolverError(RuntimeError):
    """A solve failed (non-convergence or breakdown)."""


class SingularSystem(SolverError):
    """The linearised system is singular or numerically indistinguishable from it."""

    def __init__(self, message: str, rcond: float = 0.0):
        super().__init__(message)
        self.rcond = rcond


# ---------------------------------------------------------------------------
# Closures


@dataclass(frozen=True)
class PeriodicClosure:
    """Spatial ring closure: all nx+1 columns are distinct sites mod nx+1."""


@dataclass(frozen=True)
class FixedClosure:
    """Fixed-value spatial closure: prescribed end values for each new row.

    ``left``/``right`` may be floats or callables of the new row index.
    """

    left: Union[float, Callable[[int], float]] = 0.0
    right: Union[float, Callable[[int], float]] = 0.0

    def end_values(self, row_index: int) -> tuple:
        return tuple(end(row_index) if callable(end) else float(end)
                     for end in (self.left, self.right))


Closure = Union[PeriodicClosure, FixedClosure]


def parse_closure(obj) -> Closure:
    """Closure from config data: ``"periodic"`` or ``{"fixed": [left, right]}``."""
    if isinstance(obj, (PeriodicClosure, FixedClosure)):
        return obj
    if obj == "periodic":
        return PeriodicClosure()
    if isinstance(obj, dict) and set(obj) == {"fixed"}:
        left, right = obj["fixed"]
        return FixedClosure(float(left), float(right))
    raise ValueError(f"cannot parse closure {obj!r}")


# ---------------------------------------------------------------------------
# Residuals


def del_residual(density: LagrangianDensity, field: DiscreteField, n: int, i: int,
                 periodic: bool = False) -> float:
    """DEL residual of ``field`` at node (n, i).

    Requires 1 <= n <= nt-1; without the periodic closure also
    1 <= i <= nx-1 so the three-triangle stencil fits.  This is the
    per-triangle reference route; the solvers use :func:`triangle_kernel`.
    """
    mesh = field.mesh
    if not 1 <= n <= mesh.nt - 1:
        raise ValueError(f"row {n} has no interior stencil (1..{mesh.nt - 1})")
    if not periodic and not 0 < i < mesh.nx:
        raise ValueError(f"column {i} has no interior stencil (0..{mesh.nx})")
    here, left, below = (jet_extension(field, TriangleIndex(*anchor), periodic)
                         for anchor in ((n, i), (n, i - 1), (n - 1, i)))
    return (grad_Ld(density, here).d1
            + grad_Ld(density, left).d2
            + grad_Ld(density, below).d3)


def _sparse_block(triplets, size: int, eqs, unknowns, known=None):
    """Sparse matrix of Hessian triplets, rows at the flat nodes ``eqs`` and
    columns at the flat nodes ``unknowns`` (of ``size`` nodes in all).

    With ``known`` (a sequence of flat node-value vectors), also returns one
    right-hand side per vector: minus the product of the remaining columns
    with those values.
    """
    rows, cols, vals = triplets
    number = np.full((2, size), -1, dtype=np.int32)
    number[0, eqs], number[1, unknowns] = np.arange(len(eqs)), np.arange(len(unknowns))
    r, c = number[0, rows], number[1, cols]
    keep = (r >= 0) & (c >= 0)
    mat = csc_matrix((vals[keep], (r[keep], c[keep])), shape=(len(eqs), len(unknowns)))
    if known is None:
        return mat
    rest = (r >= 0) & (c < 0)
    # 0.0 - s rather than -s: rows without a known column stay +0.0.
    return mat, [0.0 - np.bincount(r[rest], weights=vals[rest] * kv[cols[rest]],
                                   minlength=len(eqs)) for kv in known]


# ---------------------------------------------------------------------------
# Newton core (shared by the row stepper, solve_bvp and the mechanics lane)


def _newton(residual_fn, factor_fn, x0, tol, max_iter, context: str):
    """Damped Newton iteration on F(x) = 0 with Armijo backtracking.

    ``factor_fn(x, context)`` returns a solver of the Jacobian at x (with
    ``.solve``), its rcond and a round-off floor at or below which a residual
    is accepted.  A non-finite residual at the start raises
    :class:`SolverError`; at a trial iterate it fails the Armijo test.
    Returns (x, sup-norm of residual, iterations, rcond of the last
    factorisation or None).
    """

    def evaluate(x):  # F(x) and the merit |F|^2 / 2
        try:
            with np.errstate(all="ignore"):
                f = np.asarray(residual_fn(x), dtype=float)
                return f, 0.5 * float(f @ f)
        except ValueError:  # the kernel's report of a non-finite value
            return None, math.inf

    x = np.array(x0, dtype=float)
    f, merit = evaluate(x)
    if not math.isfinite(merit):
        raise SolverError(f"{context}: non-finite residual at the start")
    rcond = None
    for iteration in range(max_iter + 1):
        norm = float(np.max(np.abs(f), initial=0.0))
        if norm <= tol:
            return x, norm, iteration, rcond
        if iteration == max_iter:
            raise SolverError(f"{context}: Newton did not converge "
                              f"(residual {norm:.3e} after {max_iter} iterations)")
        solver, rcond, floor = factor_fn(x, context)
        if norm <= floor:
            return x, norm, iteration, rcond
        step = -solver.solve(f)
        for t in (0.5 ** k for k in range(40)):
            x_try = x + t * step
            f_try, merit_try = evaluate(x_try)
            if merit_try <= merit - 1e-4 * t * 2.0 * merit:
                break
        else:
            raise SolverError(f"{context}: Armijo line search failed"
                              + ("" if np.isfinite(step).all() else " (non-finite step)"))
        x, f, merit = x_try, f_try, merit_try


def _factor_and_rcond(jac: csc_matrix, context: str):
    """Sparse LU plus the reciprocal condition indicator; raises on singularity."""
    n = jac.shape[0]
    if n == 0:
        raise SolverError(f"{context}: empty system")
    try:
        lu = splu(jac.tocsc())
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        raise SingularSystem(f"{context}: singular linearised system ({err})") from None
    norm_j = float(np.max(np.abs(jac).sum(axis=0))) if jac.nnz else 0.0
    if norm_j == 0.0:
        raise SingularSystem(f"{context}: zero Jacobian")
    if n <= 200:
        inv = lu.solve(np.eye(n))
        norm_inv = float(np.max(np.abs(inv).sum(axis=0)))
    else:
        op = LinearOperator((n, n), matvec=lambda b: lu.solve(b),
                            rmatvec=lambda b: lu.solve(b, trans="T"))
        norm_inv = float(onenormest(op))
    rcond = 1.0 / (max(1.0, norm_j) * norm_inv)
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystem(
            f"{context}: linearised system numerically singular (rcond {rcond:.3e})",
            rcond=rcond)
    return lu, rcond


def _del_newton(density: LagrangianDensity, values: np.ndarray, index, jac_index,
                eqs, unknowns, dt: float, dx: float):
    """``solve(x0, tol, max_iter, context)``: Newton on the DEL residuals of
    the triangles ``index`` at the flat nodes ``eqs`` of ``values``, for the
    values at the flat nodes ``unknowns`` (other nodes keep their value in
    ``values`` at call time), with the Jacobian of the triangles
    ``jac_index``.  A quadratic density's LU is made once and kept.
    Returns (filled copy of ``values``, residual norm, iterations, rcond).
    """
    kept = None

    def fill(x):
        out = values.copy()
        out.flat[unknowns] = x
        return out

    def factor(x, context):
        nonlocal kept
        if kept:
            return kept
        # The kernel's triplets are freed before the LU.
        jac = _sparse_block(triangle_kernel(density, fill(x), jac_index, dt, dx,
                                            gradient=False, hessian=True).triplets,
                            values.size, eqs, unknowns)
        out = (*_factor_and_rcond(jac, context), 0.0)
        kept = out if density.is_quadratic else None
        return out

    def solve(x0, tol, max_iter, context):
        x, norm, iterations, rcond = _newton(
            lambda x: triangle_kernel(density, fill(x), index, dt, dx).residual[eqs],
            factor, x0, tol, max_iter, context)
        return fill(x), norm, iterations, factor(x, context)[1] if rcond is None else rcond

    return solve


# ---------------------------------------------------------------------------
# Time stepping


def _row_stepper(density: LagrangianDensity, mesh: QuadMesh, closure: Closure, *,
                 tol: float = 1e-12, max_iter: int = 50):
    """``step(u_prev, u_curr, row_index)``: :func:`step_row` for a whole run.

    The closure, triangle indices and column sets are built once, and a
    quadratic density's row Jacobian (the same for every row) is factored,
    with its rcond check, once on first use.
    """
    closure = parse_closure(closure)
    periodic = isinstance(closure, PeriodicClosure)
    ncols = mesh.nx + 1
    if periodic:
        columns = anchors = np.arange(ncols)
    else:
        columns, anchors = np.arange(1, ncols - 1), np.arange(ncols - 1)
    # Rows 0, 1, 2 of ``stack`` are u_prev, u_curr and the new row; the
    # equations sit on row 1 and the unknowns on row 2.  Only the upper
    # triangles hold new-row values, so only they enter the Jacobian.
    stack = np.zeros((3, ncols))
    solve = _del_newton(density, stack,
                        triangle_index(np.array([[0], [1]]), anchors, ncols, periodic),
                        triangle_index(np.array([1]), anchors, ncols, periodic),
                        ncols + columns, 2 * ncols + columns, mesh.dt, mesh.dx)

    def step(u_prev, u_curr, row_index: int) -> np.ndarray:
        u_prev, u_curr = (np.asarray(u, dtype=float) for u in (u_prev, u_curr))
        if u_prev.shape != (ncols,) or u_curr.shape != (ncols,):
            raise ValueError(f"rows must have {ncols} columns")
        stack[0], stack[1] = u_prev, u_curr
        if not periodic:
            stack[2, 0], stack[2, -1] = closure.end_values(row_index)
        if not len(columns):
            return stack[2].copy()
        x0 = (2.0 * u_curr - u_prev)[columns]
        return solve(x0, tol, max_iter, f"step_row (row {row_index})")[0][2]

    return step


def step_row(density: LagrangianDensity, mesh: QuadMesh, u_prev, u_curr,
             closure: Closure, *, row_index: int = 1, tol: float = 1e-12,
             max_iter: int = 50) -> np.ndarray:
    """Advance one time level: solve the DEL equations of the current row.

    ``u_prev``/``u_curr`` are the two known consecutive rows; the return value
    is the next row.  The system couples each new value to its left
    neighbour only (bidiagonal; cyclic for the periodic closure), and is
    explicit for densities without space-time cross terms.  ``row_index`` is
    the time index of the new row, used for callable fixed-end values and
    named in solver errors.
    """
    step = _row_stepper(density, mesh, closure, tol=tol, max_iter=max_iter)
    return step(u_prev, u_curr, row_index)


def propagate(density: LagrangianDensity, mesh: QuadMesh, row0, row1,
              closure: Closure, **step_kwargs) -> DiscreteField:
    """Fill a whole field from its first two rows, one :func:`step_row` per
    row; a quadratic density's row Jacobian is factored once for the run."""
    step = _row_stepper(density, mesh, closure, **step_kwargs)
    values = np.zeros(mesh.shape)
    values[0], values[1] = np.asarray(row0, dtype=float), np.asarray(row1, dtype=float)
    for n in range(1, mesh.nt):
        values[n + 1] = step(values[n - 1], values[n], n + 1)
    return DiscreteField(mesh, values)


# ---------------------------------------------------------------------------
# Boundary-value solves


@dataclass(frozen=True)
class BvpSolveReport:
    """Result of a DEL boundary-value solve."""

    field: DiscreteField
    region: Region
    residual_norm: float
    iterations: int
    rcond: float


def solve_bvp(density: LagrangianDensity, mesh: QuadMesh, boundary: BoundaryData,
              *, tol: float = 1e-12, max_iter: int = 50,
              initial: DiscreteField = None) -> BvpSolveReport:
    """Solve the DEL equations on a region with Dirichlet boundary data.

    Unknowns are the strict interior nodes of ``boundary.region``; equations
    are the DEL residuals there.  Nodes outside the region keep the value of
    ``initial`` (zero by default).  Returns the filled field together with
    the final residual norm, Newton iteration count and condition indicator.
    """
    region = boundary.region
    check_region_fits(region, mesh)
    unknowns = interior_nodes(region)
    if not unknowns:
        raise ValueError(f"region {region} has no interior nodes")
    ncols = mesh.nx + 1
    inner = node_index(unknowns, ncols)
    base = np.zeros(mesh.shape) if initial is None else initial.values.copy()
    base.flat[node_index(boundary.nodes, ncols)] = boundary.values
    x0 = np.full(len(unknowns), float(np.mean(boundary.values)))
    if initial is not None:
        x0 = initial.values.ravel()[inner]
    index = region_index(region, ncols)
    solve = _del_newton(density, base, index, index, inner, inner, mesh.dt, mesh.dx)
    values, norm, iters, rcond = solve(x0, tol, max_iter, "solve_bvp")
    return BvpSolveReport(field=DiscreteField(mesh, values), region=region,
                          residual_norm=norm, iterations=iters, rcond=rcond)


def tangent_solve(density: LagrangianDensity, field: DiscreteField, region: Region,
                  tangent_boundary, *, base_tol: float = 1e-8):
    """Solve the linearised DEL equations for first variations.

    ``field`` must satisfy the DEL equations at the interior nodes of
    ``region`` (checked against ``base_tol``).  ``tangent_boundary`` is one
    :class:`BoundaryData` or a sequence of them; the Jacobian is factored
    once and back-solved for each.  Each returned field carries its
    prescribed boundary tangent, solves the linearisation at the interior
    nodes and is zero outside the region: one field for one boundary, else
    a list in the given order.
    """
    mesh = field.mesh
    single = isinstance(tangent_boundary, BoundaryData)
    boundaries = [tangent_boundary] if single else list(tangent_boundary)
    if any(tb.region != region for tb in boundaries):
        raise ValueError("tangent boundary data is for a different region")
    check_region_fits(region, mesh)
    unknowns = interior_nodes(region)
    if not unknowns:
        raise ValueError(f"region {region} has no interior nodes")
    ncols = mesh.nx + 1
    inner = node_index(unknowns, ncols)
    terms = triangle_kernel(density, field.values, region_index(region, ncols),
                            mesh.dt, mesh.dx, hessian=True)
    res = terms.residual[inner]
    bad = np.flatnonzero(np.abs(res) > base_tol)
    if bad.size:
        (n, i), worst = unknowns[bad[0]], res[bad[0]]
        raise ValueError(
            f"base field does not satisfy the DEL equations at ({n}, {i}): "
            f"residual {worst:.3e} exceeds {base_tol:.1e}")

    taus = np.zeros((len(boundaries), mesh.shape[0] * ncols))
    for tau, tb in zip(taus, boundaries):
        tau[node_index(tb.nodes, ncols)] = tb.values
    jac, rhs = _sparse_block(terms.triplets, taus.shape[1], inner, inner, taus)
    del terms  # free the kernel's triplets before factoring
    lu, _ = _factor_and_rcond(jac, "tangent_solve")
    fields = []
    for tau, b in zip(taus, rhs):
        tau[inner] = lu.solve(b)
        fields.append(DiscreteField(mesh, tau.reshape(mesh.shape)))
    return fields[0] if single else fields
