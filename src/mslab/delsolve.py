"""Discrete Euler-Lagrange equations: residuals, stepping and BVP solves.

The discrete action of a region is the sum of triangle actions.  Varying the
value at an interior node touches the three triangles containing it (once in
each vertex slot), so the discrete Euler-Lagrange (DEL) residual at (n, i) is

    R(n, i) = d1 Ld(tri(n, i)) + d2 Ld(tri(n, i-1)) + d3 Ld(tri(n-1, i)),

where dk is the k-th vertex-slot derivative.  For the wave density this is
the classical leapfrog stencil scaled by dt*dx/2.

The solvers evaluate residuals for all triangles at once with
:func:`~mslab.lagrangian.triangle_kernel` (a scatter-add of slot gradients).
A kernel Hessian becomes a sparse matrix in one place, ``_hessian_operator``:
K, with a row per equation node and a column per node or unknown.  Newton
Jacobians are K at the unknowns.  Three consumers take K directly:
:func:`tangent_solve` (K[:, unknowns] and ``0.0 - K @ known``), the analytic
:func:`~mslab.msforms.hessian_symmetry` (Schur blocks sliced out of one K)
and the linearised residuals (K @ variation).  Newton writes each iterate in
place into one work array, copied once per returned row or field.
:func:`del_residual` is the per-node view, built on
:func:`~mslab.lagrangian.grad_Ld`.

Three solution drivers are provided, and the Newton driver behind them also
solves the mixed (type-II) problem of
:func:`~mslab.genfunc.boundary_hamiltonian`, whose residuals are slot sums
minus prescribed momenta:

* :func:`step_row` advances one time level by solving the DEL equations of
  the current level for the new row (a bidiagonal system, explicit for the
  wave density); its errors name the row.  :func:`propagate` steps a whole
  field with one row stepper.  For a quadratic density the stepper's
  residuals are one sparse row operator applied to the three stacked rows
  (see below), not kernel calls;
* :func:`solve_bvp` solves the space-time boundary-value problem on a region
  with Dirichlet data on the single boundary layer;
* :func:`tangent_solve` solves the linearised DEL equations for first
  variations with prescribed boundary tangents, one back-solve per tangent
  on a single factorisation.

Both nonlinear drivers, and the mechanics collocations with a dense Jacobian,
run one Newton core (Armijo backtracking, at most ``NEWTON_MAX_ITER`` = 50
steps).  Every sparse solver has one policy: it goes on from the LU its last
solve ended on, under a contraction monitor (simplified Newton; Deuflhard
2004, and the chord iteration of Kelley 2003).  A solver factors K at the
start of its first solve and keeps that LU, across steps and across solves
(the rows of a :func:`propagate` run, the fd sweep of
:func:`~mslab.msforms.hessian_symmetry`), while the contraction
theta = ||dx_k+1||_inf / ||dx_k||_inf of successive full steps on it stays
at or below ``THETA_MAX`` = 1/4, so that each kept step still gains at least
0.6 of a digit for the cost of a back-solve and a kernel residual.  When
theta exceeds it, or the line search fails on a kept LU, the current iterate
is factored afresh; only a line search that fails on a fresh LU raises.  A
quadratic density is the theta = 0 case: its LU is the Jacobian at every
iterate, so one step lands on the solution to round-off and the monitor
keeps the LU, and a solve that ends after one step takes no sup-norm for the
monitor.  The collocations factor at every iterate (Newton's method).

One stopping rule serves them all.  Any iterate, the start included, is
accepted when the sup-norm of its residual is at or below its round-off
floor (``_roundoff_floor``): 64 ulps of ||J||_inf, the largest row sum of |J|
over every value the residual reads, times ||x||_inf of those values.  Its
first factors, the floor per unit of ||x||_inf, are taken once per
factorisation; the sup-norms of residuals, and of a sparse solve's values,
are taken by BLAS idamax (``_sup_norm``).  No Newton step on a fixed
factorisation can reduce a residual below that level
(Higham 2002, ch. 12), and the floor scales with the data, so a start at the
solution is returned as it is and large data stop at round-off instead of
stalling.  J is the K of the LU in use, which may have been taken at an
earlier iterate: under the monitor the iterates stay close to it, a floor
that is too low only stalls the steps, which then stop contracting and
refactor, and the test of returned fields below takes K at the field.  A
floor that is not finite (||J|| ||x|| overflows) raises :class:`SolverError`.
After at least one step an iterate is also accepted at or below
``NEWTON_TOL`` = 1e-12; the start is not, since an absolute tolerance cannot
tell small data from a solution.  So every solve reports the rcond of the LU
it ended on, which may come from an earlier iterate or an earlier solve of
the same solver.

Whether a given field solves its DEL equations is decided by the same
level, in one place (``_check_solution``): every residual must be at or
below ``SOLVED_MARGIN`` = 2 times max(``NEWTON_TOL``, the round-off floor of
K and the field).  K is the field's, with a row at every interior node of
its whole mesh (``_field_hessian``), whatever region is tested: a row's
floor is at most that of any region holding it, so a solve on a larger
region than the one tested (a patch, say) may stop above the tested rows'
own floor, but not above the field's.  The margin covers kernel residuals
that round differently from ``R @ x``.  The base-field checks of
:func:`tangent_solve` and :func:`~mslab.msforms.msff_residual_region`, and
the latter's checks of the variations against the linearised equations
(floor of K and the variation), all apply it, so every field a Dirichlet
solve or a fixed-closure :func:`propagate` returns passes, at any data scale.
A quadratic density's Jacobian is the same at every iterate and row, so one
sparse LU serves a whole :func:`propagate` run, :func:`solve_bvp` or
type-II solve, whatever its iteration count.  Its DEL residuals are linear in
the node values, so each of these solvers builds one operator R on its first
solve, from a single kernel call; for the rows, K of the two triangle rows
at every node of the three stacked rows.  Each residual is then R @ values
(equal to the kernel's to round-off, not bit for bit), R's columns at the
unknowns are the Jacobian, and ||R||_inf is taken once, so the floor of an
iterate costs one sup-norm of the values.  Other densities take kernel
residuals at each iterate, and K over every column at each factorisation.
Solutions of a
quadratic density scale with their data, to round-off.
A non-finite Hessian raises :class:`SolverError` naming the function (and
the row) it was built for.

Every factorisation is accompanied by a reciprocal condition indicator

    rcond = 1 / (max(1, ||J||_1) * ||J^-1||_1).

For a Z-matrix J (no positive off-diagonal entry, as the Dirichlet-energy
systems are) one transposed solve gives y = J^-T 1.  If y > 0, then J^T y > 0
certifies J as a nonsingular M-matrix, so J^-1 >= 0 and ||J^-1||_1 is
max(y) exactly.  Any other J takes the exact value from the inverse for
n <= 200, and otherwise the ``onenormest`` estimate (Higham-Tisseur, two
columns; each block product is one two-column SuperLU solve) from numpy's
global RNG seeded with ``_RCOND_SEED``, so it is the same in every process;
the caller's RNG state is restored.  The indicator is scale-sensitive on
purpose: the three-triangle point stencil degenerates when dt = dx (its 1x1
Jacobian dx/dt - dt/dx vanishes with bounded data), and a scale-invariant
measure would hide that.  Indicators below 1e-12, and exactly singular
factorisations, raise :class:`SingularSystem`.

K stores only the couplings the density has: a triplet whose per-triangle
value is zero is dropped before assembly.  A density with no ``vw`` or
cell-average term (both built-ins, and the quartic at a zero field) has no
coupling between (n, i+1) and (n+1, i), so its Jacobians are the 5-point
stencil of (n, i) and (n +- 1, i), (n, i +- 1), not the 7 points of the
triangle graph, and every order below, fill, back-solve and condition
estimate works on that pattern.  SuperLU's column order is read off the
matrix.  If every column is
diagonally dominant (2|J_jj| >= sum_i |J_ij|, ties within 8 ulps included),
partial pivoting swaps no rows, so a symmetric order is kept as chosen: the
minimum-degree order of J + J^T, in SuperLU's symmetric mode, which takes
the diagonal pivot on ties.  The Dirichlet-energy and mixed (type-II)
systems are such matrices.  Otherwise, if the half-bandwidth
w = max|i - j| satisfies w^2 <= n, the natural order is kept: under partial
pivoting L stays within w and U within 2w of the diagonal, while COLAMD
picks its order before pivoting and the row swaps undo its fill prediction.
The wave Jacobian of an nt x nx rectangle is such a matrix when nt >= nx (w
is then the interior width).  Any other matrix is ordered by COLAMD; a wide
band fills less under it.  A column sum of |J| that overflows raises
:class:`SolverError` naming the solve.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg.blas import idamax
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .jetmesh import (BoundaryData, DiscreteField, QuadMesh, RectRegion, Region,
                      TriangleIndex, check_region_fits, interior_index,
                      jet_extension, node_index, region_index, triangle_index)
from .lagrangian import LagrangianDensity, grad_Ld, triangle_kernel

RCOND_FLOOR = 1e-12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# A kept LU is refactored when its steps contract by less than this (_newton).
THETA_MAX = 0.25
# A residual within this many Newton stopping levels is a solution (_check_solution).
SOLVED_MARGIN = 2.0
# Held while onenormest draws from numpy's global RNG, until it is restored.
_GLOBAL_RNG_LOCK = threading.Lock()
_RCOND_SEED = 0  # seeds the global RNG for each estimate, in every process


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

    ``left``/``right`` may be finite floats or callables of the new row index.
    """

    left: Union[float, Callable[[int], float]] = 0.0
    right: Union[float, Callable[[int], float]] = 0.0

    def __post_init__(self):
        for end in (self.left, self.right):
            if not (callable(end) or math.isfinite(end)):
                raise ValueError(f"fixed closure end {end!r} is not finite")

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
    return (grad_Ld(density, here)[0]
            + grad_Ld(density, left)[1]
            + grad_Ld(density, below)[2])


def _sparse_block(triplets, size: int, eqs, cols=None):
    """Sparse matrix of Hessian triplets, rows at the flat nodes ``eqs`` and
    columns at the flat nodes ``cols`` (default: all ``size`` nodes).

    Only the triplets with a nonzero per-triangle value are stored, so the
    matrix holds exactly the couplings the density has: a density with no
    ``vw`` or cell-average term gives a 5-point stencil, not the 7 points of
    the triangle graph.  Every stored sum is the same to the bit, since
    adding a signed zero to a nonzero partial sum is exact and the triplet
    order is kept; an entry whose nonzero terms cancel is still stored."""
    rows, nodes, vals = triplets
    cols = np.arange(size) if cols is None else cols
    number = np.full((2, size), -1, dtype=np.int32)
    number[0, eqs], number[1, cols] = np.arange(len(eqs)), np.arange(len(cols))
    r, c = number[0, rows], number[1, nodes]
    keep = (r >= 0) & (c >= 0) & (vals != 0.0)
    return csc_matrix((vals[keep], (r[keep], c[keep])), shape=(len(eqs), len(cols)))


# ---------------------------------------------------------------------------
# Newton core (shared by the row stepper, solve_bvp and the mechanics lane)


def _newton(residual_fn, factor_fn, x0, context: str, factor=None,
            theta_max: float = THETA_MAX, f0=None):
    """Damped Newton iteration on F(x) = 0 with Armijo backtracking, on a
    kept factorisation under a contraction monitor, for at most
    ``NEWTON_MAX_ITER`` steps.

    ``factor_fn(x, context)`` factors the Jacobian at x, the point of the
    last ``residual_fn`` call, and returns (solver with ``.solve``, rcond,
    floor), where ``floor(x)`` is the round-off floor of F at an iterate x
    taken with that Jacobian (:func:`_roundoff_floor`).  ``factor`` is such a
    triple to go on from, as a solver's last solve left it; without one the
    start is factored.  ``f0`` is F(x0) when the caller already has it (the
    dense lane reads it off the start Jacobian's dual evaluation); without
    it the start is evaluated like every trial iterate.

    A factor is kept across steps (simplified Newton; Deuflhard 2004,
    Kelley 2003) while the contraction theta = ||dx_k+1||_inf / ||dx_k||_inf
    of successive full steps on it stays at or below ``theta_max``.  When
    theta exceeds it, or the line search fails on a factor not taken at the
    current iterate, the current iterate is factored again and its step
    taken on that; only a failed line search on a fresh factor raises.  The
    two sup-norms are taken only when a second step is taken on one factor,
    so a solve that ends after one step does no monitor work.  A factor of a
    linear F is its Jacobian everywhere: theta is 0 up to round-off, and the
    factor is kept.  ``theta_max`` = 0 refactors at every iterate, after the
    old factor's floor test and without a step on it: Newton's method.  The
    mechanics collocations take it: under the monitor the pendulum's golden
    values moved (its discrete Lagrangian by 1 ulp, its Hamiltonian by 6 and
    its type-I map momentum by about 1.2e-13), though the harmonic ones
    stayed bit-identical.

    Every iterate, the start included, is accepted when the sup-norm of F
    (:func:`_sup_norm`, taken once per accepted F) is at or below its
    floor; an iterate after at least one step also when it is at or below
    ``NEWTON_TOL``.  A non-finite floor, or a non-finite
    residual at the start, raises :class:`SolverError`; a non-finite
    residual at a trial iterate fails the Armijo test.  Returns (x, sup-norm
    of residual, steps, the factor in use), x being the point of the last
    ``residual_fn`` call.
    """

    def evaluate(x, f=None):  # F(x), unless given, and the merit |F|^2 / 2
        try:
            with np.errstate(all="ignore"):
                f = np.asarray(residual_fn(x) if f is None else f, dtype=float)
                return f, 0.5 * float(f @ f)
        except ValueError:  # the kernel's report of a non-finite value
            return None, math.inf

    x = np.array(x0, dtype=float)
    f, merit = evaluate(x, f0)
    if not math.isfinite(merit):
        raise SolverError(f"{context}: non-finite residual at the start")
    norm = _sup_norm(f)  # of every accepted F: its merit is finite, so is F
    steps, fresh, last = 0, False, None  # last: the last full step on this factor
    while True:
        if steps and norm <= NEWTON_TOL:
            return x, norm, steps, factor
        if factor is None:
            factor, fresh, last = factor_fn(x, context), True, None
        solver, _, floor = factor
        level = floor(x)
        if not math.isfinite(level):
            raise SolverError(f"{context}: round-off floor is not finite")
        if norm <= level:
            return x, norm, steps, factor
        if steps == NEWTON_MAX_ITER:
            raise SolverError(f"{context}: Newton did not converge "
                              f"(residual {norm:.3e} after {steps} iterations)")
        if last is not None and theta_max == 0.0:
            factor = None  # no step on an old factor could pass theta <= 0
            continue
        step = -solver.solve(f)
        if last is not None and not (np.abs(step).max(initial=0.0)
                                     <= theta_max * np.abs(last).max(initial=0.0)):
            factor = None  # theta > theta_max, or NaN: refactor here
            continue
        for t in (0.5 ** k for k in range(40)):
            x_try = x + t * step
            f_try, merit_try = evaluate(x_try)
            if merit_try <= merit - 1e-4 * t * 2.0 * merit:
                break
        else:
            if not fresh:  # a step on a kept factor need not descend
                factor = None
                continue
            raise SolverError(f"{context}: Armijo line search failed"
                              + ("" if np.isfinite(step).all() else " (non-finite step)"))
        x, f, merit = x_try, f_try, merit_try
        norm, steps, fresh, last = _sup_norm(f), steps + 1, False, step


def _sup_norm(f) -> float:
    """||f||_inf of a finite vector, 0.0 if it is empty: BLAS idamax finds the
    largest |entry| without a temporary array (it may skip a NaN)."""
    return abs(float(f[idamax(f)])) if len(f) else 0.0


_ULPS64 = 64.0 * float(np.finfo(float).eps)  # a power of two: the product is exact


def _roundoff_floor(jac, x=None) -> float:
    """Round-off level of a residual J x - b, at or below which no Newton
    step can reduce it: 64 ulps of ||J||_inf, the largest row sum of |J|
    (dense or sparse), times ||x||_inf.  Without x it is the floor per unit
    of ||x||_inf, which times ||x||_inf is the floor at x bit for bit."""
    # A CSC matrix's abs(J).sum(axis=1) summed as scipy sums it, without the sparse copy.
    rows = (np.bincount(jac.indices, np.abs(jac.data), jac.shape[0])
            if isinstance(jac, csc_matrix) else abs(jac).sum(axis=1))
    # Python floats: a product that overflows is inf, without a numpy warning.
    unit = _ULPS64 * float(rows.max())
    return unit if x is None else unit * float(np.abs(x).max())


def _field_hessian(density: LagrangianDensity, field: DiscreteField, context: str):
    """K of the field at every interior node of its whole mesh.  A Dirichlet
    solve or a fixed-closure row on the mesh solves a block of its rows, so
    its round-off floor is at or above the level at which any of them stops,
    whatever region a solution test covers.  A non-finite Hessian raises
    :class:`SolverError` naming ``context``."""
    mesh, whole = field.mesh, RectRegion(0, 0, field.mesh.nt, field.mesh.nx)
    return _hessian_operator(density, field.values, region_index(whole, mesh.nx + 1),
                             interior_index(whole, mesh.nx + 1), mesh.dt, mesh.dx, context)


def _check_solution(residual, nodes, ncols: int, what: str, hessian, values) -> None:
    """ValueError naming ``what`` at the first of the flat ``nodes``, in
    their order, whose residual is not within ``SOLVED_MARGIN`` times the
    level at which :func:`_newton` stops: max(``NEWTON_TOL``, the round-off
    floor of K = ``hessian()``, the field's (:func:`_field_hessian`), and
    ``values``).  K is built, and the floor taken, only when some |residual|
    exceeds ``SOLVED_MARGIN * NEWTON_TOL``.  A non-finite residual always
    fails."""
    bound = SOLVED_MARGIN * NEWTON_TOL
    if np.abs(residual).max(initial=0.0) <= bound:
        return
    bound = max(bound, SOLVED_MARGIN * _roundoff_floor(hessian(), values))
    bad = np.flatnonzero(~np.isfinite(residual) | (np.abs(residual) > bound))
    if bad.size:
        (n, i), worst = divmod(int(nodes[bad[0]]), ncols), residual[bad[0]]
        raise ValueError(f"{what} at ({n}, {i}): residual {worst:.3e} exceeds {bound:.1e}")


def _inverse_norm(lu, n: int, z_matrix: bool) -> float:
    """||J^-1||_1 of the factored J: exact from one transposed solve for an
    M-matrix, exact from the inverse for n <= 200, else ``onenormest``'s."""
    if z_matrix:
        y = lu.solve(np.ones(n), trans="T")
        if np.all(y > 0.0):  # with J^T y = 1 > 0: a nonsingular M-matrix
            return float(y.max())
    if n <= 200:
        inv = lu.solve(np.eye(n))
        return float(np.max(np.abs(inv).sum(axis=0)))
    # One SuperLU solve per block product; C order keeps onenormest's
    # column sums those of one solve per column.
    fwd, adj = (lambda b, t=t: np.ascontiguousarray(lu.solve(b, trans=t)) for t in "NT")
    op = LinearOperator((n, n), matvec=fwd, rmatvec=adj, matmat=fwd, rmatmat=adj,
                        dtype=float)
    with _GLOBAL_RNG_LOCK:  # the caller's state is restored afterwards
        state = np.random.get_state()
        try:
            np.random.seed(_RCOND_SEED)
            return float(onenormest(op))
        finally:
            np.random.set_state(state)


def _factor_and_rcond(jac: csc_matrix, context: str):
    """Sparse LU plus the reciprocal condition indicator; raises on singularity,
    and SolverError when a column sum of |J| overflows.

    If every column is diagonally dominant, pivoting swaps no rows and a
    symmetric minimum-degree order of J + J^T is kept as it is.  Otherwise
    the natural column order is kept when the half-bandwidth w satisfies
    w^2 <= n: pivoting keeps the factors in a band, and the swaps undo
    COLAMD's fill prediction.  Otherwise COLAMD orders the columns.

    For a Z-matrix (no positive off-diagonal entry) one transposed solve
    gives y = J^-T 1; if y > 0, J is a nonsingular M-matrix, J^-1 >= 0 and
    ||J^-1||_1 = max(y) exactly.  Any other J takes the dense inverse
    (n <= 200) or ``onenormest``.  J has a row: every caller refuses a
    system without unknowns before it gets here.
    """
    n = jac.shape[0]
    jac = jac.tocsc()
    counts = np.diff(jac.indptr)
    offset = jac.indices - np.repeat(np.arange(n), counts)  # i - j per entry
    z_matrix = not np.any(jac.data[offset != 0] > 0.0)
    # abs(J).sum(axis=0) summed as scipy sums it, without the sparse copy.
    filled = np.flatnonzero(counts)
    col_sums = np.zeros(n)
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        col_sums[filled] = np.add.reduceat(np.abs(jac.data), jac.indptr[filled])
    if not np.isfinite(col_sums).all():
        raise SolverError(f"{context}: a column sum of the Jacobian is not finite")
    # 8 ulps of slack: a tie (|J_jj| = the rest of its column) may round either way.
    # Halving the sums, not doubling |J_jj|, is exact and cannot overflow.
    if not np.any(np.abs(jac.diagonal()) < 0.5 * (1.0 - 8 * np.finfo(float).eps) * col_sums):
        # Threshold 1 still pivots partially; SuperLU takes the diagonal on ties.
        order = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
    else:
        width = int(np.abs(offset).max())
        order = {"permc_spec": "NATURAL" if width * width <= n else "COLAMD"}
    del offset  # freed before factoring
    try:
        lu = splu(jac, **order)
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        raise SingularSystem(f"{context}: singular linearised system ({err})") from None
    # A zero J is exactly singular above, so ||J||_1 > 0 here.
    rcond = 1.0 / (max(1.0, float(col_sums.max())) * _inverse_norm(lu, n, z_matrix))
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystem(
            f"{context}: linearised system numerically singular (rcond {rcond:.3e})",
            rcond=rcond)
    return lu, rcond


def _hessian_operator(density: LagrangianDensity, values: np.ndarray, index, eqs,
                      dt: float, dx: float, context: str, cols=None):
    """The sparse Hessian K of the DEL residuals of the triangles ``index``,
    with a row per flat node of ``eqs`` and a column per flat node of
    ``cols`` (default: every node of ``values``).

    K is taken at ``values``, or at zeros for a quadratic density, whose
    Hessian is the same everywhere; for such a density the DEL residuals at
    ``eqs`` are ``K @ values.ravel()``.  K stores only the nonzero
    per-triangle couplings (:func:`_sparse_block`), so a density with no
    ``vw`` or cell-average term, like both built-ins, gives a 5-point
    stencil.  A non-finite Hessian (the kernel's ValueError) raises
    :class:`SolverError` naming ``context``.
    """
    try:
        triplets = triangle_kernel(density,
                                   np.zeros_like(values) if density.is_quadratic else values,
                                   index, dt, dx, gradient=False, hessian=True).triplets
    except ValueError as exc:
        raise SolverError(f"{context}: {exc}") from None
    return _sparse_block(triplets, values.size, eqs, cols)


def _del_newton(density: LagrangianDensity, values: np.ndarray, index, eqs, unknowns,
                dt: float, dx: float, *, target=None):
    """``solve(x0, context)``: Newton on the DEL residuals (slot sums) of the
    triangles ``index`` at the flat nodes ``eqs`` of the C-contiguous work
    array ``values``, minus ``target`` (default zero), for the values at the
    flat nodes ``unknowns``, written in place (other nodes keep their
    value).  The Jacobian is K (:func:`_hessian_operator` at every column)
    at the ``unknowns`` columns.  The first solve factors K at its start;
    every later solve goes on from the LU the one before it ended on, under
    :func:`_newton`'s contraction monitor.  The round-off floor of an
    iterate is that of the kept K and all of ``values``
    (:func:`_roundoff_floor`).  Returns (residual norm, steps, rcond of the
    LU in use); ``values`` then holds the solution.

    For a quadratic density the residuals are R @ values - target for one
    operator R, K at any values, made with the first LU; that LU is the
    Jacobian at every iterate, so the monitor keeps it.  Other
    densities take kernel residuals.
    """
    linear = density.is_quadratic
    operator = kept = None
    work = values.reshape(-1)  # a view of ``values``

    def residual(x):
        work[unknowns] = x
        f = (operator @ work if linear
             else triangle_kernel(density, values, index, dt, dx).residual[eqs])
        return f if target is None else f - target

    def factor(x, context):  # ``work`` holds x, where the last residual was taken
        nonlocal operator
        k = _hessian_operator(density, values, index, eqs, dt, dx, context)
        if linear:
            operator = k
        unit_floor = _roundoff_floor(k)
        return (*_factor_and_rcond(k[:, unknowns], context),
                lambda x: unit_floor * _sup_norm(work))

    def solve(x0, context):
        nonlocal kept
        if linear and kept is None:
            kept = factor(x0, context)  # R is needed by the first residual
        # ``values`` is left at the returned x, where the last residual was taken.
        _, norm, steps, kept = _newton(residual, factor, x0, context, kept)
        return norm, steps, kept[1]

    return solve


# ---------------------------------------------------------------------------
# Time stepping


def _row_stepper(density: LagrangianDensity, mesh: QuadMesh, closure: Closure):
    """``step(u_prev, u_curr, row_index)``: :func:`step_row` for a whole run.

    The closure, triangle indices and column sets are built once, and the
    rows are solved by one :func:`_del_newton` solver: its row Jacobian is
    factored, with its rcond check, at the first row's start guess, and each
    row goes on from the LU the row before it ended on.  A quadratic
    density's row operator and LU serve every row; another density's LU is
    refactored only when the contraction monitor asks for it.
    """
    closure = parse_closure(closure)
    periodic = isinstance(closure, PeriodicClosure)
    ncols = mesh.nx + 1
    if periodic:
        columns = anchors = np.arange(ncols)
    else:
        columns, anchors = np.arange(1, ncols - 1), np.arange(ncols - 1)
    # Rows 0, 1, 2 of ``stack`` are u_prev, u_curr and the new row; the
    # equations sit on row 1 and the unknowns on row 2.  The lower triangles
    # hold no new-row value, so they put nothing in the Jacobian's columns.
    stack = np.zeros((3, ncols))
    solve = _del_newton(density, stack,
                        triangle_index(np.array([[0], [1]]), anchors, ncols, periodic),
                        ncols + columns, 2 * ncols + columns, mesh.dt, mesh.dx)

    def step(u_prev, u_curr, row_index: int) -> np.ndarray:
        u_prev, u_curr = (np.asarray(u, dtype=float) for u in (u_prev, u_curr))
        if u_prev.shape != (ncols,) or u_curr.shape != (ncols,):
            raise ValueError(f"rows must have {ncols} columns")
        stack[0], stack[1] = u_prev, u_curr
        if not periodic:
            stack[2, 0], stack[2, -1] = closure.end_values(row_index)
        if len(columns):
            with np.errstate(all="ignore"):  # _newton reports a non-finite start
                guess = (2.0 * u_curr - u_prev)[columns]
            solve(guess, f"step_row (row {row_index})")
        return stack[2].copy()

    return step


def step_row(density: LagrangianDensity, mesh: QuadMesh, u_prev, u_curr,
             closure: Closure, *, row_index: int = 1) -> np.ndarray:
    """Advance one time level: solve the DEL equations of the current row.

    ``u_prev``/``u_curr`` are the two known consecutive rows; the return value
    is the next row.  The system couples each new value to its left
    neighbour only (bidiagonal; cyclic for the periodic closure), and is
    explicit for densities without space-time cross terms.  ``row_index`` is
    the time index of the new row, used for callable fixed-end values and
    named in solver errors.  The row Jacobian is factored at the start
    guess 2 u_curr - u_prev.
    """
    step = _row_stepper(density, mesh, closure)
    return step(u_prev, u_curr, row_index)


def propagate(density: LagrangianDensity, mesh: QuadMesh, row0, row1,
              closure: Closure) -> DiscreteField:
    """Fill a whole field from its first two rows, solving each row's DEL
    equations as :func:`step_row` does.  The row Jacobian is factored at the
    first row's start guess and kept across rows, for any density, until the
    contraction monitor asks for a refactor (a quadratic density's LU is the
    Jacobian of every row).  So a non-quadratic field solves each row to
    the Newton stopping level, but is not bit for bit the chained
    :func:`step_row` rows."""
    step = _row_stepper(density, mesh, closure)
    values = np.zeros(mesh.shape)
    values[0], values[1] = np.asarray(row0, dtype=float), np.asarray(row1, dtype=float)
    for n in range(1, mesh.nt):
        values[n + 1] = step(values[n - 1], values[n], n + 1)
    return DiscreteField(mesh, values)


# ---------------------------------------------------------------------------
# Boundary-value solves


@dataclass(frozen=True)
class BvpSolveReport:
    """Result of a DEL boundary-value solve.

    ``iterations`` counts Newton steps; ``rcond`` is the condition indicator
    of the LU the solve ended on, which may have been taken at an earlier
    iterate (see the module docstring).
    """

    field: DiscreteField
    region: Region
    residual_norm: float
    iterations: int
    rcond: float


def solve_bvp(density: LagrangianDensity, mesh: QuadMesh, boundary: BoundaryData,
              *, initial: DiscreteField = None) -> BvpSolveReport:
    """Solve the DEL equations on a region with Dirichlet boundary data.

    Unknowns are the strict interior nodes of ``boundary.region``; equations
    are the DEL residuals there.  Nodes outside the region keep the value of
    ``initial`` (zero by default).  Returns the filled field together with
    the final residual norm, Newton step count and the condition indicator
    of the LU it ended on.

    Newton stops at the round-off floor of the residual, or at
    ``NEWTON_TOL`` after a step (see the module docstring), so a start at
    the solution is returned as it is and tiny data are solved rather than
    accepted at their start guess.  For a quadratic density the system is
    linear and the solve is scale-invariant: data s*b give s times the field
    of b, to round-off, from tiny data up to where the Newton merit |F|^2
    overflows (about 1e154).
    """
    region = boundary.region
    check_region_fits(region, mesh)
    ncols = mesh.nx + 1
    inner = interior_index(region, ncols)
    if not inner.size:
        raise ValueError(f"region {region} has no interior nodes")
    base = np.zeros(mesh.shape) if initial is None else initial.values.copy()
    base.flat[node_index(boundary.nodes, ncols)] = boundary.values
    with np.errstate(all="ignore"):  # a sum that overflows is a non-finite start
        x0 = (np.full(inner.size, float(np.mean(boundary.values))) if initial is None
              else initial.values.ravel()[inner])
    index = region_index(region, ncols)
    solve = _del_newton(density, base, index, inner, inner, mesh.dt, mesh.dx)
    norm, iters, rcond = solve(x0, "solve_bvp")
    return BvpSolveReport(field=DiscreteField(mesh, base), region=region,
                          residual_norm=norm, iterations=iters, rcond=rcond)


def tangent_solve(density: LagrangianDensity, field: DiscreteField, region: Region,
                  tangent_boundary):
    """Solve the linearised DEL equations for first variations.

    ``field`` must solve the DEL equations at the interior nodes of
    ``region`` at the level at which the Newton solves stop, with the margin
    of the module docstring; the first node that does not raises ValueError.
    ``tangent_boundary`` is one :class:`BoundaryData` or a sequence of them;
    the Jacobian is factored once and back-solved for each.  Each returned
    field carries its prescribed boundary tangent, solves the linearisation
    at the interior nodes and is zero outside the region: one field for one
    boundary, else a list in the given order.
    """
    mesh = field.mesh
    single = isinstance(tangent_boundary, BoundaryData)
    boundaries = [tangent_boundary] if single else list(tangent_boundary)
    if any(tb.region != region for tb in boundaries):
        raise ValueError("tangent boundary data is for a different region")
    check_region_fits(region, mesh)
    ncols = mesh.nx + 1
    inner = interior_index(region, ncols)
    if not inner.size:
        raise ValueError(f"region {region} has no interior nodes")
    index = region_index(region, ncols)
    res = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx).residual[inner]
    k = _hessian_operator(density, field.values, index, inner, mesh.dt, mesh.dx,
                          "tangent_solve")
    _check_solution(res, inner, ncols, "base field does not satisfy the DEL equations",
                    lambda: _field_hessian(density, field, "tangent_solve"), field.values)

    taus = np.zeros((len(boundaries), mesh.shape[0] * ncols))
    for tau, tb in zip(taus, boundaries):
        tau[node_index(tb.nodes, ncols)] = tb.values
    # 0.0 - K tau rather than -K tau: rows without a boundary column stay +0.0.
    jac, rhs = k[:, inner], [0.0 - k @ tau for tau in taus]
    del k  # freed before factoring
    lu, _ = _factor_and_rcond(jac, "tangent_solve")
    for tau, b in zip(taus, rhs):
        tau[inner] = lu.solve(b)
    fields = [DiscreteField(mesh, tau.reshape(mesh.shape)) for tau in taus]
    return fields[0] if single else fields
