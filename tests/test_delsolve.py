import copy
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from mslab import (
    BoundaryData,
    DiscreteField,
    FixedClosure,
    HarmonicDirichlet,
    LinearWave,
    MixedBoundaryData,
    Patch3Region,
    PeriodicClosure,
    QuadraticDensity,
    RectRegion,
    SingularSystem,
    SolverError,
    UserDensity,
    boundary_hamiltonian,
    boundary_lagrangian,
    boundary_nodes,
    build_mesh,
    canonical_type2_split,
    del_residual,
    hessian_symmetry,
    interior_index,
    node_index,
    normal_momenta,
    parse_closure,
    propagate,
    quartic_test_density,
    region_index,
    solve_bvp,
    step_row,
    tangent_solve,
    triangle_index,
    triangle_kernel,
)
from mslab import delsolve as delsolve_module
from mslab import dual
from mslab.msforms import linearized_del_residual, msff_residual_patch, msff_residual_region


def seeded_wave_field(mesh, seed, closure=None, amplitude=0.1):
    rng = np.random.default_rng(seed)
    closure = closure or PeriodicClosure()
    row0 = amplitude * rng.standard_normal(mesh.nx + 1)
    row1 = row0 + mesh.dt * amplitude * rng.standard_normal(mesh.nx + 1)
    if isinstance(closure, FixedClosure):
        for idx, row in ((0, row0), (1, row1)):
            row[0], row[-1] = closure.end_values(idx)
    return propagate(LinearWave, mesh, row0, row1, closure)


class TestClosures:
    def test_parse(self):
        assert isinstance(parse_closure("periodic"), PeriodicClosure)
        clos = parse_closure({"fixed": [1.0, -2.0]})
        assert clos.end_values(7) == (1.0, -2.0)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_closure("reflecting")
        with pytest.raises(ValueError):
            parse_closure({"left": 0.0, "right": 0.0})

    def test_callable_ends(self):
        clos = FixedClosure(lambda n: float(n), 0.0)
        assert clos.end_values(3) == (3.0, 0.0)

    @pytest.mark.parametrize("ends", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 0.0]])
    def test_non_finite_ends_rejected(self, ends):
        with pytest.raises(ValueError, match="fixed closure end .* is not finite"):
            parse_closure({"fixed": ends})
        with pytest.raises(ValueError, match="is not finite"):
            FixedClosure(*ends)


class TestDelResidual:
    def test_frozen_unit_future_value(self):
        # Zero field except u(n+1, i) = 1 at unit spacings: the only
        # contribution is slot 3 of the triangle below, A * Lv/dt = -...
        mesh = build_mesh(dt=1.0, dx=1.0, nt=2, nx=2)
        f = DiscreteField.zeros(mesh).with_value(2, 1, 1.0)
        assert del_residual(LinearWave, f, 1, 1) == pytest.approx(-0.5)

    def test_equals_scaled_leapfrog_for_wave(self):
        mesh = build_mesh(dt=0.25, dx=0.5, nt=5, nx=6)
        rng = np.random.default_rng(3)
        f = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        c2 = mesh.aspect_ratio ** 2
        area = mesh.dt * mesh.dx / 2.0
        for n in range(1, mesh.nt):
            for i in range(1, mesh.nx):
                leap = (f[n + 1, i] - 2.0 * f[n, i] + f[n - 1, i]
                        - c2 * (f[n, i + 1] - 2.0 * f[n, i] + f[n, i - 1]))
                expected = -leap * (area / mesh.dt ** 2)
                assert del_residual(LinearWave, f, n, i) == pytest.approx(
                    expected, rel=1e-12, abs=1e-14)

    def test_periodic_wraps_columns(self):
        mesh = build_mesh(dt=0.25, dx=0.5, nt=4, nx=4)
        rng = np.random.default_rng(4)
        f = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        res = del_residual(LinearWave, f, 2, 0, periodic=True)
        assert np.isfinite(res)

    def test_interior_rows_only(self):
        mesh = build_mesh(dt=1.0, dx=1.0, nt=3, nx=3)
        f = DiscreteField.zeros(mesh)
        with pytest.raises(ValueError):
            del_residual(LinearWave, f, 0, 1)
        with pytest.raises(ValueError):
            del_residual(LinearWave, f, 3, 1)


class TestStepRowAndPropagate:
    def test_wave_step_is_explicit_leapfrog(self):
        mesh = build_mesh(dt=0.25, dx=0.5, nt=3, nx=5)
        rng = np.random.default_rng(5)
        u_prev = rng.standard_normal(mesh.nx + 1)
        u_curr = rng.standard_normal(mesh.nx + 1)
        clos = FixedClosure(float(u_curr[0]), float(u_curr[-1]))
        new = step_row(LinearWave, mesh, u_prev, u_curr, clos, row_index=2)
        c2 = mesh.aspect_ratio ** 2
        for i in range(1, mesh.nx):
            leap = (2.0 * u_curr[i] - u_prev[i]
                    + c2 * (u_curr[i + 1] - 2.0 * u_curr[i] + u_curr[i - 1]))
            assert new[i] == pytest.approx(leap, rel=1e-12, abs=1e-13)
        assert new[0] == u_curr[0] and new[-1] == u_curr[-1]

    @pytest.mark.parametrize("closure", [PeriodicClosure(),
                                         FixedClosure(0.0, 0.0)])
    def test_propagated_field_solves_del(self, closure):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=8, nx=7)
        f = seeded_wave_field(mesh, 6, closure)
        periodic = isinstance(closure, PeriodicClosure)
        cols = range(mesh.nx + 1) if periodic else range(1, mesh.nx)
        for n in range(1, mesh.nt):
            for i in cols:
                assert abs(del_residual(LinearWave, f, n, i,
                                        periodic=periodic)) < 1e-12

    def test_nonlinear_propagation_solves_del(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        dens = quartic_test_density(0.8)
        rng = np.random.default_rng(7)
        row0 = 0.2 * rng.standard_normal(mesh.nx + 1)
        row1 = row0 + 0.02 * rng.standard_normal(mesh.nx + 1)
        f = propagate(dens, mesh, row0, row1, PeriodicClosure())
        for n in range(1, mesh.nt):
            for i in range(mesh.nx + 1):
                assert abs(del_residual(dens, f, n, i, periodic=True)) < 1e-10

    def test_fixed_closure_with_one_cell_copies_the_ends(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=1)
        clos = FixedClosure(lambda n: 0.5 * n, -1.0)
        f = propagate(LinearWave, mesh, [0.0, -1.0], [0.5, -1.0], clos)
        for n in range(mesh.nt + 1):
            assert list(f.values[n]) == [0.5 * n, -1.0]

    def test_step_row_error_names_the_row(self):
        # Without a time-derivative term the row Jacobian vanishes.
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        dens = QuadraticDensity(ww=-1.0, name="no_time_term")
        rows = np.zeros(mesh.nx + 1)
        with pytest.raises(SingularSystem, match="row 2"):
            propagate(dens, mesh, rows, rows, FixedClosure(0.0, 0.0))
        with pytest.raises(SingularSystem, match="row 7"):
            step_row(dens, mesh, rows, rows, PeriodicClosure(), row_index=7)

    def test_solver_error_on_no_iterations(self, monkeypatch):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        dens = quartic_test_density(5.0)
        rng = np.random.default_rng(8)
        row0 = rng.standard_normal(mesh.nx + 1)
        row1 = row0 + 2.0 * rng.standard_normal(mesh.nx + 1)
        monkeypatch.setattr(delsolve_module, "NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError):
            propagate(dens, mesh, row0, row1, PeriodicClosure())

    def test_bad_row_shape_rejected(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        with pytest.raises(ValueError, match="5 columns"):
            step_row(LinearWave, mesh, np.zeros(4), np.zeros(5), PeriodicClosure())


def _rows(mesh, seed, closure):
    rng = np.random.default_rng(seed)
    row0 = 0.1 * rng.standard_normal(mesh.nx + 1)
    row1 = row0 + 0.01 * rng.standard_normal(mesh.nx + 1)
    if isinstance(closure, FixedClosure):
        for idx, row in ((0, row0), (1, row1)):
            row[0], row[-1] = closure.end_values(idx)
    return row0, row1


def _check_rows_solved(density, mesh, values, closure):
    """Every new row of ``values`` passes :func:`_check_solution` against K
    of its row equations, laid out as the row stepper lays them out."""
    ncols, periodic = mesh.nx + 1, isinstance(closure, PeriodicClosure)
    if periodic:
        columns = anchors = np.arange(ncols)
    else:
        columns, anchors = np.arange(1, ncols - 1), np.arange(ncols - 1)
    index = triangle_index(np.array([[0], [1]]), anchors, ncols, periodic)
    eqs = ncols + columns
    for n in range(1, mesh.nt):
        stack = np.ascontiguousarray(values[n - 1:n + 2])
        residual = triangle_kernel(density, stack, index, mesh.dt, mesh.dx).residual[eqs]
        delsolve_module._check_solution(
            residual, eqs, ncols, f"row {n + 1}", lambda: delsolve_module._hessian_operator(
                density, stack, index, eqs, mesh.dt, mesh.dx, "probe"), stack)


def _count_splu(monkeypatch):
    calls, splu = [], delsolve_module.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr("mslab.delsolve.splu", counted)
    return calls


CLOSURES = [PeriodicClosure(), FixedClosure(lambda n: 0.01 * n, -0.02)]
STEP_DENSITIES = [LinearWave, quartic_test_density(0.8),
                  QuadraticDensity(vv=1.0, ww=-0.8, vw=0.05, vu=0.02, uu=-0.1)]


class TestRowFactorisation:
    @pytest.mark.parametrize("closure", CLOSURES)
    def test_quadratic_run_factors_once(self, monkeypatch, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=12, nx=9)
        row0, row1 = _rows(mesh, 21, closure)
        calls = _count_splu(monkeypatch)
        propagate(LinearWave, mesh, row0, row1, closure)
        assert len(calls) == 1

    @pytest.mark.parametrize("closure", CLOSURES)
    def test_quadratic_run_makes_one_kernel_call(self, monkeypatch, closure):
        # The row operator's Hessian; every residual and the Jacobian are
        # read off it.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=12, nx=9)
        row0, row1 = _rows(mesh, 21, closure)
        kernel_calls, kernel = [], delsolve_module.triangle_kernel
        monkeypatch.setattr("mslab.delsolve.triangle_kernel",
                            lambda *a, **kw: kernel_calls.append(1) or kernel(*a, **kw))
        lu_calls = _count_splu(monkeypatch)
        propagate(QuadraticDensity(vv=1.0, ww=-0.8, vw=0.05, vu=0.02, uu=-0.1),
                  mesh, row0, row1, closure)
        assert len(kernel_calls) == 1
        assert len(lu_calls) == 1

    @pytest.mark.parametrize("closure", CLOSURES)
    def test_quartic_run_factors_every_newton_iteration(self, monkeypatch, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        row0, row1 = _rows(mesh, 22, closure)
        iterations, factored = [], []
        newton = delsolve_module._newton

        def recorded(residual_fn, factor_fn, x0, *args):
            def factor(x, context):
                factored.append(1)
                return factor_fn(x, context)

            out = newton(residual_fn, factor, x0, *args)
            iterations.append(out[2])
            return out

        monkeypatch.setattr("mslab.delsolve._newton", recorded)
        calls = _count_splu(monkeypatch)
        propagate(quartic_test_density(0.8), mesh, row0, row1, closure)
        # The first row's LU is kept for every row: the contraction monitor
        # asks for no refactor, and some rows take several steps on it.
        assert len(iterations) == mesh.nt - 1
        assert len(calls) == len(factored) == 1
        assert sum(iterations) > mesh.nt - 1

    @pytest.mark.parametrize("closure", CLOSURES)
    @pytest.mark.parametrize("density", STEP_DENSITIES)
    def test_propagate_equals_chained_step_rows(self, density, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        row0, row1 = _rows(mesh, 23, closure)
        field = propagate(density, mesh, row0, row1, closure)
        rows = [np.asarray(row0, dtype=float), np.asarray(row1, dtype=float)]
        for n in range(1, mesh.nt):
            rows.append(step_row(density, mesh, rows[-2], rows[-1], closure,
                                 row_index=n + 1))
        if density.is_quadratic:
            assert np.array_equal(field.values, np.array(rows))
        else:  # propagate goes on from the LU of the row before: both routes solve
            for values in (field.values, np.array(rows)):
                _check_rows_solved(density, mesh, values, closure)


# Bound on |R @ stack - kernel residual| in unit round-offs u = 2^-53 of the
# uncancelled magnitude B = sum over the triangles of A |J|^T |H| |J| |u_t|
# at each equation node (A = dt*dx/2, J the jet map, H the coefficient
# matrix, u_t the vertex values).  The kernel forms the jets (<= 3u), the
# partials (<= 3u more), the slot gradients (<= 6u more) and sums three
# slots (2u): 14u.  The operator rounds J and the two 3x3 products and the
# area factor into each Hessian entry (<= 10u), sums up to three duplicate
# entries and then the at most nine products of a row (<= 10u): 20u.  The
# two routes differ by at most 34u B to first order; c = 40 leaves room for
# the second-order terms.  |R| |stack| is no bound: the entries of R cancel
# (on LinearWave at dt = dx the centre entry is exactly 0), while both routes
# still round at the size of the terms.
ROUND_OFFS = 40
COEFFS = st.floats(-10.0, 10.0)
NODE_VALUES = st.floats(-1e3, 1e3)


class TestRowOperator:
    @settings(max_examples=150, deadline=None)
    @given(coeffs=st.tuples(*[COEFFS] * 6), periodic=st.booleans(),
           dt=st.floats(0.01, 100.0), dx=st.floats(0.01, 100.0),
           nx=st.integers(1, 12), data=st.data())
    @example(coeffs=(1.0, -1.0, 0.0, 0.0, 0.0, 0.0), periodic=False, dt=0.1, dx=0.1,
             nx=4, data=None)
    def test_operator_matches_kernel_residual(self, coeffs, periodic, dt, dx, nx, data):
        density = QuadraticDensity(*coeffs)
        ncols = nx + 1
        if data is None:  # the centre entry of R cancels to 0 here
            stack = np.zeros((3, ncols))
            stack[1, 2] = 1.0
        else:
            stack = np.reshape(data.draw(st.lists(NODE_VALUES, min_size=3 * ncols,
                                                  max_size=3 * ncols)), (3, ncols))
        # The row stepper's layout: equations on row 1, triangles of rows 0, 1.
        if periodic:
            columns = anchors = np.arange(ncols)
        else:
            columns, anchors = np.arange(1, ncols - 1), np.arange(ncols - 1)
        index = triangle_index(np.array([[0], [1]]), anchors, ncols, periodic)
        eqs = ncols + columns
        op = delsolve_module._hessian_operator(density, stack, index, eqs, dt, dx, "probe")
        reference = triangle_kernel(density, stack, index, dt, dx).residual[eqs]

        jac = np.abs([[-1.0 / dt, 0.0, 1.0 / dt], [-1.0 / dx, 1.0 / dx, 0.0],
                      [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
        slots = 0.5 * dt * dx * (jac.T @ np.abs(density.second_partials(0, 0, 0)) @ jac)
        terms = slots @ np.abs(stack.ravel()[index])
        magnitude = np.bincount(index.ravel(), weights=terms.ravel(),
                                minlength=stack.size)[eqs]
        # Gradual underflow adds at most 2^-1075 per operation, scaled by at
        # most 5e8 on these ranges: far below the smallest normal number.
        bound = ROUND_OFFS * 2.0 ** -53 * magnitude + np.finfo(float).tiny
        assert op.shape == (len(eqs), stack.size)
        assert np.all(np.abs(op @ stack.ravel() - reference) <= bound)


# Bound on |0.0 - K @ tau - reference| in unit round-offs u = 2^-53 of the
# uncancelled magnitude M = sum |h tau_c| over the Hessian triplets h of an
# equation row at known columns c.  A row holds nine triplets (three
# triangles, three column slots each).  The reference rounds each product
# (u) and sums at most nine of them from 0.0 (<= 8u): 9u.  K sums at most
# two duplicate entries of a known column (u), rounds each product (u) and
# sums at most seven columns (<= 6u): 8u.  The routes differ by at most 17u M
# to first order; 20 leaves room for the second-order terms.
RHS_ROUND_OFFS = 20


def _recorded_right_hand_sides(density, base, region, taus):
    """The right-hand sides :func:`tangent_solve` back-solves for ``taus``."""
    seen = []

    class Recorder:
        def solve(self, b):
            seen.append(np.array(b))
            return np.zeros_like(b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delsolve_module, "_factor_and_rcond", lambda jac, context: (Recorder(), 1.0))
        tangent_solve(density, base, region, taus)
    return seen


class TestOneOperator:
    @settings(max_examples=80, deadline=None)
    @given(coeffs=st.tuples(*[COEFFS] * 6), strength=st.one_of(st.none(), st.floats(0.0, 2.0)),
           patch=st.booleans(), nt=st.integers(2, 6), nx=st.integers(2, 6),
           dt=st.floats(0.01, 100.0), dx=st.floats(0.01, 100.0), data=st.data())
    def test_tangent_right_hand_sides_match_triplet_reference(self, coeffs, strength, patch,
                                                              nt, nx, dt, dx, data):
        from mslab.jetmesh import interior_index, region_index

        mesh = build_mesh(dt=dt, dx=dx, nt=nt, nx=nx)
        ncols = nx + 1
        region = (Patch3Region(data.draw(st.integers(1, nt - 1)),
                               data.draw(st.integers(1, nx - 1)))
                  if patch else RectRegion(0, 0, nt, nx))
        nodes = boundary_nodes(region)
        if strength is None:  # a zero field solves any quadratic density's DEL
            density, base = QuadraticDensity(*coeffs), DiscreteField.zeros(mesh)
        else:  # the quartic Hessian varies over a solved field
            density = quartic_test_density(strength)
            edge = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(nodes),
                                      max_size=len(nodes)))
            base = solve_bvp(density, mesh, BoundaryData(region, edge)).field
        taus = [BoundaryData(region, data.draw(st.lists(NODE_VALUES, min_size=len(nodes),
                                                        max_size=len(nodes))))
                for _ in range(2)]
        rhs = _recorded_right_hand_sides(density, base, region, taus)

        rows, cols, vals = triangle_kernel(density, base.values, region_index(region, ncols),
                                           dt, dx, gradient=False, hessian=True).triplets
        inner = interior_index(region, ncols)
        number = np.full(base.values.size, -1)
        number[inner] = np.arange(inner.size)
        rest = (number[rows] >= 0) & (number[cols] < 0)
        assert len(rhs) == len(taus)
        for got, tb in zip(rhs, taus):
            tau = np.zeros(base.values.size)
            tau[node_index(tb.nodes, ncols)] = tb.values
            terms = vals[rest] * tau[cols[rest]]
            reference = 0.0 - np.bincount(number[rows[rest]], weights=terms,
                                          minlength=inner.size)
            magnitude = np.bincount(number[rows[rest]], weights=np.abs(terms),
                                    minlength=inner.size)
            bound = RHS_ROUND_OFFS * 2.0 ** -53 * magnitude + np.finfo(float).tiny
            assert np.all(np.abs(got - reference) <= bound)

    @pytest.mark.parametrize("closure", CLOSURES)
    @pytest.mark.parametrize("density", [quartic_test_density(0.8),
                                         QuadraticDensity(vv=1.0, ww=-0.8, vw=0.05,
                                                          vu=0.02, uu=-0.1)],
                             ids=["quartic", "cross-term"])
    def test_row_jacobian_equals_upper_row_block(self, monkeypatch, density, closure):
        # The stepper takes K of both triangle rows; the lower row holds no
        # new-row value, so K's new-row columns are the upper row's block.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        ncols, periodic = mesh.nx + 1, isinstance(closure, PeriodicClosure)
        if periodic:
            columns = anchors = np.arange(ncols)
        else:
            columns, anchors = np.arange(1, ncols - 1), np.arange(ncols - 1)
        upper = triangle_index(np.array([1]), anchors, ncols, periodic)
        unknowns = 2 * ncols + columns
        calls, operator = [], delsolve_module._hessian_operator

        def recorded(density, values, index, eqs, dt, dx, context, cols=None):
            k = operator(density, values, index, eqs, dt, dx, context, cols)
            calls.append((values.copy(), index, eqs, k if cols is not None else k[:, unknowns]))
            return k

        monkeypatch.setattr(delsolve_module, "_hessian_operator", recorded)
        propagate(density, mesh, *_rows(mesh, 28, closure), closure)
        assert calls
        for values, index, eqs, jac in calls:
            assert index.shape[1] == 2 * len(anchors)
            block = operator(density, values, upper, eqs, mesh.dt, mesh.dx, "probe", unknowns)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(jac, part), getattr(block, part))


CROSS_TERM = QuadraticDensity(vv=1.0, ww=-0.7, uu=-0.3, vw=0.2)
# (density, the fields at which its vw and cell-average Hessian entries vanish).
ASSEMBLY_DENSITIES = [
    (LinearWave, "all"), (HarmonicDirichlet, "all"), (CROSS_TERM, "none"),
    (quartic_test_density(1.0), "zero"),
    (UserDensity(lambda v, w, u: 0.5 * (v * v - w * w) + 0.1 * v * w * u + 0.25 * u ** 4),
     "zero")]


@st.composite
def assembly_cases(draw):
    """(density, whether its K is a 5-point stencil, mesh, region, node values,
    equation nodes, column nodes or None) for a K build."""
    density, separable_at = draw(st.sampled_from(ASSEMBLY_DENSITIES))
    nt, nx = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    mesh = build_mesh(dt=draw(st.floats(0.05, 2.0)), dx=draw(st.floats(0.05, 2.0)),
                      nt=nt, nx=nx)
    kind = draw(st.sampled_from(["full", "inset", "patch"]))
    if kind == "full":
        region = RectRegion(0, 0, nt, nx)
    elif kind == "inset":
        n0, i0 = draw(st.integers(0, nt - 1)), draw(st.integers(0, nx - 1))
        region = RectRegion(n0, i0, draw(st.integers(1, nt - n0)),
                            draw(st.integers(1, nx - i0)))
    else:
        region = Patch3Region(draw(st.integers(1, nt - 1)), draw(st.integers(1, nx - 1)))
    amplitude = draw(st.sampled_from([0.0, 0.3, 2.0]))
    values = amplitude * np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        mesh.shape)
    ncols = nx + 1
    nodes = np.concatenate([node_index(boundary_nodes(region), ncols),
                            interior_index(region, ncols)])
    eqs, cols = ((interior_index(region, ncols), None) if draw(st.booleans())
                 else (nodes, nodes))
    separable = separable_at == "all" or (separable_at == "zero" and amplitude == 0.0)
    return density, separable, mesh, region, values, eqs, cols


class TestSparseAssembly:
    @settings(max_examples=120, deadline=None)
    @given(case=assembly_cases())
    def test_k_stores_only_the_couplings_the_density_has(self, case):
        density, separable, mesh, region, values, eqs, cols = case
        ncols, index = mesh.nx + 1, region_index(region, mesh.nx + 1)
        k = delsolve_module._hessian_operator(density, values, index, eqs, mesh.dt,
                                              mesh.dx, "probe", cols)
        # Every triplet of the kernel, all-zero ones included, assembled inline.
        rows, nodes, vals = triangle_kernel(
            density, np.zeros_like(values) if density.is_quadratic else values, index,
            mesh.dt, mesh.dx, gradient=False, hessian=True).triplets
        cols = np.arange(values.size) if cols is None else cols
        number = np.full((2, values.size), -1)
        number[0, eqs], number[1, cols] = np.arange(len(eqs)), np.arange(len(cols))
        r, c = number[0, rows], number[1, nodes]
        inside = (r >= 0) & (c >= 0)
        shape = (len(eqs), len(cols))
        reference = csc_matrix((vals[inside], (r[inside], c[inside])), shape=shape)
        # + 0.0 makes every zero +0.0; all other bits must agree.
        assert (k.toarray() + 0.0).tobytes() == (reference.toarray() + 0.0).tobytes()

        # Stored: exactly the entries with at least one nonzero triplet.
        live = inside & (vals != 0.0)
        pattern = csc_matrix((np.ones(live.sum()), (r[live], c[live])), shape=shape)
        assert np.array_equal(k.indptr, pattern.indptr)
        assert np.array_equal(k.indices, pattern.indices)

        if region != RectRegion(0, 0, mesh.nt, mesh.nx):
            return
        # A full rectangle's interior rows: the 5-point stencil of (n, i) and
        # (n +- 1, i), (n, i +- 1); the cross term adds (n + 1, i - 1), (n - 1, i + 1).
        inner = interior_index(region, ncols)
        k = delsolve_module._hessian_operator(density, values, index, inner, mesh.dt,
                                              mesh.dx, "probe").tocsr()
        per_row = np.diff(k.indptr)
        if separable:
            assert np.all(per_row == 5)
        if density is CROSS_TERM:
            assert np.all(per_row == 7)
            for row, p in enumerate(inner):
                stored = k.indices[k.indptr[row]:k.indptr[row + 1]]
                assert p + ncols - 1 in stored and p - ncols + 1 in stored


class TestWorkArrayAliasing:
    @pytest.mark.parametrize("closure", CLOSURES)
    @pytest.mark.parametrize("density", STEP_DENSITIES)
    def test_returned_rows_do_not_change(self, density, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        row0, row1 = _rows(mesh, 25, closure)
        step = delsolve_module._row_stepper(density, mesh, closure)
        first = step(row0, row1, 2)
        kept = first.copy()
        second = step(row1, first, 3)
        step(first, second, 4)
        assert np.array_equal(first, kept)
        alone = step_row(density, mesh, row0, row1, closure, row_index=2)
        again = alone.copy()
        step_row(density, mesh, row1, alone, closure, row_index=3)
        assert np.array_equal(alone, again)

    @pytest.mark.parametrize("closure", CLOSURES)
    @pytest.mark.parametrize("density", STEP_DENSITIES)
    def test_propagate_rows_do_not_change(self, density, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        row0, row1 = _rows(mesh, 26, closure)
        field = propagate(density, mesh, row0, row1, closure)
        kept = field.values.copy()
        other = propagate(density, mesh, *_rows(mesh, 27, closure), closure)
        assert np.array_equal(field.values, kept)
        assert not np.shares_memory(field.values, other.values)

    @pytest.mark.parametrize("density", STEP_DENSITIES)
    def test_solve_bvp_fields_share_no_memory(self, density):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(28)
        nb = len(boundary_nodes(reg))
        first = solve_bvp(density, mesh, BoundaryData(reg, 0.2 * rng.standard_normal(nb)))
        kept = first.field.values.copy()
        second = solve_bvp(density, mesh, BoundaryData(reg, 0.2 * rng.standard_normal(nb)),
                           initial=first.field)
        assert np.array_equal(first.field.values, kept)
        assert not np.shares_memory(first.field.values, second.field.values)


# Finite floats over the whole range, with the values where a sup-norm can
# go wrong drawn often: signed zeros, subnormals, ties of |f| in sign.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                -1e-310, 1.0, -1.0, 1.7976931348623157e308,
                                -1.7976931348623157e308])
_FINITE_FLOATS = st.one_of(_EDGE_FLOATS,
                           st.floats(allow_nan=False, allow_infinity=False, width=64))


class TestSupNorm:
    """``_sup_norm`` (BLAS idamax) against the numpy sup-norm it replaced in
    ``_newton``, bit for bit, on the finite vectors it is given."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_FINITE_FLOATS, max_size=12), stride=st.sampled_from([1, 2]))
    def test_equals_the_numpy_sup_norm(self, values, stride):
        f = np.array(values + values, dtype=float)[::stride]  # ties, and strided views
        expected = float(np.abs(f).max(initial=0.0))
        assert delsolve_module._sup_norm(f).hex() == expected.hex()

    @pytest.mark.parametrize("values", [[], [-0.0], [0.0, -0.0], [-5e-324, 5e-324],
                                        [-3.0, 3.0, -3.0], [1e-310, -2e-310, 0.0]])
    def test_edges(self, values):
        f = np.array(values, dtype=float)
        assert (delsolve_module._sup_norm(f).hex()
                == float(np.abs(f).max(initial=0.0)).hex())


class TestNewtonCore:
    def test_quadratic_solve_bvp_factors_once(self, monkeypatch):
        # Data of size 100 leave the exact step above tol; both routes then
        # stop at their round-off floor, the kernel route after factoring
        # again and the quadratic route on its one kept LU.  Both solve one
        # Jacobian, so the fields agree to cond(J) unit round-offs.
        mesh = build_mesh(dt=1.0 / 32, dx=1.0 / 16, nt=16, nx=16)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rng = np.random.default_rng(1)
        data = BoundaryData(reg, 100.0 * rng.standard_normal(len(boundary_nodes(reg))))
        refactored = copy.copy(LinearWave)
        refactored.is_quadratic = False  # kernel residuals, one LU per iteration
        reference = solve_bvp(refactored, mesh, data)
        calls = _count_splu(monkeypatch)
        report = solve_bvp(LinearWave, mesh, data)
        assert report.iterations == reference.iterations
        assert len(calls) == 1
        assert report.rcond == reference.rcond
        gap = np.max(np.abs(report.field.values - reference.field.values))
        assert gap <= np.finfo(float).eps / report.rcond * np.max(np.abs(reference.field.values))

    @pytest.mark.parametrize("density", [LinearWave, STEP_DENSITIES[2]], ids=["wave", "cross"])
    @pytest.mark.parametrize("closure", [PeriodicClosure(), FixedClosure(0.0, 0.0)],
                             ids=["periodic", "fixed"])
    def test_quadratic_rows_scale_with_their_data(self, density, closure):
        # The absolute tolerance once accepted tiny rows at their start guess
        # (170% off), and large rows of the cross-term density stalled above it
        # ("Armijo line search failed" from 1e6).  A linear solve now always
        # takes its exact step, then stops at the round-off floor.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=12, nx=9)
        row0, row1 = _rows(mesh, 29, closure)
        unit = propagate(density, mesh, row0, row1, closure).values
        for scale in [1e-14, 1e-100, 1e6, 1e12, 1e100]:
            field = propagate(density, mesh, scale * row0, scale * row1, closure).values
            assert np.max(np.abs(field - scale * unit)) <= 1e-12 * scale * np.max(np.abs(unit))

    def test_only_a_singular_factor_is_a_singular_system(self, monkeypatch):
        def recursing(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("mslab.delsolve.splu", recursing)
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        with pytest.raises(RecursionError):
            solve_bvp(LinearWave, mesh, BoundaryData(Patch3Region(1, 1), np.zeros(6)))

    def test_overflowing_rows_name_the_row(self):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=4, nx=6)
        row0, row1 = _rows(mesh, 24, PeriodicClosure())
        with pytest.raises(SolverError, match=r"step_row \(row 2\): non-finite"):
            propagate(LinearWave, mesh, 1e301 * row0, 1e301 * row1, PeriodicClosure())

    def test_overflowing_start_guess_names_the_row(self):
        # 2 * 1e308 overflows at the fixed ends, outside the unknowns.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=4, nx=6)
        rows = np.zeros(mesh.nx + 1)
        rows[[0, -1]] = 1e308
        with pytest.raises(SolverError, match=r"step_row \(row 2\): non-finite"):
            propagate(LinearWave, mesh, rows, rows, FixedClosure(1e308, 1e308))

    @pytest.mark.parametrize("scale", [0.0, 1e-20], ids=["final-rcond", "newton-step"])
    def test_overflowing_hessian_is_a_solver_error(self, scale):
        # 1/dt^2 overflows the Hessian, not the residual.  Zero data start at
        # their floor and the other data at a residual of about 1e140; the
        # solve builds its operator before either is tested.
        mesh = build_mesh(dt=1e-160, dx=1.0, nt=4, nx=4)
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        values = scale * np.random.default_rng(3).standard_normal(
            len(boundary_nodes(region)))
        with pytest.raises(SolverError, match="solve_bvp: .* non-finite Hessian"):
            solve_bvp(LinearWave, mesh, BoundaryData(region, values))

    @pytest.mark.parametrize("where", ["tangent_solve", "hessian_symmetry",
                                       "boundary_hamiltonian"])
    def test_overflowing_hessian_names_its_function(self, where):
        # 1/dt^2 overflows the vertex-slot Hessian of a zero field.
        mesh = build_mesh(dt=1e-160, dx=1.0, nt=4, nx=4)
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        zeros = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        a_side, b_side = canonical_type2_split(region)
        calls = {
            "tangent_solve": lambda: tangent_solve(
                LinearWave, DiscreteField.zeros(mesh), region, zeros),
            "hessian_symmetry": lambda: hessian_symmetry(
                LinearWave, mesh, zeros, method="analytic"),
            "boundary_hamiltonian": lambda: boundary_hamiltonian(
                LinearWave, mesh, MixedBoundaryData(region, dict.fromkeys(a_side, 0.0),
                                                    dict.fromkeys(b_side, 0.0))),
        }
        with pytest.raises(SolverError,
                           match=f"^{where}: density linear_wave produced a non-finite Hessian$"):
            calls[where]()

    def test_kernel_error_at_a_trial_iterate_fails_the_line_search(self, monkeypatch):
        # sqrt(u) turns non-finite where a trial step takes u below 0; the
        # kernel's ValueError there must fail the Armijo test, not escape.
        raised, newton = [], delsolve_module._newton

        def recording(residual_fn, *args):
            def residual(x):
                try:
                    return residual_fn(x)
                except ValueError:
                    raised.append(x)
                    raise
            return newton(residual, *args)

        monkeypatch.setattr(delsolve_module, "_newton", recording)
        density = UserDensity(lambda v, w, u: 0.5 * (v * v + w * w) + 10.0 * dual.sqrt(u))
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        values = np.full(len(boundary_nodes(region)), 1e-3)
        values[0] = 10.0
        with pytest.raises(SolverError, match="^solve_bvp: Armijo line search failed$"):
            solve_bvp(density, mesh, BoundaryData(region, values))
        assert raised

    def test_ill_conditioned_factor_is_a_singular_system(self):
        # A mesh ratio 1e-13 from 1 factors, but its rcond is below the floor.
        mesh = build_mesh(dt=0.1, dx=0.1 * (1 + 1e-13), nt=4, nx=4)
        with pytest.raises(SingularSystem) as err:
            solve_bvp(LinearWave, mesh, BoundaryData(Patch3Region(1, 1), np.zeros(6)))
        assert 0.0 < err.value.rcond < 1e-12
        assert str(err.value) == ("solve_bvp: linearised system numerically singular "
                                  f"(rcond {err.value.rcond:.3e})")

    def test_non_finite_step_is_a_solver_error(self):
        class Overflowing:
            def solve(self, b):
                return np.full_like(b, np.inf)

        with pytest.raises(SolverError, match=r"probe: .* \(non-finite step\)"):
            delsolve_module._newton(lambda x: x - 1.0,
                                    lambda x, context: (Overflowing(), 1.0, lambda x: 0.0),
                                    np.zeros(2), "probe")

    def test_non_finite_floor_is_a_solver_error(self):
        # ||J||_inf is about 1e154 (the time couplings dx/dt) and ||x||_inf
        # 1e300 (an end of the current row, coupled only in space), so 64
        # ulps of their product overflow.  The start guess, row 2 = 0, was
        # once accepted at that infinite floor, after a numpy overflow warning.
        mesh = build_mesh(dt=1e-154, dx=1.0, nt=2, nx=3)
        row = [1e300, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=r"^step_row \(row 2\): round-off floor is not finite$"):
                propagate(HarmonicDirichlet, mesh, row, row, FixedClosure(0.0, 0.0))

    def test_overflowing_jacobian_is_a_solver_error(self):
        # The row Jacobian's entries are finite but near 1e308, so the
        # dominance test must not double its diagonal (a numpy warning).
        mesh = build_mesh(dt=0.3, dx=1e308, nt=2, nx=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError):
                propagate(LinearWave, mesh, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], PeriodicClosure())

    def test_overflowing_column_sums_are_a_solver_error(self):
        # Every Jacobian entry is finite, but the column sums behind the
        # dominance test and ||J||_1 overflow (once a numpy warning).
        mesh = build_mesh(dt=1.0, dx=1e308, nt=5, nx=3)
        data = BoundaryData(RectRegion(0, 0, 5, 3), [5e-324] * 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError,
                               match=r"^solve_bvp: a column sum of the Jacobian is not finite$"):
                solve_bvp(LinearWave, mesh, data)


def _stand_in_factor(inverses, factored):
    """``factor_fn`` of :func:`_newton` whose k-th factor solves with the
    k-th matrix of ``inverses``, at a zero floor; records where it factors."""

    def factor(x, context):
        inverse = inverses[len(factored)]
        factored.append(np.array(x))
        return SimpleNamespace(solve=lambda b: inverse @ b), 1.0, lambda x: 0.0

    return factor


class TestKeptFactor:
    def test_fd_hessian_sweep_factors_twice(self, monkeypatch):
        # One LU for the base solve and one, at the base solution, for all
        # 2 * 16 perturbed solves; each solve once factored afresh (36 LUs).
        mesh = build_mesh(dt=0.125, dx=0.25, nt=4, nx=4)
        reg = RectRegion(0, 0, 4, 4)
        data = BoundaryData(reg, 0.1 * np.random.default_rng(3).standard_normal(16))
        calls = _count_splu(monkeypatch)
        rep = hessian_symmetry(quartic_test_density(1.0), mesh, data, method="fd")
        assert len(calls) == 2
        assert rep.max_asymmetry <= 1e-10

    def test_kept_factor_that_stops_contracting_is_refactored(self):
        # F(x) = x^3 - 8 from x = 1.  The first step, on J(1) = 3, is halved by
        # the line search; the next step on that LU contracts by about 0.31 >
        # THETA_MAX, so the iterate is factored again and the solve goes on.
        factored, sizes = [], []

        def factor(x, context):
            jac = 3.0 * x[0] ** 2
            factored.append(float(x[0]))
            return (SimpleNamespace(solve=lambda b: sizes.append(abs(b[0] / jac)) or b / jac),
                    1.0, lambda x: 0.0)

        x, norm, steps, _ = delsolve_module._newton(lambda x: x ** 3 - 8.0, factor,
                                                    np.ones(1), "probe")
        assert abs(x[0] - 2.0) <= 1e-12 and norm <= delsolve_module.NEWTON_TOL
        assert factored == [1.0, 1.0 + 0.5 * 7.0 / 3.0]
        assert sizes[1] > delsolve_module.THETA_MAX * sizes[0]  # the step not taken
        assert len(factored) < steps

    def test_line_search_failure_on_a_kept_factor_refactors(self):
        # F(x) = x from (1, 0.1).  The first factor solves with diag(1, -1): a
        # descent step from the start to (0, 0.2), where its next step
        # contracts by 0.2 <= THETA_MAX but ascends.  The line search fails on
        # that kept factor, so (0, 0.2) is factored again (exactly) and solved.
        factored = []
        factor = _stand_in_factor([np.diag([1.0, -1.0]), np.eye(2)], factored)
        x, norm, steps, _ = delsolve_module._newton(lambda x: x, factor,
                                                    np.array([1.0, 0.1]), "probe")
        assert norm == 0.0 and steps == 2
        assert np.array_equal(factored[1], [0.0, 0.2])

    def test_line_search_failure_on_a_fresh_factor_raises(self):
        factor = _stand_in_factor([-np.eye(2)], [])
        with pytest.raises(SolverError, match="^probe: Armijo line search failed$"):
            delsolve_module._newton(lambda x: x, factor, np.array([1.0, 0.1]), "probe")

    @pytest.mark.parametrize("closure", CLOSURES)
    def test_nonlinear_run_keeps_one_lu_across_rows(self, monkeypatch, closure):
        # The phi^4 wave at amplitude 1: the first row's LU serves all 39
        # rows, and the contraction monitor asks for no refactor.
        n = 40
        mesh = build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
        density = UserDensity(lambda v, w, u: 0.5 * (v * v - w * w) + 0.25 * u ** 4)
        rng = np.random.default_rng(0)
        row0 = rng.standard_normal(n + 1)
        row1 = row0 + mesh.dt * rng.standard_normal(n + 1)
        if isinstance(closure, FixedClosure):
            for idx, row in ((0, row0), (1, row1)):
                row[0], row[-1] = closure.end_values(idx)
        calls = _count_splu(monkeypatch)
        field = propagate(density, mesh, row0, row1, closure)
        assert len(calls) == 1
        _check_rows_solved(density, mesh, field.values, closure)

    def test_large_quartic_solve_keeps_its_lu(self, monkeypatch):
        n = 40
        mesh = build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
        reg = RectRegion(0, 0, n, n)
        data = np.random.default_rng(0).standard_normal(len(boundary_nodes(reg)))
        density = quartic_test_density(1.0)
        calls = _count_splu(monkeypatch)
        report = solve_bvp(density, mesh, BoundaryData(reg, data))
        assert len(calls) < report.iterations
        values = report.field.values
        index, inner = region_index(reg, n + 1), interior_index(reg, n + 1)
        residual = triangle_kernel(density, values, index, mesh.dt, mesh.dx).residual[inner]
        delsolve_module._check_solution(
            residual, inner, n + 1, "probe", lambda: delsolve_module._hessian_operator(
                density, values, index, inner, mesh.dt, mesh.dx, "probe"), values)


def _estimated_problem(n=24):
    """An n x n Dirichlet problem at ratio 0.5: (n-1)^2 > 200 unknowns, so its
    rcond is estimated with onenormest rather than computed from the inverse."""
    mesh = build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
    reg = RectRegion(0, 0, mesh.nt, mesh.nx)
    rng = np.random.default_rng(17)
    return mesh, BoundaryData(reg, 0.1 * rng.standard_normal(len(boundary_nodes(reg))))


class TestConditionEstimate:
    def test_estimate_leaves_global_rng_untouched(self):
        mesh, data = _estimated_problem()
        np.random.seed(5)
        expected = np.random.rand()
        np.random.seed(5)
        solve_bvp(LinearWave, mesh, data)
        assert np.random.rand() == expected

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_estimates_leave_global_rng_untouched(self, threads):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        mesh, data = _estimated_problem()
        np.random.seed(5)
        expected = np.random.rand()
        np.random.seed(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often inside the estimate
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                reports = list(pool.map(lambda _: solve_bvp(LinearWave, mesh, data),
                                        range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert np.random.rand() == expected
        # Every estimate starts from the same global state.
        assert len({report.rcond for report in reports}) == 1

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_block_estimate_equals_per_column_estimate(self, seed):
        from scipy.sparse.linalg import LinearOperator, onenormest, splu

        from mslab.jetmesh import interior_index, region_index
        from mslab.lagrangian import triangle_kernel

        # At 30x30 the column sums of an F-ordered block product differ from
        # those of one solve per column in the last bit.
        mesh, data = _estimated_problem(30)
        ncols = mesh.nx + 1
        inner = interior_index(data.region, ncols)
        terms = triangle_kernel(LinearWave, np.zeros(mesh.shape),
                                region_index(data.region, ncols), mesh.dt, mesh.dx,
                                gradient=False, hessian=True)
        jac = delsolve_module._sparse_block(terms.triplets, mesh.shape[0] * ncols,
                                            inner, inner)
        lu = splu(jac.tocsc(), permc_spec="NATURAL")  # the band route's order
        # One solve per column, as onenormest makes them from matvec alone.
        per_column = LinearOperator(jac.shape, matvec=lambda b: lu.solve(b),
                                    rmatvec=lambda b: lu.solve(b, trans="T"))
        np.random.seed(delsolve_module._RCOND_SEED)
        norm_inv = onenormest(per_column)
        norm_j = float(np.max(np.abs(jac).sum(axis=0)))
        np.random.seed(seed)  # the estimate ignores the caller's state
        _, rcond = delsolve_module._factor_and_rcond(jac, "probe")
        assert rcond == 1.0 / (max(1.0, norm_j) * norm_inv)

    def test_estimate_is_the_same_in_fresh_processes(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import mslab

        # 16x16 meshes (225 unknowns) whose estimate depends on the start
        # columns: from an unseeded RNG, 8 seeds give up to 7 different rconds.
        probe = """
import numpy as np
from mslab import BoundaryData, LinearWave, RectRegion, boundary_nodes, build_mesh, solve_bvp
for ratio in (0.3, 0.7, 1.3):
    mesh = build_mesh(dt=ratio / 16, dx=1 / 16, nt=16, nx=16)
    reg = RectRegion(0, 0, 16, 16)
    rng = np.random.default_rng(17)
    data = BoundaryData(reg, 0.1 * rng.standard_normal(len(boundary_nodes(reg))))
    print(repr(solve_bvp(LinearWave, mesh, data).rcond))
"""
        src = str(Path(mslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run([sys.executable, "-c", probe], capture_output=True,
                               text=True, env=env, timeout=120) for _ in range(2)]
        assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
        assert runs[0].stdout == runs[1].stdout


def _interior_jacobian(density, nt, nx, ratio, region=None, amplitude=0.0, seed=0):
    """The Jacobian of the DEL equations at the interior nodes of ``region``
    (default: the whole nt x nx mesh, dt/dx = ``ratio``), at a field of
    normal values times ``amplitude``."""
    from mslab.jetmesh import interior_index, region_index
    from mslab.lagrangian import triangle_kernel

    mesh = build_mesh(dt=ratio / nx, dx=1.0 / nx, nt=nt, nx=nx)
    region = region or RectRegion(0, 0, nt, nx)
    ncols = nx + 1
    inner = interior_index(region, ncols)
    values = amplitude * np.random.default_rng(seed).standard_normal(mesh.shape)
    terms = triangle_kernel(density, values, region_index(region, ncols), mesh.dt, mesh.dx,
                            gradient=False, hessian=True)
    return delsolve_module._sparse_block(terms.triplets, values.size, inner, inner)


def _column_order(monkeypatch, jac):
    """(SuperLU's column order spec, the LU) of ``_factor_and_rcond(jac)``."""
    specs, splu = [], delsolve_module.splu

    def recorded(*args, **kwargs):
        specs.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(*args, **kwargs)

    monkeypatch.setattr("mslab.delsolve.splu", recorded)
    lu, _ = delsolve_module._factor_and_rcond(jac, "probe")
    assert len(specs) == 1
    return specs[0], lu


def _is_identity(perm):
    return np.array_equal(perm, np.arange(len(perm)))


class TestBandOrder:
    @pytest.mark.parametrize("nt,nx,ratio,region", [
        (20, 10, 0.5, None),  # tall
        (16, 16, 0.5, None),  # square
        (21, 10, 1.0, None),  # tall, gcd(nt, nx) = 1
        (9, 7, 1.0, None),
        (20, 12, 0.5, RectRegion(3, 2, 12, 8)),  # offset
    ])
    def test_pivoting_narrow_band_keeps_natural_order(self, monkeypatch, nt, nx, ratio,
                                                      region):
        jac = _interior_jacobian(LinearWave, nt, nx, ratio, region)
        spec, lu = _column_order(monkeypatch, jac)
        assert spec == "NATURAL"
        assert _is_identity(lu.perm_c)

    @pytest.mark.parametrize("density,nt,nx,ratio,region,amplitude", [
        (LinearWave, 10, 20, 0.5, None, 0.0),  # wide: nt < nx
        (LinearWave, 15, 16, 0.5, None, 0.0),
    ])
    def test_other_systems_keep_colamd(self, monkeypatch, density, nt, nx, ratio, region,
                                       amplitude):
        jac = _interior_jacobian(density, nt, nx, ratio, region, amplitude)
        spec, lu = _column_order(monkeypatch, jac)
        assert spec == "COLAMD"
        assert not _is_identity(lu.perm_c)

    @pytest.mark.parametrize("density,nt,nx,ratio,region,amplitude", [
        (HarmonicDirichlet, 16, 16, 0.5, None, 0.0),
        (HarmonicDirichlet, 20, 10, 1.0, None, 0.0),
        (quartic_test_density(0.8), 16, 16, 0.5, None, 0.1),
        (quartic_test_density(0.8), 20, 10, 0.5, None, 0.1),
        (LinearWave, 4, 4, 0.5, Patch3Region(2, 2), 0.0),
    ], ids=["harmonic-16x16", "harmonic-20x10", "quartic-16x16", "quartic-20x10",
            "wave-patch3"])
    def test_dominant_systems_take_symmetric_order(self, monkeypatch, density, nt, nx,
                                                   ratio, region, amplitude):
        jac = _interior_jacobian(density, nt, nx, ratio, region, amplitude)
        spec, lu = _column_order(monkeypatch, jac)
        assert spec == "MMD_AT_PLUS_A"
        assert np.array_equal(lu.perm_r, lu.perm_c)  # no row swaps

    @pytest.mark.parametrize("size", [20, 48])
    @pytest.mark.parametrize("ratio", [0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0, 1.3, 2.0])
    def test_dominance_ties_do_not_flip_on_round_off(self, monkeypatch, size, ratio):
        # HarmonicDirichlet's interior columns are exact ties,
        # 2|J_jj| = sum_i |J_ij|; at ratios 0.1 and 0.7 the computed sums
        # exceed 2|J_jj| by about one ulp.
        jac = _interior_jacobian(HarmonicDirichlet, size, size, ratio)
        col_sums = np.asarray(abs(jac).sum(axis=0)).ravel()
        margin = 2.0 * np.abs(jac.diagonal()) - col_sums
        assert np.min(np.abs(margin) / col_sums) <= 2 * np.finfo(float).eps
        spec, lu = _column_order(monkeypatch, jac)
        assert spec == "MMD_AT_PLUS_A"
        assert np.array_equal(lu.perm_r, lu.perm_c)  # SuperLU takes the diagonal on ties

    @settings(max_examples=40, deadline=None)
    @given(nt=st.integers(3, 16), nx=st.integers(3, 16),
           ratio=st.sampled_from([0.3, 0.5, 0.7, 1.3]),
           density=st.sampled_from(["wave", "harmonic", "quartic", "quadratic"]),
           seed=st.integers(0, 2**16))
    @example(nt=14, nx=6, ratio=0.5, density="wave", seed=0)  # natural order
    @example(nt=6, nx=14, ratio=0.5, density="wave", seed=0)  # COLAMD
    def test_both_routes_solve_backward_stably(self, nt, nx, ratio, density, seed):
        density, amplitude = {
            "wave": (LinearWave, 0.0), "harmonic": (HarmonicDirichlet, 0.0),
            "quartic": (quartic_test_density(0.8), 0.3),
            "quadratic": (QuadraticDensity(vv=1.0, ww=-0.8, vw=0.05, vu=0.02, uu=-0.1), 0.0),
        }[density]
        jac = _interior_jacobian(density, nt, nx, ratio, amplitude=amplitude, seed=seed)
        try:
            lu, _ = delsolve_module._factor_and_rcond(jac, "probe")
        except SingularSystem:
            assume(False)
        rng = np.random.default_rng(seed)
        n = jac.shape[0]
        for trans, mat in (("N", jac), ("T", jac.T)):
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                x = lu.solve(b, trans=trans)
                residual = np.abs(mat @ x - b).max()
                scale = abs(mat).sum(axis=1).max() * np.abs(x).max()
                assert residual <= 1e-13 * scale


def _dense_rcond(jac):
    """1 / (max(1, ||J||_1) ||J^-1||_1) from the dense inverse."""
    dense = jac.toarray()
    return 1.0 / (max(1.0, np.abs(dense).sum(axis=0).max())
                  * np.abs(np.linalg.inv(dense)).sum(axis=0).max())


def _general_route_rcond(jac):
    """rcond without the M-matrix certificate or the symmetric order: a
    dominant J under COLAMD, a pivoting J under the band rule, and
    ||J^-1||_1 from the dense inverse (n <= 200) or from ``onenormest`` with
    one solve per column, seeded as ``_factor_and_rcond`` seeds it."""
    from scipy.sparse.linalg import LinearOperator, onenormest

    jac = jac.tocsc()
    n = jac.shape[0]
    col_sums = np.asarray(abs(jac).sum(axis=0)).ravel()
    order = "COLAMD"
    if np.any(2.0 * np.abs(jac.diagonal()) < (1.0 - 8 * np.finfo(float).eps) * col_sums):
        coo = jac.tocoo()
        width = int(np.abs(coo.row - coo.col).max())
        order = "NATURAL" if width * width <= n else order
    lu = splu(jac, permc_spec=order)
    if n <= 200:
        norm_inv = np.abs(lu.solve(np.eye(n))).sum(axis=0).max()
    else:
        op = LinearOperator(jac.shape, matvec=lambda b: lu.solve(b),
                            rmatvec=lambda b: lu.solve(b, trans="T"))
        state = np.random.get_state()
        try:
            np.random.seed(delsolve_module._RCOND_SEED)
            norm_inv = onenormest(op)
        finally:
            np.random.set_state(state)
    return 1.0 / (max(1.0, col_sums.max()) * norm_inv)


def _type2_jacobian(nt, nx, ratio):
    """The canonical mixed (type-II) system of HarmonicDirichlet on the whole
    nt x nx mesh: interior DEL rows and top-row momentum rows."""
    from mslab.delsolve import _hessian_operator
    from mslab.jetmesh import interior_index, region_index

    mesh = build_mesh(dt=ratio / nx, dx=1.0 / nx, nt=nt, nx=nx)
    region, ncols = RectRegion(0, 0, nt, nx), nx + 1
    flat = np.concatenate([interior_index(region, ncols),
                           node_index(canonical_type2_split(region)[1], ncols)])
    return _hessian_operator(HarmonicDirichlet, np.zeros(mesh.shape),
                             region_index(region, ncols), flat, mesh.dt, mesh.dx,
                             "probe")[:, flat]


def _random_dominant_z_matrix(n, density, seed):
    """A sparse Z-matrix whose columns are strictly diagonally dominant."""
    from scipy.sparse import random as sparse_random

    rng = np.random.default_rng(seed)
    off = sparse_random(n, n, density=density, format="csc", random_state=rng)
    off.setdiag(0.0)
    off.eliminate_zeros()
    col_sums = np.asarray(off.sum(axis=0)).ravel()
    scale = 10.0 ** rng.uniform(-2.0, 2.0)  # either side of ||J||_1 = 1
    return (scale * (diags(col_sums + rng.uniform(0.01, 1.0, n)) - off)).tocsc()


class _RecordingLu:
    """Stands in for a SuperLU object and records the ``solve`` calls."""

    def __init__(self, lu, solves):
        self._lu, self.solves = lu, solves

    def solve(self, rhs, trans="N"):
        self.solves.append((np.shape(rhs), trans))
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class TestMMatrixIndicator:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["harmonic", "type2", "random"]),
           nt=st.integers(2, 31), nx=st.integers(2, 31),
           ratio=st.floats(0.1, 3.0), density=st.floats(0.001, 0.05),
           seed=st.integers(0, 2**16))
    @example(kind="harmonic", nt=31, nx=31, ratio=0.5, density=0.01, seed=0)  # n = 900
    @example(kind="type2", nt=29, nx=31, ratio=1.0, density=0.01, seed=0)
    @example(kind="random", nt=31, nx=31, ratio=1.0, density=0.002, seed=3)
    def test_certified_rcond_is_exact(self, kind, nt, nx, ratio, density, seed):
        if kind == "harmonic":
            jac = _interior_jacobian(HarmonicDirichlet, nt, nx, ratio)
        elif kind == "type2":
            jac = _type2_jacobian(nt, nx, ratio)
        else:
            jac = _random_dominant_z_matrix((nt - 1) * (nx - 1), density, seed)
        assume(jac.shape[0] <= 900)
        _, rcond = delsolve_module._factor_and_rcond(jac, "probe")
        assert rcond == pytest.approx(_dense_rcond(jac), rel=1e-12)
        # The general route's indicator is exact (n <= 200) or a lower bound
        # of ||J^-1||_1, so the certified one is never larger beyond round-off.
        assert rcond <= _general_route_rcond(jac) * (1.0 + 1e-12)

    @pytest.mark.parametrize("jac", [
        [[1.0, -2.0], [-2.0, 1.0]],  # J^-T 1 = (-1, -1)
        # I - 0.6 (S + S^T): a Z-matrix with negative eigenvalues, estimated.
        diags([-0.6, 1.0, -0.6], [-1, 0, 1], shape=(250, 250)),
    ], ids=["2x2", "tridiagonal-250"])
    def test_z_matrix_that_is_not_an_m_matrix_takes_the_general_route(self, jac):
        jac = csc_matrix(jac)
        assert not np.all(splu(jac).solve(np.ones(jac.shape[0]), trans="T") > 0.0)
        _, rcond = delsolve_module._factor_and_rcond(jac, "probe")
        assert rcond == _general_route_rcond(jac)

    @pytest.mark.parametrize("nt,nx,ratio", [
        (20, 10, 0.5),  # natural order, dense inverse
        (10, 20, 0.5),  # COLAMD, dense inverse
        (24, 24, 0.5),  # natural order, onenormest
        (16, 30, 0.7),  # COLAMD, onenormest
    ])
    def test_wave_jacobians_take_the_general_route(self, nt, nx, ratio):
        jac = _interior_jacobian(LinearWave, nt, nx, ratio)
        assert jac.max() > 0.0 > jac.min()  # not a Z-matrix
        _, rcond = delsolve_module._factor_and_rcond(jac, "probe")
        assert rcond == _general_route_rcond(jac)

    @pytest.mark.parametrize("size", [8, 48])  # the dense inverse and onenormest sizes
    @pytest.mark.parametrize("jacobian", [
        lambda size: _interior_jacobian(HarmonicDirichlet, size, size, 0.5),
        lambda size: _type2_jacobian(size, size, 1.0),
    ], ids=["dirichlet", "type2"])
    def test_m_matrix_indicator_is_one_transposed_solve(self, monkeypatch, size, jacobian):
        jac = jacobian(size)
        orders, solves, normests = [], [], []
        splu_ = delsolve_module.splu

        def recorded(*args, **kwargs):
            orders.append(kwargs)
            return _RecordingLu(splu_(*args, **kwargs), solves)

        monkeypatch.setattr("mslab.delsolve.splu", recorded)
        monkeypatch.setattr("mslab.delsolve.onenormest",
                            lambda *args, **kwargs: normests.append(1))
        lu, _ = delsolve_module._factor_and_rcond(jac, "probe")
        assert orders == [{"permc_spec": "MMD_AT_PLUS_A",
                           "options": {"SymmetricMode": True}}]
        assert solves == [((jac.shape[0],), "T")]
        assert normests == []
        assert np.array_equal(lu.perm_r, lu.perm_c)  # no row swaps


class TestSolveBvp:
    def test_patch3_frozen_interior_value(self):
        # Unit datum at the right-hand neighbour, c = 0.5: centre = -1/6.
        mesh = build_mesh(dt=1.0, dx=2.0, nt=2, nx=2)
        patch = Patch3Region(1, 1)
        values = {nd: 0.0 for nd in boundary_nodes(patch)}
        values[(1, 2)] = 1.0
        report = solve_bvp(LinearWave, mesh, BoundaryData.from_mapping(patch, values))
        assert report.field[1, 1] == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert report.rcond == pytest.approx(1.0)

    def test_rect_solution_solves_del_and_keeps_boundary(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=8, nx=8)
        reg = RectRegion(1, 1, 6, 6)
        rng = np.random.default_rng(9)
        data = BoundaryData(reg, 0.3 * rng.standard_normal(len(boundary_nodes(reg))))
        report = solve_bvp(LinearWave, mesh, data)
        for nd, val in data.as_mapping().items():
            assert report.field[nd] == pytest.approx(val, abs=1e-14)
        from mslab.jetmesh import interior_nodes
        for nd in interior_nodes(reg):
            assert abs(del_residual(LinearWave, report.field, *nd)) < 1e-11

    def test_reproduces_propagated_solution(self):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=10, nx=9)
        f = seeded_wave_field(mesh, 10, FixedClosure(0.0, 0.0))
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        report = solve_bvp(LinearWave, mesh, BoundaryData.from_field(f, reg))
        assert np.allclose(report.field.values, f.values, atol=1e-9)

    def test_unit_ratio_is_singular(self):
        mesh = build_mesh(dt=0.25, dx=0.25, nt=4, nx=4)
        patch = Patch3Region(1, 1)
        data = BoundaryData(patch, np.zeros(6))
        with pytest.raises(SingularSystem):
            solve_bvp(LinearWave, mesh, data)
        reg = RectRegion(0, 0, 4, 4)
        rect_data = BoundaryData(reg, np.zeros(len(boundary_nodes(reg))))
        with pytest.raises(SingularSystem) as err:
            solve_bvp(LinearWave, mesh, rect_data)
        assert err.value.rcond < 1e-12

    @pytest.mark.parametrize("nt,nx", [(6, 9), (8, 8), (4, 6), (12, 18), (6, 6),
                                       (7, 9), (5, 7), (9, 10), (11, 13)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_unit_ratio_is_singular_exactly_when_gcd_exceeds_one(self, nt, nx, transposed):
        # Each shape and its transpose: tall meshes factor in the natural
        # order, wide ones under COLAMD.
        if transposed:
            nt, nx = nx, nt
        mesh = build_mesh(dt=0.25, dx=0.25, nt=nt, nx=nx)
        reg = RectRegion(0, 0, nt, nx)
        rng = np.random.default_rng(nt * 100 + nx)
        data = BoundaryData(reg, 0.1 * rng.standard_normal(len(boundary_nodes(reg))))
        if math.gcd(nt, nx) > 1:
            with pytest.raises(SingularSystem):
                solve_bvp(LinearWave, mesh, data)
        else:
            assert solve_bvp(LinearWave, mesh, data).rcond >= 1e-12

    def test_nonlinear_bvp(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        dens = quartic_test_density(0.5)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(11)
        data = BoundaryData(reg, 0.2 * rng.standard_normal(len(boundary_nodes(reg))))
        report = solve_bvp(dens, mesh, data)
        from mslab.jetmesh import interior_nodes
        for nd in interior_nodes(reg):
            assert abs(del_residual(dens, report.field, *nd)) < 1e-11
        assert report.rcond > 1e-12

    def test_unit_data_on_a_large_mesh(self, monkeypatch):
        # |u| reaches about 5e3, and the kernel residual of the exact step
        # stayed above the absolute NEWTON_TOL: "Armijo line search failed".
        mesh = build_mesh(dt=1.0 / 224, dx=1.0 / 112, nt=224, nx=112)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rng = np.random.default_rng(0)
        data = BoundaryData(reg, rng.standard_normal(len(boundary_nodes(reg))))
        calls = _count_splu(monkeypatch)
        values = solve_bvp(LinearWave, mesh, data).field.values
        assert len(calls) == 1
        ncols = mesh.nx + 1
        residual = triangle_kernel(LinearWave, values, region_index(reg, ncols), mesh.dt,
                                   mesh.dx).residual[interior_index(reg, ncols)]
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(values))

    @pytest.mark.parametrize("step", [1e-4, -1e-4])
    @pytest.mark.parametrize("corner", [(0, 0), (0, 4), (4, 4), (4, 0)])
    @pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet],
                             ids=["wave", "harmonic"])
    def test_warm_start_at_a_nearby_solution(self, density, corner, step):
        # A quadratic solve once had to take a first step.  From the solution
        # of nearby data, a corner perturbation leaves the interior start at
        # round-off, and that step was noise no Armijo trial could accept.
        mesh = build_mesh(dt=0.125, dx=0.25, nt=4, nx=4)
        reg = RectRegion(0, 0, 4, 4)
        data = BoundaryData(reg, 0.3 * np.random.default_rng(4).standard_normal(16))
        base = solve_bvp(density, mesh, data).field
        moved = data.perturbed(boundary_nodes(reg).index(corner), step)
        warm = solve_bvp(density, mesh, moved, initial=base)
        cold = solve_bvp(density, mesh, moved)
        tol = 16 * np.finfo(float).eps / cold.rcond * np.max(np.abs(cold.field.values))
        assert np.max(np.abs(warm.field.values - cold.field.values)) <= tol

    @pytest.mark.parametrize("scale", [1e-14, 1e-100])
    def test_tiny_quartic_data_solve_the_quadratic_part(self, scale):
        # The absolute tolerance once accepted the start guess of tiny data;
        # the quartic term is then below round-off of the Dirichlet energy.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=8, nx=8)
        reg = RectRegion(0, 0, 8, 8)
        data = np.random.default_rng(0).standard_normal(len(boundary_nodes(reg)))
        harmonic = solve_bvp(HarmonicDirichlet, mesh, BoundaryData(reg, data)).field.values
        field = solve_bvp(quartic_test_density(0.8), mesh,
                          BoundaryData(reg, scale * data)).field.values
        assert np.max(np.abs(field / scale - harmonic)) <= 1e-12 * np.max(np.abs(harmonic))

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_quartic_data_solve_to_their_floor(self, scale):
        # Above the absolute tolerance's reach: "Armijo line search failed".
        mesh = build_mesh(dt=0.05, dx=0.1, nt=8, nx=8)
        reg = RectRegion(0, 0, 8, 8)
        data = np.random.default_rng(0).standard_normal(len(boundary_nodes(reg)))
        density = quartic_test_density(0.8)
        values = solve_bvp(density, mesh, BoundaryData(reg, scale * data)).field.values
        index, inner = region_index(reg, mesh.nx + 1), interior_index(reg, mesh.nx + 1)
        residual = triangle_kernel(density, values, index, mesh.dt, mesh.dx).residual[inner]
        k = delsolve_module._hessian_operator(density, values, index, inner, mesh.dt,
                                              mesh.dx, "probe")
        assert np.max(np.abs(residual)) <= delsolve_module._roundoff_floor(k, values)

    # Above about 1e153 the Armijo merit |F|^2 / 2 of the start residual
    # overflows, and the solve is refused as a non-finite start (pinned by
    # test_genfunc.py::TestBoundaryHamiltonian::test_overflowing_momentum_is_a_solver_error).
    @settings(max_examples=30, deadline=None)
    @given(density=st.sampled_from([LinearWave, HarmonicDirichlet, STEP_DENSITIES[2]]),
           nt=st.integers(2, 10), nx=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(-300, 150))
    @example(density=LinearWave, nt=8, nx=8, seed=0, k=3)
    @example(density=HarmonicDirichlet, nt=8, nx=8, seed=0, k=-14)
    @example(density=STEP_DENSITIES[2], nt=10, nx=10, seed=0, k=150)
    @example(density=LinearWave, nt=10, nx=10, seed=0, k=-300)
    def test_quadratic_solutions_scale_with_their_data(self, density, nt, nx, seed, k):
        # The absolute tolerance once accepted the mean of tiny data as the
        # field (39% off at 1e-14), and large data stalled above it from 1e3.
        mesh = build_mesh(dt=0.05, dx=0.1, nt=nt, nx=nx)
        reg = RectRegion(0, 0, nt, nx)
        data = np.random.default_rng(seed).standard_normal(len(boundary_nodes(reg)))
        scale = 10.0 ** k
        unit = boundary_lagrangian(density, mesh, BoundaryData(reg, data))
        scaled = boundary_lagrangian(density, mesh, BoundaryData(reg, scale * data))
        # Data rounding and the solve each move the field by cond(J) round-offs.
        tol = 16 * np.finfo(float).eps / unit.report.rcond
        gap = np.max(np.abs(scaled.report.field.values - scale * unit.report.field.values))
        assert gap <= tol * scale * np.max(np.abs(unit.report.field.values))
        if k >= -150:  # s^2 stays a normal number
            # S = sum_b pi_b b_b / 2 for a quadratic density; the pairing's
            # absolute sum is the value's scale without its cancellation.
            pairing = np.sum(np.abs(normal_momenta(density, unit.report.field, reg).values
                                    * data))
            assert abs(scaled.value - scale * scale * unit.value) <= tol * scale * scale * pairing


class TestTangentSolve:
    def test_difference_of_solutions_is_tangent_for_linear_density(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=8, nx=8)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        base = seeded_wave_field(mesh, 12, FixedClosure(0.0, 0.0))
        other = seeded_wave_field(mesh, 13, FixedClosure(0.0, 0.0))
        diff_boundary = BoundaryData(
            reg, [other[nd] - base[nd] for nd in boundary_nodes(reg)])
        tangent = tangent_solve(LinearWave, base, reg, diff_boundary)
        assert np.allclose(tangent.values, other.values - base.values,
                           atol=1e-9)

    def test_tangent_solves_linearised_equations(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        dens = quartic_test_density(0.6)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(14)
        data = BoundaryData(reg, 0.2 * rng.standard_normal(len(boundary_nodes(reg))))
        base = solve_bvp(dens, mesh, data).field
        tb = BoundaryData(reg, rng.standard_normal(len(boundary_nodes(reg))))
        tangent = tangent_solve(dens, base, reg, tb)
        from mslab.jetmesh import interior_nodes
        for nd in interior_nodes(reg):
            assert abs(linearized_del_residual(dens, base, tangent, *nd)) < 1e-10

    @pytest.mark.parametrize("density", [LinearWave, quartic_test_density(0.6)])
    def test_several_boundaries_equal_separate_solves(self, monkeypatch, density):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(16)
        nb = len(boundary_nodes(reg))
        base = solve_bvp(density, mesh, BoundaryData(reg, 0.2 * rng.standard_normal(nb))).field
        tbs = [BoundaryData(reg, rng.standard_normal(nb)) for _ in range(3)]
        calls = _count_splu(monkeypatch)
        together = tangent_solve(density, base, reg, tbs)
        assert len(calls) == 1
        assert len(together) == 3
        for tb, tangent in zip(tbs, together):
            alone = tangent_solve(density, base, reg, tb)
            assert isinstance(alone, DiscreteField)
            assert np.array_equal(tangent.values, alone.values)

    def test_rejects_boundary_of_other_region(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg, other = RectRegion(1, 1, 4, 4), RectRegion(0, 0, 4, 4)
        base = DiscreteField.zeros(mesh)
        tbs = [BoundaryData(reg, np.zeros(len(boundary_nodes(reg)))),
               BoundaryData(other, np.zeros(len(boundary_nodes(other))))]
        with pytest.raises(ValueError, match="different region"):
            tangent_solve(LinearWave, base, reg, tbs)

    def test_rejects_non_solution_base(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(15)
        base = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        tb = BoundaryData(reg, rng.standard_normal(len(boundary_nodes(reg))))
        with pytest.raises(ValueError, match="DEL"):
            tangent_solve(LinearWave, base, reg, tb)


QUARTIC = quartic_test_density(0.8)
# (density, route, largest data scale exponent).  Above about 1e50 the
# quartic's Newton merit overflows; from about 1e-2 its row Newton can stop
# with a failed line search as the elliptic rows grow.
SOLVED_CASES = st.one_of(
    st.tuples(st.sampled_from([LinearWave, HarmonicDirichlet,
                               QuadraticDensity(vv=1.0, ww=-0.7, uu=-0.3, vw=0.2)]),
              st.sampled_from(["solve_bvp", "propagate"]), st.integers(-100, 100)),
    st.tuples(st.just(QUARTIC), st.just("solve_bvp"), st.integers(-100, 50)),
    st.tuples(st.just(QUARTIC), st.just("propagate"), st.integers(-100, -3)))


class TestSolutionTest:
    @settings(max_examples=60, deadline=None)
    @given(case=SOLVED_CASES, nt=st.integers(2, 12), nx=st.integers(2, 12),
           periodic=st.booleans(), j=st.integers(-100, 100),
           seed=st.integers(0, 2 ** 32 - 1))
    # A solved residual of -3.1 times the floor of the node's one Hessian row,
    # a tenth of the field's, with K_ff > 0.
    @example(case=(QUARTIC, "solve_bvp", 3), nt=8, nx=2, periodic=False, j=0, seed=200)
    def test_solved_fields_pass_and_a_moved_node_fails(self, case, nt, nx, periodic, j,
                                                        seed):
        density, route, k = case
        mesh = build_mesh(dt=0.05, dx=0.1, nt=nt, nx=nx)
        reg = RectRegion(0, 0, nt, nx)
        rng = np.random.default_rng(seed)
        nb = len(boundary_nodes(reg))
        if route == "solve_bvp":
            data = BoundaryData(reg, 10.0 ** k * rng.standard_normal(nb))
            field = solve_bvp(density, mesh, data).field
        else:
            row0, step = 10.0 ** k * rng.standard_normal((2, nx + 1))
            field = propagate(density, mesh, row0, row0 + mesh.dt * step,
                              PeriodicClosure() if periodic else FixedClosure(0.0, 0.0))
        # tangent_solve tests the base field, msff_residual_region the base
        # field and both variations.
        v_var, w_var = tangent_solve(density, field, reg,
                                     [BoundaryData(reg, 10.0 ** j * rng.standard_normal(nb))
                                      for _ in range(2)])
        msff_residual_region(density, field, v_var, w_var, reg, check_variations=True)

        # A patch of the solved field passes too, though its own rows may have
        # a lower floor than the region the field was solved on.
        n, i = int(rng.integers(1, nt)), int(rng.integers(1, nx))
        patch, flat = Patch3Region(n, i), n * (nx + 1) + i
        patch_zeros = BoundaryData(patch, np.zeros(len(boundary_nodes(patch))))
        msff_residual_patch(density, field, v_var, w_var, n, i)
        tangent_solve(density, field, patch, patch_zeros)

        # Moving one interior node so that its residual grows by 5 or by 1e3
        # times the level at which Newton stops fails the test there.  A
        # solved residual is within 2 levels, so 5 levels stay outside it;
        # a margin of a few levels more would let that move through.
        k_field = delsolve_module._field_hessian(density, field, "probe")
        level = max(delsolve_module.NEWTON_TOL,
                    delsolve_module._roundoff_floor(k_field, field.values))
        k_ff = delsolve_module._hessian_operator(
            density, field.values, region_index(patch, nx + 1), [flat], mesh.dt, mesh.dx,
            "probe")[0, flat]
        named = rf"satisfy the DEL equations at \({n}, {i}\)"
        for levels in (5.0, 1e3):
            moved = field.with_value(n, i, field[n, i] + levels * level / abs(k_ff))
            with pytest.raises(ValueError, match=named):
                msff_residual_patch(density, moved, v_var, w_var, n, i)
            with pytest.raises(ValueError, match=named):
                tangent_solve(density, moved, patch, patch_zeros)

    # An overflowing K @ x can leave a non-finite residual, and an infinite
    # floor with it.
    @pytest.mark.parametrize("residual, values", [
        ([0.0, math.nan], [1.0, 1.0]), ([0.0, math.inf], [1.0, 1.0]),
        ([0.0, math.inf], [math.inf, 1.0])], ids=["nan", "inf", "inf-floor"])
    def test_non_finite_residual_fails(self, residual, values):
        k = csc_matrix(np.eye(2))
        with pytest.raises(ValueError, match=r"^probe at \(1, 2\): residual"):
            delsolve_module._check_solution(np.array(residual), np.array([10, 11]), 9,
                                            "probe", lambda: k, np.array(values))
