import copy

import numpy as np
import pytest

from mslab import (
    BoundaryData,
    DiscreteField,
    FixedClosure,
    LinearWave,
    Patch3Region,
    PeriodicClosure,
    QuadraticDensity,
    RectRegion,
    SingularSystem,
    SolverError,
    boundary_nodes,
    build_mesh,
    del_residual,
    parse_closure,
    propagate,
    quartic_test_density,
    solve_bvp,
    step_row,
    tangent_solve,
)
from mslab import delsolve as delsolve_module
from mslab.msforms import linearized_del_residual


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

    def test_solver_error_on_no_iterations(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        dens = quartic_test_density(5.0)
        rng = np.random.default_rng(8)
        row0 = rng.standard_normal(mesh.nx + 1)
        row1 = row0 + 2.0 * rng.standard_normal(mesh.nx + 1)
        with pytest.raises(SolverError):
            propagate(dens, mesh, row0, row1, PeriodicClosure(), max_iter=1)

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
    def test_quartic_run_factors_every_newton_iteration(self, monkeypatch, closure):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=9)
        row0, row1 = _rows(mesh, 22, closure)
        iterations = []
        newton = delsolve_module._newton

        def recorded(*args):
            out = newton(*args)
            iterations.append(out[2])
            return out

        monkeypatch.setattr("mslab.delsolve._newton", recorded)
        calls = _count_splu(monkeypatch)
        propagate(quartic_test_density(0.8), mesh, row0, row1, closure)
        # One LU per Newton step; a row that needs none factors once for rcond.
        assert len(iterations) == mesh.nt - 1
        assert len(calls) == sum(max(k, 1) for k in iterations) > mesh.nt - 1

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
        assert np.array_equal(field.values, np.array(rows))


class TestNewtonCore:
    def test_quadratic_solve_bvp_factors_once(self, monkeypatch):
        # Data of size 100 leave one exact step above tol, so this solve
        # takes two Newton iterations.
        mesh = build_mesh(dt=1.0 / 32, dx=1.0 / 16, nt=16, nx=16)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rng = np.random.default_rng(1)
        data = BoundaryData(reg, 100.0 * rng.standard_normal(len(boundary_nodes(reg))))
        refactored = copy.copy(LinearWave)
        refactored.is_quadratic = False  # one LU per Newton iteration
        reference = solve_bvp(refactored, mesh, data)
        calls = _count_splu(monkeypatch)
        report = solve_bvp(LinearWave, mesh, data)
        assert report.iterations == reference.iterations >= 2
        assert len(calls) == 1
        assert np.array_equal(report.field.values, reference.field.values)
        assert report.rcond == reference.rcond

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

    def test_non_finite_step_is_a_solver_error(self):
        class Overflowing:
            def solve(self, b):
                return np.full_like(b, np.inf)

        with pytest.raises(SolverError, match=r"probe: .* \(non-finite step\)"):
            delsolve_module._newton(lambda x: x - 1.0,
                                    lambda x, context: (Overflowing(), 1.0, 0.0),
                                    np.zeros(2), 1e-12, 5, "probe")


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
