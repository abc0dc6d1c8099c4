import numpy as np
import pytest

from mslab import (
    BoundaryData,
    DiscreteField,
    FixedClosure,
    HarmonicDirichlet,
    LinearWave,
    PeriodicClosure,
    QuadraticDensity,
    RectRegion,
    SingularSystem,
    WaveSolution,
    boundary_nodes,
    bridges_residual,
    bridges_residuals,
    build_mesh,
    continuous_msff_residual,
    hess_Ld,
    hessian_symmetry,
    interior_nodes,
    jet_extension,
    linearized_del_residual,
    msff_residual_patch,
    msff_residual_region,
    propagate,
    quartic_test_density,
    region_triangles,
    solve_bvp,
    symplectic_flux,
    tangent_solve,
)


def wave_field(mesh, seed, closure=None, amplitude=0.1):
    rng = np.random.default_rng(seed)
    closure = closure or PeriodicClosure()
    row0 = amplitude * rng.standard_normal(mesh.nx + 1)
    row1 = row0 + mesh.dt * amplitude * rng.standard_normal(mesh.nx + 1)
    if isinstance(closure, FixedClosure):
        for idx, row in ((0, row0), (1, row1)):
            row[0], row[-1] = closure.end_values(idx)
    return propagate(LinearWave, mesh, row0, row1, closure)


@pytest.fixture
def wave_setup():
    mesh = build_mesh(dt=0.05, dx=0.1, nt=14, nx=12)
    return mesh, wave_field(mesh, 0), wave_field(mesh, 1), wave_field(mesh, 2)


class TestPatchIdentity:
    def test_vanishes_on_solution_variations(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        for n in range(1, mesh.nt):
            for i in range(1, mesh.nx):
                rep = msff_residual_patch(LinearWave, u, v_var, w_var, n, i,
                                          check_variations=True)
                assert abs(rep.residual) < 1e-14
                assert rep.n_terms == 6

    def test_region_sum_vanishes(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rep = msff_residual_region(LinearWave, u, v_var, w_var, reg)
        assert abs(rep.residual) < 1e-13

    def test_negative_control_detected(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        w_bad = w_var.with_value(7, 6, w_var[7, 6] + 1.0)
        rep = msff_residual_patch(LinearWave, u, v_var, w_bad, 7, 6)
        assert abs(rep.residual) > 1e-6

    def test_check_variations_rejects_non_solution(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        w_bad = w_var.with_value(7, 6, w_var[7, 6] + 1.0)
        with pytest.raises(ValueError, match="variation"):
            msff_residual_patch(LinearWave, u, v_var, w_bad, 7, 6,
                                check_variations=True)

    def test_base_must_solve_del(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        u_bad = u.with_value(7, 6, u[7, 6] + 1.0)
        with pytest.raises(ValueError, match="DEL"):
            msff_residual_patch(LinearWave, u_bad, v_var, w_var, 7, 6)
        # ... but for the wave density the two-form has constant
        # coefficients, so the quartic density is the discriminating case: a
        # non-solution base there changes the Hessians themselves.

    def test_nonlinear_density_patch_identity(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=7, nx=7)
        dens = quartic_test_density(0.6)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rng = np.random.default_rng(21)
        data = BoundaryData(reg, 0.2 * rng.standard_normal(len(boundary_nodes(reg))))
        base = solve_bvp(dens, mesh, data).field
        n_bd = len(boundary_nodes(reg))
        v_var = tangent_solve(dens, base, reg,
                              BoundaryData(reg, rng.standard_normal(n_bd)))
        w_var = tangent_solve(dens, base, reg,
                              BoundaryData(reg, rng.standard_normal(n_bd)))
        for n in range(1, mesh.nt):
            for i in range(1, mesh.nx):
                rep = msff_residual_patch(dens, base, v_var, w_var, n, i,
                                          check_variations=True,
                                          variation_tol=1e-8)
                assert abs(rep.residual) < 1e-12


class TestBridgesResidual:
    def test_patch_identity_equals_scaled_bridges_for_wave(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        area = mesh.dt * mesh.dx / 2.0
        rng = np.random.default_rng(3)
        # The algebraic identity holds for arbitrary variation pairs, not
        # just solutions, so check it on noise fields too.
        v_noise = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        w_noise = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        from mslab.msforms import _patch_terms
        for n in range(1, mesh.nt):
            for i in range(1, mesh.nx):
                patch = sum(_patch_terms(LinearWave, u, v_noise, w_noise, n, i))
                bridges = bridges_residual(mesh, v_noise, w_noise, n, i)
                assert patch == pytest.approx(area * bridges, rel=1e-10,
                                              abs=1e-13)

    def test_vanishes_on_solution_pairs(self, wave_setup):
        mesh, _, v_var, w_var = wave_setup
        for n in range(1, mesh.nt):
            for i in range(mesh.nx + 1):
                assert abs(bridges_residual(mesh, v_var, w_var, n, i,
                                            periodic=True)) < 1e-12

    def test_flux_conserved_across_slices(self, wave_setup):
        mesh, _, v_var, w_var = wave_setup
        fluxes = [symplectic_flux(mesh, v_var, w_var, n)
                  for n in range(mesh.nt)]
        assert max(fluxes) - min(fluxes) < 1e-13

    def test_flux_frozen_value(self):
        # V = t, W = 1: dv^du = (dV/dt) * W - 0 = 1 per column.
        mesh = build_mesh(dt=0.25, dx=0.5, nt=4, nx=6)
        v_var = DiscreteField.from_callable(mesh, lambda t, x: t)
        w_var = DiscreteField.from_callable(mesh, lambda t, x: 1.0)
        for n in range(mesh.nt):
            assert symplectic_flux(mesh, v_var, w_var, n) == pytest.approx(
                mesh.nx + 1, rel=1e-13)

    def test_antisymmetry_in_variations(self, wave_setup):
        mesh, _, v_var, w_var = wave_setup
        a = symplectic_flux(mesh, v_var, w_var, 3)
        b = symplectic_flux(mesh, w_var, v_var, 3)
        assert a == pytest.approx(-b, rel=1e-12)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_array_equals_per_node_residuals(self, wave_setup, periodic):
        mesh, u, v_var, _ = wave_setup
        rng = np.random.default_rng(4)
        w_noise = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        cols = range(mesh.nx + 1) if periodic else range(1, mesh.nx)
        per_node = [[bridges_residual(mesh, v_var, w_noise, n, i, periodic=periodic)
                     for i in cols] for n in range(1, mesh.nt)]
        assert np.array_equal(bridges_residuals(mesh, v_var, w_noise, periodic),
                              np.array(per_node))

    def test_index_validation(self, wave_setup):
        mesh, _, v_var, w_var = wave_setup
        with pytest.raises(ValueError):
            bridges_residual(mesh, v_var, w_var, 0, 3)
        with pytest.raises(ValueError):
            bridges_residual(mesh, v_var, w_var, 1, 0)  # needs periodic
        with pytest.raises(ValueError):
            symplectic_flux(mesh, v_var, w_var, mesh.nt)


class TestLinearizedResidual:
    def test_matches_directional_derivative(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        dens = quartic_test_density(0.9)
        rng = np.random.default_rng(31)
        base = DiscreteField(mesh, 0.3 * rng.standard_normal(mesh.shape))
        direction = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        from mslab import del_residual
        eps = 1e-6
        for nd in [(2, 2), (3, 4), (4, 1)]:
            up = DiscreteField(mesh, base.values + eps * direction.values)
            dn = DiscreteField(mesh, base.values - eps * direction.values)
            fd = (del_residual(dens, up, *nd) - del_residual(dens, dn, *nd)) / (2 * eps)
            lin = linearized_del_residual(dens, base, direction, *nd)
            assert lin == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_rejects_node_without_stencil(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        field = DiscreteField(mesh, np.ones(mesh.shape))
        with pytest.raises(ValueError, match="does not fit mesh"):
            linearized_del_residual(LinearWave, field, field, 2, mesh.nx)


class TestHessianSymmetry:
    def test_analytic_linear_densities(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=7, nx=7)
        for density in (LinearWave, HarmonicDirichlet):
            reg = RectRegion(1, 1, 5, 5)
            rng = np.random.default_rng(41)
            data = BoundaryData(reg, 0.3 * rng.standard_normal(len(boundary_nodes(reg))))
            rep = hessian_symmetry(density, mesh, data, method="analytic")
            assert rep.max_asymmetry < 1e-12
            assert rep.method == "analytic"

    def test_fd_nonlinear_density(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg = RectRegion(1, 1, 4, 4)
        rng = np.random.default_rng(42)
        data = BoundaryData(reg, 0.2 * rng.standard_normal(len(boundary_nodes(reg))))
        rep = hessian_symmetry(quartic_test_density(0.8), mesh, data, method="fd")
        assert rep.max_asymmetry < 1e-6
        assert rep.method == "fd"

    def test_auto_dispatch(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=5, nx=5)
        reg = RectRegion(1, 1, 3, 3)
        data = BoundaryData(reg, np.zeros(len(boundary_nodes(reg))))
        assert hessian_symmetry(LinearWave, mesh, data).method == "analytic"
        assert hessian_symmetry(quartic_test_density(0.1), mesh,
                                data).method == "fd"


def dense_schur_hessian(density, mesh, region):
    """Boundary Hessian of the extremal action from a dense region Hessian
    assembled triangle by triangle with :func:`hess_Ld`."""
    bnodes, inner = boundary_nodes(region), interior_nodes(region)
    where = {nd: k for k, nd in enumerate(bnodes + inner)}
    full = np.zeros((len(where), len(where)))
    zero = DiscreteField.zeros(mesh)
    for tri in region_triangles(region):
        m = hess_Ld(density, jet_extension(zero, tri))
        for a, va in enumerate(tri.vertices):
            for b, vb in enumerate(tri.vertices):
                full[where[va], where[vb]] += m[a, b]
    nb = len(bnodes)
    return full[:nb, :nb] - full[:nb, nb:] @ np.linalg.solve(full[nb:, nb:],
                                                             full[nb:, :nb])


class TestAnalyticHessian:
    @pytest.mark.parametrize("density", [
        LinearWave, HarmonicDirichlet,
        QuadraticDensity(vv=1.0, ww=-0.6, uu=0.4, vw=0.2, vu=-0.3, wu=0.1)])
    @pytest.mark.parametrize("region", [RectRegion(0, 0, 4, 5), RectRegion(1, 2, 3, 3),
                                        RectRegion(0, 0, 1, 3)])
    def test_matches_dense_schur_reference(self, density, region):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=5, nx=6)
        data = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        h = hessian_symmetry(density, mesh, data, method="analytic").hessian
        ref = dense_schur_hessian(density, mesh, region)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_interior_block_raises(self):
        mesh = build_mesh(dt=0.1, dx=0.1, nt=6, nx=6)
        region = RectRegion(0, 0, 6, 6)
        data = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        with pytest.raises(SingularSystem, match="hessian_symmetry"):
            hessian_symmetry(LinearWave, mesh, data, method="analytic")


class TestContinuousResidual:
    def test_exact_form_pair_gives_zero(self):
        v_sol = WaveSolution("t", lambda t, x: t, lambda t, x: 1.0,
                             lambda t, x: 0.0)
        w_sol = WaveSolution("x", lambda t, x: x, lambda t, x: 0.0,
                             lambda t, x: 1.0)
        rep = continuous_msff_residual(LinearWave, v_sol, w_sol)
        assert rep.residual == 0.0
        assert rep.n_terms == 4

    def test_standing_modes_cancel(self):
        from mslab import wave_exact_solutions
        v_sol = wave_exact_solutions("standing:1")
        w_sol = wave_exact_solutions("standing:2")
        rep = continuous_msff_residual(LinearWave, v_sol, w_sol)
        assert abs(rep.residual) < 1e-10

    def test_rejects_average_coupling(self):
        from mslab import QuadraticDensity
        dens = QuadraticDensity(vv=1.0, ww=1.0, uu=1.0, name="massive")
        v_sol = WaveSolution("t", lambda t, x: t, lambda t, x: 1.0,
                             lambda t, x: 0.0)
        with pytest.raises(ValueError):
            continuous_msff_residual(dens, v_sol, v_sol)
