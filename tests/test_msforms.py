import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    BoundaryData,
    DiscreteField,
    FixedClosure,
    HarmonicDirichlet,
    LinearWave,
    Patch3Region,
    PeriodicClosure,
    QuadraticDensity,
    RectRegion,
    SingularSystem,
    SolverError,
    UserDensity,
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
    normal_momenta,
    propagate,
    quartic_test_density,
    region_triangles,
    solve_bvp,
    symplectic_flux,
    tangent_solve,
)
from mslab.delsolve import _del_newton, _factor_and_rcond, _hessian_operator
from mslab.jetmesh import interior_index, node_index, region_index
from mslab.lagrangian import triangle_kernel


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

    @pytest.mark.parametrize("density", [LinearWave, quartic_test_density(0.6)])
    def test_node_residuals_equal_patch_residuals(self, density):
        # Noise variations leave every patch residual nonzero.
        mesh = build_mesh(dt=0.1, dx=0.2, nt=5, nx=6)
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rng = np.random.default_rng(8)
        data = BoundaryData(reg, 0.2 * rng.standard_normal(len(boundary_nodes(reg))))
        base = solve_bvp(density, mesh, data).field
        v_var, w_var = (DiscreteField(mesh, rng.standard_normal(mesh.shape))
                        for _ in range(2))
        rep = msff_residual_region(density, base, v_var, w_var, reg)
        per_node = [msff_residual_patch(density, base, v_var, w_var, n, i).residual
                    for n, i in interior_nodes(reg)]
        assert np.all(rep.node_residuals != 0.0)
        assert rep.node_residuals.tolist() == per_node

    def test_region_reports_compare_and_hash(self, wave_setup):
        mesh, u, v_var, w_var = wave_setup
        reg = RectRegion(0, 0, mesh.nt, mesh.nx)
        rep, again = (msff_residual_region(LinearWave, u, v_var, w_var, reg)
                      for _ in range(2))
        assert rep.node_residuals.size > 1
        assert rep == again and hash(rep) == hash(again)
        w_bad = w_var.with_value(7, 6, w_var[7, 6] + 1.0)
        assert rep != msff_residual_region(LinearWave, u, v_var, w_bad, reg)

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
                                          check_variations=True)
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
        from mslab.msforms import _region_patch_terms
        for n in range(1, mesh.nt):
            for i in range(1, mesh.nx):
                _, terms = _region_patch_terms(LinearWave, u, v_noise, w_noise,
                                               Patch3Region(n, i),
                                               np.array([n * (mesh.nx + 1) + i]))
                patch = sum(terms[0])
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


class TestVariationMesh:
    # Each call pairs the 6x6 field or mesh with one variation on the 8x8
    # mesh; its values would be read at other nodes, once without an error.
    @pytest.mark.parametrize("call,label", [
        (lambda u, v, w: msff_residual_region(LinearWave, u, v, w, RectRegion(0, 0, 6, 6)),
         "variation W"),
        (lambda u, v, w: msff_residual_patch(LinearWave, u, w, v, 2, 2), "variation V"),
        (lambda u, v, w: bridges_residuals(u.mesh, v, w, periodic=True), "variation W"),
        (lambda u, v, w: bridges_residual(u.mesh, w, v, 2, 2), "variation V"),
        (lambda u, v, w: symplectic_flux(u.mesh, v, w, 1), "variation W"),
        (lambda u, v, w: linearized_del_residual(LinearWave, u, w, 2, 2), "variation"),
    ], ids=["msff_residual_region", "msff_residual_patch", "bridges_residuals",
            "bridges_residual", "symplectic_flux", "linearized_del_residual"])
    def test_variation_on_another_mesh_is_rejected(self, call, label):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=6, nx=6)
        other = build_mesh(dt=0.05, dx=0.1, nt=8, nx=8)
        u, v_var, w_var = wave_field(mesh, 0), wave_field(mesh, 1), wave_field(other, 2)
        with pytest.raises(ValueError, match=rf"^{label} is on QuadMesh\(.*nt=8, nx=8\), not on"):
            call(u, v_var, w_var)


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

    def test_reports_compare_and_hash(self):
        # The Hessian array once made == raise "truth value ... ambiguous"
        # and hash() raise TypeError; reports compare on the other fields.
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        reg = RectRegion(0, 0, 4, 4)
        data = BoundaryData(reg, 0.3 * np.random.default_rng(43).standard_normal(
            len(boundary_nodes(reg))))
        rep, again = (hessian_symmetry(LinearWave, mesh, data) for _ in range(2))
        assert rep.hessian.size > 1
        assert rep == again and hash(rep) == hash(again)
        assert rep != hessian_symmetry(quartic_test_density(0.1), mesh, data)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("amplitude", [0.1, 1.0])
    def test_analytic_nonlinear_density_matches_fd(self, n, amplitude):
        # The Schur complement of the Hessian at the solution is the exact
        # Hessian of the extremal action (implicit-function theorem).
        mesh = build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
        reg = RectRegion(0, 0, n, n)
        rng = np.random.default_rng(44 + n)
        data = BoundaryData(reg, amplitude * rng.standard_normal(len(boundary_nodes(reg))))
        density = quartic_test_density(1.0)
        analytic = hessian_symmetry(density, mesh, data, method="analytic")
        fd = hessian_symmetry(density, mesh, data, method="fd").hessian
        assert analytic.method == "analytic" and analytic.max_asymmetry <= 1e-12
        assert np.max(np.abs(analytic.hessian - fd)) <= 1e-8 * np.max(np.abs(fd))

    @pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet],
                             ids=["wave", "harmonic"])
    def test_fd_route_of_quadratic_densities(self, density):
        # Each perturbed solve starts at the base solution, where a forced
        # first step once failed its line search.
        mesh = build_mesh(dt=0.125, dx=0.25, nt=4, nx=4)
        reg = RectRegion(0, 0, 4, 4)
        data = BoundaryData(reg, 0.3 * np.random.default_rng(4).standard_normal(16))
        fd = hessian_symmetry(density, mesh, data, method="fd")
        analytic = hessian_symmetry(density, mesh, data, method="analytic").hessian
        assert fd.max_asymmetry <= 1e-8
        assert np.max(np.abs(fd.hessian - analytic)) <= 1e-8 * np.max(np.abs(analytic))

    def test_auto_dispatch(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=5, nx=5)
        reg = RectRegion(1, 1, 3, 3)
        data = BoundaryData(reg, np.zeros(len(boundary_nodes(reg))))
        # The analytic route serves every density: at 20^2 the quartic's took
        # 18 ms against 800 ms for fd's 160 nonlinear solves.
        assert hessian_symmetry(LinearWave, mesh, data).method == "analytic"
        assert hessian_symmetry(quartic_test_density(0.1), mesh,
                                data).method == "analytic"


def fd_hessian_by_momentum_fields(density, mesh, boundary):
    """The fd boundary Hessian as a sweep that reads each perturbed
    solution's momenta through ``normal_momenta`` on a field copy, on the
    same solver, solve order and starts as ``hessian_symmetry``."""
    region, ncols, fd_step = boundary.region, mesh.nx + 1, 1e-4
    flat = node_index(boundary_nodes(region), ncols)
    inner = interior_index(region, ncols)
    base = solve_bvp(density, mesh, boundary).field
    work, start = base.values.copy(), base.values.ravel()[inner]
    solve = _del_newton(density, work, region_index(region, ncols), inner, inner,
                        mesh.dt, mesh.dx)

    def momenta(a, step):
        work.flat[flat[a]] = boundary.values[a] + step
        solve(start, "hessian_symmetry")
        return normal_momenta(density, DiscreteField(mesh, work), region).values

    h = np.zeros((flat.size, flat.size))
    for a in range(flat.size):
        h[a, :] = (momenta(a, fd_step) - momenta(a, -fd_step)) / (2.0 * fd_step)
        work.flat[flat[a]] = boundary.values[a]
    return h


FD_DENSITIES = [
    LinearWave, HarmonicDirichlet, quartic_test_density(),
    UserDensity(lambda v, w, u: 0.5 * v * v - 0.5 * w * w + 0.1 * v * w * u
                + 0.05 * u ** 4, name="user_quartic"),
]


@st.composite
def fd_cases(draw):
    """(density, mesh, boundary data) on a full or an inset rectangle of a
    mesh of 2 to 6 cells a side, data scaled by 1e-2 to 3."""
    nt, nx = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    if draw(st.booleans()):
        region = RectRegion(0, 0, nt, nx)
    else:
        n0, i0 = draw(st.integers(0, nt - 2)), draw(st.integers(0, nx - 2))
        region = RectRegion(n0, i0, draw(st.integers(2, nt - n0)),
                            draw(st.integers(2, nx - i0)))
    mesh = build_mesh(dt=draw(st.floats(0.05, 0.5)), dx=draw(st.floats(0.05, 0.5)),
                      nt=nt, nx=nx)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 0.5))
    values = scale * rng.standard_normal(len(boundary_nodes(region)))
    return draw(st.sampled_from(FD_DENSITIES)), mesh, BoundaryData(region, values)


class TestFdMomenta:
    """The fd sweep reads its momenta on the solver's work array over one
    stencil; the route through ``normal_momenta`` on field copies is the
    reference."""

    @settings(max_examples=40, deadline=None)
    @given(case=fd_cases())
    def test_sweep_equals_the_momentum_field_route(self, case):
        density, mesh, boundary = case
        try:
            expected = fd_hessian_by_momentum_fields(density, mesh, boundary)
        except SolverError as err:  # e.g. a singular wave rectangle: the same error
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                hessian_symmetry(density, mesh, boundary, method="fd")
            return
        rep = hessian_symmetry(density, mesh, boundary, method="fd")
        assert rep.hessian.tobytes() == expected.tobytes()
        assert rep.nodes == tuple(boundary_nodes(boundary.region))

    @settings(max_examples=40, deadline=None)
    @given(case=fd_cases())
    def test_momenta_are_the_whole_region_slot_sums(self, case):
        # No triangle without a boundary vertex adds to a boundary node's sum.
        density, mesh, boundary = case
        region, ncols = boundary.region, mesh.nx + 1
        values = np.random.default_rng(7).standard_normal(mesh.shape)
        values.ravel()[node_index(boundary_nodes(region), ncols)] = boundary.values
        momenta = normal_momenta(density, DiscreteField(mesh, values), region)
        whole = triangle_kernel(density, values, region_index(region, ncols),
                                mesh.dt, mesh.dx).residual
        flat = node_index(boundary_nodes(region), ncols)
        assert momenta.values.tobytes() == whole[flat].tobytes()
        assert momenta.nodes == tuple(boundary_nodes(region))


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

    @pytest.mark.parametrize("density", [
        LinearWave, HarmonicDirichlet, quartic_test_density(1.0),
        QuadraticDensity(vv=1.0, ww=-0.7, vw=0.2, uu=-0.3, name="cross"),
        UserDensity(lambda v, w, u: v * w * u, name="vwu")],
        ids=["wave", "harmonic", "quartic", "cross", "vwu"])
    @pytest.mark.parametrize("region", [RectRegion(0, 0, 5, 6), RectRegion(1, 2, 3, 3),
                                        Patch3Region(2, 3)], ids=["full", "inset", "patch"])
    def test_k_is_exactly_symmetric(self, density, region):
        # The analytic route reads K_bi and K_ib both from K; for these
        # densities they are transposes bit for bit, so the asymmetry it
        # reports is that of the Schur solves alone.
        mesh = build_mesh(dt=0.1, dx=0.2, nt=5, nx=6)
        values = np.random.default_rng(7).standard_normal(mesh.shape)
        ncols = mesh.nx + 1
        nodes = np.concatenate([node_index(boundary_nodes(region), ncols),
                                interior_index(region, ncols)])
        k = _hessian_operator(density, values, region_index(region, ncols), nodes,
                              mesh.dt, mesh.dx, "probe", nodes)
        assert (k.toarray() + 0.0).tobytes() == (k.T.toarray() + 0.0).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 16))
    def test_k_is_exactly_symmetric_for_drawn_densities(self, coeffs, seed):
        # Any quadratic, and a nonlinear density coupling v, w and ubar:
        # each triangle's pushed Hessian is mirrored, so K is too.
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=5)
        values = np.random.default_rng(seed).standard_normal(mesh.shape)
        region, ncols = RectRegion(0, 0, 4, 5), mesh.nx + 1
        nodes = np.concatenate([node_index(boundary_nodes(region), ncols),
                                interior_index(region, ncols)])
        vv, ww, uu, vw, vu, wu = coeffs
        for density in (QuadraticDensity(vv, ww, uu, vw, vu, wu),
                        UserDensity(lambda v, w, u: vw * v * w * u + uu * u ** 4 + vv * v * v)):
            k = _hessian_operator(density, values, region_index(region, ncols), nodes,
                                  mesh.dt, mesh.dx, "probe", nodes).toarray() + 0.0
            assert k.tobytes() == (k.T + 0.0).tobytes()

    @pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet],
                             ids=["wave", "harmonic"])
    def test_asymmetry_grows_with_a_moved_k_ib_entry(self, monkeypatch, density):
        # H = K_bb - K_bi K_ii^-1 K_ib with K_ib read from K, not taken as
        # K_bi^T: one K_ib entry moved by delta moves a column of H only.
        import mslab.msforms as msforms_module

        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        region = RectRegion(0, 0, 6, 6)
        nb = len(boundary_nodes(region))
        data = BoundaryData(region, np.zeros(nb))
        build = msforms_module._hessian_operator

        def asymmetry(delta):
            def moved(*args, **kwargs):
                k = build(*args, **kwargs).tolil()
                i, j = (where[0] for where in k[nb:, :nb].nonzero())
                k[nb + i, j] += delta
                return k.tocsc()

            monkeypatch.setattr(msforms_module, "_hessian_operator", moved)
            return hessian_symmetry(density, mesh, data, method="analytic").max_asymmetry

        asym = [asymmetry(delta) for delta in (0.0, 1e-9, 1e-6, 1e-3)]
        assert asym[0] <= 1e-12
        assert all(a < b for a, b in zip(asym, asym[1:]))

    def test_singular_interior_block_raises(self):
        mesh = build_mesh(dt=0.1, dx=0.1, nt=6, nx=6)
        region = RectRegion(0, 0, 6, 6)
        data = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        with pytest.raises(SingularSystem, match="hessian_symmetry"):
            hessian_symmetry(LinearWave, mesh, data, method="analytic")


def schur_reference(density, mesh, region, block=None):
    """The analytic boundary Hessian from one interior solve over all boundary
    columns, or (with ``block``) from solves of that many columns each."""
    ncols, bnodes = mesh.nx + 1, boundary_nodes(region)
    nb = len(bnodes)
    nodes = np.concatenate([node_index(bnodes, ncols), interior_index(region, ncols)])
    k = _hessian_operator(density, np.zeros(mesh.shape), region_index(region, ncols),
                          nodes, mesh.dt, mesh.dx, "reference", nodes)
    lu, _ = _factor_and_rcond(k[nb:, nb:], "reference")
    k_bi, h = k[:nb, nb:], k[:nb, :nb].toarray()
    if block is None:
        h -= k_bi @ lu.solve(k_bi.T.toarray())
    else:
        for lo in range(0, nb, block):
            cols = slice(lo, lo + block)
            h[:, cols] -= k_bi @ lu.solve(k_bi[cols].T.toarray())
    return h


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, as numpy reports them to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedSchurSolve:
    # 192 boundary nodes at 48x48 (six blocks of 32); 66 at 20x13.
    @pytest.mark.parametrize("nt, nx", [(48, 48), (20, 13)])
    def test_equals_one_shot_solve(self, nt, nx):
        mesh = build_mesh(dt=0.5 / nx, dx=1.0 / nx, nt=nt, nx=nx)
        region = RectRegion(0, 0, nt, nx)
        data = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        h = hessian_symmetry(HarmonicDirichlet, mesh, data, method="analytic").hessian
        ref = schur_reference(HarmonicDirichlet, mesh, region)
        assert h.tobytes() == ref.tobytes()

    def test_peak_memory_is_the_blocked_one(self):
        mesh = build_mesh(dt=0.5 / 48, dx=1.0 / 48, nt=48, nx=48)
        region = RectRegion(0, 0, 48, 48)
        data = BoundaryData(region, np.zeros(len(boundary_nodes(region))))
        blocked, one_shot = (
            traced_peak(lambda: schur_reference(HarmonicDirichlet, mesh, region, block))
            for block in (32, None))
        # The one-shot solve holds a dense 2209x192 right-hand side and its
        # solution (3.4 MB each) at once; blocks of 32 columns a sixth of that.
        assert one_shot - blocked > 4e6
        peak = traced_peak(lambda: hessian_symmetry(HarmonicDirichlet, mesh, data,
                                                    method="analytic"))
        assert peak < 0.5 * (blocked + one_shot)


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
