import json

import numpy as np
import pytest

from mslab import (
    BoundaryData,
    DiscreteField,
    HarmonicDirichlet,
    LinearWave,
    MixedBoundaryData,
    Patch3Region,
    QuadraticDensity,
    RectRegion,
    boundary_hamiltonian,
    boundary_lagrangian,
    boundary_nodes,
    build_mesh,
    canonical_type2_split,
    ddw_residual,
    del_residual,
    legendre,
    normal_momenta,
    quartic_test_density,
    region_action,
    solve_bvp,
    type2_data_from_field,
    wave_exact_solutions,
)
from mslab.jetmesh import interior_nodes


def seeded_boundary(region, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    return BoundaryData(region, amplitude * rng.standard_normal(
        len(boundary_nodes(region))))


class TestLegendreMap:
    def test_frozen_wave_values(self):
        data = legendre(LinearWave, 2.0, 1.0)
        assert data.p_t == pytest.approx(2.0)
        assert data.p_x == pytest.approx(-1.0)
        assert data.hamiltonian == pytest.approx(1.5)

    def test_hamiltonian_is_legendre_transform(self):
        dens = QuadraticDensity(vv=1.0, ww=-1.0, uu=0.3, vu=0.2, name="mixed")
        v, w, u = 0.7, -0.4, 1.2
        data = legendre(dens, v, w, u)
        assert data.hamiltonian == pytest.approx(
            data.p_t * v + data.p_x * w - dens(v, w, u), rel=1e-12)


class TestBoundaryLagrangianEnvelope:
    @pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet],
                             ids=lambda d: d.name)
    @pytest.mark.parametrize("region", [RectRegion(1, 1, 5, 6),
                                        Patch3Region(2, 2)],
                             ids=["rect", "patch3"])
    def test_gradient_of_extremum_equals_momenta(self, density, region):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=8, nx=9)
        data = seeded_boundary(region, 51)
        momenta = normal_momenta(
            density, solve_bvp(density, mesh, data).field, region).as_mapping()
        eps = 1e-5
        nodes = boundary_nodes(region)
        for idx in range(0, len(nodes), 3):
            up = boundary_lagrangian(density, mesh, data.perturbed(idx, eps)).value
            dn = boundary_lagrangian(density, mesh, data.perturbed(idx, -eps)).value
            fd = (up - dn) / (2.0 * eps)
            assert fd == pytest.approx(momenta[nodes[idx]], abs=2e-10)

    def test_momentum_field_weights_are_densities_only(self):
        # Raw slot sums are the exact envelope gradients; the trapezoid
        # weights are exposed only to convert sums into line densities.
        mesh = build_mesh(dt=0.5, dx=1.0, nt=4, nx=4)
        region = RectRegion(0, 0, 4, 4)
        field = solve_bvp(LinearWave, mesh, seeded_boundary(region, 52)).field
        pm = normal_momenta(LinearWave, field, region)
        assert len(pm.weights) == len(pm.nodes)
        assert np.all(pm.weights > 0.0)
        corner_weight = pm.weights[list(pm.nodes).index((0, 0))]
        assert corner_weight == pytest.approx(0.75, rel=1e-12)  # (dx + dt) / 2
        assert np.allclose(pm.densities(), np.asarray(pm.values) / pm.weights)


class TestRegionAction:
    def test_action_additivity(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        rng = np.random.default_rng(53)
        f = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        whole = region_action(LinearWave, f, RectRegion(0, 0, 4, 4))
        left = region_action(LinearWave, f, RectRegion(0, 0, 4, 2))
        right = region_action(LinearWave, f, RectRegion(0, 2, 4, 2))
        assert whole == pytest.approx(left + right, rel=1e-12)


class TestRegionFit:
    # Columns 2..6 of a mesh whose columns run 0..4.
    @pytest.mark.parametrize("call", [region_action, normal_momenta,
                                      type2_data_from_field])
    def test_rejects_region_outside_the_mesh(self, call):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        field = DiscreteField(mesh, np.ones(mesh.shape))
        with pytest.raises(ValueError, match="does not fit mesh"):
            call(LinearWave, field, RectRegion(0, 2, 2, 4))


class TestDdwResidual:
    def test_transport_exact_for_quadratic_density(self):
        mesh = build_mesh(dt=0.05, dx=0.1, nt=10, nx=10)
        sol = wave_exact_solutions("cubic")
        f = DiscreteField.from_callable(mesh, sol.value)
        rep = ddw_residual(LinearWave, f)
        assert rep.transport_sup == 0.0
        assert rep.n_sites > 0

    def test_divergence_first_order_on_exact_data(self):
        sol = wave_exact_solutions("cubic")
        sups = []
        sizes = [8, 16, 32]
        for nx in sizes:
            dx = 1.0 / nx
            mesh = build_mesh(dt=0.5 * dx, dx=dx, nt=2 * nx, nx=nx)
            f = DiscreteField.from_callable(mesh, sol.value)
            sups.append(ddw_residual(LinearWave, f).divergence_sup)
        order = np.polyfit(np.log([1.0 / s for s in sizes]), np.log(sups), 1)[0]
        assert order >= 0.9

    def test_requires_invertible_velocity_block(self):
        mesh = build_mesh(dt=0.1, dx=0.1, nt=4, nx=4)
        degenerate = QuadraticDensity(vv=1.0, ww=1.0, vw=1.0, name="rank_one")
        f = DiscreteField.zeros(mesh)
        with pytest.raises(ValueError):
            ddw_residual(degenerate, f)


class TestCanonicalSplit:
    def test_corners_belong_to_dirichlet_part(self):
        reg = RectRegion(1, 1, 3, 4)
        a_nodes, b_nodes = canonical_type2_split(reg)
        assert set(b_nodes) == {(4, 2), (4, 3), (4, 4)}
        for corner in [(1, 1), (1, 5), (4, 1), (4, 5)]:
            assert corner in a_nodes
        assert set(a_nodes) | set(b_nodes) == set(boundary_nodes(reg))
        assert not set(a_nodes) & set(b_nodes)

    def test_needs_width(self):
        with pytest.raises(ValueError):
            canonical_type2_split(RectRegion(0, 0, 3, 1))


class TestMixedBoundaryData:
    def test_json_roundtrip(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=6, nx=6)
        reg = RectRegion(1, 1, 4, 4)
        field = solve_bvp(LinearWave, mesh, seeded_boundary(reg, 54)).field
        data = type2_data_from_field(LinearWave, field, reg)
        clone = MixedBoundaryData.from_json(json.loads(json.dumps(data.to_json())))
        assert clone.dirichlet == data.dirichlet
        assert clone.momenta == data.momenta

    def test_validates_exact_cover(self):
        reg = RectRegion(0, 0, 2, 3)
        a_nodes, b_nodes = canonical_type2_split(reg)
        good_a = {nd: 0.0 for nd in a_nodes}
        good_b = {nd: 0.0 for nd in b_nodes}
        MixedBoundaryData(reg, good_a, good_b)
        with pytest.raises(ValueError):
            MixedBoundaryData(reg, good_a, {})
        swapped = dict(good_b)
        swapped[a_nodes[0]] = 0.0
        with pytest.raises(ValueError):
            MixedBoundaryData(reg, good_a, swapped)


class TestBoundaryHamiltonian:
    @pytest.fixture
    def setup(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=8, nx=8)
        reg = RectRegion(1, 1, 5, 6)
        field = solve_bvp(LinearWave, mesh, seeded_boundary(reg, 55)).field
        data = type2_data_from_field(LinearWave, field, reg)
        return mesh, reg, field, data

    def test_recovers_generating_field(self, setup):
        mesh, reg, field, data = setup
        result = boundary_hamiltonian(LinearWave, mesh, data)
        from mslab.jetmesh import region_nodes
        for nd in region_nodes(reg):
            assert result.field[nd] == pytest.approx(field[nd], abs=1e-9)

    def test_legendre_relation_exact(self, setup):
        mesh, reg, field, data = setup
        result = boundary_hamiltonian(LinearWave, mesh, data)
        action = region_action(LinearWave, result.field, reg)
        _, b_nodes = canonical_type2_split(reg)
        pairing = sum(data.momenta[nd] * result.field[nd] for nd in b_nodes)
        assert result.value + action == pytest.approx(pairing, abs=1e-12)

    def test_derivative_in_dirichlet_data_is_minus_momentum(self, setup):
        mesh, reg, field, data = setup
        a_nodes, _ = canonical_type2_split(reg)
        momenta = normal_momenta(
            LinearWave, boundary_hamiltonian(LinearWave, mesh, data).field,
            reg).as_mapping()
        eps = 1e-5
        for nd in a_nodes[::4]:
            up = boundary_hamiltonian(LinearWave, mesh,
                                      data.perturbed_value(nd, eps)).value
            dn = boundary_hamiltonian(LinearWave, mesh,
                                      data.perturbed_value(nd, -eps)).value
            assert (up - dn) / (2 * eps) == pytest.approx(-momenta[nd], abs=2e-9)

    def test_derivative_in_momentum_data_is_field_value(self, setup):
        mesh, reg, field, data = setup
        _, b_nodes = canonical_type2_split(reg)
        result = boundary_hamiltonian(LinearWave, mesh, data)
        eps = 1e-5
        for nd in b_nodes[::2]:
            up = boundary_hamiltonian(LinearWave, mesh,
                                      data.perturbed_momentum(nd, eps)).value
            dn = boundary_hamiltonian(LinearWave, mesh,
                                      data.perturbed_momentum(nd, -eps)).value
            assert (up - dn) / (2 * eps) == pytest.approx(result.field[nd],
                                                          abs=2e-9)

    def test_mixed_solution_solves_del(self, setup):
        mesh, reg, field, data = setup
        result = boundary_hamiltonian(LinearWave, mesh, data)
        for nd in interior_nodes(reg):
            assert abs(del_residual(LinearWave, result.field, *nd)) < 1e-11

    def test_quartic_density_rejected(self, setup):
        mesh, reg, field, data = setup
        with pytest.raises(ValueError, match="quadratic"):
            boundary_hamiltonian(quartic_test_density(0.5), mesh, data)
