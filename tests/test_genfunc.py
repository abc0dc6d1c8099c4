import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    BoundaryData,
    DiscreteField,
    HarmonicDirichlet,
    LinearWave,
    MixedBoundaryData,
    Patch3Region,
    QuadraticDensity,
    RectRegion,
    SolverError,
    UserDensity,
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
from mslab.jetmesh import JetTriple, interior_nodes, region_index
from mslab.lagrangian import _action_sum, eval_Ld


def seeded_boundary(region, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    return BoundaryData(region, amplitude * rng.standard_normal(
        len(boundary_nodes(region))))


def spike_field(value):
    """Zeros on a 3^2 mesh but ``value`` at node (1, 1)."""
    values = np.zeros((4, 4))
    values[1, 1] = value
    return DiscreteField(build_mesh(0.1, 0.1, 3, 3), values)


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

    # A float ** past the float range raises OverflowError, and numpy warns;
    # either must come out as the documented ValueError.
    @pytest.mark.parametrize("call", [
        lambda: region_action(quartic_test_density(), spike_field(1e200),
                              RectRegion(0, 0, 3, 3)),
        lambda: legendre(LinearWave, 1e200, 0.0),
        lambda: legendre(quartic_test_density(), 0.0, 0.0, 1e200),
    ], ids=["region_action", "legendre-wave", "legendre-quartic"])
    def test_non_finite_value_is_a_value_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^density \S+ produced a non-finite value$"):
                call()


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


def trapezoid_weights_per_segment(region, mesh):
    """Reference: one np.hypot call per boundary segment."""
    pts = np.array([(mesh.node_x(i), mesh.node_t(n)) for n, i in boundary_nodes(region)])
    m = len(pts)
    seg = np.array([np.hypot(*(pts[(k + 1) % m] - pts[k])) for k in range(m)])
    return 0.5 * (seg + np.roll(seg, 1))


@pytest.mark.parametrize("dt,dx", [(0.1, 0.2), (0.3, 0.7), (1.0 / 3.0, 0.1), (1e-3, 7.0)])
@pytest.mark.parametrize("region", [RectRegion(0, 0, 9, 9), RectRegion(2, 3, 5, 1),
                                    RectRegion(1, 0, 1, 9), Patch3Region(4, 5),
                                    Patch3Region(1, 1)], ids=repr)
def test_trapezoid_weights_equal_the_per_segment_loop(dt, dx, region):
    mesh = build_mesh(dt=dt, dx=dx, nt=9, nx=9)
    field = DiscreteField(mesh, np.zeros(mesh.shape))
    weights = normal_momenta(LinearWave, field, region).weights
    ref = trapezoid_weights_per_segment(region, mesh)
    assert weights.shape == ref.shape and weights.tobytes() == ref.tobytes()


class TestRegionAction:
    def test_action_additivity(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
        rng = np.random.default_rng(53)
        f = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        whole = region_action(LinearWave, f, RectRegion(0, 0, 4, 4))
        left = region_action(LinearWave, f, RectRegion(0, 0, 4, 2))
        right = region_action(LinearWave, f, RectRegion(0, 2, 4, 2))
        assert whole == pytest.approx(left + right, rel=1e-12)


# Every monomial of the non-quadratic densities keeps one sign, so no
# triangle action is a cancellation of larger parts.  The constant one
# returns a float, not an array, on the jet arrays.
ACTION_DENSITIES = [
    LinearWave, HarmonicDirichlet,
    QuadraticDensity(vv=1.3, ww=-0.7, uu=0.4, vw=0.2, vu=-0.3, wu=0.5, name="six"),
    quartic_test_density(),
    UserDensity(lambda v, w, u: 0.5 * (v * v + w * w) + 0.5 * (v * u) ** 2 + u ** 6 / 30.0,
                name="sextic"),
    UserDensity(lambda v, w, u: 2.0, name="constant"),
]


@st.composite
def action_cases(draw):
    """(density, mesh, values, region): a full rectangle, an inset one or a
    patch on a mesh of 1 to 40 cells a side, data scaled by 1e-3 to 1e3."""
    kind = draw(st.sampled_from(["full", "inset", "patch3"]))
    low = 2 if kind == "patch3" else 1
    nt, nx = draw(st.integers(low, 40)), draw(st.integers(low, 40))
    if kind == "full":
        region = RectRegion(0, 0, nt, nx)
    elif kind == "inset":
        n0, i0 = draw(st.integers(0, nt - 1)), draw(st.integers(0, nx - 1))
        region = RectRegion(n0, i0, draw(st.integers(1, nt - n0)),
                            draw(st.integers(1, nx - i0)))
    else:
        region = Patch3Region(draw(st.integers(1, nt - 1)), draw(st.integers(1, nx - 1)))
    mesh = build_mesh(dt=draw(st.floats(0.01, 1.0)), dx=draw(st.floats(0.01, 1.0)),
                      nt=nt, nx=nx)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return (draw(st.sampled_from(ACTION_DENSITIES)), mesh,
            scale * rng.standard_normal(mesh.shape), region)


class TestActionSum:
    """The array sum against the per-triangle loop of ``region_action``."""

    @settings(max_examples=150, deadline=None)
    @given(case=action_cases())
    def test_matches_the_per_triangle_loop(self, case):
        density, mesh, values, region = case
        index = region_index(region, mesh.nx + 1)
        got = _action_sum(density, values, index, mesh.dt, mesh.dx)
        ref = region_action(density, DiscreteField(mesh, values), region)
        if density.is_quadratic:  # the same operations in the same order
            assert got.hex() == ref.hex()
            return
        # numpy's array ``**`` may round differently from Python's float
        # ``**``.  Each route adds its m terms from 0.0 within (m - 1) eps
        # times the sum of |terms|, and each term, a few roundings of
        # one-signed monomials, moves by at most 32 eps of itself.
        terms = [abs(eval_Ld(density, JetTriple(*u, mesh.dt, mesh.dx)))
                 for u in zip(*values.ravel()[index].tolist())]
        bound = (2 * len(terms) + 32) * np.finfo(float).eps * sum(terms)
        assert abs(got - ref) <= bound

    def test_non_finite_vertex_value_names_its_slot(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=3, nx=3)
        values = np.ones(mesh.shape)
        values[2, 3] = np.nan  # in slot 2 of triangle (2, 2), and in no other slot
        index = region_index(RectRegion(2, 0, 1, 3), mesh.nx + 1)
        with pytest.raises(ValueError, match="non-finite vertex value u2"):
            _action_sum(LinearWave, values, index, mesh.dt, mesh.dx)

    def test_non_finite_density_value_fails_as_the_loop_does(self):
        mesh = build_mesh(dt=0.1, dx=0.2, nt=3, nx=3)
        values = np.zeros(mesh.shape)
        values[1, 1] = 1e200  # v * v overflows
        region = RectRegion(0, 0, 3, 3)
        message = "^density linear_wave produced a non-finite value$"
        with pytest.raises(ValueError, match=message):
            region_action(LinearWave, DiscreteField(mesh, values), region)
        with pytest.raises(ValueError, match=message):
            _action_sum(LinearWave, values, region_index(region, mesh.nx + 1), mesh.dt,
                        mesh.dx)


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

    @pytest.mark.parametrize("side, value", [
        ("A", []), ("B", 1.5), ("A", {"0": 0.0}), ("B", {"2,1,0": 0.0}),
        ("A", {"n,1": 0.0}), ("B", {"2,1": "x"}),
    ])
    def test_json_names_the_bad_side(self, side, value):
        # A list once raised AttributeError, a key "0" a bare unpacking error.
        reg = RectRegion(0, 0, 2, 3)
        a_nodes, b_nodes = canonical_type2_split(reg)
        good = MixedBoundaryData(reg, dict.fromkeys(a_nodes, 0.0),
                                 dict.fromkeys(b_nodes, 0.0)).to_json()
        with pytest.raises(ValueError) as err:
            MixedBoundaryData.from_json(dict(good, **{side: value}))
        assert str(err.value) == (f'side {side} must map "n,i" keys to numbers, '
                                  f'got {value!r}')

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

    def test_overflowing_momentum_is_a_solver_error(self, setup):
        # The merit of the starting residual overflows; the one-solve route
        # once returned an infinite field and failed on building it.
        mesh, reg, field, data = setup
        node = next(iter(data.momenta))
        with pytest.raises(SolverError,
                           match=r"^boundary_hamiltonian: non-finite residual at the start$"):
            boundary_hamiltonian(LinearWave, mesh, data.perturbed_momentum(
                node, 1e308 - data.momenta[node]))


def _type2_case(density, n, amplitude, seed):
    """A Dirichlet solve on the full n x n rectangle (dt/dx = 0.5), its
    canonical mixed data and the Type-II solve of those data."""
    mesh = build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
    region = RectRegion(0, 0, n, n)
    ref = solve_bvp(density, mesh, seeded_boundary(region, seed, amplitude)).field
    data = type2_data_from_field(density, ref, region)
    return mesh, region, ref, data, boundary_hamiltonian(density, mesh, data)


def _legendre_gap(density, region, data, result):
    """|H + S(u*) - pi_B . u*_B| / max(1, |S(u*)|)."""
    action = region_action(density, result.field, region)
    pairing = sum(pi * result.field[nd] for nd, pi in data.momenta.items())
    return abs(result.value + action - pairing) / max(1.0, abs(action))


class TestQuarticBoundaryHamiltonian:
    """The Type-II contracts for a non-quadratic density, which the mixed
    solve takes through Newton like the Dirichlet solver."""

    @pytest.mark.parametrize("n", [6, 12, 20])
    @pytest.mark.parametrize("amplitude", [0.1, 1.0])
    def test_legendre_relation_and_recovery(self, n, amplitude):
        density = quartic_test_density(1.0)
        mesh, region, ref, data, result = _type2_case(density, n, amplitude, 60 + n)
        assert _legendre_gap(density, region, data, result) <= 1e-12
        assert np.max(np.abs(result.field.values - ref.values)) <= 1e-9

    @pytest.mark.parametrize("n", [6, 12, 20])
    @pytest.mark.parametrize("amplitude", [0.1, 1.0])
    def test_derivatives_by_central_differences(self, n, amplitude):
        density = quartic_test_density(1.0)
        mesh, region, _, data, result = _type2_case(density, n, amplitude, 70 + n)
        momenta = normal_momenta(density, result.field, region).as_mapping()
        # Central differences of H lose about |H| * 1e-16 / eps to round-off.
        eps, tol = 1e-5, 2e-9 * max(1.0, abs(result.value))

        def slope(perturbed):
            up, dn = (boundary_hamiltonian(density, mesh, perturbed(d)).value
                      for d in (eps, -eps))
            return (up - dn) / (2.0 * eps)

        a_nodes, b_nodes = canonical_type2_split(region)
        for nd in a_nodes[1::n]:
            assert slope(lambda d: data.perturbed_value(nd, d)) == pytest.approx(
                -momenta[nd], abs=tol)
        for nd in b_nodes[::n // 3]:
            assert slope(lambda d: data.perturbed_momentum(nd, d)) == pytest.approx(
                result.field[nd], abs=tol)


@pytest.mark.parametrize("density, n", [(LinearWave, 12), (LinearWave, 40),
                                        (HarmonicDirichlet, 48)],
                         ids=["wave-12", "wave-40", "harmonic-48"])
def test_linear_type2_solves_at_every_data_scale(density, n):
    # The linear route stops at the round-off floor of its residual, which
    # grows with the data, and always takes its one exact step, which an
    # absolute tolerance would skip for small data.
    mesh, region, _, data, unit = _type2_case(density, n, 1.0, 80 + n)
    for scale in [1.0, 1e3, 1e6, 1e12, 1e100, 1e-13, 1e-100]:
        scaled = MixedBoundaryData(region,
                                   {nd: scale * v for nd, v in data.dirichlet.items()},
                                   {nd: scale * v for nd, v in data.momenta.items()})
        result = boundary_hamiltonian(density, mesh, scaled)
        assert _legendre_gap(density, region, scaled, result) <= 1e-12
        gap = np.max(np.abs(result.field.values - scale * unit.field.values))
        assert gap <= 1e-9 * scale * np.max(np.abs(unit.field.values))
