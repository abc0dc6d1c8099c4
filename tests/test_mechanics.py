import math

import numpy as np
import pytest

from mslab import (
    FreeParticle,
    HarmonicOscillator,
    PhasePoint,
    SolverError,
    endpoint_momenta,
    exact_discrete_hamiltonian,
    exact_discrete_lagrangian,
    free_particle_hamiltonian,
    harmonic_hamiltonian,
    lobatto,
    midpoint_rule,
    rectangle_rule,
    symplecticity_check,
    type1_map,
    variational_order_check,
)
from mslab import mechanics
from mslab.mechanics import _diff_matrix_unit


class TestLobatto:
    def test_four_node_closed_form(self):
        nodes, weights = lobatto(4)
        assert np.allclose(nodes, [-1.0, -1.0 / math.sqrt(5.0),
                                   1.0 / math.sqrt(5.0), 1.0])
        assert np.allclose(weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0,
                                     1.0 / 6.0])

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_weights_sum_and_symmetry(self, n):
        nodes, weights = lobatto(n)
        assert weights.sum() == pytest.approx(2.0, rel=1e-13)
        assert np.allclose(nodes, -nodes[::-1])
        assert np.allclose(weights, weights[::-1])

    def test_quadrature_exactness(self):
        # n-node Gauss-Lobatto is exact through degree 2n - 3.
        n = 8
        nodes, weights = lobatto(n)
        for deg in range(2 * n - 2):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert np.dot(weights, nodes ** deg) == pytest.approx(
                exact, abs=1e-13)

    def test_differentiation_matrix_exact_on_polynomials(self):
        n = 8
        nodes, _ = lobatto(n)
        d = _diff_matrix_unit(n)
        for deg in range(n):
            vals = nodes ** deg
            dvals = deg * nodes ** (deg - 1) if deg > 0 else np.zeros(n)
            assert np.allclose(d @ vals, dvals, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_diff_matrix_equals_elementwise_loop(n):
    nodes, _ = lobatto(n)
    c = [np.prod(nodes[j] - np.delete(nodes, j)) for j in range(n)]
    ref = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                ref[j, k] = (c[j] / c[k]) / (nodes[j] - nodes[k])
    ref[np.diag_indices(n)] = -ref.sum(axis=1)
    assert np.array_equal(_diff_matrix_unit(n), ref)


class TestExactDiscreteLagrangian:
    def test_free_particle_frozen(self):
        assert exact_discrete_lagrangian(FreeParticle(), 0.0, 1.0, 0.5) == \
            pytest.approx(1.0, abs=1e-12)

    def test_harmonic_frozen(self):
        ho = HarmonicOscillator(1.0)
        assert ho.exact_ld(1.0, 1.0, math.pi / 2.0) == pytest.approx(-1.0)
        assert exact_discrete_lagrangian(ho, 1.0, 1.0, math.pi / 2.0) == \
            pytest.approx(-1.0, abs=1e-10)

    def test_collocation_matches_closed_form_across_steps(self):
        ho = HarmonicOscillator(1.0)
        for h in np.linspace(0.01, 1.0, 21):
            closed = ho.exact_ld(0.3, -0.7, h)
            assert exact_discrete_lagrangian(ho, 0.3, -0.7, h) == \
                pytest.approx(closed, abs=1e-10)

    def test_frequency_scaling(self):
        ho = HarmonicOscillator(2.5)
        closed = ho.exact_ld(0.5, 0.2, 0.4)
        assert exact_discrete_lagrangian(ho, 0.5, 0.2, 0.4) == \
            pytest.approx(closed, abs=1e-10)

    def test_conjugate_time_guard(self):
        ho = HarmonicOscillator(2.0)
        assert ho.conjugate_time == pytest.approx(math.pi / 2.0)
        with pytest.raises(ValueError, match="conjugate"):
            exact_discrete_lagrangian(ho, 0.0, 1.0, math.pi / 2.0)
        with pytest.raises(ValueError):
            ho.exact_ld(0.0, 1.0, 2.0)

    def test_endpoint_momenta_are_action_derivatives(self):
        ho = HarmonicOscillator(1.3)
        q0, q1, h = 0.3, -0.7, 0.9
        m0, m1 = endpoint_momenta(ho, q0, q1, h)
        eps = 1e-6
        d0 = (ho.exact_ld(q0 + eps, q1, h) - ho.exact_ld(q0 - eps, q1, h)) / (2 * eps)
        d1 = (ho.exact_ld(q0, q1 + eps, h) - ho.exact_ld(q0, q1 - eps, h)) / (2 * eps)
        # Outward momenta: (-p(0), +p(h)) = (dLd/dq0, dLd/dq1).  The endpoint
        # derivative of the collocation interpolant converges slower than the
        # superconvergent action value, hence the looser bound here.
        assert m0 == pytest.approx(d0, abs=1e-6)
        assert m1 == pytest.approx(d1, abs=1e-6)


class TestExactDiscreteHamiltonian:
    def test_free_particle_frozen(self):
        assert exact_discrete_hamiltonian(free_particle_hamiltonian(),
                                          1.0, 2.0, 0.5) == \
            pytest.approx(3.0, abs=1e-12)

    def test_type2_identity_with_lagrangian(self):
        # H+(q0, p1) = p1 q1 - Ld(q0, q1) along the exact flow.
        ho = HarmonicOscillator(1.0)
        q0, p0, h = 0.4, -0.3, 0.7
        z1 = ho.exact_flow(PhasePoint(q0, p0), h)
        lhs = exact_discrete_hamiltonian(harmonic_hamiltonian(1.0), q0, z1.p, h)
        rhs = z1.p * z1.q - ho.exact_ld(q0, z1.q, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_derivatives_generate_the_flow(self):
        # dH/dp1 = q1 and dH/dq0 = +p0 for the exact type-II generating
        # function (equivalently -pi with pi = -p0 the outward momentum at
        # the initial endpoint, matching the field-side convention).
        ho = HarmonicOscillator(1.0)
        h_fn = harmonic_hamiltonian(1.0)
        q0, p0, h = 0.8, 0.1, 0.6
        z1 = ho.exact_flow(PhasePoint(q0, p0), h)
        eps = 1e-6
        dp = (exact_discrete_hamiltonian(h_fn, q0, z1.p + eps, h)
              - exact_discrete_hamiltonian(h_fn, q0, z1.p - eps, h)) / (2 * eps)
        dq = (exact_discrete_hamiltonian(h_fn, q0 + eps, z1.p, h)
              - exact_discrete_hamiltonian(h_fn, q0 - eps, z1.p, h)) / (2 * eps)
        assert dp == pytest.approx(z1.q, abs=1e-8)
        assert dq == pytest.approx(p0, abs=1e-8)


class TestType1Map:
    def test_exact_generating_function_reproduces_flow(self):
        ho = HarmonicOscillator(1.0)
        h = 0.05
        ld = lambda a, b: ho.exact_ld(a, b, h)
        z = PhasePoint(1.0, 0.0)
        for k in range(100):
            z = type1_map(ld, z, h)
        z_ref = ho.exact_flow(PhasePoint(1.0, 0.0), 100 * h)
        assert abs(z.q - z_ref.q) <= 1e-8
        assert abs(z.p - z_ref.p) <= 1e-8

    def test_map_is_symplectic(self):
        ho = HarmonicOscillator(1.0)
        ld = midpoint_rule(ho)(0.1)
        dev = symplecticity_check(lambda z: type1_map(ld, z, 0.1),
                                  PhasePoint(0.3, 0.2))
        assert dev <= 1e-8

    def test_no_jacobian_at_a_converged_start(self, monkeypatch):
        # The linear start is the free particle's extremal: Newton accepts
        # it without forming a Jacobian.
        calls = []
        jacobian = mechanics._jacobian
        monkeypatch.setattr(mechanics, "_jacobian",
                            lambda *args: calls.append(1) or jacobian(*args))
        exact_discrete_lagrangian(FreeParticle(), 0.2, 0.7, 0.5)
        assert calls == []
        exact_discrete_lagrangian(HarmonicOscillator(1.0), 0.2, 0.7, 0.5)
        assert calls

    def test_degenerate_generating_function_raises(self):
        with pytest.raises(SolverError):
            type1_map(lambda a, b: 0.0 * a * b, PhasePoint(0.0, 1.0), 0.1)


class TestVariationalOrders:
    @pytest.fixture
    def ladder(self):
        return [0.4, 0.2, 0.1, 0.05, 0.025]

    def test_midpoint_orders(self, ladder):
        ho = HarmonicOscillator(1.0)
        rep = variational_order_check(midpoint_rule(ho), ho,
                                      PhasePoint(0.7, 0.4), ladder)
        assert rep.functional_order == pytest.approx(3.0, abs=0.15)
        assert rep.map_order == pytest.approx(2.0, abs=0.15)

    def test_rectangle_orders(self, ladder):
        ho = HarmonicOscillator(1.0)
        rep = variational_order_check(rectangle_rule(ho), ho,
                                      PhasePoint(0.7, 0.4), ladder)
        assert rep.functional_order == pytest.approx(2.0, abs=0.15)
        assert rep.map_order == pytest.approx(1.0, abs=0.15)

    def test_exact_family_reports_infinite_order(self, ladder):
        # The midpoint rule integrates the free particle exactly.
        free = FreeParticle()
        rep = variational_order_check(midpoint_rule(free), free,
                                      PhasePoint(0.7, 0.4), ladder)
        assert math.isinf(rep.functional_order)
        assert math.isinf(rep.map_order)

    def test_requires_three_steps(self):
        ho = HarmonicOscillator(1.0)
        with pytest.raises(ValueError):
            variational_order_check(midpoint_rule(ho), ho,
                                    PhasePoint(0.7, 0.4), [0.2, 0.1])


class TestExactFlows:
    def test_free_flow(self):
        z1 = FreeParticle().exact_flow(PhasePoint(1.0, 2.0), 0.25)
        assert z1 == PhasePoint(1.5, 2.0)

    def test_harmonic_flow_is_rotation(self):
        ho = HarmonicOscillator(2.0)
        z0 = PhasePoint(1.0, 0.0)
        z1 = ho.exact_flow(z0, math.pi / 2.0)  # half period at omega = 2
        assert z1.q == pytest.approx(-1.0, abs=1e-12)
        assert z1.p == pytest.approx(0.0, abs=1e-12)

    def test_energy_preserved(self):
        ho = HarmonicOscillator(1.7)
        h_fn = harmonic_hamiltonian(1.7)
        z0 = PhasePoint(0.6, -0.2)
        z1 = ho.exact_flow(z0, 0.33)
        assert h_fn(z1.q, z1.p) == pytest.approx(h_fn(z0.q, z0.p), rel=1e-12)
