import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from mslab import delsolve, dual, mechanics
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

    def test_no_step_at_a_converged_start(self, monkeypatch):
        # The linear start is the free particle's extremal: Newton accepts it
        # at its round-off floor, which costs one Jacobian, and returns it
        # bit for bit.
        calls = []
        jacobian = mechanics._jacobian
        monkeypatch.setattr(mechanics, "_jacobian",
                            lambda *args: calls.append(1) or jacobian(*args))
        nodes, _ = lobatto(8)
        _, qs, _ = mechanics._collocation_extremal(FreeParticle(), 0.2, 0.7, 0.5, 8)
        assert len(calls) == 1
        assert np.array_equal(qs, 0.2 + (0.7 - 0.2) * (nodes + 1.0) / 2.0)
        calls.clear()
        exact_discrete_lagrangian(HarmonicOscillator(1.0), 0.2, 0.7, 0.5)
        assert calls  # Newton forms its Jacobians through the patched name

    # Warnings are errors in this suite, so under "warn" numpy's overflow
    # warning is raised too.
    @pytest.mark.parametrize("state", ["raise", "warn"])
    def test_overflowing_start_is_a_non_finite_start(self, state):
        # The start Jacobian's dual evaluation raises first; the silenced
        # float start then decides the error, as it did when it came first.
        with np.errstate(all=state), pytest.raises(
                SolverError, match=r"^probe: non-finite residual at the start$"):
            mechanics._newton_dense(lambda x: x * x - 1.0, [1e200], "probe")

    def test_overflowing_jacobian_at_a_finite_start_raises_its_own_error(self):
        # x ** 0.5 is 0 at the start; its derivative divides by zero.
        with np.errstate(all="raise"), pytest.raises(FloatingPointError,
                                                     match="divide by zero"):
            mechanics._newton_dense(lambda x: x ** 0.5 - 1.0, [0.0], "probe")

    @pytest.mark.parametrize("x0, kinds", [
        ([0.5], ["dual"]),            # converged start: its Jacobian only
        ([0.0], ["dual", "float"]),   # one step: and one trial iterate
    ], ids=["converged-start", "one-step"])
    def test_one_dual_evaluation_serves_the_start(self, x0, kinds):
        calls = []

        def residual(x):
            calls.append("dual" if isinstance(x, dual.Dual) else "float")
            return 2.0 * x - 1.0

        assert np.array_equal(mechanics._newton_dense(residual, x0, "probe"), [0.5])
        assert calls == kinds

    def test_degenerate_generating_function_raises(self):
        with pytest.raises(SolverError):
            type1_map(lambda a, b: 0.0 * a * b, PhasePoint(0.0, 1.0), 0.1)


class TestDataScale:
    # The absolute tolerance once accepted start guesses of tiny data: the
    # linear interpolant (0.22 relative error at 1e-12) and q0 + h p0.
    @pytest.mark.parametrize("scale", [1e-12, 1e-16])
    def test_tiny_endpoint_values(self, scale):
        ho = HarmonicOscillator(1.0)
        exact = ho.exact_ld(0.3 * scale, 0.7 * scale, 0.9)
        value = exact_discrete_lagrangian(ho, 0.3 * scale, 0.7 * scale, 0.9)
        assert abs(value - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("scale", [1e-12, 1e-16])
    def test_tiny_type1_map(self, scale):
        # The midpoint rule's map is linear: q1 = (p0 + q0 (1/h - h/4)) / (1/h + h/4).
        ld = midpoint_rule(HarmonicOscillator(1.0))(0.9)
        z = type1_map(ld, PhasePoint(0.3 * scale, 0.2 * scale), 0.9)
        assert z.q / scale == pytest.approx(0.348648648648649, rel=1e-13)


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


    def test_requires_three_distinct_steps(self):
        # Repeated steps once gave numpy's RankWarning and a fitted order.
        ho = HarmonicOscillator(1.0)
        with pytest.raises(ValueError, match="distinct"):
            variational_order_check(midpoint_rule(ho), ho,
                                    PhasePoint(0.7, 0.4), [0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="distinct"):
            variational_order_check(midpoint_rule(ho), ho,
                                    PhasePoint(0.7, 0.4), [0.2, 0.1, 0.2, 0.1])

    def test_one_positive_error_gives_an_infinite_order(self):
        # Errors above round-off, but only one of them positive: no line to fit.
        assert mechanics._fit_order([0.4, 0.2, 0.1], [1e-3, 0.0, 0.0]) == math.inf

    def test_repr_names_the_lagrangian(self):
        assert repr(HarmonicOscillator(2.0)) == "<HarmonicOscillator harmonic[2.0]>"
        assert repr(FreeParticle()) == "<FreeParticle free_particle>"


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


class Pendulum(mechanics.MechLagrangian):
    """L = qdot^2/2 + cos q: derivatives through dual.partial and dual.cos."""

    name = "pendulum"

    def value(self, q, qdot):
        return 0.5 * qdot * qdot + dual.cos(q)


def pendulum_hamiltonian(q, p):
    return 0.5 * p * p - dual.cos(q)


class TestGoldenBits:
    """``float.hex`` of the collocation, the type-I map and one order report
    at fixed inputs.  The values were recorded before the dual-number lane
    was vectorised (``matvec`` as one product, inline real operands, scalar
    tangents for one unknown); that rewrite keeps every floating-point
    operation and its order, so these must not move."""

    def test_exact_discrete_lagrangian(self):
        assert exact_discrete_lagrangian(
            HarmonicOscillator(1.3), 0.3, 0.7, 0.4).hex() == "0x1.be87724c8e6f0p-4"
        assert exact_discrete_lagrangian(
            Pendulum(), 0.3, 0.7, 0.4).hex() == "0x1.189d560968bd8p-1"

    def test_exact_discrete_hamiltonian(self):
        assert exact_discrete_hamiltonian(
            harmonic_hamiltonian(1.3), 0.3, 0.5, 0.4).hex() == "0x1.0bab61af021e9p-2"
        assert exact_discrete_hamiltonian(
            pendulum_hamiltonian, 0.3, 0.5, 0.4).hex() == "-0x1.53bc40f6e8b0ep-3"

    @pytest.mark.parametrize("lagr,expected", [
        (HarmonicOscillator(1.3), ("0x1.77c7316676638p-1", "0x1.1d861e68e5f37p-2")),
        (Pendulum(), ("0x1.7931f4f8f632fp-1", "0x1.5634ad4cde5d7p-2")),
    ])
    def test_type1_map(self, lagr, expected):
        z = type1_map(midpoint_rule(lagr)(0.1), PhasePoint(0.7, 0.4), 0.1)
        assert (z.q.hex(), z.p.hex()) == expected

    def test_variational_order_report(self):
        ho = HarmonicOscillator(1.3)
        rep = variational_order_check(midpoint_rule(ho), ho,
                                      PhasePoint(0.7, 0.4), [0.2, 0.1, 0.05])
        assert rep.functional_order.hex() == "0x1.7f281aef9bf45p+1"
        assert rep.map_order.hex() == "0x1.ff0596bff7079p+0"
        assert [e.hex() for e in rep.functional_errors] == [
            "0x1.2103017883800p-11", "0x1.23249c1f88c00p-14", "0x1.23a9e0bd72000p-17"]
        assert [e.hex() for e in rep.map_errors] == [
            "0x1.2c1c0dd04f580p-8", "0x1.2d623c6119c00p-10", "0x1.2db417544e000p-12"]


class TestDenseNewton:
    def test_one_solve_per_newton_step(self, monkeypatch):
        # Newton's method (theta_max = 0) refactors at every iterate, so no
        # step may first be solved on the previous iterate's Jacobian.
        solves, steps = [], []
        solve, newton = np.linalg.solve, mechanics._newton

        def counted_newton(*args, **kwargs):
            out = newton(*args, **kwargs)
            steps.append(out[2])
            return out

        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        monkeypatch.setattr(mechanics, "_newton", counted_newton)
        exact_discrete_lagrangian(Pendulum(), 0.3, 0.7, 0.4)
        assert steps == [2] and len(solves) == 2


# Finite floats over the whole range, signed zeros and subnormals included.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
                                      1.7976931348623157e308]),
                     st.floats(allow_nan=False, allow_infinity=False, width=64))


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


class TestDenseFloor:
    """The dense lane's floor, its unit taken once per factor, against the
    floor taken whole at every iterate, bit for bit; products that overflow
    (inf, or inf * 0 = nan) included."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_equals_the_floor_at_each_iterate(self, n, data):
        jac = data.draw(hnp.arrays(float, (n, n), elements=_ENTRIES))
        with np.errstate(over="ignore"):  # a row sum may overflow to inf
            floor = mechanics._dense_floor(jac)
            for _ in range(3):  # several iterates on one factor
                x = data.draw(hnp.arrays(float, n, elements=_ENTRIES))
                whole = delsolve._roundoff_floor(jac, x)
                # The floor written out: 64 ulps of ||J||_inf times ||x||_inf.
                written = (64.0 * float(np.finfo(float).eps)
                           * float(np.max(np.abs(jac).sum(axis=1))) * float(np.max(np.abs(x))))
                assert _same(floor(x), whole) and _same(whole, written)
