import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import dual
from mslab import (
    JetTriple,
    LinearWave,
    HarmonicDirichlet,
    QuadraticDensity,
    UserDensity,
    density_from_json,
    eval_Ld,
    grad_Ld,
    hess_Ld,
    omega_k,
    quartic_test_density,
    theta_k,
    triangle_kernel,
)

finite = st.floats(-3.0, 3.0)
spacing = st.floats(0.1, 2.0)

jets = st.tuples(finite, finite, finite, spacing, spacing).map(
    lambda t: JetTriple(t[0], t[1], t[2], dt=t[3], dx=t[4]))
tangents = st.tuples(finite, finite, finite)

DENSITIES = [LinearWave, HarmonicDirichlet, quartic_test_density(0.7),
             QuadraticDensity(vv=1.0, ww=-1.0, uu=0.5, vw=0.2, vu=-0.1, wu=0.3,
                              name="full_quadratic")]


class TestDensities:
    def test_wave_value(self):
        assert LinearWave(2.0, 1.0, 5.0) == pytest.approx(0.5 * (4.0 - 1.0))

    def test_analytic_partials_match_dual_route(self):
        dens = QuadraticDensity(vv=1.2, ww=-0.4, uu=0.9, vw=0.3, vu=0.6,
                                wu=-0.2)
        generic = UserDensity(dens.value, name="generic_twin")
        args = (0.7, -1.3, 0.4)
        assert dens.partials(*args) == pytest.approx(generic.partials(*args),
                                                     rel=1e-12)
        a = np.array(dens.second_partials(*args))
        b = np.array(generic.second_partials(*args))
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_quartic_partials_against_hand_formula(self):
        dens = quartic_test_density(2.0)
        v, w, u = 0.5, -0.7, 1.1
        lv, lw, lu = dens.partials(v, w, u)
        assert lv == pytest.approx(v)
        assert lw == pytest.approx(w)
        assert lu == pytest.approx(2.0 * u ** 3)

    def test_density_from_json(self):
        assert density_from_json("linear_wave") is LinearWave
        dens = density_from_json({"vv": 1.0, "ww": 2.0})
        assert dens.coefficients()["ww"] == 2.0
        with pytest.raises(ValueError):
            density_from_json({"vv": 1.0, "zz": 2.0})
        with pytest.raises(ValueError):
            density_from_json("mystery_density")


class TestFrozenWaveValues:
    """Hand-derived values for the wave density at unit spacings."""

    def setup_method(self):
        self.jet = JetTriple(0.0, 1.0, 2.0, dt=1.0, dx=1.0)  # v=2, w=1

    def test_eval(self):
        # Ld = (dt dx / 2) L = 0.5 * 0.5 * (4 - 1) = 0.75
        assert eval_Ld(LinearWave, self.jet) == pytest.approx(0.75)

    def test_gradient(self):
        assert grad_Ld(LinearWave, self.jet) == pytest.approx(
            (-0.5, -0.5, 1.0))

    def test_hessian(self):
        expected = np.array([[0.0, 0.5, -0.5],
                             [0.5, -0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(np.asarray(hess_Ld(LinearWave, self.jet)), expected,
                           atol=1e-15)

    def test_omega_frozen(self):
        assert omega_k(LinearWave, self.jet, 1, (0.0, 0.0, 1.0),
                       (1.0, 0.0, 0.0)) == pytest.approx(0.5)


class TestGradientAndHessianConsistency:
    @pytest.mark.parametrize("density", DENSITIES, ids=lambda d: d.name)
    def test_gradient_matches_fd(self, density):
        jet = JetTriple(0.3, -0.8, 1.1, dt=0.5, dx=0.75)
        grad = grad_Ld(density, jet)
        eps = 1e-6
        for k in range(3):
            vals = list((jet.u1, jet.u2, jet.u3))
            vals[k] += eps
            up = eval_Ld(density, JetTriple(*vals, dt=jet.dt, dx=jet.dx))
            vals[k] -= 2 * eps
            dn = eval_Ld(density, JetTriple(*vals, dt=jet.dt, dx=jet.dx))
            assert grad[k] == pytest.approx((up - dn) / (2 * eps), abs=1e-7)

    @pytest.mark.parametrize("density", DENSITIES, ids=lambda d: d.name)
    def test_hessian_matches_fd_of_gradient(self, density):
        jet = JetTriple(0.3, -0.8, 1.1, dt=0.5, dx=0.75)
        hess = np.asarray(hess_Ld(density, jet))
        assert np.allclose(hess, hess.T, atol=1e-12)
        eps = 1e-6
        for k in range(3):
            vals = list((jet.u1, jet.u2, jet.u3))
            vals[k] += eps
            gp = np.array(grad_Ld(density, JetTriple(*vals, dt=jet.dt, dx=jet.dx)))
            vals[k] -= 2 * eps
            gm = np.array(grad_Ld(density, JetTriple(*vals, dt=jet.dt, dx=jet.dx)))
            assert np.allclose(hess[:, k], (gp - gm) / (2 * eps), atol=1e-5)


class TestFormIdentities:
    @settings(max_examples=300, deadline=None)
    @given(jet=jets, tangent=tangents)
    def test_theta_sum_is_differential(self, jet, tangent):
        total = sum(theta_k(LinearWave, jet, k, tangent) for k in (1, 2, 3))
        (d1, d2, d3), (x1, x2, x3) = grad_Ld(LinearWave, jet), tangent
        pairing = d1 * x1 + d2 * x2 + d3 * x3
        scale = max(1.0, abs(pairing))
        assert abs(total - pairing) <= 1e-13 * scale

    @settings(max_examples=300, deadline=None)
    @given(jet=jets, xi=tangents, eta=tangents)
    def test_omega_sum_vanishes(self, jet, xi, eta):
        terms = [omega_k(quartic_test_density(0.5), jet, k, xi, eta)
                 for k in (1, 2, 3)]
        scale = max(1.0, max(abs(t) for t in terms))
        assert abs(sum(terms)) <= 1e-13 * scale

    @settings(max_examples=100, deadline=None)
    @given(jet=jets, xi=tangents, eta=tangents)
    def test_omega_antisymmetry(self, jet, xi, eta):
        for k in (1, 2, 3):
            a = omega_k(LinearWave, jet, k, xi, eta)
            b = omega_k(LinearWave, jet, k, eta, xi)
            assert a == pytest.approx(-b, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(jet=jets, xi=tangents, eta=tangents, c=st.floats(-2.0, 2.0))
    def test_omega_bilinear(self, jet, xi, eta, c):
        scaled = tuple(c * x for x in xi)
        a = omega_k(LinearWave, jet, 2, scaled, eta)
        b = omega_k(LinearWave, jet, 2, xi, eta)
        assert a == pytest.approx(c * b, abs=1e-10)

    def test_bad_slot_rejected(self):
        jet = JetTriple(0.0, 0.0, 0.0, dt=1.0, dx=1.0)
        with pytest.raises(ValueError):
            theta_k(LinearWave, jet, 0, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            omega_k(LinearWave, jet, 4, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


class TestNonFiniteDensity:
    # pytest turns RuntimeWarning into an error, so a numpy overflow warning
    # escaping the density call would replace the documented ValueError.
    blowup = UserDensity(lambda v, w, u: dual.exp(1000.0 * u), name="blowup")

    @pytest.mark.parametrize("fn", [eval_Ld, grad_Ld, hess_Ld])
    def test_overflow_raises_value_error(self, fn):
        jet = JetTriple(1.0, 1.0, 1.0, dt=1.0, dx=1.0)
        with pytest.raises(ValueError, match="blowup"):
            fn(self.blowup, jet)

    @pytest.mark.parametrize("density", [LinearWave, quartic_test_density(0.5)],
                             ids=lambda d: d.name)
    def test_overflowing_step_raises_value_error(self, density):
        # 1/dt^2 overflows the vertex-slot pull-back of a finite Hessian.
        jet = JetTriple(0.0, 0.0, 0.0, dt=1e-300, dx=1.0)
        with pytest.raises(ValueError, match="non-finite Hessian"):
            hess_Ld(density, jet)
        with pytest.raises(ValueError, match="non-finite Hessian"):
            triangle_kernel(density, np.zeros(3), np.array([[0], [1], [2]]),
                            jet.dt, jet.dx, gradient=False, hessian=True)
