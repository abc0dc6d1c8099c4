import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from mslab import oracles
from mslab import (
    EdgeTrace,
    FourierBoundaryData,
    SquareBoundaryData,
    compatibility_residual,
    dalembert_solve,
    disc_boundary_lagrangian_quadrature,
    dtn_pairing,
    fourier_inner,
    harmonic_extension_disc,
    wave_exact_solutions,
    wave_square_boundary_lagrangian,
)

CATALOGUE = ["zero", "bilinear", "cubic", "standing:1", "standing:2",
             "travelling:3"]


class TestWaveCatalogue:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_derivatives_match_fd(self, name):
        sol = wave_exact_solutions(name)
        eps = 1e-6
        for (t, x) in [(0.3, 0.4), (0.7, 0.2)]:
            dt_fd = (sol.value(t + eps, x) - sol.value(t - eps, x)) / (2 * eps)
            dx_fd = (sol.value(t, x + eps) - sol.value(t, x - eps)) / (2 * eps)
            assert sol.dt(t, x) == pytest.approx(dt_fd, abs=1e-6)
            assert sol.dx(t, x) == pytest.approx(dx_fd, abs=1e-6)

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_traces_are_corner_consistent(self, name):
        wave_exact_solutions(name).trace_square()  # validation in constructor

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            wave_exact_solutions("soliton")
        with pytest.raises(ValueError):
            wave_exact_solutions("standing:7")


class TestSquareBoundaryData:
    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            SquareBoundaryData(
                bottom=EdgeTrace(lambda x: x, lambda x: 1.0),
                top=EdgeTrace(lambda x: 0.0, lambda x: 0.0),
                left=EdgeTrace(lambda t: 0.0, lambda t: 0.0),
                right=EdgeTrace(lambda t: 0.0, lambda t: 0.0))

    def test_with_edge_replaces(self):
        data = wave_exact_solutions("bilinear").trace_square()
        bumped = data.with_edge("right", EdgeTrace(
            lambda t: t + 0.01 * math.sin(math.pi * t),
            lambda t: 1.0 + 0.01 * math.pi * math.cos(math.pi * t)))
        assert bumped.right.value(0.5) != data.right.value(0.5)


class TestCompatibility:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_zero_on_wave_traces(self, name):
        data = wave_exact_solutions(name).trace_square()
        assert compatibility_residual(data) < 1e-12

    def test_detects_single_edge_bump(self):
        eps = 1e-3
        data = wave_exact_solutions("cubic").trace_square()
        bump = lambda t: eps * math.sin(math.pi * t)
        old = data.right
        bumped = data.with_edge("right", EdgeTrace(
            lambda t: old.value(t) + bump(t),
            lambda t: old.derivative(t) + eps * math.pi * math.cos(math.pi * t)))
        residual = compatibility_residual(bumped)
        assert residual == pytest.approx(eps, rel=1e-9)


class TestDalembertReconstruction:
    def test_frozen_bilinear_split(self):
        # t*x = F(x-t) + G(x+t) with F(s) = -s^2/4, G(s) = s^2/4 once the
        # constant split is pinned by F(0) = u(0,0)/2 = 0.
        rec = dalembert_solve(wave_exact_solutions("bilinear").trace_square())
        for s in np.linspace(-1.0, 1.0, 11):
            assert rec.f(s) == pytest.approx(-s * s / 4.0, abs=1e-10)
            assert rec.g(s + 1.0) == pytest.approx((s + 1.0) ** 2 / 4.0,
                                                   abs=1e-10)

    def test_normalisation_pins_constant_split(self):
        rec = dalembert_solve(wave_exact_solutions("cubic").trace_square())
        u00 = 0.0
        assert rec.f(0.0) == pytest.approx(0.5 * u00, abs=1e-10)
        assert rec.g(0.0) == pytest.approx(0.5 * u00, abs=1e-10)

    @pytest.mark.parametrize("name", [n for n in CATALOGUE if n != "zero"])
    def test_interior_recovery(self, name):
        sol = wave_exact_solutions(name)
        rec = dalembert_solve(sol.trace_square())
        assert rec.fit_residual < 1e-10
        rng = np.random.default_rng(1)
        for t, x in rng.uniform(0.0, 1.0, (30, 2)):
            assert rec.value(t, x) == pytest.approx(sol.value(t, x), abs=1e-9)
            assert rec.dt(t, x) == pytest.approx(sol.dt(t, x), abs=1e-8)
            assert rec.dx(t, x) == pytest.approx(sol.dx(t, x), abs=1e-8)

    def test_resonant_kernel_modes_are_invisible(self):
        # sin(k pi x) sin(k pi t) vanishes on all four edges: adding it to a
        # solution changes nothing the reconstruction can see, so the
        # reconstruction agrees with the plain cubic away from the kernel.
        cubic = wave_exact_solutions("cubic")
        k = 2.0 * math.pi

        def value(t, x):
            return cubic.value(t, x) + math.sin(k * x) * math.sin(k * t)

        from mslab import WaveSolution
        spiked = WaveSolution(
            "cubic_plus_kernel", value,
            lambda t, x: cubic.dt(t, x) + k * math.sin(k * x) * math.cos(k * t),
            lambda t, x: cubic.dx(t, x) + k * math.cos(k * x) * math.sin(k * t))
        rec = dalembert_solve(spiked.trace_square())
        assert rec.fit_residual < 1e-8
        assert rec.value(0.25, 0.75) == pytest.approx(cubic.value(0.25, 0.75),
                                                      abs=1e-8)

    def test_out_of_span_data_raises(self):
        f9 = lambda s: s ** 9
        df9 = lambda s: 9.0 * s ** 8
        data = SquareBoundaryData(
            bottom=EdgeTrace(lambda x: f9(x), lambda x: df9(x)),
            top=EdgeTrace(lambda x: f9(x - 1.0), lambda x: df9(x - 1.0)),
            left=EdgeTrace(lambda t: f9(-t), lambda t: -df9(-t)),
            right=EdgeTrace(lambda t: f9(1.0 - t), lambda t: -df9(1.0 - t)))
        with pytest.raises(ValueError, match="residual"):
            dalembert_solve(data)

    @pytest.mark.parametrize("name", ["cubic", "standing:2", "travelling:3"])
    def test_derivatives_are_the_legendre_derivative_bit_for_bit(self, name):
        rec = dalembert_solve(wave_exact_solutions(name).trace_square())
        for s in np.linspace(-1.0, 2.0, 31):
            f = npleg.legval(s, npleg.legder(rec.f_poly)) + oracles._sin_deriv(s, rec.f_sin)
            g = (npleg.legval(s - 1.0, npleg.legder(rec.g_poly))
                 + oracles._sin_deriv(s, rec.g_sin))
            assert rec.f_prime(s).hex() == float(f).hex()
            assert rec.g_prime(s).hex() == float(g).hex()

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_array_basis_matches_scalar_legval(self, shift):
        # Every argument the solve feeds the basis: s, -s, s - 1, 1 - s, s + 1.
        samples = np.linspace(0.0, 1.0, 80)
        args = np.concatenate([samples, -samples, samples - 1.0, 1.0 - samples,
                               samples + 1.0, [0.0]])
        poly_degree, n_sine = 6, 6
        reference = np.array([
            [float(npleg.legval(s - shift, unit)) for unit in np.eye(poly_degree + 1)]
            + [math.sin(k * math.pi * s) for k in range(1, n_sine + 1)]
            for s in args])
        basis = oracles._collocation_basis(args, shift, poly_degree, n_sine)
        assert basis.shape == reference.shape
        assert basis.tobytes() == reference.tobytes()


class TestWaveSquareFunctional:
    def test_frozen_cubic_values(self):
        report = wave_square_boundary_lagrangian(
            wave_exact_solutions("cubic").trace_square())
        assert report.formula_value == pytest.approx(-0.8, abs=1e-10)
        assert report.action_value == pytest.approx(0.8, abs=1e-10)
        assert report.magnitude_gap < 1e-10

    def test_magnitudes_agree_across_catalogue(self):
        for name in ["bilinear", "standing:1", "travelling:3"]:
            report = wave_square_boundary_lagrangian(
                wave_exact_solutions(name).trace_square())
            assert report.magnitude_gap < 1e-9

    def test_standing_mode_action_vanishes(self):
        # Over one resonant period kinetic and gradient energy integrate to
        # the same value, so the wave action is zero.
        report = wave_square_boundary_lagrangian(
            wave_exact_solutions("standing:1").trace_square())
        assert abs(report.action_value) < 1e-10

    def test_bilinear_closed_form(self):
        # u = t x: u_t^2 - u_x^2 = x^2 - t^2 integrates to zero on the square.
        report = wave_square_boundary_lagrangian(
            wave_exact_solutions("bilinear").trace_square())
        assert abs(report.action_value) < 1e-12


FULL_CATALOGUE = (["zero", "bilinear", "cubic"]
                  + [f"{kind}:{k}" for kind in ("standing", "travelling")
                     for k in range(1, 7)])


class TestQuadratureAccuracy:
    """The fixed rules reach round-off on the whole catalogue."""

    @pytest.mark.parametrize("name", FULL_CATALOGUE)
    def test_routes_agree_to_round_off(self, name):
        report = wave_square_boundary_lagrangian(
            wave_exact_solutions(name).trace_square())
        assert report.magnitude_gap <= 1e-12

    @pytest.mark.parametrize("name, value", [
        ("cubic", 0.8), ("bilinear", 0.0),
        *((f"standing:{k}", 0.0) for k in range(1, 7))])
    def test_closed_values(self, name, value):
        report = wave_square_boundary_lagrangian(
            wave_exact_solutions(name).trace_square())
        assert report.formula_value == pytest.approx(-value, rel=0.0, abs=1e-13)
        assert report.action_value == pytest.approx(value, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("name", FULL_CATALOGUE)
    def test_matches_adaptive_quadrature(self, name):
        from scipy.integrate import quad

        data = wave_exact_solutions(name).trace_square()
        report = wave_square_boundary_lagrangian(data)
        sol = report.solution

        def formula(a):
            return ((data.bottom.derivative(a) - data.left.derivative(a))
                    * (data.right.value(1.0 - a) - data.bottom.value(a)))

        def action(a):
            return sol.f_prime(a) * (sol.g(2.0 - abs(a)) - sol.g(abs(a)))

        def adaptive(f, lo, hi):  # the rule's reference, to quad's own bound
            return quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

        assert report.formula_value == pytest.approx(adaptive(formula, 0.0, 1.0),
                                                     rel=0.0, abs=1e-12)
        assert report.action_value == pytest.approx(
            -(adaptive(action, -1.0, 0.0) + adaptive(action, 0.0, 1.0)), rel=0.0, abs=1e-12)


disc_modes = st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=16)


@settings(max_examples=200, deadline=None)
@given(a0=st.floats(-2.0, 2.0), a=disc_modes, b=disc_modes)
# Squared, this coefficient is subnormal: both routes once lost bits there.
@example(a0=0.0, a=[], b=[4.4699804105247135e-158])
# A unit taken over a0 too kept these modes subnormal: a negative energy.
@example(a0=0.625, a=[0.0, 2.2250738585e-313], b=[])
def test_disc_quadrature_matches_closed_form(a0, a, b):
    data = FourierBoundaryData(a0, a, b)
    closed = harmonic_extension_disc(data).boundary_lagrangian
    # Relative to the value, or to the integrand's bound where the value is
    # much smaller than the terms the rule sums.
    bound = math.pi * (abs(a0) + sum(map(abs, data.a + data.b))) * sum(
        k * (abs(ak) + abs(bk)) for k, (ak, bk) in enumerate(zip(data.a, data.b), 1))
    assert disc_boundary_lagrangian_quadrature(data) == pytest.approx(
        closed, rel=1e-13, abs=1e-13 * bound)


class TestDisc:
    def test_frozen_single_mode(self):
        ext = harmonic_extension_disc(FourierBoundaryData(0.0, (1.0,), ()))
        assert ext.boundary_lagrangian == pytest.approx(math.pi / 2.0)
        assert ext.dtn.a == (1.0,)
        assert ext.dtn.a0 == 0.0

    def test_frozen_two_modes(self):
        data = FourierBoundaryData(0.0, (0.0, 1.0), (0.0, 0.0, 1.0))
        ext = harmonic_extension_disc(data)
        assert ext.boundary_lagrangian == pytest.approx(5.0 * math.pi / 2.0)
        assert ext.dtn.a == (0.0, 2.0, 0.0)
        assert ext.dtn.b == (0.0, 0.0, 3.0)

    def test_mean_is_killed(self):
        ext = harmonic_extension_disc(FourierBoundaryData(3.0, (), ()))
        assert ext.boundary_lagrangian == 0.0
        assert ext.dtn.a0 == 0.0

    def test_quadrature_route_agrees(self):
        data = FourierBoundaryData(0.4, (0.3, -0.2), (0.1, 0.0, 0.5))
        closed = harmonic_extension_disc(data).boundary_lagrangian
        assert disc_boundary_lagrangian_quadrature(data) == pytest.approx(
            closed, abs=1e-9)

    def test_extension_matches_trace(self):
        data = FourierBoundaryData(0.4, (0.3,), (0.0, -0.7))
        ext = harmonic_extension_disc(data)
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            assert ext.value(1.0, theta) == pytest.approx(data.trace(theta),
                                                          rel=1e-12)
        # Interior mean value property at the centre.
        assert ext.value(0.0, 0.3) == pytest.approx(data.a0)

    def test_json_roundtrip(self):
        data = FourierBoundaryData(0.4, (0.3,), (0.0, -0.7))
        clone = FourierBoundaryData.from_json(json.loads(json.dumps(data.to_json())))
        assert clone.a0 == data.a0 and clone.a == data.a and clone.b == data.b
        with pytest.raises(ValueError):
            FourierBoundaryData.from_json({"a0": 0.0, "c": [1.0]})


coeff_lists = st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=4)


@settings(max_examples=100, deadline=None)
@given(a0=st.floats(-2.0, 2.0), a=coeff_lists, b=coeff_lists,
       c0=st.floats(-2.0, 2.0), c=coeff_lists, d=coeff_lists)
def test_dtn_pairing_exactly_symmetric(a0, a, b, c0, c, d):
    f = FourierBoundaryData(a0, a, b)
    g = FourierBoundaryData(c0, c, d)
    assert dtn_pairing(f, g) == dtn_pairing(g, f)


@settings(max_examples=100, deadline=None)
@given(a0=st.floats(-2.0, 2.0), a=coeff_lists, b=coeff_lists,
       c0=st.floats(-2.0, 2.0), c=coeff_lists, d=coeff_lists)
def test_dtn_pairing_matches_one_sided_route(a0, a, b, c0, c, d):
    f = FourierBoundaryData(a0, a, b)
    g = FourierBoundaryData(c0, c, d)
    one_sided = fourier_inner(f, harmonic_extension_disc(g).dtn)
    assert dtn_pairing(f, g) == pytest.approx(one_sided, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(a0=st.floats(-2.0, 2.0), a=coeff_lists, b=coeff_lists)
def test_energy_is_half_self_pairing(a0, a, b):
    data = FourierBoundaryData(a0, a, b)
    ext = harmonic_extension_disc(data)
    assert ext.boundary_lagrangian == pytest.approx(
        0.5 * dtn_pairing(data, data), rel=1e-12, abs=1e-12)


def test_fourier_inner_is_l2_product():
    f = FourierBoundaryData(1.0, (2.0,), ())
    g = FourierBoundaryData(3.0, (4.0,), ())
    # 2 pi * 1 * 3 + pi * 2 * 4
    assert fourier_inner(f, g) == pytest.approx(6.0 * math.pi + 8.0 * math.pi)
