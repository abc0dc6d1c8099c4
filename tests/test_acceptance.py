"""Release checklist: one test per acceptance gate, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate
PASS/FAIL lines with headline numbers and timings.  Every gate exercises the
public API only and states its tolerance inline.  The symmetry laws of the
Type-I functional (gates 13-17) draw their cases with Hypothesis and assert
each draw, without a printed line.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mslab import (
    BoundaryData,
    DiscreteField,
    FourierBoundaryData,
    FreeParticle,
    HarmonicDirichlet,
    HarmonicOscillator,
    JetTriple,
    LinearWave,
    Patch3Region,
    PhasePoint,
    QuadraticDensity,
    RectRegion,
    SingularSystem,
    UserDensity,
    boundary_hamiltonian,
    boundary_lagrangian,
    boundary_nodes,
    bridges_residual,
    build_mesh,
    compatibility_residual,
    ddw_residual,
    dtn_pairing,
    eval_Ld,
    exact_discrete_lagrangian,
    harmonic_extension_disc,
    hessian_symmetry,
    interior_nodes,
    midpoint_rule,
    msff_residual_patch,
    msff_residual_region,
    normal_momenta,
    omega_k,
    propagate,
    quartic_test_density,
    rectangle_rule,
    region_action,
    solve_bvp,
    symplectic_flux,
    symplecticity_check,
    tangent_solve,
    theta_k,
    type1_map,
    type2_data_from_field,
    variational_order_check,
    wave_exact_solutions,
    wave_square_boundary_lagrangian,
)
from mslab import dual, interior_index, region_index, triangle_kernel
from mslab.delsolve import PeriodicClosure


def conclude(label, t0, ok, detail):
    elapsed = time.perf_counter() - t0
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s) {detail}")
    assert ok, f"{label}: {detail}"


def seeded_boundary(region, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    n = len(boundary_nodes(region))
    return BoundaryData(region, amplitude * rng.standard_normal(n))


def fit_order(h_values, errors):
    return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])


def wave_mesh_50():
    # 50x50 cells at time-step ratio dt/dx = 0.5 on the unit space interval.
    dx = 1.0 / 50
    return build_mesh(dt=0.5 * dx, dx=dx, nt=50, nx=50)


def periodic_wave_solution(mesh, seed, amplitude=0.1):
    rng = np.random.default_rng(seed)
    row0 = amplitude * rng.standard_normal(mesh.nx + 1)
    row1 = row0 + mesh.dt * amplitude * rng.standard_normal(mesh.nx + 1)
    return propagate(LinearWave, mesh, row0, row1, PeriodicClosure())


def test_01_slot_form_identities_on_random_jets():
    t0 = time.perf_counter()
    densities = [LinearWave, HarmonicDirichlet, quartic_test_density()]
    rng = np.random.default_rng(20260814)
    worst_theta = worst_omega = 0.0
    n_draws = 1200
    for draw in range(n_draws):
        density = densities[draw % len(densities)]
        dt, dx = rng.uniform(0.2, 1.5, 2)
        u = rng.standard_normal(3)
        xi, eta = rng.standard_normal(3), rng.standard_normal(3)
        triple = JetTriple(u[0], u[1], u[2], dt, dx)

        theta_sum = sum(theta_k(density, triple, k, xi) for k in (1, 2, 3))

        # Independent route: differentiate the composed triangle action
        # directly (jet quotients written out, dual-number arithmetic)
        # instead of assembling slot gradients.
        def along(s):
            u1, u2, u3 = (u[j] + s * xi[j] for j in range(3))
            return 0.5 * dt * dx * density.value(
                (u3 - u1) / dt, (u2 - u1) / dx, (u1 + u2 + u3) / 3.0)

        directional = dual.derivative(along, 0.0)
        theta_terms = [abs(theta_k(density, triple, k, xi)) for k in (1, 2, 3)]
        scale = max(1.0, abs(directional), *theta_terms)
        worst_theta = max(worst_theta, abs(theta_sum - directional) / scale)

        omegas = [omega_k(density, triple, k, xi, eta) for k in (1, 2, 3)]
        scale_w = max(1.0, *(abs(w) for w in omegas))
        worst_omega = max(worst_omega, abs(sum(omegas)) / scale_w)
    ok = worst_theta <= 1e-13 and worst_omega <= 1e-13
    conclude("one-form sum equals action differential; two-form sum vanishes",
             t0, ok and (time.perf_counter() - t0) < 1.0,
             f"{n_draws} draws, worst rel: one-form {worst_theta:.2e}, "
             f"two-form {worst_omega:.2e} (tol 1e-13)")


def test_02_patch_two_form_cancellation_on_wave_mesh():
    t0 = time.perf_counter()
    mesh = wave_mesh_50()
    field = periodic_wave_solution(mesh, seed=11)
    region = RectRegion(0, 0, mesh.nt, mesh.nx)
    n_bd = len(boundary_nodes(region))

    def seeded_variation(seed):
        rng = np.random.default_rng(seed)
        return tangent_solve(LinearWave, field, region,
                             BoundaryData(region, 0.1 * rng.standard_normal(n_bd)))

    v_var, w_var = seeded_variation(21), seeded_variation(22)

    worst = max(abs(msff_residual_patch(LinearWave, field, v_var, w_var,
                                        n, i).residual)
                for n in range(1, mesh.nt) for i in range(1, mesh.nx))
    region_res = abs(msff_residual_region(LinearWave, field, v_var, w_var,
                                          region).residual)
    centre = (mesh.nt // 2, mesh.nx // 2)
    w_bad = w_var.with_value(*centre, w_var[centre] + 1.0)
    control = abs(msff_residual_patch(LinearWave, field, v_var, w_bad,
                                      *centre).residual)
    ok = worst <= 1e-12 and region_res <= 1e-11 and control > 1e-6
    conclude("patch two-form cancellation on a 50x50 wave mesh",
             t0, ok and (time.perf_counter() - t0) < 5.0,
             f"worst patch {worst:.2e} (tol 1e-12), region {region_res:.2e} "
             f"(tol 1e-11), negative control {control:.2e} (floor 1e-6)")


def test_03_conservation_law_and_flux_slices():
    t0 = time.perf_counter()
    mesh = wave_mesh_50()
    v_var = periodic_wave_solution(mesh, seed=31)
    w_var = periodic_wave_solution(mesh, seed=32)
    worst = max(abs(bridges_residual(mesh, v_var, w_var, n, i, periodic=True))
                for n in range(1, mesh.nt) for i in range(mesh.nx + 1))
    fluxes = [symplectic_flux(mesh, v_var, w_var, n) for n in range(mesh.nt)]
    spread = max(fluxes) - min(fluxes)
    ok = worst <= 1e-12 and spread <= 1e-12
    conclude("difference conservation law and per-slice flux independence",
             t0, ok and (time.perf_counter() - t0) < 5.0,
             f"worst node residual {worst:.2e}, flux spread over "
             f"{len(fluxes)} slices {spread:.2e} (tol 1e-12)")


def test_04_unit_ratio_degeneracy_and_conditioning():
    t0 = time.perf_counter()
    patch = Patch3Region(1, 1)

    unit = build_mesh(dt=0.1, dx=0.1, nt=2, nx=2)
    raised = False
    try:
        solve_bvp(LinearWave, unit, seeded_boundary(patch, 41))
    except SingularSystem:
        raised = True

    # On a unit-ratio mesh the interior value drops out of the update: any
    # propagated solution satisfies u(n+1,i) + u(n-1,i) = u(n,i+1) + u(n,i-1).
    big = build_mesh(dt=0.1, dx=0.1, nt=12, nx=12)
    field = periodic_wave_solution(big, seed=42)
    u = field.values
    relation_gap = max(
        abs(u[n + 1, i] + u[n - 1, i] - (u[n, i + 1] + u[n, i - 1]))
        for n in range(1, big.nt) for i in range(1, big.nx))

    half = build_mesh(dt=0.1, dx=0.2, nt=2, nx=2)
    rcond = solve_bvp(LinearWave, half, seeded_boundary(patch, 43)).rcond

    ok = raised and relation_gap <= 1e-12 and rcond >= 1e-3
    conclude("unit-ratio mesh degeneracy and half-ratio conditioning",
             t0, ok and (time.perf_counter() - t0) < 1.0,
             f"singular-guard raised {raised}, compatibility gap "
             f"{relation_gap:.2e} (tol 1e-12), rcond {rcond:.2e} (floor 1e-3)")


def test_05_mixed_partials_of_extremal_action():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    worst_analytic = worst_fd = 0.0
    for k in range(10):
        density = (LinearWave, HarmonicDirichlet)[k % 2]
        mesh = build_mesh(dt=0.25, dx=0.5,
                          nt=int(rng.integers(2, 5)), nx=int(rng.integers(2, 6)))
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        rep = hessian_symmetry(density, mesh, seeded_boundary(region, 500 + k))
        assert rep.method == "analytic"
        worst_analytic = max(worst_analytic, rep.max_asymmetry)
    for k in range(10):
        mesh = build_mesh(dt=0.25, dx=0.5, nt=2,
                          nx=int(rng.integers(2, 4)))
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        rep = hessian_symmetry(quartic_test_density(), mesh,
                               seeded_boundary(region, 600 + k, amplitude=0.1),
                               method="fd")
        assert rep.method == "fd"
        worst_fd = max(worst_fd, rep.max_asymmetry)
    ok = worst_analytic <= 1e-12 and worst_fd <= 1e-6
    conclude("mixed-partials symmetry of the extremal action",
             t0, ok and (time.perf_counter() - t0) < 10.0,
             f"20 instances, worst asymmetry: analytic {worst_analytic:.2e} "
             f"(tol 1e-12), finite-difference {worst_fd:.2e} (tol 1e-6)")


def test_06_boundary_momenta_match_action_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    eps = 1e-3  # quadratic action: the central difference is exact bar round-off
    worst = 0.0
    cases = []
    for k in range(10):
        mesh = build_mesh(dt=0.25, dx=0.5,
                          nt=int(rng.integers(2, 4)), nx=int(rng.integers(2, 5)))
        cases.append((mesh, RectRegion(0, 0, mesh.nt, mesh.nx)))
    for k in range(10):
        mesh = build_mesh(dt=0.25, dx=0.5, nt=2, nx=2)
        cases.append((mesh, Patch3Region(1, 1)))
    for k, (mesh, region) in enumerate(cases):
        density = (LinearWave, HarmonicDirichlet)[k % 2]
        data = seeded_boundary(region, 700 + k)
        result = boundary_lagrangian(density, mesh, data)
        momenta = normal_momenta(density, result.report.field, region)
        probes = rng.choice(len(data.values), size=3, replace=False)
        for idx in probes:
            plus = boundary_lagrangian(density, mesh, data.perturbed(idx, eps))
            minus = boundary_lagrangian(density, mesh, data.perturbed(idx, -eps))
            fd = (plus.value - minus.value) / (2.0 * eps)
            worst = max(worst, abs(fd - momenta.values[idx]))
    ok = worst <= 1e-10
    conclude("slot-sum boundary momenta equal the action gradient",
             t0, ok and (time.perf_counter() - t0) < 10.0,
             f"20 instances x 3 probes, worst gap {worst:.2e} (tol 1e-10)")


def test_07_closed_form_discrete_lagrangians():
    t0 = time.perf_counter()
    free_gap = abs(exact_discrete_lagrangian(FreeParticle(), 0.0, 1.0, 0.5) - 1.0)

    # Endpoint pairs taken on the exact flow so velocities stay O(1) for
    # every step of the sweep; plus the constant pair as a second family.
    ho = HarmonicOscillator(1.0)
    start = PhasePoint(0.7, 0.4)
    sweep_gap = 0.0
    for h in np.linspace(0.01, 1.0, 21):
        h = float(h)
        pairs = [(1.0, 1.0), (start.q, ho.exact_flow(start, h).q)]
        for q0, q1 in pairs:
            sweep_gap = max(sweep_gap, abs(
                exact_discrete_lagrangian(ho, q0, q1, h)
                - ho.exact_ld(q0, q1, h)))

    h = 0.05
    ld = lambda q0, q1: ho.exact_ld(q0, q1, h)
    z = z0 = PhasePoint(0.7, 0.4)
    for _ in range(100):
        z = type1_map(ld, z, h)
    ref = ho.exact_flow(z0, 100 * h)
    flow_gap = max(abs(z.q - ref.q), abs(z.p - ref.p))

    det_gap = symplecticity_check(lambda pt: type1_map(ld, pt, h), z0)

    ok = (free_gap <= 1e-12 and sweep_gap <= 1e-10
          and flow_gap <= 1e-8 and det_gap <= 1e-8)
    conclude("closed-form discrete Lagrangians and the exact one-step map",
             t0, ok,
             f"free value gap {free_gap:.2e} (tol 1e-12), oscillator sweep "
             f"{sweep_gap:.2e} (tol 1e-10), 100-step flow gap {flow_gap:.2e} "
             f"(tol 1e-8), |det J - 1| {det_gap:.2e} (tol 1e-8)")


def test_08_one_step_family_orders():
    t0 = time.perf_counter()
    ho = HarmonicOscillator(1.0)
    z0 = PhasePoint(0.7, 0.4)
    ladder = [0.4, 0.2, 0.1, 0.05, 0.025]
    mid = variational_order_check(midpoint_rule(ho), ho, z0, ladder)
    rect = variational_order_check(rectangle_rule(ho), ho, z0, ladder)
    ok = abs(mid.map_order - 2.0) <= 0.15 and abs(rect.map_order - 1.0) <= 0.15
    conclude("one-step map orders of the quadrature families",
             t0, ok and (time.perf_counter() - t0) < 10.0,
             f"midpoint {mid.map_order:.3f} (want 2.0 +/- 0.15), "
             f"rectangle {rect.map_order:.3f} (want 1.0 +/- 0.15)")


def test_09_continuous_boundary_functionals():
    t0 = time.perf_counter()
    disc_gap = abs(harmonic_extension_disc(
        FourierBoundaryData(0.0, (1.0,), ())).boundary_lagrangian - math.pi / 2)

    rng = np.random.default_rng(91)
    symmetric = True
    for _ in range(10):
        f = FourierBoundaryData(rng.normal(), rng.normal(size=3),
                                rng.normal(size=3))
        g = FourierBoundaryData(rng.normal(), rng.normal(size=3),
                                rng.normal(size=3))
        symmetric = symmetric and dtn_pairing(f, g) == dtn_pairing(g, f)

    data = wave_exact_solutions("cubic").trace_square()
    compat = compatibility_residual(data)
    square = wave_square_boundary_lagrangian(data)
    formula_gap = abs(abs(square.formula_value) - 0.8)
    action_gap = abs(abs(square.action_value) - 0.8)

    ok = (disc_gap <= 1e-8 and symmetric and formula_gap <= 1e-8
          and action_gap <= 1e-8 and compat <= 1e-12)
    conclude("continuous boundary functionals (disc and unit square)",
             t0, ok,
             f"disc gap {disc_gap:.2e} (tol 1e-8), pairing symmetric "
             f"{symmetric}, square closed-form/action gaps {formula_gap:.2e}/"
             f"{action_gap:.2e} (tol 1e-8), compatibility {compat:.2e} "
             f"(tol 1e-12)")


def test_10_discrete_action_converges_to_continuum():
    t0 = time.perf_counter()
    sol = wave_exact_solutions("cubic")
    sizes = [8, 16, 32, 64]
    errors = []
    values = []
    for nx in sizes:
        dx = 1.0 / nx
        mesh = build_mesh(dt=0.5 * dx, dx=dx, nt=2 * nx, nx=nx)
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        exact = DiscreteField.from_callable(mesh, sol.value)
        report = solve_bvp(LinearWave, mesh, BoundaryData.from_field(exact, region))
        # The triangulated action carries half the cell measure, so the
        # square's discrete action is twice the region sum.
        value = 2.0 * region_action(LinearWave, report.field, region)
        values.append(value)
        errors.append(abs(value - 0.8))
    order = fit_order([1.0 / nx for nx in sizes], errors)
    ok = order >= 0.9
    conclude("discrete extremal action converges to the continuum value",
             t0, ok and (time.perf_counter() - t0) < 30.0,
             f"values {[f'{v:.4f}' for v in values]} -> 0.8, observed order "
             f"{order:.3f} (floor 0.9)")


def test_11_mixed_generating_value_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    eps = 1e-5
    worst_value_d = worst_momentum_d = worst_relation = 0.0
    for k in range(10):
        density = (LinearWave, HarmonicDirichlet)[k % 2]
        mesh = build_mesh(dt=0.25, dx=0.5,
                          nt=int(rng.integers(2, 4)), nx=int(rng.integers(2, 6)))
        region = RectRegion(0, 0, mesh.nt, mesh.nx)
        ref = solve_bvp(density, mesh, seeded_boundary(region, 800 + k))
        data = type2_data_from_field(density, ref.field, region)
        result = boundary_hamiltonian(density, mesh, data)

        pi_out = normal_momenta(density, result.field, region).as_mapping()
        a_probe = [list(data.dirichlet)[j] for j in
                   rng.choice(len(data.dirichlet), size=3, replace=False)]
        for node in a_probe:
            plus = boundary_hamiltonian(density, mesh,
                                        data.perturbed_value(node, eps)).value
            minus = boundary_hamiltonian(density, mesh,
                                         data.perturbed_value(node, -eps)).value
            fd = (plus - minus) / (2.0 * eps)
            worst_value_d = max(worst_value_d, abs(fd - (-pi_out[node])))
        for node in data.momenta:
            plus = boundary_hamiltonian(density, mesh,
                                        data.perturbed_momentum(node, eps)).value
            minus = boundary_hamiltonian(density, mesh,
                                         data.perturbed_momentum(node, -eps)).value
            fd = (plus - minus) / (2.0 * eps)
            worst_momentum_d = max(worst_momentum_d,
                                   abs(fd - result.field[node]))

        action = region_action(density, result.field, region)
        paired = sum(data.momenta[nd] * result.field[nd] for nd in data.momenta)
        worst_relation = max(worst_relation,
                             abs(result.value + action - paired))
    ok = (worst_value_d <= 1e-6 and worst_momentum_d <= 1e-6
          and worst_relation <= 1e-9)
    conclude("mixed generating value: derivative and exchange contracts",
             t0, ok,
             f"10 instances, worst: d/d(value) {worst_value_d:.2e}, "
             f"d/d(momentum) {worst_momentum_d:.2e} (tol 1e-6), exchange "
             f"relation {worst_relation:.2e} (tol 1e-9)")


def test_12_canonical_field_equations_first_order():
    t0 = time.perf_counter()
    sol = wave_exact_solutions("cubic")
    sizes = [8, 16, 32]
    divergences = []
    worst_transport = 0.0
    for nx in sizes:
        dx = 1.0 / nx
        mesh = build_mesh(dt=0.5 * dx, dx=dx, nt=2 * nx, nx=nx)
        rep = ddw_residual(LinearWave, DiscreteField.from_callable(mesh, sol.value))
        divergences.append(rep.divergence_sup)
        worst_transport = max(worst_transport, rep.transport_sup)
    order = fit_order([1.0 / nx for nx in sizes], divergences)
    ok = order >= 0.9 and worst_transport <= 1e-12
    conclude("canonical field equations vanish at first order on exact data",
             t0, ok,
             f"divergence sups {[f'{d:.2e}' for d in divergences]}, observed "
             f"order {order:.3f} (floor 0.9), transport sup "
             f"{worst_transport:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# Symmetries of the Type-I functional S(phi), the extremal action as a
# function of the Dirichlet data.  Its gradient is the boundary momentum
# pi_b = dS/dphi_b (``normal_momenta`` on the solved field).  Each law holds
# on the solved field up to the DEL residual r_i the solve leaves at its
# interior nodes, which enters through the slot sums and is allowed for;
# beyond that the bound is a few ulps of the uncancelled sum.

EPS = np.finfo(float).eps
CROSS = QuadraticDensity(vv=1.0, ww=-0.7, vw=0.2, name="cross")
GRADIENT_QUARTIC = UserDensity(lambda v, w, u: 0.5 * (v * v + w * w) + 0.25 * (v ** 4 + w ** 4),
                               name="gradient_quartic")


@st.composite
def dirichlet_cases(draw, densities):
    """(density, mesh, region, data): a full or inset rectangle of 2-16 cells
    a side at a drawn dt/dx, with unit normal data from a drawn seed."""
    density = draw(st.sampled_from(densities))
    nt, nx = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    ratio = draw(st.sampled_from([0.3, 0.5, 0.7]) | st.floats(0.2, 1.5))
    n0, i0, pad_t, pad_x = draw(st.just((0, 0, 0, 0))
                                | st.tuples(*[st.integers(0, 3)] * 4))
    mesh = build_mesh(dt=ratio / nx, dx=1.0 / nx, nt=n0 + nt + pad_t, nx=i0 + nx + pad_x)
    region = RectRegion(n0, i0, nt, nx)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    data = np.random.default_rng(seed).standard_normal(len(boundary_nodes(region)))
    return density, mesh, region, data


def solved(density, mesh, region, data):
    """The solved field, its boundary momenta and the DEL residuals left at
    the interior nodes; a singular draw (a resonant wave rectangle) is
    rejected."""
    try:
        report = solve_bvp(density, mesh, BoundaryData(region, data))
    except SingularSystem:
        assume(False)
    ncols = mesh.nx + 1
    residual = triangle_kernel(density, report.field.values, region_index(region, ncols),
                               mesh.dt, mesh.dx).residual[interior_index(region, ncols)]
    return report, normal_momenta(density, report.field, region).values, residual


def shift_law(density, mesh, region, data):
    """(|sum_b pi_b|, its bound 4 eps sum_b |pi_b| + sum_i |r_i|)."""
    _, pi, residual = solved(density, mesh, region, data)
    return abs(pi.sum()), 4.0 * EPS * np.abs(pi).sum() + np.abs(residual).sum()


@settings(max_examples=60, deadline=None)
@given(case=dirichlet_cases([LinearWave, HarmonicDirichlet, CROSS, GRADIENT_QUARTIC]))
def test_13_noether_shift_law(case):
    """A density that does not read ubar is invariant under u -> u + c, so
    S(phi + c) = S(phi) and sum_b pi_b = 0 on every region: the discrete
    Noether theorem (Marsden, Patrick & Shkoller 1998) for that symmetry."""
    gap, bound = shift_law(*case)
    assert gap <= bound, f"|sum pi| {gap:.3e} exceeds {bound:.3e}"


def test_14_quartic_breaks_the_shift_law():
    # The negative control: the quartic test density reads ubar, so the
    # shift is no symmetry and sum_b pi_b is far outside the gate.
    mesh = build_mesh(dt=0.05, dx=0.1, nt=10, nx=12)
    region = RectRegion(0, 0, 10, 12)
    data = np.random.default_rng(14).standard_normal(len(boundary_nodes(region)))
    gap, bound = shift_law(quartic_test_density(1.0), mesh, region, data)
    assert gap > 1e6 * bound, f"|sum pi| {gap:.3e} against a bound of {bound:.3e}"


@settings(max_examples=40, deadline=None)
@given(case=dirichlet_cases([LinearWave, HarmonicDirichlet]))
def test_15_time_affine_law(case):
    """For the wave and the Dirichlet energy, u -> u + c t adds c v + c^2/2
    to L, and the sum of dt dx v / 2 over the triangles telescopes in n: so
    sum_b pi_b t_b = (dx/2) sum_i (u_top,i - u_bottom,i) over the anchor
    columns i of the region."""
    density, mesh, region, data = case
    report, pi, residual = solved(*case)
    ncols = mesh.nx + 1
    t_bd = np.array([n * mesh.dt for n, _ in boundary_nodes(region)])
    t_in = interior_index(region, ncols) // ncols * mesh.dt
    columns = slice(region.i0, region.i0 + region.nx)
    u = report.field.values
    change = u[region.n0 + region.nt, columns] - u[region.n0, columns]
    gap = abs(float(pi @ t_bd) - 0.5 * mesh.dx * change.sum())
    bound = (4.0 * EPS * (np.abs(pi * t_bd).sum() + 0.5 * mesh.dx * np.abs(change).sum())
             + np.abs(residual * t_in).sum())
    assert gap <= bound, f"time-affine gap {gap:.3e} exceeds {bound:.3e}"


@settings(max_examples=40, deadline=None)
@given(case=dirichlet_cases([LinearWave, HarmonicDirichlet, CROSS]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_16_lorentz_reciprocity(case, seed):
    """For a quadratic density pi = Lambda phi with Lambda the Hessian of S,
    which is symmetric, so sum_b pi_b(u1) u2_b = sum_b pi_b(u2) u1_b.  This
    is the paper's example of Lorentz's reciprocity principle as an instance
    of the multisymplectic form formula (Vankerschaver, Liao & Leok,
    "Generating Functionals and Lagrangian PDEs", arXiv:1111.0280, the
    Lagrangian-side derivation of the formula from the Type-I functional).
    Each momentum carries the solve's error, up to eps times the condition
    number 1 / rcond of the interior block, so the bound is 4 eps / rcond
    times the uncancelled sum."""
    density, mesh, region, data = case
    other = np.random.default_rng(seed).standard_normal(len(data))
    first, pi_1, _ = solved(*case)
    _, pi_2, _ = solved(density, mesh, region, other)
    gap = abs(float(pi_1 @ other) - float(pi_2 @ data))
    bound = 4.0 * EPS / first.rcond * np.abs(pi_1 * other).sum()
    assert gap <= bound, f"reciprocity gap {gap:.3e} exceeds {bound:.3e}"


@settings(max_examples=40, deadline=None)
@given(case=dirichlet_cases([LinearWave, HarmonicDirichlet]))
def test_17_space_affine_law(case):
    """The space counterpart of gate 15: u -> u + c x adds ww (c w + c^2/2)
    to L, and the sum of ww dt dx w / 2 over the triangles telescopes in i:
    so sum_b pi_b x_b = ww (dt/2) sum_n (u_n,i1 - u_n,i0) over the anchor
    rows n of the region, with i0 and i1 its first and last columns."""
    density, mesh, region, data = case
    report, pi, residual = solved(*case)
    ncols = mesh.nx + 1
    x_bd = np.array([i * mesh.dx for _, i in boundary_nodes(region)])
    x_in = interior_index(region, ncols) % ncols * mesh.dx
    rows = slice(region.n0, region.n0 + region.nt)
    u = report.field.values
    change = u[rows, region.i0 + region.nx] - u[rows, region.i0]
    gap = abs(float(pi @ x_bd) - density.ww * 0.5 * mesh.dt * change.sum())
    bound = (4.0 * EPS * (np.abs(pi * x_bd).sum() + 0.5 * mesh.dt * np.abs(change).sum())
             + np.abs(residual * x_in).sum())
    assert gap <= bound, f"space-affine gap {gap:.3e} exceeds {bound:.3e}"
