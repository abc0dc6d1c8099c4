"""Seeded check workloads of the mslab benchmark.

A workload is a list of checks.  ``build(workload, seed, tmp_dir)`` draws
every input from the seed and writes the CLI config files into ``tmp_dir``;
mslab receives only those generated inputs.  Each check returns a
``CheckOutcome``: the ``results`` block that must repeat bit for bit within a
run, and the list of ways in which it missed its expected outcome or an
independent-route tolerance.

Checks call mslab through module attributes (``mslab.solve_bvp``,
``mslab.cli.main``) at call time, so a traced run sees every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("msff-wave", "square-ladder", "nonlinear-genfunc")

# Expected CLI exit codes (README "Exit codes").
EXIT_OK = 0
EXIT_SOLVER = 3

# Independent-route tolerances, each no looser than the tier-1 gate of the
# same relation (file and test named beside it).
FD_MOMENTUM_TOL = 1e-10      # test_acceptance.py::test_06
LEGENDRE_TOL = 1e-12         # test_genfunc.py::test_legendre_relation_exact
TYPE2_RECOVERY_TOL = 1e-9    # test_genfunc.py::test_recovers_generating_field
COLLOCATION_LD_TOL = 1e-10   # test_acceptance.py::test_07 (oscillator sweep)
COLLOCATION_H_TOL = 1e-12    # test_mechanics.py::test_type2_identity_with_lagrangian
ASYM_ANALYTIC_TOL = 1e-12    # test_acceptance.py::test_05
ASYM_FD_TOL = 1e-6           # test_acceptance.py::test_05

WAVE_SOLUTIONS = ("cubic", "bilinear", "travelling:2", "travelling:3",
                  "standing:1", "standing:2")


@dataclass
class CheckOutcome:
    results: object
    problems: list = field(default_factory=list)
    report_bytes: int = 0


@dataclass
class Check:
    name: str
    run: Callable[[], CheckOutcome]


# Mesh sizes per workload; ``small`` is the reduced size the benchmark's own
# tests run.
SIZES = {
    "full": {"msff_n": 80, "singular_n": 6, "ladder": [16, 32, 64, 96],
             "quartic_n": 20, "fd_n": 4, "harmonic_n": 48, "ld_points": 100,
             "h_points": 40},
    "small": {"msff_n": 10, "singular_n": 4, "ladder": [8, 16],
              "quartic_n": 6, "fd_n": 3, "harmonic_n": 8, "ld_points": 5,
              "h_points": 3},
}


def build(workload: str, seed: int, tmp_dir: Path, *, small: bool = False) -> list:
    """The checks of ``workload`` with inputs drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    sizes = SIZES["small" if small else "full"]
    tmp_dir = Path(tmp_dir)
    if workload == "msff-wave":
        return _msff_wave(rng, sizes, tmp_dir)
    if workload == "square-ladder":
        return _square_ladder(rng, sizes, tmp_dir)
    if workload == "nonlinear-genfunc":
        return _nonlinear_genfunc(rng, sizes, tmp_dir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_config(tmp_dir: Path, name: str, config: dict) -> str:
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config, sort_keys=True))
    return str(path)


def _cli_check(name: str, command: str, config_path: str, seed: int,
               expect_exit: int, out_dir=None) -> Check:
    argv = [command, "--config", config_path, "--seed", str(seed)]
    if out_dir is not None:
        argv += ["--out", str(out_dir)]

    def run() -> CheckOutcome:
        import mslab.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mslab.cli.main(argv)
        text = out.getvalue()
        problems = []
        if code != expect_exit:
            problems.append(f"exit code {code}, expected {expect_exit}: "
                            f"{err.getvalue().strip()}")
        if expect_exit == EXIT_OK:
            report = json.loads(text) if text.strip() else {}
            if report.get("passed") is not True:
                problems.append("report does not say passed: true")
            results = report.get("results")
        else:
            results = {"exit_code": code, "stderr": err.getvalue()}
        return CheckOutcome(results, problems, report_bytes=len(text.encode()))

    return Check(name, run)


# ---------------------------------------------------------------------------
# msff-wave: propagate, tangent solves, per-node form sums, CSV dumps


def _msff_wave(rng, sizes, tmp_dir: Path) -> list:
    n = sizes["msff_n"]
    dx = 1.0 / n
    mesh = {"dt": 0.5 * dx, "dx": dx, "nt": n, "nx": n}
    msff = _write_config(tmp_dir, "msff", {
        "mesh": mesh, "density": "linear_wave",
        "closure": {"fixed": [float(v) for v in rng.uniform(-0.1, 0.1, 2)]},
        "amplitude": float(rng.uniform(0.05, 0.2))})
    bridges = _write_config(tmp_dir, "bridges", {
        "mode": "conservation", "mesh": mesh,
        "amplitude": float(rng.uniform(0.05, 0.2))})
    m = sizes["singular_n"]
    singular = _write_config(tmp_dir, "singular", {
        "mode": "bvp-singularity",
        "mesh": {"dt": 1.0 / m, "dx": 1.0 / m, "nt": m, "nx": m},
        "amplitude": float(rng.uniform(0.05, 0.2))})
    return [
        _cli_check("msff-check", "msff-check", msff, _cli_seed(rng), EXIT_OK,
                   out_dir=tmp_dir / "msff_out"),
        _cli_check("bridges-conservation", "bridges-check", bridges,
                   _cli_seed(rng), EXIT_OK),
        _cli_check("bvp-singularity", "bridges-check", singular,
                   _cli_seed(rng), EXIT_SOLVER),
    ]


# ---------------------------------------------------------------------------
# square-ladder: large Dirichlet solves, region actions, oracles


def _square_ladder(rng, sizes, tmp_dir: Path) -> list:
    square = _write_config(tmp_dir, "square", {
        "problem": "wave_square",
        "solution": WAVE_SOLUTIONS[int(rng.integers(len(WAVE_SOLUTIONS)))],
        "nx_ladder": sizes["ladder"], "time_step_ratio": 0.5,
        "min_order": 0.9})
    modes = int(rng.integers(1, 5))
    disc = _write_config(tmp_dir, "disc", {
        "problem": "disc",
        "fourier": {"a0": float(rng.standard_normal()),
                    "a": [float(v) for v in rng.standard_normal(modes)],
                    "b": [float(v) for v in rng.standard_normal(modes)]}})
    return [
        _cli_check("wave-square", "boundary-lagrangian", square,
                   _cli_seed(rng), EXIT_OK),
        _cli_check("disc", "boundary-lagrangian", disc, _cli_seed(rng), EXIT_OK),
    ]


# ---------------------------------------------------------------------------
# nonlinear-genfunc: dual numbers, collocation, the dense Schur route


def _nonlinear_genfunc(rng, sizes, tmp_dir: Path) -> list:
    checks = [
        _quartic_momenta(rng, sizes["quartic_n"]),
        _quartic_fd_symmetry(rng, sizes["fd_n"]),
        _harmonic_type2(rng, sizes["harmonic_n"]),
        _collocation_ld(rng, sizes["ld_points"]),
        _collocation_hamiltonian(rng, sizes["h_points"]),
    ]
    # For omega above 1 the coarsest step (h = 0.4) is outside the asymptotic
    # range for some initial points, and the fitted order can leave the
    # CLI's window of 0.15.
    omega = float(rng.uniform(0.5, 1.0))
    for rule in ("midpoint", "rectangle"):
        path = _write_config(tmp_dir, f"mechanics_{rule}", {
            "rule": rule, "problem": {"kind": "harmonic", "omega": omega},
            "z0": [float(v) for v in rng.uniform(-1.0, 1.0, 2)],
            "h_ladder": [0.4, 0.2, 0.1, 0.05, 0.025]})
        checks.append(_cli_check(f"mechanics-{rule}", "mechanics", path,
                                 _cli_seed(rng), EXIT_OK))
    return checks


def _rect_setup(n: int):
    """Mesh with dt/dx = 0.5 on the unit square and its full rectangle."""
    import mslab

    mesh = mslab.build_mesh(dt=0.5 / n, dx=1.0 / n, nt=n, nx=n)
    return mesh, mslab.RectRegion(0, 0, n, n)


# The quartic checks draw only boundary data from the seed.  At this strength
# and amplitude most seeds take the same number of Newton iterations, so the
# work of a pass hardly depends on the seed.
QUARTIC_STRENGTH = 1.0
QUARTIC_AMPLITUDE = 0.1


def _quartic_momenta(rng, n: int) -> Check:
    values = QUARTIC_AMPLITUDE * rng.standard_normal(4 * n)
    # Probes skip two corners: (n, n), boundary node 2n, lies in no triangle,
    # so its momentum is identically zero; (0, 0), node 0, enters no interior
    # equation, so its perturbed solves would take no Newton step and the
    # pass would do less work than on other seeds.
    probes = [int(k) for k in rng.choice([k for k in range(1, 4 * n) if k != 2 * n],
                                         size=2, replace=False)]
    # Small enough that each warm-started solve converges in one Newton
    # step, large enough that round-off in the action difference stays
    # far below the tolerance.
    eps = 2e-4

    def run() -> CheckOutcome:
        import mslab

        density = mslab.quartic_test_density(QUARTIC_STRENGTH)
        mesh, region = _rect_setup(n)
        data = mslab.BoundaryData(region, values)
        base = mslab.boundary_lagrangian(density, mesh, data)
        momenta = mslab.normal_momenta(density, base.report.field, region)
        fd = []
        for idx in probes:
            plus = mslab.boundary_lagrangian(density, mesh, data.perturbed(idx, eps),
                                             initial=base.report.field)
            minus = mslab.boundary_lagrangian(density, mesh, data.perturbed(idx, -eps),
                                              initial=base.report.field)
            fd.append((plus.value - minus.value) / (2.0 * eps))
        gaps = [abs(d - momenta.values[idx]) for d, idx in zip(fd, probes)]
        problems = [f"FD momentum gap {max(gaps):.3e} > {FD_MOMENTUM_TOL:.0e}"
                    ] if max(gaps) > FD_MOMENTUM_TOL else []
        return CheckOutcome({"action": base.value,
                             "momenta": momenta.values.tolist(),
                             "fd_momenta": fd, "gaps": gaps}, problems)

    return Check("quartic-momenta", run)


def _quartic_fd_symmetry(rng, n: int) -> Check:
    values = QUARTIC_AMPLITUDE * rng.standard_normal(4 * n)

    def run() -> CheckOutcome:
        import mslab

        mesh, region = _rect_setup(n)
        rep = mslab.hessian_symmetry(mslab.quartic_test_density(QUARTIC_STRENGTH), mesh,
                                     mslab.BoundaryData(region, values), method="fd")
        problems = [f"fd Hessian asymmetry {rep.max_asymmetry:.3e} > {ASYM_FD_TOL:.0e}"
                    ] if rep.max_asymmetry > ASYM_FD_TOL else []
        return CheckOutcome({"max_asymmetry": rep.max_asymmetry,
                             "hessian": rep.hessian.tolist()}, problems)

    return Check("quartic-fd-symmetry", run)


def _harmonic_type2(rng, n: int) -> Check:
    values = 0.3 * rng.standard_normal(4 * n)

    def run() -> CheckOutcome:
        import mslab

        density = mslab.HarmonicDirichlet
        mesh, region = _rect_setup(n)
        data = mslab.BoundaryData(region, values)
        sym = mslab.hessian_symmetry(density, mesh, data, method="analytic")
        ref = mslab.solve_bvp(density, mesh, data)
        mixed = mslab.type2_data_from_field(density, ref.field, region)
        ham = mslab.boundary_hamiltonian(density, mesh, mixed)
        action = mslab.region_action(density, ham.field, region)
        pairing = sum(pi * ham.field[nd] for nd, pi in mixed.momenta.items())
        legendre_gap = abs(ham.value + action - pairing)
        recovery_gap = float(np.max(np.abs(ham.field.values - ref.field.values)))
        problems = []
        if sym.max_asymmetry > ASYM_ANALYTIC_TOL:
            problems.append(f"analytic Hessian asymmetry {sym.max_asymmetry:.3e} "
                            f"> {ASYM_ANALYTIC_TOL:.0e}")
        if legendre_gap > LEGENDRE_TOL:
            problems.append(f"Legendre relation gap {legendre_gap:.3e} "
                            f"> {LEGENDRE_TOL:.0e}")
        if recovery_gap > TYPE2_RECOVERY_TOL:
            problems.append(f"type-II solve misses the Dirichlet field by "
                            f"{recovery_gap:.3e} > {TYPE2_RECOVERY_TOL:.0e}")
        return CheckOutcome({"max_asymmetry": sym.max_asymmetry,
                             "hessian_trace": float(np.trace(sym.hessian)),
                             "bvp_iterations": ref.iterations,
                             "hamiltonian": ham.value, "action": action,
                             "legendre_gap": legendre_gap,
                             "recovery_gap": recovery_gap}, problems)

    return Check("harmonic-type2", run)


def _flow_points(rng, count: int):
    """(omega, q0, p0, h) with h inside the oscillator's conjugate time."""
    omega = float(rng.uniform(0.5, 1.5))
    q0 = rng.uniform(-1.0, 1.0, count)
    p0 = rng.uniform(-1.0, 1.0, count)
    h = rng.uniform(0.01, 1.0, count)
    return omega, list(zip(q0.tolist(), p0.tolist(), h.tolist()))


def _collocation_ld(rng, count: int) -> Check:
    omega, points = _flow_points(rng, count)

    def run() -> CheckOutcome:
        import mslab

        ho = mslab.HarmonicOscillator(omega)
        values, gaps = [], []
        for q0, p0, h in points:
            q1 = ho.exact_flow(mslab.PhasePoint(q0, p0), h).q
            value = mslab.exact_discrete_lagrangian(ho, q0, q1, h)
            values.append(value)
            gaps.append(abs(value - ho.exact_ld(q0, q1, h)))
        problems = [f"collocation Ld gap {max(gaps):.3e} > {COLLOCATION_LD_TOL:.0e}"
                    ] if max(gaps) > COLLOCATION_LD_TOL else []
        return CheckOutcome({"values": values, "gaps": gaps}, problems)

    return Check("collocation-ld", run)


def _collocation_hamiltonian(rng, count: int) -> Check:
    omega, points = _flow_points(rng, count)

    def run() -> CheckOutcome:
        import mslab

        ho = mslab.HarmonicOscillator(omega)
        h_fn = mslab.harmonic_hamiltonian(omega)
        values, gaps = [], []
        for q0, p0, h in points:
            z1 = ho.exact_flow(mslab.PhasePoint(q0, p0), h)
            value = mslab.exact_discrete_hamiltonian(h_fn, q0, z1.p, h)
            values.append(value)
            gaps.append(abs(value - (z1.p * z1.q - ho.exact_ld(q0, z1.q, h))))
        problems = [f"collocation H gap {max(gaps):.3e} > {COLLOCATION_H_TOL:.0e}"
                    ] if max(gaps) > COLLOCATION_H_TOL else []
        return CheckOutcome({"values": values, "gaps": gaps}, problems)

    return Check("collocation-hamiltonian", run)


def results_key(results) -> str:
    """Canonical text of a results block.  ``json`` writes floats with
    ``repr``, so equal text means bit-identical values."""
    return json.dumps(results, sort_keys=True)
