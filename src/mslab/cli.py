"""Command-line interface: config-driven check runs with JSON reports.

Subcommands
-----------
``msff-check``
    Propagate a seeded base field, solve two independent first variations,
    and evaluate the discrete two-form patch identity at every interior
    node, plus a region sum and a deliberate negative control.
``bridges-check``
    ``conservation`` mode: periodic wave variations, per-node conservation
    residual and per-slice symplectic flux spread.  ``bvp-singularity``
    mode: attempt a Dirichlet solve on a unit-ratio mesh, demonstrating the
    singular-system guard (exits with the solver-error code).
``boundary-lagrangian``
    ``disc``: closed-form vs quadrature boundary Lagrangian of the Dirichlet
    energy on the unit disc.  ``wave_square``: closed-form edge integral vs
    reconstructed bulk action on the unit square, plus a mesh-refinement
    ladder of the discrete extremal action with an observed-order fit.
``mechanics``
    Convergence-order study of a one-step discrete-Lagrangian family
    (midpoint or rectangle) against the exact flow.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 bad
configuration, 3 solver failure (non-convergence or singular system).

Reports are JSON with sorted keys; for a fixed config file and seed every
field outside the ``metadata`` block is bit-identical across runs.  With
``--out`` the report and any field dumps (``n,i,u`` CSVs) are written to the
given directory.  The environment variable ``MSLAB_THREADS`` caps the worker
threads used for ladder sweeps (default 1; results are order-preserving and
identical regardless of the cap).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import delsolve, genfunc, jetmesh, mechanics, msforms, oracles
from .delsolve import SolverError
from .lagrangian import LinearWave, density_from_json

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(path: str) -> tuple:
    """The config object to consume with :func:`_take`, and a copy to report."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(obj).__name__}")
    return obj, dict(obj)


def _take(cfg: dict, key: str, default=None, *, required: bool = False):
    if key in cfg:
        return cfg.pop(key)
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _number(value, key: str, kind=float):
    """``kind(value)`` for config key ``key``; ConfigError unless finite."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key!r} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    if out != float(value):  # int() dropped a fractional part
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return out


def _reject_extra(cfg: dict, context: str) -> None:
    if cfg:
        raise ConfigError(f"unknown {context} config keys: {sorted(cfg)}")


def _mesh_from_config(obj) -> jetmesh.QuadMesh:
    if not isinstance(obj, dict):
        raise ConfigError(f"'mesh' must be an object, got {obj!r}")
    cfg = dict(obj)
    sizes = {key: _take(cfg, key, required=True) for key in ("dt", "dx", "nt", "nx")}
    _reject_extra(cfg, "mesh")
    return _parsed("mesh parameters", jetmesh.build_mesh, **sizes)


def _parsed(what: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``; a TypeError or ValueError becomes a
    ConfigError naming ``what``."""
    try:
        return parse(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _thread_cap() -> int:
    raw = os.environ.get("MSLAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MSLAB_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"MSLAB_THREADS must be >= 1, got {cap}")
    return cap


def _map_ladder(fn, items):
    """Apply ``fn`` over ladder entries, order-preserving, thread cap aware."""
    items = list(items)
    cap = min(_thread_cap(), len(items))
    if cap <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Report plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not math.isfinite(val):
            return repr(val)
        return val
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialise {type(obj).__name__} into a report")


def _emit_report(command: str, config: dict, seed, results: dict,
                 passed: bool, out_dir) -> int:
    """Print (and with ``out_dir`` write) the report; returns the exit code."""
    report = {
        "command": command,
        "config": _jsonable(config),
        "seed": seed,
        "results": _jsonable(results),
        "passed": bool(passed),
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{command}_report.json").write_text(text + "\n")
    return EXIT_OK if passed else EXIT_TOLERANCE


def _dump_fields(out_dir, **fields) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, field in fields.items():
        jetmesh.field_to_csv(field, out / f"{name}.csv")


def _seeded_rows(mesh: jetmesh.QuadMesh, rng: np.random.Generator,
                 amplitude: float, closure) -> tuple:
    """Two seeded rows; a fixed closure's end values replace their ends."""
    with np.errstate(over="ignore"):
        row0 = amplitude * rng.standard_normal(mesh.nx + 1)
        row1 = row0 + mesh.dt * amplitude * rng.standard_normal(mesh.nx + 1)
    if not (np.isfinite(row0).all() and np.isfinite(row1).all()):
        raise ConfigError(f"'amplitude' {amplitude!r} overflows the seeded rows")
    if isinstance(closure, delsolve.FixedClosure):
        for idx, row in ((0, row0), (1, row1)):
            row[0], row[-1] = closure.end_values(idx)
    return row0, row1


# ---------------------------------------------------------------------------
# msff-check


def _cmd_msff_check(args) -> int:
    cfg, raw = _load_config(args.config)
    mesh = _mesh_from_config(_take(cfg, "mesh", required=True))
    density = _parsed("density", density_from_json, _take(cfg, "density", "linear_wave"))
    closure = _parsed("closure", delsolve.parse_closure,
                      _take(cfg, "closure", {"fixed": [0.0, 0.0]}))
    amplitude = _number(_take(cfg, "amplitude", 0.1), "amplitude")
    _reject_extra(cfg, "msff-check")
    if mesh.nt < 2 or mesh.nx < 2:
        raise ConfigError("msff-check needs nt >= 2 and nx >= 2 for interior patches")
    tol = args.tol if args.tol is not None else 1e-9
    control_floor = 1e-6

    streams = np.random.SeedSequence(args.seed).spawn(3)
    rng_u, rng_v, rng_w = (np.random.default_rng(s) for s in streams)

    field = delsolve.propagate(density, mesh,
                               *_seeded_rows(mesh, rng_u, amplitude, closure), closure)

    region = jetmesh.RectRegion(0, 0, mesh.nt, mesh.nx)
    n_bd = len(jetmesh.boundary_nodes(region))
    v_var, w_var = delsolve.tangent_solve(
        density, field, region,
        [jetmesh.BoundaryData(region, amplitude * rng.standard_normal(n_bd))
         for rng in (rng_v, rng_w)])

    patch = np.abs(msforms.msff_patch_residuals(density, field, v_var, w_var, region))
    k = int(np.argmax(patch))
    worst = float(patch[k])
    worst_node = list(jetmesh.interior_nodes(region)[k]) if worst > 0.0 else None
    region_rep = msforms.msff_residual_region(density, field, v_var, w_var, region)

    centre = (mesh.nt // 2, mesh.nx // 2)
    w_bad = w_var.with_value(*centre, w_var[centre] + 1.0)
    control = abs(msforms.msff_residual_patch(density, field, v_var, w_bad,
                                              *centre).residual)

    passed = (worst <= tol and abs(region_rep.residual) <= tol * 10.0
              and control > control_floor)
    results = {
        "max_patch_residual": worst,
        "worst_patch_node": worst_node,
        "region_residual": region_rep.residual,
        "region_max_term": region_rep.max_term,
        "negative_control": control,
        "negative_control_floor": control_floor,
        "tolerance": tol,
        "n_interior_nodes": (mesh.nt - 1) * (mesh.nx - 1),
    }
    _dump_fields(args.out, base_field=field, variation_v=v_var, variation_w=w_var)
    return _emit_report("msff-check", raw, args.seed, results, passed, args.out)


# ---------------------------------------------------------------------------
# bridges-check


def _cmd_bridges_check(args) -> int:
    cfg, raw = _load_config(args.config)
    mode = _take(cfg, "mode", "conservation")
    if mode not in ("conservation", "bvp-singularity"):
        raise ConfigError(f"unknown bridges-check mode {mode!r}")
    mesh = _mesh_from_config(_take(cfg, "mesh", required=True))
    amplitude = _number(_take(cfg, "amplitude", 0.1), "amplitude")
    _reject_extra(cfg, "bridges-check")
    if mode == "conservation":
        tol = args.tol if args.tol is not None else 1e-10
        closure = delsolve.PeriodicClosure()

        streams = np.random.SeedSequence(args.seed).spawn(2)
        rngs = [np.random.default_rng(s) for s in streams]
        v_var, w_var = (delsolve.propagate(LinearWave, mesh,
                                           *_seeded_rows(mesh, rng, amplitude, closure),
                                           closure) for rng in rngs)

        residuals = msforms.bridges_residuals(mesh, v_var, w_var, periodic=True)
        worst = float(np.max(np.abs(residuals), initial=0.0))
        fluxes = [msforms.symplectic_flux(mesh, v_var, w_var, n)
                  for n in range(mesh.nt)]
        spread = max(fluxes) - min(fluxes)
        passed = worst <= tol and spread <= tol
        results = {
            "max_node_residual": worst,
            "flux_per_slice": fluxes,
            "flux_spread": spread,
            "tolerance": tol,
        }
        _dump_fields(args.out, variation_v=v_var, variation_w=w_var)
        return _emit_report("bridges-check", raw, args.seed, results, passed, args.out)

    region = jetmesh.RectRegion(0, 0, mesh.nt, mesh.nx)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    with np.errstate(over="ignore"):
        values = amplitude * rng.standard_normal(len(jetmesh.boundary_nodes(region)))
    boundary = _parsed("seeded boundary data", jetmesh.BoundaryData, region, values)
    # A unit mesh ratio makes the Dirichlet system structurally singular;
    # the guard below is expected to raise and surface as the solver exit
    # code.  If the solve succeeds the demonstration failed.
    delsolve.solve_bvp(LinearWave, mesh, boundary)
    results = {
        "singular": False,
        "mesh_ratio": mesh.aspect_ratio,
        "note": "solve succeeded; no singularity at this mesh ratio",
    }
    return _emit_report("bridges-check", raw, args.seed, results, False, args.out)


# ---------------------------------------------------------------------------
# boundary-lagrangian


def _wave_square_mesh(nx: int, ratio: float) -> jetmesh.QuadMesh:
    dx = 1.0 / nx
    dt = ratio * dx
    nt = round(1.0 / dt)
    if abs(nt * dt - 1.0) > 1e-12:
        raise ConfigError(
            f"time step ratio {ratio} does not tile the unit square at nx={nx}")
    return jetmesh.build_mesh(dt=dt, dx=dx, nt=nt, nx=nx)


def _extremal_action_on_square(solution: oracles.WaveSolution, nx: int,
                               ratio: float) -> float:
    """Twice the discrete extremal action with exact-trace Dirichlet data.

    The one-triangle-per-cell layout covers half the area measure, so the
    doubled sum is the quantity that converges to the continuum action.
    """
    mesh = _wave_square_mesh(nx, ratio)
    region = jetmesh.RectRegion(0, 0, mesh.nt, mesh.nx)
    values = [solution.value(n * mesh.dt, i * mesh.dx)
              for (n, i) in jetmesh.boundary_nodes(region)]
    boundary = jetmesh.BoundaryData(region, values)
    result = genfunc.boundary_lagrangian(LinearWave, mesh, boundary)
    return 2.0 * result.value


def _cmd_boundary_lagrangian(args) -> int:
    cfg, raw = _load_config(args.config)
    problem = _take(cfg, "problem", required=True)

    if problem == "disc":
        fourier = _take(cfg, "fourier", required=True)
        _reject_extra(cfg, "boundary-lagrangian")
        tol = args.tol if args.tol is not None else 1e-8
        try:
            data = oracles.FourierBoundaryData.from_json(fourier)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        quad_val = _parsed("Fourier data", oracles.disc_boundary_lagrangian_quadrature,
                           data)
        ext = oracles.harmonic_extension_disc(data)
        gap = abs(ext.boundary_lagrangian - quad_val)
        passed = gap <= tol
        results = {
            "closed_form": ext.boundary_lagrangian,
            "quadrature": quad_val,
            "route_gap": gap,
            "normal_derivative_modes": ext.dtn.to_json(),
            "tolerance": tol,
        }
        return _emit_report("boundary-lagrangian", raw, args.seed, results,
                            passed, args.out)

    if problem == "wave_square":
        name = _take(cfg, "solution", "cubic")
        ladder = _take(cfg, "nx_ladder", [8, 16, 32, 64])
        ratio = _number(_take(cfg, "time_step_ratio", 0.5), "time_step_ratio")
        min_order = _number(_take(cfg, "min_order", 0.9), "min_order")
        _reject_extra(cfg, "boundary-lagrangian")
        tol = args.tol if args.tol is not None else 1e-8
        if not isinstance(ladder, list) or len(ladder) < 2:
            raise ConfigError("'nx_ladder' must list at least two mesh sizes")
        if not 0.0 < ratio < 1.0:
            raise ConfigError(f"time step ratio must lie in (0, 1), got {ratio}")
        try:
            solution = oracles.wave_exact_solutions(str(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        traces = solution.trace_square()
        compat = oracles.compatibility_residual(traces)
        continuum = oracles.wave_square_boundary_lagrangian(traces)

        sizes = [_number(v, "nx_ladder", int) for v in ladder]
        values = _map_ladder(
            lambda nx: _extremal_action_on_square(solution, nx, ratio), sizes)
        errors = [abs(v - continuum.action_value) for v in values]
        order = mechanics._fit_order([1.0 / nx for nx in sizes], errors)

        passed = (continuum.magnitude_gap <= tol and compat <= 1e-10
                  and order >= min_order)
        results = {
            "closed_form": continuum.formula_value,
            "bulk_action": continuum.action_value,
            "magnitude_gap": continuum.magnitude_gap,
            "compatibility_residual": compat,
            "reconstruction_residual": continuum.solution.fit_residual,
            "nx_ladder": sizes,
            "doubled_extremal_actions": values,
            "action_errors": errors,
            "observed_order": order,
            "min_order": min_order,
            "tolerance": tol,
        }
        return _emit_report("boundary-lagrangian", raw, args.seed, results,
                            passed, args.out)

    raise ConfigError(f"unknown boundary-lagrangian problem {problem!r}")


# ---------------------------------------------------------------------------
# mechanics


def _mech_lagrangian_from_config(obj):
    if obj == "free":
        return mechanics.FreeParticle()
    if isinstance(obj, dict):
        cfg = dict(obj)
        kind = _take(cfg, "kind", required=True)
        if kind == "free":
            _reject_extra(cfg, "problem")
            return mechanics.FreeParticle()
        if kind == "harmonic":
            omega = _number(_take(cfg, "omega", 1.0), "omega")
            _reject_extra(cfg, "problem")
            if omega <= 0.0:
                raise ConfigError(f"harmonic frequency must be positive, got {omega}")
            return mechanics.HarmonicOscillator(omega)
        raise ConfigError(f"unknown mechanics problem kind {kind!r}")
    raise ConfigError(f"bad mechanics problem description {obj!r}")


_EXPECTED_MAP_ORDER = {"midpoint": 2.0, "rectangle": 1.0}


def _cmd_mechanics(args) -> int:
    cfg, raw = _load_config(args.config)
    rule = _take(cfg, "rule", required=True)
    problem = _take(cfg, "problem", {"kind": "harmonic", "omega": 1.0})
    z0 = _take(cfg, "z0", [0.7, 0.4])
    ladder = _take(cfg, "h_ladder", [0.4, 0.2, 0.1, 0.05, 0.025])
    _reject_extra(cfg, "mechanics")
    if rule not in _EXPECTED_MAP_ORDER:
        raise ConfigError(f"unknown quadrature rule {rule!r}; "
                          f"choose from {sorted(_EXPECTED_MAP_ORDER)}")
    if not isinstance(ladder, list) or len(ladder) < 3:
        raise ConfigError("'h_ladder' must list at least three step sizes")
    if not (isinstance(z0, list) and len(z0) == 2):
        raise ConfigError("'z0' must be a [position, momentum] pair")
    window = args.tol if args.tol is not None else 0.15

    lagr = _mech_lagrangian_from_config(problem)
    h_values = [_number(h, "h_ladder") for h in ladder]
    for h in h_values:
        if not 0.0 < h < lagr.conjugate_time:
            raise ConfigError(
                f"step {h} outside the valid range (0, {lagr.conjugate_time})")
    family = {"midpoint": mechanics.midpoint_rule,
              "rectangle": mechanics.rectangle_rule}[rule](lagr)
    start = mechanics.PhasePoint(*(_number(z, "z0") for z in z0))
    report = mechanics.variational_order_check(family, lagr, start, h_values)
    expected = _EXPECTED_MAP_ORDER[rule]
    # An infinite fitted order marks a family that is exact on this problem
    # (errors at round-off for every h); that trivially clears the bar.
    passed = (math.isinf(report.map_order)
              or abs(report.map_order - expected) <= window)
    results = {
        "rule": rule,
        "lagrangian": lagr.name,
        "h_ladder": h_values,
        "functional_errors": list(report.functional_errors),
        "map_errors": list(report.map_errors),
        "functional_order": report.functional_order,
        "map_order": report.map_order,
        "expected_map_order": expected,
        "order_window": window,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["h,functional_error,map_error"]
        lines += [f"{h!r},{ef!r},{em!r}" for h, ef, em in
                  zip(h_values, report.functional_errors, report.map_errors)]
        (out / "mechanics_ladder.csv").write_text("\n".join(lines) + "\n")
    return _emit_report("mechanics", raw, args.seed, results, passed, args.out)


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Variational mesh checks: two-form identities, "
                    "conservation residuals, boundary Lagrangians and "
                    "one-step map order studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("msff-check", _cmd_msff_check,
         "patch two-form cancellation on a propagated field"),
        ("bridges-check", _cmd_bridges_check,
         "conservation residuals or the singular-mesh demonstration"),
        ("boundary-lagrangian", _cmd_boundary_lagrangian,
         "boundary functionals of the disc and unit-square model problems"),
        ("mechanics", _cmd_mechanics,
         "order study for one-step discrete-Lagrangian families"),
    ]
    for name, handler, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=0,
                       help="root seed for all random draws (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the subcommand's default tolerance")
        p.add_argument("--out", default=None,
                       help="directory for the JSON report and CSV dumps")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"mslab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"mslab: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
