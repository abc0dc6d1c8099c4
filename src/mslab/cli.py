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
configuration (among them a negative ``--seed``, a negative or non-finite
``--tol``, and a config that asks for more than ``MAX_WORK`` mesh nodes plus
map steps, checked before any work), 3 solver failure (non-convergence, a
singular system, a float overflow or invalid operation where no solver step
expects one, named by the innermost mslab function it passed through, or a
solved field that fails the DEL-solution test of :mod:`~mslab.delsolve`,
which no field the solvers return should).  Exits 2 and 3 print one
``mslab: ...`` line to stderr and no report.  The ``disc`` gate is the tolerance or 64
ulps of the bound of the terms both routes sum, whichever is larger; that is
the reported ``tolerance``.

Each subcommand handler only computes: it takes and checks its own config
keys, then returns its ``results``, whether they passed, and the files it
has for ``--out``.  :func:`main` owns the rest of a run: it loads the config,
writes those files and then the report under ``--out``, and prints the
report.  Reports are JSON with sorted keys; for a fixed config file and seed
every field outside the ``metadata`` block is bit-identical across runs.
Field dumps are ``n,i,u`` CSVs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import traceback
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import delsolve, jetmesh, mechanics, msforms, oracles
from .delsolve import SolverError
from .lagrangian import LinearWave, _action_sum, density_from_json

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
# The most mesh nodes plus map steps one config may ask for; a 200 x 200
# msff-check, about 4e4 nodes, peaks near 180 MB.
MAX_WORK = 100_000


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
    except RecursionError:
        raise ConfigError(f"config file {path!r} is nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(obj).__name__}")
    _reject_booleans(obj)
    return obj, dict(obj)


def _reject_booleans(obj) -> None:
    """ConfigError naming the key of the first boolean in ``obj`` (a list's
    items go by its key): no key takes one, and ``float()``/``int()`` would
    read ``true`` as 1.  The walk keeps its own stack, so it reaches every
    depth that ``json.loads`` does."""
    todo = [(None, obj)]
    while todo:
        key, obj = todo.pop()
        if isinstance(obj, bool):
            raise ConfigError(f"{key!r} must not be a boolean, got {json.dumps(obj)}")
        todo.extend(reversed(obj.items() if isinstance(obj, dict)
                             else [(key, v) for v in obj] if isinstance(obj, list) else ()))


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


def _check_work(count: float, key: str) -> None:
    """ConfigError unless the ``count`` mesh nodes or map steps that config
    key ``key`` asks for are at most ``MAX_WORK``; checked before any work."""
    if not count <= MAX_WORK:
        raise ConfigError(f"{key!r} asks for {count:.3g} mesh nodes or map steps, "
                          f"more than the cap of {MAX_WORK}")


def _reject_extra(cfg: dict, context: str) -> None:
    if cfg:
        raise ConfigError(f"unknown {context} config keys: {sorted(cfg)}")


def _mesh_from_config(obj) -> jetmesh.QuadMesh:
    if not isinstance(obj, dict):
        raise ConfigError(f"'mesh' must be an object, got {obj!r}")
    cfg = dict(obj)
    sizes = {key: _take(cfg, key, required=True) for key in ("dt", "dx", "nt", "nx")}
    _reject_extra(cfg, "mesh")
    mesh = _parsed("mesh parameters", jetmesh.build_mesh, **sizes)
    _check_work((mesh.nt + 1) * (mesh.nx + 1), "mesh")
    return mesh


def _parsed(what: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``; a TypeError or ValueError becomes a
    ConfigError naming ``what``."""
    try:
        return parse(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _solved(name: str, check, *args, **kwargs):
    """``check(*args, **kwargs)`` on fields the solvers made; its ValueError
    (a field fails the DEL-solution test at a node, at the level at which
    the Newton solves stop) becomes a SolverError naming ``name``.  It
    guards against a solver fault: every solved field should pass."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise SolverError(f"{name}: {exc}") from None


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
        return val if math.isfinite(val) else repr(val)
    raise TypeError(f"cannot serialise {type(obj).__name__} into a report")


def _write_files(out_dir, files: dict) -> None:
    """Write each of ``files`` into ``out_dir``, in order: a
    :class:`~mslab.jetmesh.DiscreteField` as a CSV dump, text as it is."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        if isinstance(data, str):
            (out / name).write_text(data)
        else:
            jetmesh.field_to_csv(data, out / name)


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


def _cmd_msff_check(cfg: dict, args) -> tuple:
    mesh = _mesh_from_config(_take(cfg, "mesh", required=True))
    density = _parsed("density", density_from_json, _take(cfg, "density", "linear_wave"))
    closure = _parsed("closure", delsolve.parse_closure,
                      _take(cfg, "closure", {"fixed": [0.0, 0.0]}))
    amplitude = _number(_take(cfg, "amplitude", 0.1), "amplitude")
    _reject_extra(cfg, "msff-check")
    if mesh.nt < 2 or mesh.nx < 2:
        raise ConfigError("msff-check needs nt >= 2 and nx >= 2 for interior patches")
    control_floor = 1e-6

    streams = np.random.SeedSequence(args.seed).spawn(3)
    rng_u, rng_v, rng_w = (np.random.default_rng(s) for s in streams)

    field = delsolve.propagate(density, mesh,
                               *_seeded_rows(mesh, rng_u, amplitude, closure), closure)

    region = jetmesh.RectRegion(0, 0, mesh.nt, mesh.nx)
    n_bd = len(jetmesh.boundary_nodes(region))
    v_var, w_var = _solved(
        "tangent_solve", delsolve.tangent_solve, density, field, region,
        [jetmesh.BoundaryData(region, amplitude * rng.standard_normal(n_bd))
         for rng in (rng_v, rng_w)])

    region_rep = _solved("msff_residual_region", msforms.msff_residual_region,
                         density, field, v_var, w_var, region)
    patch = np.abs(region_rep.node_residuals)
    k = int(np.argmax(patch))
    worst = float(patch[k])
    worst_node = (list(divmod(int(jetmesh.interior_index(region, mesh.nx + 1)[k]),
                              mesh.nx + 1)) if worst > 0.0 else None)

    centre = (mesh.nt // 2, mesh.nx // 2)
    w_bad = w_var.with_value(*centre, w_var[centre] + 1.0)
    control = abs(_solved("msff_residual_patch", msforms.msff_residual_patch,
                          density, field, v_var, w_bad, *centre).residual)

    passed = (worst <= args.tol and abs(region_rep.residual) <= args.tol * 10.0
              and control > control_floor)
    results = {
        "max_patch_residual": worst,
        "worst_patch_node": worst_node,
        "region_residual": region_rep.residual,
        "region_max_term": region_rep.max_term,
        "negative_control": control,
        "negative_control_floor": control_floor,
        "tolerance": args.tol,
        "n_interior_nodes": jetmesh.interior_index(region, mesh.nx + 1).size,
    }
    return results, passed, {"base_field.csv": field, "variation_v.csv": v_var,
                             "variation_w.csv": w_var}


# ---------------------------------------------------------------------------
# bridges-check


def _cmd_bridges_check(cfg: dict, args) -> tuple:
    mode = _take(cfg, "mode", "conservation")
    if mode not in ("conservation", "bvp-singularity"):
        raise ConfigError(f"unknown bridges-check mode {mode!r}")
    mesh = _mesh_from_config(_take(cfg, "mesh", required=True))
    amplitude = _number(_take(cfg, "amplitude", 0.1), "amplitude")
    _reject_extra(cfg, "bridges-check")
    if mode == "conservation":
        if mesh.nt < 2:
            raise ConfigError("conservation needs nt >= 2 for interior nodes")
        closure = delsolve.PeriodicClosure()

        streams = np.random.SeedSequence(args.seed).spawn(2)
        rngs = [np.random.default_rng(s) for s in streams]
        v_var, w_var = (delsolve.propagate(LinearWave, mesh,
                                           *_seeded_rows(mesh, rng, amplitude, closure),
                                           closure) for rng in rngs)

        residuals = msforms.bridges_residuals(mesh, v_var, w_var, periodic=True)
        worst = float(np.max(np.abs(residuals), initial=0.0))
        fluxes = msforms._fluxes(mesh, v_var, w_var, 0, mesh.nt).tolist()
        spread = max(fluxes) - min(fluxes)
        passed = worst <= args.tol and spread <= args.tol
        results = {
            "max_node_residual": worst,
            "flux_per_slice": fluxes,
            "flux_spread": spread,
            "tolerance": args.tol,
        }
        return results, passed, {"variation_v.csv": v_var, "variation_w.csv": w_var}

    if mesh.nt < 2 or mesh.nx < 2:
        raise ConfigError("bvp-singularity needs nt >= 2 and nx >= 2 for interior nodes")
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
    return results, False, {}


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
    """Twice the discrete extremal action with exact-trace Dirichlet data:
    the Dirichlet solution's action, summed on arrays.

    The one-triangle-per-cell layout covers half the area measure, so the
    doubled sum is the quantity that converges to the continuum action.
    """
    mesh = _wave_square_mesh(nx, ratio)
    region = jetmesh.RectRegion(0, 0, mesh.nt, mesh.nx)
    values = [solution.value(n * mesh.dt, i * mesh.dx)
              for (n, i) in jetmesh.boundary_nodes(region)]
    field = delsolve.solve_bvp(LinearWave, mesh, jetmesh.BoundaryData(region, values)).field
    return 2.0 * _action_sum(LinearWave, field.values, jetmesh.region_index(region, mesh.nx + 1),
                             mesh.dt, mesh.dx)


def _cmd_boundary_lagrangian(cfg: dict, args) -> tuple:
    problem = _take(cfg, "problem", required=True)

    if problem == "disc":
        fourier = _take(cfg, "fourier", required=True)
        _reject_extra(cfg, "boundary-lagrangian")
        data = _parsed("Fourier data", oracles.FourierBoundaryData.from_json, fourier)
        quad_val = _parsed("Fourier data", oracles.disc_boundary_lagrangian_quadrature,
                           data)
        ext = oracles.harmonic_extension_disc(data)
        gap = abs(ext.boundary_lagrangian - quad_val)
        # The tolerance, or the round-off floor of the terms both routes sum.
        tol = max(args.tol, 64.0 * np.finfo(float).eps * oracles._disc_bound(data))
        passed = gap <= tol
        results = {
            "closed_form": ext.boundary_lagrangian,
            "quadrature": quad_val,
            "route_gap": gap,
            "normal_derivative_modes": ext.dtn.to_json(),
            "tolerance": tol,
        }
        return results, passed, {}

    if problem == "wave_square":
        name = _take(cfg, "solution", "cubic")
        ladder = _take(cfg, "nx_ladder", [8, 16, 32, 64])
        ratio = _number(_take(cfg, "time_step_ratio", 0.5), "time_step_ratio")
        min_order = _number(_take(cfg, "min_order", 0.9), "min_order")
        _reject_extra(cfg, "boundary-lagrangian")
        sizes = ([_number(v, "nx_ladder", int) for v in ladder]
                 if isinstance(ladder, list) else [])
        for nx in sizes:
            if nx < 2:  # the square needs an interior node
                raise ConfigError(f"'nx_ladder' must be an integer >= 2, got {nx}")
        if len(set(sizes)) < 2:  # the order fit needs two abscissae
            raise ConfigError("'nx_ladder' must list at least two distinct mesh sizes")
        if not 0.0 < ratio < 1.0:
            raise ConfigError(f"time step ratio must lie in (0, 1), got {ratio}")
        # nx + 1 columns of about nx / ratio + 1 time levels each.
        _check_work(sum((nx + 1) * (nx / ratio + 1) for nx in sizes), "nx_ladder")
        try:
            solution = oracles.wave_exact_solutions(str(name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        traces = solution.trace_square()
        compat = oracles.compatibility_residual(traces)
        continuum = oracles.wave_square_boundary_lagrangian(traces)

        values = [_extremal_action_on_square(solution, nx, ratio) for nx in sizes]
        errors = [abs(v - continuum.action_value) for v in values]
        order = mechanics._fit_order([1.0 / nx for nx in sizes], errors)

        passed = (continuum.magnitude_gap <= args.tol and compat <= 1e-10
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
            "tolerance": args.tol,
        }
        return results, passed, {}

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


def _cmd_mechanics(cfg: dict, args) -> tuple:
    rule = _take(cfg, "rule", required=True)
    problem = _take(cfg, "problem", {"kind": "harmonic", "omega": 1.0})
    z0 = _take(cfg, "z0", [0.7, 0.4])
    ladder = _take(cfg, "h_ladder", [0.4, 0.2, 0.1, 0.05, 0.025])
    _reject_extra(cfg, "mechanics")
    if not isinstance(rule, str) or rule not in _EXPECTED_MAP_ORDER:
        raise ConfigError(f"unknown quadrature rule {rule!r}; "
                          f"choose from {sorted(_EXPECTED_MAP_ORDER)}")
    if not (isinstance(z0, list) and len(z0) == 2):
        raise ConfigError("'z0' must be a [position, momentum] pair")

    lagr = _mech_lagrangian_from_config(problem)
    h_values = ([_number(h, "h_ladder") for h in ladder]
                if isinstance(ladder, list) else [])
    if len(set(h_values)) < 3:
        raise ConfigError("'h_ladder' must list at least three distinct step sizes")
    for h in h_values:
        if not 0.0 < h < lagr.conjugate_time:
            raise ConfigError(
                f"step {h} outside the valid range (0, {lagr.conjugate_time})")
    _check_work(sum(1.0 / h for h in h_values), "h_ladder")  # about 1/h map steps each
    family = {"midpoint": mechanics.midpoint_rule,
              "rectangle": mechanics.rectangle_rule}[rule](lagr)
    start = mechanics.PhasePoint(*(_number(z, "z0") for z in z0))
    report = _parsed("order study", mechanics.variational_order_check,
                     family, lagr, start, h_values)
    expected = _EXPECTED_MAP_ORDER[rule]
    # An infinite fitted order marks a family that is exact on this problem
    # (errors at round-off for every h); that trivially clears the bar.
    passed = (math.isinf(report.map_order)
              or abs(report.map_order - expected) <= args.tol)
    results = {
        "rule": rule,
        "lagrangian": lagr.name,
        "h_ladder": h_values,
        "functional_errors": list(report.functional_errors),
        "map_errors": list(report.map_errors),
        "functional_order": report.functional_order,
        "map_order": report.map_order,
        "expected_map_order": expected,
        "order_window": args.tol,
    }
    rows = ["h,functional_error,map_error"] + [
        f"{h!r},{ef!r},{em!r}" for h, ef, em in
        zip(h_values, report.functional_errors, report.map_errors)]
    return results, passed, {"mechanics_ladder.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Entry point


def _raised_in(exc: BaseException) -> str:
    """``module.function`` of the innermost mslab frame that ``exc`` passed
    through, e.g. ``msforms._region_patch_terms``."""
    where = "mslab"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("mslab."):
            code = frame.f_code
            where = f"{module[len('mslab.'):]}.{getattr(code, 'co_qualname', code.co_name)}"
    return where


@lru_cache(maxsize=None)  # one parser per process: each build takes about 0.7 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Variational mesh checks: two-form identities, "
                    "conservation residuals, boundary Lagrangians and "
                    "one-step map order studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("msff-check", _cmd_msff_check, 1e-9,
         "patch two-form cancellation on a propagated field"),
        ("bridges-check", _cmd_bridges_check, 1e-10,
         "conservation residuals or the singular-mesh demonstration"),
        ("boundary-lagrangian", _cmd_boundary_lagrangian, 1e-8,
         "boundary functionals of the disc and unit-square model problems"),
        ("mechanics", _cmd_mechanics, 0.15,  # the order window
         "order study for one-step discrete-Lagrangian families"),
    ]
    for name, handler, tol, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=0,
                       help="non-negative root seed for all random draws (default 0)")
        p.add_argument("--tol", type=float, default=tol,
                       help="tolerance (mechanics: the order window), finite and "
                            f"non-negative (default {tol:g})")
        p.add_argument("--out", default=None,
                       help="directory for the JSON report and CSV dumps")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: load its config, run its handler, write its
    ``--out`` files and report, and print the report.  Returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if not 0.0 <= args.tol < math.inf:
            raise ConfigError(f"--tol must be finite and non-negative, got {args.tol!r}")
        cfg, raw = _load_config(args.config)
        # A float overflow or invalid operation that no solver step expects
        # raises, so it ends the run as one error line, not a warning.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            results, passed, files = args.handler(cfg, args)
    except ConfigError as exc:
        print(f"mslab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"mslab: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ArithmeticError as exc:  # numpy's FloatingPointError, or a float power's
        print(f"mslab: solver error: floating-point error in {_raised_in(exc)}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER
    report = {
        "command": args.command,
        "config": _jsonable(raw),
        "seed": args.seed,
        "results": _jsonable(results),
        "passed": bool(passed),
        "metadata": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out is not None:
        _write_files(args.out, {**files, f"{args.command}_report.json": text + "\n"})
    print(text)
    return EXIT_OK if passed else EXIT_TOLERANCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
