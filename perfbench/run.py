"""mslab benchmark: time one check workload end to end, or trace its layers.

    python3 perfbench/run.py --workload msff-wave --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --compare before.json after.json

Each run starts worker processes one after another (``worker.py``), one
Python thread each, with ``MSLAB_THREADS`` unset and BLAS threads capped at
the CPU count.  ``--trace 0`` makes ``SETUP_LAUNCHES`` set-up-only launches
and one measuring launch, and reports the end-to-end metrics, among them
``wall_cal_s``, the median pass wall time calibrated against the reference
loop of ``reference.py``; ``--trace 1`` makes one launch that alternates
untraced and traced passes, and reports the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run is appended to
the results file (``--results``), which ``--compare`` reads.  The exit code
is 0 only when every check met its expected outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchstats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 4
# Time a worker may take beyond --seconds: its set-up plus one pass.
WORKER_GRACE_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "wall_cal_s": "s", "peak_rss_mb": "MB",
                    "check_pass_frac": "ratio"}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MSLAB_THREADS", None)
    cap = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    # Keep src/ free of bytecode caches so each set-up compiles the same way.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One string-hash seed for every run, so dict and set layouts repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def _launch(args, mode: str, tmp: Path, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--tmp", str(tmp)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=_worker_env(),
                          capture_output=True, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _end_to_end(args, tmp: Path) -> tuple:
    """(metrics, samples, measuring worker's report) with tracing off."""
    setups = [_launch(args, "setup", tmp)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    main = _launch(args, "measure", tmp)
    setups.append(main["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_cal_s": statistics.median(main["cal_walls"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "check_pass_frac": 1.0 - main["failed"] / main["attempted"],
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            {"setup_s": setups, "wall_cal_s": main["cal_walls"],
             "wall_s": main["walls"]}, main)


def _traced(args, tmp: Path, spans: Path) -> tuple:
    """(metrics, samples, worker report) of a run alternating traced passes."""
    main = _launch(args, "trace", tmp, spans=spans)
    return (main["layers"],
            {"wall_s": main["walls"], "traced_wall_s": main["traced_walls"]}, main)


def _print_metric(name: str, metric: str, value, unit: str, samples) -> None:
    shown = "missing" if value is None else f"{value:.6g}"
    line = f"{name:18s} {metric:30s} {shown:>14s} {unit}"
    if samples:
        tail = benchstats.tail_percentile(samples)
        line += (f"  (median of {len(samples)} samples; "
                 + (f"p{tail[0]} {tail[1]:.6g}" if tail
                    else "no percentile has 10 samples beyond it") + ")")
    print(line)


def _print_run(run: dict) -> None:
    name = run["workload"]
    for metric, entry in run["metrics"].items():
        _print_metric(name, metric, entry["value"], entry["unit"],
                      run["samples"].get(metric))
    if run["trace"] == 0:
        walls = run["samples"]["wall_s"]
        _print_metric(name, "wall_s (uncalibrated)", statistics.median(walls), "s", walls)
        print(f"{name:18s} {'check_fail_frac':30s} {run['check_fail_frac']:14.6g} ratio"
              f"  ({run['failed']} failed of {run['attempted']} checks)")
    else:
        m = run["metrics"]
        print(f"{name:18s} delsolve.lu_per_solve base: {m['delsolve.lu_count']['value']} LU"
              f" over {m['delsolve.solver_calls']['value']} step_row/solve_bvp/"
              "tangent_solve/boundary_hamiltonian calls")
    for failure in run["failures"]:
        print(f"{name:18s} FAILED {failure['check']} (pass {failure['pass']}): "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)


def _append(path: Path, run: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(run)
    path.write_text(json.dumps(data, indent=1))


def measure(args) -> int:
    if not (ROOT / "src" / "mslab" / "__init__.py").is_file():
        print(f"run.py: no mslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=results.parent))
    try:
        if args.trace:
            spans = results.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, samples, worker = _traced(args, tmp, spans)
        else:
            metrics, samples, worker = _end_to_end(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed = worker["attempted"], worker["failed"]
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "metrics": metrics, "samples": samples,
           "attempted": attempted, "failed": failed,
           "check_fail_frac": failed / attempted, "failures": worker["failures"],
           "environment": dict(worker["environment"], commit=_git_commit(),
                               seed=args.seed)}
    _append(results, run)
    _print_run(run)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def compare(path_a: str, path_b: str) -> int:
    """Side-by-side end-to-end metrics of two results files, per workload."""
    runs = [json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b)]
    print(f"A = {path_a}\nB = {path_b}")
    for workload in WORKLOADS:
        sides = [[r for r in rs if r["workload"] == workload and r["trace"] == 0]
                 for rs in runs]
        if not all(sides):
            continue
        print(f"\n{workload}  (A: {len(sides[0])} runs, B: {len(sides[1])} runs)")
        for metric, unit in END_TO_END_UNITS.items():
            stats = [benchstats.quartiles([r["metrics"][metric]["value"] for r in side])
                     for side in sides]
            (a1, a2, a3), (b1, b2, b3) = stats
            ratio = f"{b2 / a2:.4f}" if a2 else "n/a"
            print(f"  {metric:16s} A median {a2:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"B median {b2:.6g} [{b1:.6g}, {b3:.6g}] {unit}  "
                  f"B/A {ratio} (base: A median {a2:.6g} {unit})")
        fails = [f"{sum(r['failed'] for r in side)}/{sum(r['attempted'] for r in side)}"
                 for side in sides]
        print(f"  check_fail_frac  A {fails[0]}  B {fails[1]} failed/attempted checks")
        for metric in ("wall_cal_s", "wall_s"):
            for label, side in zip("AB", sides):
                samples = [s for r in side for s in r["samples"][metric]]
                tail = benchstats.tail_percentile(samples)
                print(f"  {metric} passes {label}: {len(samples)} samples, median "
                      f"{statistics.median(samples):.6g} s"
                      + (f", p{tail[0]} {tail[1]:.6g} s" if tail else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results" / "results.json"),
                        help="results file each run is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
