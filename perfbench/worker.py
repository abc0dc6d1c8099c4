"""One benchmark process: set up a workload, then run passes over its checks.

``run.py`` starts this script and reads the JSON object it prints last.

* ``--mode setup`` stops where the first check would be called and reports
  the set-up time: interpreter start, ``import mslab`` and input generation.
* ``--mode measure`` then runs untraced passes back to back (one client,
  closed loop) until the next pass would end after ``--seconds``, with a
  chunk of the reference loop (``reference.py``) before each check and after
  the last, and reports each pass's wall time raw and calibrated.
* ``--mode trace`` alternates untraced and traced passes the same way and
  reports per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mslab  # noqa: E402
import mslab.cli  # noqa: E402,F401  (the CLI checks call it)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class PassRunner:
    """Runs passes over the checks and keeps the correctness record."""

    def __init__(self, checks):
        self.checks = checks
        self.first_results = {}
        self.attempted = 0
        self.failures = []
        self.passes = 0

    def run_pass(self, tracer=None, reference=None) -> float:
        """Run every check once and return the pass wall time.

        With ``reference`` (a function returning its own wall time), it is
        called before each check and after the last; its time is left out of
        the pass, and ``check_walls`` and ``ref_walls`` keep the parts.
        """
        self.passes += 1
        self.check_walls, self.ref_walls = [], []
        for check in self.checks:
            if reference is not None:
                self.ref_walls.append(reference())
            start = time.perf_counter()
            self._run_check(check, tracer)
            self.check_walls.append(time.perf_counter() - start)
        if reference is not None:
            self.ref_walls.append(reference())
        return sum(self.check_walls)

    def _run_check(self, check, tracer) -> None:
        if tracer is not None:
            tracer.check = check.name
        self.attempted += 1
        try:
            outcome = check.run()
        except Exception as exc:  # a check that raises is a failed check
            self._fail(check, [f"raised {type(exc).__name__}: {exc}"])
            return
        problems = list(outcome.problems)
        key = workloads.results_key(outcome.results)
        if self.first_results.setdefault(check.name, key) != key:
            problems.append("results differ from the first repeat in this run")
        if problems:
            self._fail(check, problems)
        if tracer is not None:
            tracer.extra["report_bytes"] += outcome.report_bytes

    def _fail(self, check, problems):
        self.failures.append({"check": check.name, "pass": self.passes,
                              "problems": problems})


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mslab_threads": os.environ.get("MSLAB_THREADS", "unset"),
    }


def _loop(seconds: float, run_next) -> None:
    """Call ``run_next()`` (which returns the pass wall time) until the next
    pass, judged by the last one, would end after ``seconds``."""
    start = time.perf_counter()
    while True:
        wall = run_next()
        if time.perf_counter() - start + wall > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() of the parent just before start")
    parser.add_argument("--tmp", required=True, help="directory for generated inputs")
    parser.add_argument("--spans", help="file for the spans of the traced passes")
    args = parser.parse_args(argv)

    checks = workloads.build(args.workload, args.seed,
                             Path(tempfile.mkdtemp(dir=args.tmp)))
    out = {"setup_s": time.monotonic() - args.t_spawn}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    runner = PassRunner(checks)
    walls, cal_walls, traced_walls, layer_samples, spans = [], [], [], [], []

    def traced_pass() -> float:
        with tracing.Tracer(mslab) as tracer:
            wall = runner.run_pass(tracer)
        traced_walls.append(wall)
        layer_samples.append(tracing.layer_metrics(tracer, wall))
        spans.extend((len(traced_walls), sp) for sp in tracer.spans)
        return wall

    def untraced_pass() -> float:
        walls.append(runner.run_pass())
        return walls[-1]

    def calibrated_pass() -> float:
        start = time.perf_counter()
        walls.append(runner.run_pass(reference=reference.reference_chunk))
        cal_walls.append(reference.calibrated_wall(runner.check_walls, runner.ref_walls))
        return time.perf_counter() - start

    if args.mode == "measure":
        _loop(args.seconds, calibrated_pass)
        out["cal_walls"] = cal_walls
    else:
        _loop(args.seconds, lambda: untraced_pass() if len(walls) <= len(traced_walls)
              else traced_pass())
        if not traced_walls:
            traced_pass()
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        layers = {}
        for name, (_, unit) in layer_samples[0].items():
            values = [sample[name][0] for sample in layer_samples]
            layers[name] = {"unit": unit, "value": None if None in values
                            else statistics.median(values)}
        layers["trace.overhead_s"] = {"unit": "s", "value": overhead}
        out["layers"] = layers
        out["traced_walls"] = traced_walls
        if args.spans:
            with open(args.spans, "w") as fh:
                for traced, sp in spans:
                    fh.write(json.dumps(dict(zip(
                        ("pass", "id", "name", "start", "end", "parent", "check",
                         "agg_s"), (traced,) + sp))) + "\n")

    out.update({
        "walls": walls,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
