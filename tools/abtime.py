"""Time two mslab source trees against each other in one process, interleaved.

Each tree's ``src/mslab`` is copied into a temporary directory under its own
package name (``mslab_a`` for the first tree, ``mslab_b`` for the second), so
both are imported side by side.  The checks come from ``perfbench/workloads.py``
of the second tree, imported as it is: they call ``import mslab`` at call
time, so ``sys.modules["mslab"]`` (and ``"mslab.cli"``) are pointed at the
side whose check runs next.  Each side builds its own checks from the same
seed, so both see the same inputs.

After one warm-up pass per side, every pair runs each check of the workload
once per side, back to back, the side that goes first alternating from pair
to pair, so drift of the machine falls on both sides alike.  Printed per
workload:

* per check, the median of its B/A time ratios over the pairs, and the share
  of pairs in which B was faster;
* per pass (the sum over the checks of one pair), the median A and B times,
  the median ratio, the quartiles of the ratio and the share of pairs won;
* whether every ``workloads.results_key`` agreed, between the sides and
  between the repeats of a side.

Usage::

    python tools/abtime.py PARENT_TREE CHANGE_TREE \\
        [--workload nonlinear-genfunc ...] [--pairs 30] [--seed 5]

A tree is a checkout (a directory holding ``src/mslab``), such as a
``git archive`` of the parent commit.  Run it on an otherwise idle machine;
BLAS threads follow the environment as for any other process.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("a", "b")


def _load_side(tree: Path, side: str, tmp: Path) -> dict:
    """Import ``tree/src/mslab`` as ``mslab_<side>``; its modules by the
    names that ``mslab`` and ``mslab.cli`` take in ``sys.modules``."""
    name = f"mslab_{side}"
    home = tmp / side
    shutil.copytree(tree / "src" / "mslab", home / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(home))
    package = importlib.import_module(name)
    return {"mslab": package, "mslab.cli": importlib.import_module(f"{name}.cli")}


def _load_workloads(tree: Path):
    sys.path.insert(0, str(tree / "perfbench"))
    return importlib.import_module("workloads")


def _run(check, modules: dict, workloads) -> tuple:
    """(wall time, results key) of one run of ``check`` against ``modules``."""
    sys.modules.update(modules)
    start = time.perf_counter()
    outcome = check.run()
    wall = time.perf_counter() - start
    return wall, workloads.results_key(outcome.results)


def _quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(workload: str, sides: dict, workloads, pairs: int, seed: int,
            tmp: Path) -> bool:
    """Print the A/B table of one workload; True if every results key agreed."""
    checks = {}
    for side in SIDES:
        (tmp / f"{workload}-{side}").mkdir()
        checks[side] = workloads.build(workload, seed, tmp / f"{workload}-{side}")
    names = [check.name for check in checks["a"]]
    keys = {side: {} for side in SIDES}
    times = {side: {name: [] for name in names} for side in SIDES}
    for round_ in range(pairs + 1):  # round 0 warms up and is not timed
        order = SIDES if round_ % 2 else SIDES[::-1]
        for k, name in enumerate(names):
            for side in order:
                wall, key = _run(checks[side][k], sides[side], workloads)
                keys[side].setdefault(name, set()).add(key)
                if round_:
                    times[side][name].append(wall)
    print(f"{workload}: seed {seed}, {pairs} pairs (B/A; B faster in share of pairs)")
    for name in names:
        ratios = [b / a for a, b in zip(times["a"][name], times["b"][name])]
        won = sum(r < 1.0 for r in ratios) / pairs
        print(f"  {name:28s} A {statistics.median(times['a'][name]) * 1e3:9.3f} ms  "
              f"B {statistics.median(times['b'][name]) * 1e3:9.3f} ms  "
              f"ratio {statistics.median(ratios):.4f}  won {won:.0%}")
    passes = {side: [sum(times[side][name][p] for name in names) for p in range(pairs)]
              for side in SIDES}
    ratios = [b / a for a, b in zip(passes["a"], passes["b"])]
    q1, q2, q3 = _quartiles(ratios)
    won = sum(r < 1.0 for r in ratios) / pairs
    print(f"  {'pass':28s} A {statistics.median(passes['a']) * 1e3:9.3f} ms  "
          f"B {statistics.median(passes['b']) * 1e3:9.3f} ms  ratio {q2:.4f} "
          f"(quartiles {q1:.4f}-{q3:.4f})  won {won:.0%}")
    agree = all(len(keys["a"][name]) == 1 and keys["a"][name] == keys["b"][name]
                for name in names)
    print(f"  results keys {'agree' if agree else 'DIFFER'}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="the A side, e.g. the parent commit")
    parser.add_argument("tree_b", type=Path, help="the B side, e.g. the change")
    parser.add_argument("--workload", action="append",
                        help="workload to time (repeatable; default: nonlinear-genfunc)")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"a": args.tree_a.resolve(), "b": args.tree_b.resolve()}
    workloads = _load_workloads(trees["b"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {side: _load_side(trees[side], side, tmp) for side in SIDES}
        agree = [compare(workload, sides, workloads, args.pairs, args.seed, tmp)
                 for workload in args.workload or ["nonlinear-genfunc"]]
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
