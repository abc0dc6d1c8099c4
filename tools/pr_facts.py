"""Print four facts about a checkout of mslab, for comparing two commits.

1. The code-only line count of every Python file under ``src/``: the lines
   that hold a token other than a comment, with blank lines and docstrings
   (a string constant that opens a module, class or function body) left out.
2. The sha256 of ``workloads.results_key`` for every check of the three
   benchmark workloads at seeds 3 and 17, each check run once.  Equal hashes
   mean bit-identical ``results`` blocks.
3. For every CLI run of ``CLI_RUNS`` (each subcommand on small fixed
   configs, both ``bridges-check`` modes and both ``boundary-lagrangian``
   problems) at seeds 3 and 17, in-process with ``--out`` in a temporary
   directory: the exit code, the sha256 of stderr, of the printed report
   with its ``metadata`` block cut out of the text, and of each file written
   (a JSON report also without ``metadata``).  Equal lines mean byte-identical
   runs apart from the timestamp.
4. For every check of item 2, the solver work it did: its sparse LU
   factorisations (``splu`` calls), its Hessian operator builds
   (``_hessian_operator`` calls), its Newton steps summed over its solves
   (``_newton`` returns), its dense back-solves (``numpy.linalg.solve``
   calls) and its per-triangle actions (``eval_Ld`` calls, the scalar route
   that the array sums replace).  Every binding of those names in the
   ``mslab`` modules, and ``numpy.linalg.solve``, is wrapped in-process
   while the checks run; the counts are deterministic, so two checkouts can
   be compared line by line.
   The same counts, and the sha256 of the result, follow for fixed probes
   that no workload covers: ``PROBE_N``-squared runs of ``propagate`` on the
   phi^4 wave L = (v^2 - w^2)/2 + u^4/4 (dt/dx = 1/2, rows of amplitude 1),
   with each closure, so that changes to the nonlinear row stepper show, and
   the exact discrete Lagrangian of the pendulum L = qdot^2/2 + cos q at
   (q0, q1, h) = (0.3, 0.7, 0.4), so that changes to the dense collocation
   Newton show.

Usage::

    python tools/pr_facts.py                 # this checkout
    python tools/pr_facts.py --root OTHER    # another checkout, e.g. a parent

Diff the output of two checkouts to see what moved.  The workload code is
imported from ``perfbench/workloads.py`` of the given checkout and used as
it is.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import re
import sys
import tempfile
import tokenize
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

SEEDS = (3, 17)
PROBE_N = 40
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

_MESH = {"dt": 0.05, "dx": 0.1, "nt": 6, "nx": 6}
CLI_RUNS = {
    "msff": ("msff-check", {"mesh": _MESH, "closure": {"fixed": [0.01, -0.02]},
                            "amplitude": 0.1}),
    "conservation": ("bridges-check", {"mode": "conservation", "mesh": _MESH}),
    "bvp-singular": ("bridges-check", {"mode": "bvp-singularity",
                                       "mesh": {"dt": 0.1, "dx": 0.1, "nt": 4, "nx": 4}}),
    "bvp-solved": ("bridges-check", {"mode": "bvp-singularity", "mesh": _MESH}),
    "disc": ("boundary-lagrangian", {"problem": "disc", "fourier": {
        "a0": 0.2, "a": [1.0, -0.3], "b": [0.0, 0.5, 0.25]}}),
    "wave-square": ("boundary-lagrangian", {"problem": "wave_square", "solution": "cubic",
                                            "nx_ladder": [8, 16]}),
    "mechanics-midpoint": ("mechanics", {"rule": "midpoint"}),
    "mechanics-rectangle": ("mechanics", {"rule": "rectangle",
                                          "h_ladder": [0.4, 0.2, 0.1]}),
}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is not a comment or layout,
    docstrings excluded."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def print_line_counts(root: Path) -> None:
    print("# code-only lines under src/")
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(root)} {count}")
    print(f"total {total}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_metadata(text: str) -> str:
    """A report's text, byte for byte, without its top-level ``metadata`` block."""
    return re.sub(r'\n  "metadata": \{.*?\n  \},?', "", text, count=1, flags=re.S)


def print_cli_hashes() -> None:
    import mslab.cli

    print("# CLI runs: exit code and sha256 of stderr, report and --out files")
    for name, (command, config) in CLI_RUNS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(config))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = mslab.cli.main([command, "--config", str(path), "--seed",
                                           str(seed), "--out", str(Path(tmp) / "out")])
                print(f"{name} seed {seed} exit {code} stderr {_sha(err.getvalue())} "
                      f"report {_sha(_without_metadata(out.getvalue()))}")
                for file in sorted((Path(tmp) / "out").glob("*")):
                    text = _without_metadata(file.read_text())
                    print(f"{name} seed {seed} file {file.name} {_sha(text)}")


@contextmanager
def solver_counts():
    """A dict of running counts, ``lu``, ``K``, ``newton_steps``,
    ``dense_solves`` and ``eval_Ld``, kept while every ``mslab`` binding of
    ``splu``, ``_hessian_operator``, ``_newton`` and ``eval_Ld``, and
    ``numpy.linalg.solve``, is wrapped; the bindings are restored on exit."""
    import numpy as np

    import mslab.delsolve as delsolve
    import mslab.lagrangian as lagrangian

    counts = dict.fromkeys(("lu", "K", "newton_steps", "dense_solves", "eval_Ld"), 0)

    def counted(fn, key, add):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += add(out)
            return out
        return wrapper

    targets = ((delsolve, "splu", "lu", lambda out: 1),
               (delsolve, "_hessian_operator", "K", lambda out: 1),
               (delsolve, "_newton", "newton_steps", lambda out: out[2]),
               (lagrangian, "eval_Ld", "eval_Ld", lambda out: 1))
    originals = {name: getattr(home, name) for home, name, _, _ in targets}
    wrappers = {name: counted(originals[name], key, add) for _, name, key, add in targets}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mslab"]
    saved = [(m, name, getattr(m, name)) for m in modules for name in wrappers
             if getattr(m, name, None) is originals[name]]
    saved.append((np.linalg, "solve", np.linalg.solve))
    wrappers["solve"] = counted(np.linalg.solve, "dense_solves", lambda out: 1)
    try:
        for m, name, _ in saved:
            setattr(m, name, wrappers[name])
        yield counts
    finally:
        for m, name, fn in saved:
            setattr(m, name, fn)


def run_checks() -> list:
    """(workload, seed, check name, sha256 of ``results_key``, solver counts)
    for every check, each run once."""
    import mslab.cli  # noqa: F401  (every mslab module, so each binding is wrapped)
    import workloads

    rows = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for check in workloads.build(workload, seed, Path(tmp)):
                    with solver_counts() as counts:
                        key = workloads.results_key(check.run().results)
                    rows.append((workload, seed, check.name,
                                 hashlib.sha256(key.encode()).hexdigest(), counts))
    return rows


def run_probes() -> list:
    """(probe name, what is hashed, its sha256, solver counts) for each
    phi^4-wave ``propagate`` probe and the pendulum collocation."""
    import numpy as np

    from mslab import (FixedClosure, PeriodicClosure, UserDensity, build_mesh, dual,
                       exact_discrete_lagrangian, mechanics, propagate)

    mesh = build_mesh(dt=0.5 / PROBE_N, dx=1.0 / PROBE_N, nt=PROBE_N, nx=PROBE_N)
    density = UserDensity(lambda v, w, u: 0.5 * (v * v - w * w) + 0.25 * u ** 4)
    rows = []
    for name, closure in (("periodic", PeriodicClosure()), ("fixed", FixedClosure(0.0, 0.0))):
        rng = np.random.default_rng(0)
        row0 = rng.standard_normal(PROBE_N + 1)
        row1 = row0 + mesh.dt * rng.standard_normal(PROBE_N + 1)
        if name == "fixed":
            row0[[0, -1]] = row1[[0, -1]] = 0.0
        with solver_counts() as counts:
            field = propagate(density, mesh, row0, row1, closure)
        rows.append((f"phi4-propagate-{name}", "field",
                     hashlib.sha256(field.values.tobytes()).hexdigest(), counts))

    class Pendulum(mechanics.MechLagrangian):
        name = "pendulum"

        def value(self, q, qdot):
            return 0.5 * qdot * qdot + dual.cos(q)

    with solver_counts() as counts:
        ld = exact_discrete_lagrangian(Pendulum(), 0.3, 0.7, 0.4)
    rows.append(("pendulum-collocation", "value", _sha(ld.hex()), counts))
    return rows


def print_results_hashes(rows) -> None:
    print("# sha256 of workloads.results_key, per check")
    for workload, seed, name, digest, _ in rows:
        print(f"{workload} seed {seed} {name} {digest}")


def _counts(counts) -> str:
    return " ".join(f"{key} {value}" for key, value in counts.items())


def print_solver_counts(rows, probes) -> None:
    print("# solver work per check: splu factorisations, K builds, Newton steps, "
          "dense solves, per-triangle eval_Ld calls")
    for workload, seed, name, _, counts in rows:
        print(f"{workload} seed {seed} {name} {_counts(counts)}")
    for name, what, digest, counts in probes:
        print(f"probe {name} {_counts(counts)} {what} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to describe (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    print_line_counts(root)
    rows = run_checks()
    print_results_hashes(rows)
    print_cli_hashes()
    print_solver_counts(rows, run_probes())
    return 0


if __name__ == "__main__":
    sys.exit(main())
