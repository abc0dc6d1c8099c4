"""Print two facts about a checkout of mslab, for comparing two commits.

1. The code-only line count of every Python file under ``src/``: the lines
   that hold a token other than a comment, with blank lines and docstrings
   (a string constant that opens a module, class or function body) left out.
2. The sha256 of ``workloads.results_key`` for every check of the three
   benchmark workloads at seeds 3 and 17, each check run once.  Equal hashes
   mean bit-identical ``results`` blocks.

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
import sys
import tempfile
import tokenize
from pathlib import Path

SEEDS = (3, 17)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def print_results_hashes(root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    print("# sha256 of workloads.results_key, per check")
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for check in workloads.build(workload, seed, Path(tmp)):
                    key = workloads.results_key(check.run().results)
                    digest = hashlib.sha256(key.encode()).hexdigest()
                    print(f"{workload} seed {seed} {check.name} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to describe (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    print_line_counts(root)
    print_results_hashes(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
