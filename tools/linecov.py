"""Print the statements of ``src/`` that no tier-1 test runs.

The tier-1 suite runs in this process under a ``sys.settrace`` hook that
keeps the line events of frames whose code lives under ``src/``.  It runs
with ``--hypothesis-seed 0`` and without the Hypothesis example database, so
the drawn examples, and with them the lines they reach, are the same on
every run.  The statements come from an ``ast`` walk of each file: every
statement except docstrings and ``global``/``nonlocal`` declarations, which
emit no line event.  A compound statement (``if``, ``for``, ``def``, ...)
counts as its header, from its first decorator to the line before its body;
a statement ran when any of its own lines had a line event.

Each statement that did not run is printed as one entry, keyed by file,
enclosing function and its first source line, stripped, so that an edit
elsewhere in the file does not move it::

    src/mslab/cli.py:_solved: raise SolverError(...)
        # why it stays unrun

The reason lines are carried over from the checked-in ``tools/unrun.txt``;
an entry printed without one is new and has to be tested, deleted or given
a reason.  A statement whose key occurs more than once in its function
carries `` [k]``, its 1-based occurrence.  ``tests/test_unrun.py`` checks in
milliseconds that every checked-in entry still names a statement of its
function.

Usage::

    python tools/linecov.py            # prints the ledger (about a minute)
    python tools/linecov.py --write    # rewrites tools/unrun.txt

Run it after any change that adds lines to ``src/``, and diff against the
checked-in file.  The hook makes tier-1 about twice as slow, so a test with
a wall-time bound can fail under it (``test_01`` of ``test_acceptance.py``
bounds itself at 1 s and took 1.9 s); the tool then exits 1 and says so on
stderr.  Such a bound is read after the test's calls into ``src/``, so the
ledger is the same either way.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "tools" / "unrun.txt"
HEADER = ("# src/ statements that no tier-1 test runs, each with the reason it stays.\n"
          "# Regenerate with `python tools/linecov.py --write`; see its docstring.\n")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
               "--hypothesis-seed", "0", "--hypothesis-profile", "linecov"]


def _own_lines(node: ast.stmt) -> range:
    """The lines whose events mean ``node`` ran: the header of a compound
    statement, all of a simple one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", [])
    if body and body[0].lineno > node.lineno:
        return range(first, body[0].lineno)
    return range(first, (node.lineno if body else node.end_lineno) + 1)


def statements(source: str) -> list[tuple[str, str, range]]:
    """(enclosing qualname, key text, own lines) of each executable
    statement of ``source``, in source order."""
    lines = source.splitlines()
    found = []

    def visit(body: list, scope: str, docstring_ok: bool) -> None:
        for i, node in enumerate(body):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    docstring_ok and i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            found.append((scope, lines[node.lineno - 1].strip(), _own_lines(node)))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner, inner != scope and field == "body")
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner, False)
            for case in getattr(node, "cases", []):
                visit(case.body, inner, False)

    visit(ast.parse(source).body, "<module>", True)
    totals = Counter((scope, text) for scope, text, _ in found)
    counts = Counter()
    keyed = []
    for scope, text, own in found:
        counts[scope, text] += 1
        suffix = f" [{counts[scope, text]}]" if totals[scope, text] > 1 else ""
        keyed.append((scope, text + suffix, own))
    return keyed


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line hook; its exit code and the lines hit per
    ``src/`` file."""
    import threading

    import pytest

    class Profile:
        """Registers the database-free profile before Hypothesis loads it
        (importing Hypothesis before pytest starts trips its rewrite warning)."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_configure(self, config):
            from hypothesis import settings

            settings.register_profile("linecov", database=None)

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with redirect_stdout(sys.stderr):
            code = pytest.main(PYTEST_ARGS, plugins=[Profile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def read_reasons(path: Path = LEDGER) -> dict[str, str]:
    """Entry line -> its reason line, from a ledger file."""
    reasons: dict[str, str] = {}
    entry = None
    for line in path.read_text().splitlines() if path.exists() else []:
        if line.startswith("    # ") and entry is not None:
            reasons[entry] = line
        elif line and not line.startswith("#"):
            entry = line
    return reasons


def parse_entry(line: str) -> tuple[str, str, str]:
    """(file, qualname, key text) of an entry line."""
    head, text = line.split(": ", 1)
    path, qualname = head.split(":")
    return path, qualname, text


def ledger(hits: dict[str, set[int]], reasons: dict[str, str]) -> str:
    out = [HEADER]
    for path in sorted(SRC.rglob("*.py")):
        seen = hits.get(str(path), set())
        rel = path.relative_to(ROOT).as_posix()
        for scope, text, own in statements(path.read_text()):
            if seen.isdisjoint(own):
                entry = f"{rel}:{scope}: {text}"
                out.append(entry + "\n")
                if entry in reasons:
                    out.append(reasons[entry] + "\n")
    return "".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tools/unrun.txt instead of printing the ledger")
    args = parser.parse_args(argv)
    reasons = read_reasons()
    code, hits = run_tier1()
    text = ledger(hits, reasons)
    if args.write:
        LEDGER.write_text(text)
    else:
        sys.stdout.write(text)
    if code != 0:
        print(f"linecov: tier-1 exited {code}; the ledger may list lines a failing "
              "test did not reach", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
