"""The checked-in line ledger against the source it names.

``tools/unrun.txt`` lists the ``src/`` statements that no tier-1 test runs,
each keyed by file, enclosing function and source text, with a reason
(``tools/linecov.py`` makes it).  A reason must not outlive its line: every
entry has to name a statement that is still in its function, and carry a
reason.  Recomputing the ledger takes a traced tier-1 run, so this test
checks only the names; rerun ``python tools/linecov.py`` after adding lines
to ``src/``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _linecov():
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "tools" / "linecov.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_a_statement_and_gives_a_reason():
    linecov = _linecov()
    lines = (ROOT / "tools" / "unrun.txt").read_text().splitlines()
    entries = [line for line in lines if line and not line.startswith(("#", "    # "))]
    assert entries, "the ledger lists no entry"
    reasons = linecov.read_reasons(ROOT / "tools" / "unrun.txt")
    for entry in entries:
        path, qualname, text = linecov.parse_entry(entry)
        keys = {(scope, key) for scope, key, _ in
                linecov.statements((ROOT / path).read_text())}
        assert (qualname, text) in keys, f"no statement {text!r} in {path}:{qualname}"
        assert reasons.get(entry, "").strip("# "), f"no reason for {entry!r}"
