"""The checked-in solver facts against a fresh computation.

``tools/facts.txt`` holds sections 2-4 of ``tools/pr_facts.py``: the sha256
of every workload check's ``results``, the exit code and output hashes of
fixed CLI runs, and the LUs, K builds, Newton steps, dense solves,
``eval_Ld`` calls, LU fill and stored K entries of every check and probe.  A change that moves any of them
fails here until the file is rewritten
(``python tools/pr_facts.py --facts > tools/facts.txt``) and the move is
explained.
"""

import difflib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_facts_match_the_checked_in_file(monkeypatch):
    spec = importlib.util.spec_from_file_location("pr_facts", ROOT / "tools" / "pr_facts.py")
    pr_facts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pr_facts)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # its ``workloads``
    out = io.StringIO()
    with redirect_stdout(out):
        pr_facts.print_facts()
    expected = (ROOT / "tools" / "facts.txt").read_text().splitlines()
    moved = list(difflib.unified_diff(expected, out.getvalue().splitlines(),
                                      "tools/facts.txt", "recomputed", lineterm="", n=0))
    print("\n".join(moved))
    assert not moved, "solver facts moved:\n" + "\n".join(moved)
