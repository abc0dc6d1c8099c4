"""Import footprint: no subcommand loads scipy.integrate or scipy.optimize.

Each check runs in a fresh interpreter, since the test session itself has
long since imported scipy.integrate through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mslab

MSFF_CONFIG = {"mesh": {"dt": 0.05, "dx": 0.1, "nt": 6, "nx": 6}}
BRIDGES_CONFIG = {"mesh": {"dt": 0.05, "dx": 0.1, "nt": 8, "nx": 8},
                  "mode": "conservation"}
MECH_CONFIG = {"rule": "midpoint", "problem": {"kind": "harmonic", "omega": 1.0}}
DISC_CONFIG = {"problem": "disc",
               "fourier": {"a0": 0.2, "a": [1.0, 0.0], "b": [0.0, 0.5]}}
SQUARE_CONFIG = {"problem": "wave_square", "nx_ladder": [8, 16]}

PROBE = """
import contextlib, io, json, sys

def deferred():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"]))

import mslab, mslab.cli
steps = [("import", None, deferred())]
for command, config in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mslab.cli.main([command, "--config", config])
    steps.append((command, code, deferred()))
print(json.dumps(steps))
"""


def probe(tmp_path, runs):
    """(step, exit code, deferred modules loaded) after each run, in order."""
    argv = []
    for k, (command, payload) in enumerate(runs):
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(payload))
        argv.append((command, str(path)))
    src = str(Path(mslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_subcommand_loads_scipy_integrate_or_optimize(tmp_path):
    steps = probe(tmp_path, [("msff-check", MSFF_CONFIG),
                             ("bridges-check", BRIDGES_CONFIG),
                             ("mechanics", MECH_CONFIG),
                             ("boundary-lagrangian", DISC_CONFIG),
                             ("boundary-lagrangian", SQUARE_CONFIG)])
    assert [(name, code) for name, code, _ in steps] == [
        ("import", None), ("msff-check", 0), ("bridges-check", 0),
        ("mechanics", 0), ("boundary-lagrangian", 0), ("boundary-lagrangian", 0)]
    for name, _, loaded in steps:
        assert loaded == [], f"{name} loaded {loaded}"
