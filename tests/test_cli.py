import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslab
from mslab import QuadMesh, field_from_csv
from mslab.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_TOLERANCE, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


MSFF_CONFIG = {"mesh": {"dt": 0.05, "dx": 0.1, "nt": 6, "nx": 6}}
BRIDGES_CONFIG = {"mesh": {"dt": 0.05, "dx": 0.1, "nt": 8, "nx": 8},
                  "mode": "conservation"}
DISC_CONFIG = {"problem": "disc",
               "fourier": {"a0": 0.2, "a": [1.0, 0.0], "b": [0.0, 0.5]}}
SQUARE_CONFIG = {"problem": "wave_square", "solution": "cubic",
                 "nx_ladder": [8, 16, 32], "min_order": 0.8}
MECH_CONFIG = {"rule": "midpoint",
               "problem": {"kind": "harmonic", "omega": 1.0}}


class TestExitZero:
    def test_msff_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        code, report = run(capsys, ["msff-check", "--config", cfg])
        assert code == EXIT_OK
        assert report["passed"] is True
        assert report["results"]["max_patch_residual"] <= 1e-9
        assert report["results"]["negative_control"] > 1e-6

    def test_bridges_conservation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", BRIDGES_CONFIG)
        code, report = run(capsys, ["bridges-check", "--config", cfg])
        assert code == EXIT_OK
        assert report["results"]["max_node_residual"] <= 1e-10
        assert report["results"]["flux_spread"] <= 1e-10

    def test_boundary_lagrangian_disc(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", DISC_CONFIG)
        code, report = run(capsys, ["boundary-lagrangian", "--config", cfg])
        assert code == EXIT_OK
        res = report["results"]
        assert res["route_gap"] <= 1e-8
        assert res["closed_form"] == pytest.approx(res["quadrature"], abs=1e-8)

    def test_boundary_lagrangian_wave_square(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", SQUARE_CONFIG)
        code, report = run(capsys, ["boundary-lagrangian", "--config", cfg])
        assert code == EXIT_OK
        res = report["results"]
        assert res["observed_order"] >= 0.8
        assert res["magnitude_gap"] <= 1e-8

    def test_mechanics_midpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MECH_CONFIG)
        code, report = run(capsys, ["mechanics", "--config", cfg])
        assert code == EXIT_OK
        assert report["results"]["map_order"] == pytest.approx(2.0, abs=0.15)


class TestExitTolerance:
    def test_mechanics_with_impossible_window(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MECH_CONFIG)
        code, report = run(capsys, ["mechanics", "--config", cfg,
                                    "--tol", "1e-6"])
        assert code == EXIT_TOLERANCE
        assert report["passed"] is False


class TestExitConfig:
    def test_missing_file(self, tmp_path):
        assert main(["msff-check", "--config",
                     str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["msff-check", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           dict(MSFF_CONFIG, typo_key=1))
        assert main(["msff-check", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_mesh_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"mesh": {"dt": 0.1, "dx": 0.1, "nt": 4, "nx": 4,
                                     "ny": 4}})
        assert main(["msff-check", "--config", cfg]) == EXIT_CONFIG

    def test_short_h_ladder(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           dict(MECH_CONFIG, h_ladder=[0.1, 0.05]))
        assert main(["mechanics", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_rule(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"rule": "simpson"})
        assert main(["mechanics", "--config", cfg]) == EXIT_CONFIG

    def test_bad_thread_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MSLAB_THREADS", "many")
        cfg = write_config(tmp_path, "c.json", SQUARE_CONFIG)
        assert main(["boundary-lagrangian", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, payload", [
        ("msff-check", dict(MSFF_CONFIG, amplitude="big")),
        ("bridges-check", dict(BRIDGES_CONFIG, amplitude="big")),
        ("bridges-check", dict(BRIDGES_CONFIG, amplitude=[0.1])),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, time_step_ratio="half")),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, min_order={})),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8, "x"])),
        ("mechanics", dict(MECH_CONFIG, z0=["a", 0.4])),
        ("mechanics", dict(MECH_CONFIG, h_ladder=[0.4, None, 0.1])),
        ("mechanics", dict(MECH_CONFIG, problem={"kind": "harmonic",
                                                 "omega": "fast"})),
    ])
    def test_non_numeric_value(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload", [
        ("msff-check", {"mesh": dict(MSFF_CONFIG["mesh"], nx=6.5)}),
        ("bridges-check", {"mesh": dict(BRIDGES_CONFIG["mesh"], nt=8.7),
                           "mode": "conservation"}),
        ("bridges-check", {"mesh": dict(BRIDGES_CONFIG["mesh"], nx=8.2),
                           "mode": "bvp-singularity"}),
        ("bridges-check", {"mesh": dict(BRIDGES_CONFIG["mesh"], nt=float("inf")),
                           "mode": "conservation"}),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8.9, 16.2])),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8, 16.5, 32])),
    ])
    def test_non_integral_size(self, tmp_path, capsys, command, payload):
        # Truncated, these would run a smaller mesh than the config asks for.
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err


class TestExitSolver:
    def test_unit_ratio_singularity(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"mode": "bvp-singularity",
                            "mesh": {"dt": 0.1, "dx": 0.1, "nt": 6, "nx": 6}})
        assert main(["bridges-check", "--config", cfg]) == EXIT_SOLVER


class TestOverflowingData:
    def one_error_line(self, capsys, kind):
        err = capsys.readouterr().err
        assert err.startswith(f"mslab: {kind} error: ") and err.count("\n") == 1
        return err

    def test_msff_check_overflow_is_a_solver_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(MSFF_CONFIG, amplitude=1e308))
        assert main(["msff-check", "--config", cfg]) == EXIT_SOLVER
        assert "step_row (row 2)" in self.one_error_line(capsys, "solver")

    def test_bridges_check_overflow_is_a_solver_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(BRIDGES_CONFIG, amplitude=1e300))
        assert main(["bridges-check", "--config", cfg]) == EXIT_SOLVER
        assert "step_row (row 2)" in self.one_error_line(capsys, "solver")

    def test_overflowing_seeded_rows_are_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(MSFF_CONFIG, amplitude=1e308))
        assert main(["msff-check", "--config", cfg, "--seed", "1"]) == EXIT_CONFIG
        assert "amplitude" in self.one_error_line(capsys, "config")

    def test_huge_disc_data_is_a_config_error(self, tmp_path):
        # Run out of process: quad can crash the interpreter on such data.
        cfg = write_config(tmp_path, "c.json",
                           {"problem": "disc",
                            "fourier": {"a0": 1e308, "a": [1.0, 0.0], "b": [0.0, 0.5]}})
        src = str(Path(mslab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mslab.cli", "boundary-lagrangian",
                               "--config", cfg], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("mslab: config error: ")
        assert proc.stderr.count("\n") == 1


class TestReports:
    def strip_metadata(self, report):
        clone = dict(report)
        clone.pop("metadata")
        return clone

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        _, first = run(capsys, ["msff-check", "--config", cfg, "--seed", "7"])
        _, second = run(capsys, ["msff-check", "--config", cfg, "--seed", "7"])
        assert self.strip_metadata(first) == self.strip_metadata(second)

    def test_seed_changes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        _, first = run(capsys, ["msff-check", "--config", cfg, "--seed", "7"])
        _, second = run(capsys, ["msff-check", "--config", cfg, "--seed", "8"])
        assert (first["results"]["max_patch_residual"]
                != second["results"]["max_patch_residual"])

    def test_report_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        _, report = run(capsys, ["msff-check", "--config", cfg])
        assert set(report) == {"command", "config", "seed", "results",
                               "passed", "metadata"}
        assert report["command"] == "msff-check"
        assert report["config"] == MSFF_CONFIG
        assert report["seed"] == 0

    def test_thread_cap_does_not_change_results(self, tmp_path, capsys,
                                                monkeypatch):
        cfg = write_config(tmp_path, "c.json", SQUARE_CONFIG)
        _, serial = run(capsys, ["boundary-lagrangian", "--config", cfg])
        monkeypatch.setenv("MSLAB_THREADS", "3")
        _, threaded = run(capsys, ["boundary-lagrangian", "--config", cfg])
        assert serial["results"] == threaded["results"]


class TestOutputs:
    def test_report_and_field_dumps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        out = tmp_path / "run"
        code, report = run(capsys, ["msff-check", "--config", cfg,
                                    "--out", str(out)])
        assert code == EXIT_OK
        on_disk = json.loads((out / "msff-check_report.json").read_text())
        assert on_disk == report
        mesh = QuadMesh(**MSFF_CONFIG["mesh"])
        for name in ["base_field", "variation_v", "variation_w"]:
            field = field_from_csv(mesh, out / f"{name}.csv")
            assert field.mesh == mesh

    def test_mechanics_ladder_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MECH_CONFIG)
        out = tmp_path / "run"
        code, report = run(capsys, ["mechanics", "--config", cfg,
                                    "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "mechanics_ladder.csv").read_text().splitlines()
        assert lines[0] == "h,functional_error,map_error"
        assert len(lines) == 1 + len(report["results"]["h_ladder"])
        h0, ef0, em0 = (float(tok) for tok in lines[1].split(","))
        assert h0 == report["results"]["h_ladder"][0]
        assert ef0 == report["results"]["functional_errors"][0]
        assert em0 == report["results"]["map_errors"][0]


def _fit_with_round_off_cutoff(sizes, errors):
    """The ladder order fit with a 1e-15 round-off cutoff on each error."""
    pairs = [(s, e) for s, e in zip(sizes, errors) if e > 1e-15]
    if len(pairs) < 2:
        return float("inf")
    return float(np.polyfit(np.log([1.0 / s for s, _ in pairs]),
                            np.log([e for _, e in pairs]), 1)[0])


@pytest.mark.parametrize("solution", ["zero", "bilinear", "cubic", "travelling:2",
                                      "travelling:3", "standing:1", "standing:2"])
def test_square_ladder_order_ignores_round_off_cutoff(tmp_path, capsys, solution):
    # The wave-square ladder fits its order with the mechanics fitter; on
    # this ladder that matches a fit with a 1e-15 per-error cutoff.
    cfg = write_config(tmp_path, "c.json",
                       dict(SQUARE_CONFIG, solution=solution,
                            nx_ladder=[8, 16, 32, 64], time_step_ratio=0.5))
    _, report = run(capsys, ["boundary-lagrangian", "--config", cfg])
    res = report["results"]
    expected = _fit_with_round_off_cutoff(res["nx_ladder"], res["action_errors"])
    assert float(res["observed_order"]) == expected
