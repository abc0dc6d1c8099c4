import argparse
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mslab
import mslab.cli
import mslab.msforms
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
LARGE_MSFF_CONFIG = {"mesh": {"dt": 0.05, "dx": 0.1, "nt": 8, "nx": 8},
                     "density": "linear_wave", "closure": {"fixed": [0, 0]}}
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

    def test_msff_check_with_coefficient_density(self, tmp_path, capsys):
        # The README's coefficient-mapping form of the wave density.
        by_name = write_config(tmp_path, "name.json",
                               dict(MSFF_CONFIG, density="linear_wave"))
        by_coeffs = write_config(tmp_path, "coeffs.json",
                                 dict(MSFF_CONFIG, density={"vv": 1.0, "ww": -1.0}))
        _, named = run(capsys, ["msff-check", "--config", by_name])
        code, mapped = run(capsys, ["msff-check", "--config", by_coeffs])
        assert code == EXIT_OK
        assert json.dumps(mapped["results"]) == json.dumps(named["results"])

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

    def test_boundary_lagrangian_disc_at_the_round_off_floor(self, tmp_path, capsys):
        # The routes' gap, 9.8e-4 on a closed form of 1.1e12, is round-off of
        # terms bounded by B = pi (|a0| + sum |a_k| + |b_k|) sum k (|a_k| + |b_k|).
        cfg = write_config(tmp_path, "c.json", {"problem": "disc", "fourier": {
            "a0": 0, "a": [1e5] * 8, "b": [1e5] * 8}})
        code, report = run(capsys, ["boundary-lagrangian", "--config", cfg])
        assert code == EXIT_OK
        res = report["results"]
        bound = math.pi * 16e5 * sum(k * 2e5 for k in range(1, 9))
        assert res["tolerance"] == pytest.approx(64 * np.finfo(float).eps * bound, rel=1e-12)
        assert 1e-8 < res["route_gap"] <= res["tolerance"]

    def test_boundary_lagrangian_wave_square(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", SQUARE_CONFIG)
        code, report = run(capsys, ["boundary-lagrangian", "--config", cfg])
        assert code == EXIT_OK
        res = report["results"]
        assert res["observed_order"] >= 0.8
        assert res["magnitude_gap"] <= 1e-8
        # The ladder sums its actions on arrays: bit for bit the library's
        # per-triangle boundary Lagrangian of the same Dirichlet data.
        solution = mslab.wave_exact_solutions(SQUARE_CONFIG["solution"])
        for nx, value in zip(res["nx_ladder"], res["doubled_extremal_actions"]):
            mesh = mslab.cli._wave_square_mesh(nx, 0.5)
            region = mslab.RectRegion(0, 0, mesh.nt, mesh.nx)
            data = mslab.BoundaryData(region, [solution.value(n * mesh.dt, i * mesh.dx)
                                               for n, i in mslab.boundary_nodes(region)])
            assert value == 2.0 * mslab.boundary_lagrangian(mslab.LinearWave, mesh, data).value

    def test_mechanics_midpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MECH_CONFIG)
        code, report = run(capsys, ["mechanics", "--config", cfg])
        assert code == EXIT_OK
        assert report["results"]["map_order"] == pytest.approx(2.0, abs=0.15)

    @pytest.mark.parametrize("problem", ["free", {"kind": "free"}], ids=["name", "kind"])
    def test_mechanics_free_particle(self, tmp_path, capsys, problem):
        # The midpoint rule is exact here: every collocation starts at its
        # extremal, and the fitted order of round-off errors is infinite.
        cfg = write_config(tmp_path, "c.json", dict(MECH_CONFIG, problem=problem))
        code, report = run(capsys, ["mechanics", "--config", cfg])
        assert code == EXIT_OK
        assert report["results"]["lagrangian"] == "free_particle"
        assert report["results"]["map_order"] == "inf"  # non-finite floats as strings


def _disc_floor(fourier):
    """64 ulps of the bound B of the terms both disc routes sum (modes a and
    b of equal length)."""
    a, b = fourier["a"], fourier["b"]
    bound = math.pi * (abs(fourier["a0"]) + sum(map(abs, a + b))) * sum(
        k * (abs(ak) + abs(bk)) for k, (ak, bk) in enumerate(zip(a, b), start=1))
    return 64 * np.finfo(float).eps * bound


ROUND_OFF_DISC_CONFIG = {"problem": "disc",
                         "fourier": {"a0": 0, "a": [1e5] * 8, "b": [1e5] * 8}}


class TestDefaultTolerance:
    # The documented default of each subcommand's --tol, reported as
    # `tolerance` (for mechanics `order_window`), and any --tol as given; the
    # disc gate is the larger of that and its round-off floor.
    @pytest.mark.parametrize("tol", [None, 0.0123], ids=["default", "given"])
    @pytest.mark.parametrize("command, payload, key, default", [
        ("msff-check", MSFF_CONFIG, "tolerance", 1e-9),
        ("bridges-check", BRIDGES_CONFIG, "tolerance", 1e-10),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8, 16]), "tolerance", 1e-8),
        ("boundary-lagrangian", DISC_CONFIG, "tolerance", 1e-8),
        ("boundary-lagrangian", ROUND_OFF_DISC_CONFIG, "tolerance", 1e-8),
        ("mechanics", MECH_CONFIG, "order_window", 0.15),
    ], ids=["msff", "conservation", "wave-square", "disc", "disc-floor", "mechanics"])
    def test_reported_tolerance(self, tmp_path, capsys, command, payload, key, default, tol):
        cfg = write_config(tmp_path, "c.json", payload)
        option = [] if tol is None else ["--tol", repr(tol)]
        _, report = run(capsys, [command, "--config", cfg, *option])
        expected = default if tol is None else tol
        if payload.get("problem") == "disc":
            expected = max(expected, _disc_floor(payload["fourier"]))
        assert report["results"][key] == expected


class TestExitTolerance:
    def test_mechanics_with_impossible_window(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", MECH_CONFIG)
        code, report = run(capsys, ["mechanics", "--config", cfg,
                                    "--tol", "1e-6"])
        assert code == EXIT_TOLERANCE
        assert report["passed"] is False

    # The propagated field and its variations pass the DEL-solution test,
    # which scales with the data; the absolute --tol on the patch sums,
    # whose round-off is about 1e-16 of the amplitude squared, does not.
    @pytest.mark.parametrize("amplitude", [1e7, 1e8, 1e150],
                             ids=["amplitude-1e7", "amplitude-1e8", "amplitude-1e150"])
    def test_large_amplitude_misses_the_absolute_tolerance(self, tmp_path, capsys,
                                                            amplitude):
        cfg = write_config(tmp_path, "c.json", dict(LARGE_MSFF_CONFIG, amplitude=amplitude))
        assert main(["msff-check", "--config", cfg, "--seed", "1"]) == EXIT_TOLERANCE
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["passed"] is False
        numbers = [v for v in report["results"].values() if isinstance(v, float)]
        assert numbers and all(np.isfinite(numbers))


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
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[0, 16])),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[-8, 16])),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8, 1])),
    ])
    def test_non_integral_size(self, tmp_path, capsys, command, payload):
        # Truncated, these would run a smaller mesh than the config asks for;
        # a ladder size below 2 leaves the square without interior nodes.
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload", [
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[8, 8])),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, nx_ladder=[16, 16.0, 16])),
        ("mechanics", dict(MECH_CONFIG, h_ladder=[0.1, 0.1, 0.1])),
        ("mechanics", dict(MECH_CONFIG, h_ladder=[0.2, 0.1, 0.2])),
    ])
    def test_ladder_without_distinct_sizes(self, tmp_path, capsys, command, payload):
        # Repeated sizes leave the order fit rank-deficient.
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mslab: config error: ") and err.count("\n") == 1
        assert "distinct" in err


    @pytest.mark.parametrize("option", [["--seed", "-1"], ["--tol", "inf"],
                                        ["--tol", "nan"], ["--tol", "-1"]],
                             ids=["negative-seed", "infinite-tol", "nan-tol", "negative-tol"])
    @pytest.mark.parametrize("command, payload", [
        ("msff-check", MSFF_CONFIG),
        ("bridges-check", BRIDGES_CONFIG),
        ("bridges-check", dict(BRIDGES_CONFIG, mode="bvp-singularity")),
        ("boundary-lagrangian", DISC_CONFIG),
        ("mechanics", MECH_CONFIG),  # --tol is the order window here
    ], ids=["msff", "conservation", "bvp-singularity", "disc", "mechanics"])
    def test_bad_seed_or_tolerance(self, tmp_path, capsys, command, payload, option):
        # A negative seed made SeedSequence raise (a traceback and exit 1); an
        # infinite tolerance passed any residual, a NaN or negative one none.
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, *option]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"mslab: config error: {option[0]} ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, payload", [
        ("boundary-lagrangian", {"problem": "disc", "fourier": {"a": 5}}),
        ("boundary-lagrangian", {"problem": "disc", "fourier": {"a0": None}}),
        ("mechanics", dict(MECH_CONFIG, rule=["midpoint"])),
        # Strings were read as digit modes: "12" as [1.0, 2.0].
        ("boundary-lagrangian", {"problem": "disc",
                                 "fourier": {"a0": 0.5, "a": "12", "b": "3"}}),
        # Booleans were read as numbers: true as amplitude 1.0, as nx = 1.
        ("msff-check", dict(MSFF_CONFIG, amplitude=True)),
        ("bridges-check", dict(BRIDGES_CONFIG, mesh={"dt": 0.05, "dx": 0.1, "nt": 8,
                                                     "nx": True})),
        ("msff-check", dict(MSFF_CONFIG, closure={"fixed": [False, 0.0]})),
        ("msff-check", dict(MSFF_CONFIG, density={"vv": True, "ww": -1.0})),
        ("boundary-lagrangian", {"problem": "disc",
                                 "fourier": {"a0": 0.5, "a": [1.0, True], "b": [0.0]}}),
        ("boundary-lagrangian", dict(SQUARE_CONFIG, min_order=True)),
        ("mechanics", dict(MECH_CONFIG, z0=[0.7, False])),
        ("mechanics", dict(MECH_CONFIG, h_ladder=[0.4, 0.2, True])),
    ])
    def test_malformed_value(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mslab: config error: ") and err.count("\n") == 1
        assert all(key in err for key in _boolean_keys(payload))

    def test_deeply_nested_config(self, tmp_path, capsys):
        # json.loads once raised RecursionError: a traceback and exit 1.
        path = tmp_path / "deep.json"
        path.write_text('{"mesh": ' + "[" * 1000 + "]" * 1000 + "}")
        assert main(["msff-check", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mslab: config error: ") and err.count("\n") == 1


class TestWorkCap:
    # A config once asked for unbounded work: the ladder below raised
    # MemoryError out of main, and a 1e-300 step ran for minutes.
    @pytest.mark.parametrize("command, payload, key", [
        ("boundary-lagrangian",
         {"problem": "wave_square", "nx_ladder": [2, 4], "time_step_ratio": 1e-300},
         "nx_ladder"),
        ("mechanics", dict(MECH_CONFIG, h_ladder=[0.4, 0.2, 1e-300]), "h_ladder"),
        ("msff-check", {"mesh": {"dt": 0.1, "dx": 0.1, "nt": 10 ** 9, "nx": 10 ** 9}},
         "mesh"),
        ("bridges-check", {"mode": "conservation",
                           "mesh": {"dt": 1e-9, "dx": 0.1, "nt": 10 ** 9, "nx": 8}}, "mesh"),
    ], ids=["square-ladder", "mechanics-ladder", "msff-mesh", "bridges-mesh"])
    def test_work_beyond_the_cap_is_a_config_error(self, tmp_path, capsys, command,
                                                    payload, key):
        cfg = write_config(tmp_path, "c.json", payload)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20  # no mesh-sized array was made
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"mslab: config error: {key!r} asks for ") and err.count("\n") == 1

    def test_cap_is_inclusive(self):
        mslab.cli._check_work(mslab.cli.MAX_WORK, "mesh")
        with pytest.raises(mslab.cli.ConfigError, match="more than the cap of 100000$"):
            mslab.cli._check_work(mslab.cli.MAX_WORK + 1, "mesh")


def _boolean_keys(obj, key=None):
    """The config keys that hold a boolean, directly or in a list."""
    if isinstance(obj, bool):
        return [key]
    if isinstance(obj, dict):
        return [k for name, value in obj.items() for k in _boolean_keys(value, name)]
    if isinstance(obj, list):
        return [k for value in obj for k in _boolean_keys(value, key)]
    return []


class TestExitSolver:
    def test_unit_ratio_singularity(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"mode": "bvp-singularity",
                            "mesh": {"dt": 0.1, "dx": 0.1, "nt": 6, "nx": 6}})
        assert main(["bridges-check", "--config", cfg]) == EXIT_SOLVER

    def test_overflowing_amplitude_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(LARGE_MSFF_CONFIG, amplitude=1e200))
        assert main(["msff-check", "--config", cfg, "--seed", "1"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("mslab: solver error: ") and err.count("\n") == 1
        assert "step_row (row 2)" in err


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

    @pytest.mark.parametrize("command, payload, code, where", [
        # No interior node to solve for.
        ("bridges-check", {"mode": "bvp-singularity",
                           "mesh": {"dt": 1, "dx": 1, "nt": 1, "nx": 1}},
         EXIT_CONFIG, "nt >= 2 and nx >= 2"),
        # The new row's fixed ends overflow the start guess and the jets.
        ("msff-check", dict(MSFF_CONFIG, closure={"fixed": [1e308, 1e308]}),
         EXIT_SOLVER, "step_row (row 2): non-finite residual"),
        # 1/dt squared overflows the vertex-slot Hessian.
        ("msff-check", {"mesh": {"dt": 1e-300, "dx": 1, "nt": 6, "nx": 6}},
         EXIT_SOLVER, "step_row (row 2): quadratic density produced a non-finite Hessian"),
        ("bridges-check", {"mode": "conservation",
                           "mesh": {"dt": 1e-300, "dx": 1, "nt": 6, "nx": 6}},
         EXIT_SOLVER, "step_row (row 2): quadratic density produced a non-finite Hessian"),
        # One slice and no interior node: nothing to compare.
        ("bridges-check", {"mode": "conservation",
                           "mesh": {"dt": 1, "dx": 1, "nt": 1, "nx": 1}},
         EXIT_CONFIG, "nt >= 2"),
        # json reads Infinity and NaN; such ends are no boundary data.
        ("msff-check", dict(MSFF_CONFIG, closure={"fixed": [float("inf"), 0.0]}),
         EXIT_CONFIG, "bad closure: fixed closure end inf is not finite"),
        ("msff-check", dict(MSFF_CONFIG, closure={"fixed": [0.0, float("nan")]}),
         EXIT_CONFIG, "bad closure: fixed closure end nan is not finite"),
        # The sum of the boundary data, whose mean starts the solve, overflows;
        # numpy's overflow warning once came before the error line.
        ("bridges-check", {"mode": "bvp-singularity", "amplitude": 1e308,
                           "mesh": {"dt": 0.1, "dx": 0.2, "nt": 3, "nx": 3}},
         EXIT_SOLVER, "solve_bvp: non-finite residual at the start"),
        # A float overflow in a sum no solver step expects once printed
        # numpy's warnings, then exit 1 with NaN results (the two-form sums),
        # exit 0 or exit 3 (the Jacobian's norms); now it is one error line.
        ("msff-check", {"mesh": {"dt": 1e-154, "dx": 0.2, "nt": 2, "nx": 2},
                        "amplitude": 1e154},
         EXIT_SOLVER,
         "floating-point error in msforms._region_patch_terms: overflow encountered in multiply"),
        # The row Jacobian's entries are finite but near 1e308; K @ x is not.
        ("bridges-check", {"mode": "conservation",
                           "mesh": {"dt": 0.3, "dx": 1e308, "nt": 2, "nx": 2}},
         EXIT_SOLVER, "step_row (row 2): non-finite residual at the start"),
        ("bridges-check", {"mode": "bvp-singularity", "amplitude": 5e-324,
                           "mesh": {"dt": 1.0, "dx": 1e308, "nt": 5, "nx": 3}},
         EXIT_SOLVER,
         "solve_bvp: a column sum of the Jacobian is not finite"),
        # The order study once overflowed into a traceback (a float power),
        # warnings, or a report of infinite errors.
        ("mechanics", dict(MECH_CONFIG, problem="free", h_ladder=[1.0, 0.5, 1e308]),
         EXIT_SOLVER, "floating-point error in mechanics.FreeParticle.exact_ld: "),
        ("mechanics", dict(MECH_CONFIG, problem="free", z0=[1e308, 0.0]),
         EXIT_SOLVER, "floating-point error in dual.Dual.__add__: overflow encountered in add"),
        ("mechanics", dict(MECH_CONFIG, rule="rectangle", z0=[1e154, 1e154],
                           h_ladder=[0.4, 0.2, 0.1]),
         EXIT_SOLVER, "order study: an error is not finite"),
        # omega * h underflows to 0: once a ValueError traceback.
        ("mechanics", dict(MECH_CONFIG, problem={"kind": "harmonic", "omega": 5e-324}),
         EXIT_CONFIG, "bad order study: h*omega = 0 outside (0, pi)"),
    ], ids=["tiny-bvp-mesh", "overflowing-fixed-ends", "msff-tiny-dt", "bridges-tiny-dt",
            "one-slice-conservation", "infinite-fixed-end", "nan-fixed-end",
            "overflowing-bvp-start", "overflowing-two-forms", "overflowing-row-norms",
            "overflowing-bvp-norms", "overflowing-free-action", "overflowing-free-flow",
            "infinite-order-errors", "subnormal-omega"])
    def test_breach_is_one_error_line(self, tmp_path, capsys, command, payload,
                                      code, where):
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the run
            assert main([command, "--config", cfg]) == code
        err = capsys.readouterr().err
        kind = "config" if code == EXIT_CONFIG else "solver"
        assert err.startswith(f"mslab: {kind} error: ") and err.count("\n") == 1
        assert where in err
        assert "Traceback" not in err and "Warning" not in err

    def test_huge_disc_data_is_a_config_error(self, tmp_path):
        # Run out of process, so the check sees all the interpreter writes to stderr.
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


# ---------------------------------------------------------------------------
# The exit contract on generated configs.  Work sizes stay small: mesh nt and
# nx, nx_ladder entries, time_step_ratio and h_ladder entries are drawn from
# ranges where each run takes milliseconds; every other number may be any
# double, mesh spacings and amplitudes are often extreme, and any value may
# have the wrong type.

_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -1.0, 1e308, -1e308, 1e-300, math.inf, math.nan]))
_JUNK = st.one_of(st.sampled_from(["NaN", "nan", "inf", "", None, True]),
                  st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
                  st.dictionaries(st.sampled_from(["a", "x"]), st.integers(0, 1), max_size=1))


def _or_bad(good, bad=st.one_of(_NUMBER, _JUNK)):
    """``good`` nine times in ten, else ``bad``: by default any double or a
    value of a wrong type."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


def _small(good, *bad_numbers):
    """``good``, else a number from ``bad_numbers`` or a wrong type: for work
    sizes, which no extreme double may set."""
    return _or_bad(good, st.one_of(st.sampled_from(bad_numbers), _JUNK))


def _configs(required: dict, optional: dict):
    """Config objects: optional keys come and go, a required one may be
    missing, and an unknown key may be added."""
    @st.composite
    def draw_config(draw):
        config = draw(st.fixed_dictionaries(required, optional=optional))
        if draw(st.integers(0, 19)) == 0:
            config.pop(draw(st.sampled_from(sorted(required))))
        if draw(st.integers(0, 19)) == 0:
            config["extra_key"] = draw(_NUMBER)
        return config
    return draw_config()


_EXTREME = st.sampled_from([5e-324, 1e-300, 1e-154, 1e154, 1e200, 1e308])
_SIZE = _small(st.integers(2, 6), -1, 0, 1, 2.5, math.inf)
_SPACING = _or_bad(st.one_of(*[st.floats(0.01, 1.0)] * 3, _EXTREME))
_AMPLITUDE = _or_bad(st.one_of(*[st.floats(-10.0, 10.0)] * 3, _EXTREME))
_MESH = _or_bad(st.fixed_dictionaries({"dt": _SPACING, "dx": _SPACING,
                                       "nt": _SIZE, "nx": _SIZE}))
_CONFIGS = {
    "msff-check": _configs({"mesh": _MESH}, {
        "density": _or_bad(st.sampled_from(["linear_wave", "harmonic_dirichlet"])
                           | st.dictionaries(st.sampled_from(["vv", "ww", "uu", "vw", "vu", "wu"]),
                                             _or_bad(st.floats(-2.0, 2.0)), max_size=4)),
        "closure": _or_bad(st.just("periodic") | st.fixed_dictionaries({"fixed": _or_bad(
            st.lists(_or_bad(st.floats(-1.0, 1.0)), min_size=2, max_size=2))})),
        "amplitude": _AMPLITUDE}),
    "bridges-check": _configs({"mesh": _MESH}, {
        "mode": _or_bad(st.sampled_from(["conservation", "bvp-singularity"])),
        "amplitude": _AMPLITUDE}),
    "boundary-lagrangian": st.one_of(
        _configs({"problem": _or_bad(st.just("disc")), "fourier": _or_bad(
            st.fixed_dictionaries({}, optional={
                "a0": _or_bad(st.floats(-10.0, 10.0)),
                "a": _or_bad(st.lists(_or_bad(st.floats(-10.0, 10.0)), max_size=4)),
                "b": _or_bad(st.lists(_or_bad(st.floats(-10.0, 10.0)), max_size=4))}))}, {}),
        _configs({"problem": st.just("wave_square")}, {
            "solution": _or_bad(st.sampled_from(["cubic", "zero", "bilinear",
                                                 "travelling:2", "standing:1", "standing:9"])),
            "nx_ladder": _or_bad(st.lists(_small(st.integers(2, 8), 0, 1, 2.5, math.nan),
                                          max_size=3)),
            "time_step_ratio": _small(st.sampled_from([0.5, 0.25]) | st.floats(0.25, 1.0),
                                      0.0, 1.0, -0.5, 1e308, math.nan),
            "min_order": _or_bad(st.floats(-1.0, 3.0))})),
    "mechanics": _configs({"rule": _or_bad(st.sampled_from(["midpoint", "rectangle"]))}, {
        "problem": _or_bad(st.sampled_from(["free", {"kind": "free"}])
                           | st.fixed_dictionaries({"kind": st.just("harmonic")}, optional={
                               "omega": _or_bad(st.floats(0.1, 3.0) | _EXTREME)})),
        "z0": _or_bad(st.lists(_AMPLITUDE, min_size=2, max_size=2)),
        "h_ladder": _or_bad(st.lists(_small(st.floats(0.05, 1.0), 0.0, -0.1, 10.0, 1e308,
                                            math.nan), min_size=3, max_size=5))}),
}
# Fitted orders, infinite where every error is at round-off (an exact
# family, or the zero solution on the square).
_INFINITE_ORDERS = {"mechanics": {"functional_order", "map_order"},
                    "boundary-lagrangian": {"observed_order"}}


def _leaves(obj):
    """The scalars in ``obj``, at any depth of its lists and objects."""
    if isinstance(obj, (dict, list)):
        return [leaf for value in (obj.values() if isinstance(obj, dict) else obj)
                for leaf in _leaves(value)]
    return [obj]


def _non_finite(results, allowed):
    """The keys of ``results`` that hold a non-finite number (serialised as
    a string) at any depth, other than ``allowed`` ones holding "inf"."""
    return sorted(key for key, value in results.items()
                  if any(leaf in ("inf", "-inf", "nan") for leaf in _leaves(value))
                  and not (key in allowed and value == "inf"))


class TestExitContract:
    @pytest.mark.parametrize("command", sorted(_CONFIGS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_report_and_stderr(self, command, data):
        config = data.draw(_CONFIGS[command], label="config")
        option = data.draw(_or_bad(st.just([]), st.sampled_from([
            ["--tol", "0"], ["--tol", "0.5"], ["--tol", "1e308"], ["--tol", "nan"],
            ["--seed", "-1"], ["--seed", str(2 ** 64)]])), label="option")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(config))
            argv = [command, "--config", str(path), *option, "--out", str(Path(tmp) / "out")]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        assert not [str(w.message) for w in caught]
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG, EXIT_SOLVER)
        if code in (EXIT_OK, EXIT_TOLERANCE):
            assert err == ""
            report = json.loads(out)
            assert set(report) == {"command", "config", "seed", "results",
                                   "passed", "metadata"}
            assert report["passed"] is (code == EXIT_OK)
            assert not _non_finite(report["results"], _INFINITE_ORDERS.get(command, ()))
        else:
            kind = "config" if code == EXIT_CONFIG else "solver"
            assert out == ""
            assert err.startswith(f"mslab: {kind} error: ") and err.count("\n") == 1
            assert "Traceback" not in err


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


class TestOnePass:
    def test_msff_check_makes_one_region_pass(self, tmp_path, capsys, monkeypatch):
        # One kernel call for the region (its per-node residuals included)
        # and one for the negative-control patch.
        calls = []
        kernel = mslab.msforms.triangle_kernel
        monkeypatch.setattr(mslab.msforms, "triangle_kernel",
                            lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        code, _ = run(capsys, ["msff-check", "--config", cfg])
        assert code == EXIT_OK
        assert len(calls) == 2

    def test_fluxes_equal_per_slice_fluxes(self, tmp_path, capsys, monkeypatch):
        # The one-pass list against one symplectic_flux call per slice.
        seen, residuals = [], mslab.msforms.bridges_residuals
        monkeypatch.setattr(mslab.msforms, "bridges_residuals",
                            lambda *a, **kw: seen.append(a) or residuals(*a, **kw))
        cfg = write_config(tmp_path, "c.json", BRIDGES_CONFIG)
        code, report = run(capsys, ["bridges-check", "--config", cfg, "--seed", "3"])
        assert code == EXIT_OK
        (mesh, v_var, w_var), = seen
        expected = [mslab.msforms.symplectic_flux(mesh, v_var, w_var, n)
                    for n in range(mesh.nt)]
        assert len(expected) == mesh.nt
        assert json.dumps(report["results"]["flux_per_slice"]) == json.dumps(expected)

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(
            argparse.ArgumentParser, "add_subparsers",
            lambda self, **kw: builds.append(1) or add_subparsers(self, **kw))
        mslab.cli._build_parser.cache_clear()
        cfg = write_config(tmp_path, "c.json", MSFF_CONFIG)
        _, first = run(capsys, ["msff-check", "--config", cfg])
        _, second = run(capsys, ["msff-check", "--config", cfg])
        assert len(builds) == 1
        assert json.dumps(first["results"]) == json.dumps(second["results"])


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
