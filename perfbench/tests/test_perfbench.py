"""Tests of the benchmark's own code: statistics, tracing and the checks."""

import json
import statistics
from pathlib import Path

import pytest

import benchstats
import mslab
import mslab.cli
import reference
import run
import tracing
import workloads
from worker import PassRunner


class TestStatistics:
    def test_quartiles_match_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        assert benchstats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
        assert benchstats.quartiles([2.5]) == (2.5, 2.5, 2.5)

    @pytest.mark.parametrize("n, percentile, rank", [
        (11, 9, 1), (12, 16, 2), (20, 50, 10), (100, 90, 90), (1000, 99, 990)])
    def test_tail_percentile_leaves_ten_samples_beyond(self, n, percentile, rank):
        samples = [float(k) for k in range(n, 0, -1)]
        p, value = benchstats.tail_percentile(samples)
        assert (p, value) == (percentile, float(rank))
        assert sum(s > value for s in samples) >= 10

    def test_tail_percentile_needs_eleven_samples(self):
        assert benchstats.tail_percentile([1.0] * 10) is None


class TestCalibration:
    def test_each_check_uses_the_chunks_around_it(self):
        unit = reference.REF_CHUNK_S
        # Check 0 ran at nominal speed, check 1 while the machine was half as
        # fast (chunks around it took twice as long on average).
        cal = reference.calibrated_wall([2.0, 3.0], [unit, unit, 3.0 * unit])
        assert cal == pytest.approx(2.0 + 3.0 / 2.0)

    def test_needs_a_chunk_after_the_last_check(self):
        with pytest.raises(ValueError):
            reference.calibrated_wall([1.0, 1.0], [0.05, 0.05])

    def test_runner_leaves_reference_time_out_of_the_pass(self):
        runner = PassRunner([workloads.Check("c", lambda: workloads.CheckOutcome({}))])
        calls = []
        wall = runner.run_pass(reference=lambda: calls.append(1) or 7.0)
        assert len(calls) == 2 and runner.ref_walls == [7.0, 7.0]
        assert wall == runner.check_walls[0] < 7.0


class TestSpanSelfTimes:
    def test_synthetic_tree(self):
        # (id, name, start, end, parent, check, agg_s)
        spans = [
            (0, "cli.main", 0.0, 10.0, None, "c", 1.0),
            (1, "delsolve.solve_bvp", 1.0, 4.0, 0, "c", 0.5),
            (2, "scipy.splu", 2.0, 3.0, 1, "c", 0.0),
            (3, "genfunc.region_action", 3.0, 6.0, 0, "c", 0.0),
            (4, "oracles.dtn_pairing", 7.0, 12.0, 0, "c", 0.0),
        ]
        own = tracing.span_self_times(spans)
        # The root's children cover [1, 6] and [7, 10] (clipped to the root).
        assert own[0] == pytest.approx(10.0 - 5.0 - 3.0 - 1.0)
        assert own[1] == pytest.approx(3.0 - 1.0 - 0.5)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(5.0)


def _bindings():
    spaces = [mslab] + [getattr(mslab, m) for m in tracing.MODULES]
    snapshot = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}
    snapshot[("JetTriple", "__init__")] = mslab.JetTriple.__init__
    return snapshot


class TestTracer:
    def test_restores_every_original(self):
        before = _bindings()
        with tracing.Tracer(mslab):
            assert mslab.delsolve.grad_Ld is not before[("mslab.delsolve", "grad_Ld")]
            assert mslab.delsolve.splu is not before[("mslab.delsolve", "splu")]
            assert mslab.JetTriple.__init__ is not before[("JetTriple", "__init__")]
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_restores_after_an_error(self):
        before = _bindings()
        with pytest.raises(RuntimeError):
            with tracing.Tracer(mslab):
                raise RuntimeError("boom")
        after = _bindings()
        assert all(after[k] is before[k] for k in before)

    def test_wraps_each_binding_of_a_name(self):
        with tracing.Tracer(mslab) as tracer:
            mesh = mslab.build_mesh(dt=0.1, dx=0.2, nt=4, nx=4)
            region = mslab.RectRegion(0, 0, 4, 4)
            data = mslab.BoundaryData(region, [0.1] * 16)
            mslab.boundary_lagrangian(mslab.LinearWave, mesh, data)
        stats = tracer.stats
        assert stats["genfunc.boundary_lagrangian"].calls == 1
        assert stats["delsolve.solve_bvp"].calls == 1   # bound in genfunc
        assert stats["lagrangian.eval_Ld"].calls == 16  # bound in genfunc
        assert stats["lagrangian.hess_Ld"].calls > 0    # bound in delsolve
        assert stats["scipy.splu"].calls >= 1
        assert tracer.extra["lu_fill_nnz"] > 0
        names = [sp[1] for sp in tracer.spans]
        assert "delsolve.solve_bvp" in names and "jetmesh.JetTriple" not in names

    def test_missing_name_is_not_zero(self):
        with tracing.Tracer(mslab) as tracer:
            pass
        del tracer.stats["delsolve.step_row"]
        metrics = tracing.layer_metrics(tracer, 1.0)
        assert metrics["delsolve.step_rows"] == (None, "count")
        assert metrics["delsolve.bvp_solves"] == (0, "count")


class TestCorrectnessGate:
    def test_raising_and_unstable_checks_fail(self):
        state = {"n": 0}

        def unstable():
            state["n"] += 1
            return workloads.CheckOutcome({"x": float(state["n"])})

        def raising():
            raise ValueError("no")

        runner = PassRunner([workloads.Check("unstable", unstable),
                             workloads.Check("raising", raising),
                             workloads.Check("missed", lambda: workloads.CheckOutcome(
                                 {}, ["gap 1e-3 > 1e-10"]))])
        runner.run_pass()
        runner.run_pass()
        failed = sorted((f["check"], f["pass"]) for f in runner.failures)
        assert failed == [("missed", 1), ("missed", 2), ("raising", 1),
                          ("raising", 2), ("unstable", 2)]
        assert runner.attempted == 6


# Layer metrics that must stay zero on a workload (the zero-call predictions).
ZERO_ON = {
    "msff-wave": ["dual.hessian_calls", "dual.gradient_calls", "dual.partial_calls",
                  "mechanics.collocation_calls"],
    "square-ladder": ["dual.hessian_calls", "dual.gradient_calls",
                      "dual.partial_calls", "mechanics.collocation_calls",
                      "msforms.patch_calls", "delsolve.step_rows"],
    "nonlinear-genfunc": ["msforms.patch_calls"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_workload_passes(workload, tmp_path):
    checks = workloads.build(workload, 7, tmp_path, small=True)
    runner = PassRunner(checks)
    runner.run_pass()
    with tracing.Tracer(mslab) as tracer:
        wall = runner.run_pass(tracer)
    assert runner.failures == []
    assert runner.attempted == 2 * len(checks)
    metrics = tracing.layer_metrics(tracer, wall)
    assert all(value is not None for value, _ in metrics.values())
    for name in ZERO_ON[workload]:
        assert metrics[name][0] == 0, name


def test_benchmark_file_names_every_metric():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    with tracing.Tracer(mslab) as tracer:
        pass
    layer = [(name, unit) for name, (_, unit) in tracing.layer_metrics(tracer, 1.0).items()]
    layer.append(("trace.overhead_s", "s"))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
