"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl
from nclil import cli, lil, martingales, operators

BENCHMARK = Path(run.__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_metric_names_are_plain_and_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    for table, declared in ((run.END_TO_END, spec["end_to_end"]),
                            (run.PER_LAYER, spec["per_layer"])):
        names = [n for n, _ in table]
        assert all(NAME.match(n) for n in names)
        assert len(set(names)) == len(names)
        assert [(m["name"], m["unit"]) for m in declared] == table
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_self_time_on_synthetic_span_tree():
    # A [0,10] holds span B [1,4] (with leaf L [2,3]), leaf C [5,6], span D [7,9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    a = t.enter("x", "A", span=True)
    b = t.enter("y", "B", span=True)
    leaf = t.enter("z", "L", span=False)
    t.exit(leaf)
    t.exit(b)
    c = t.enter("z", "C", span=False)
    t.exit(c)
    d = t.enter("y", "D", span=True)
    t.exit(d)
    t.exit(a)
    assert dict(t.self_s) == {"x": 4.0, "y": 4.0, "z": 2.0}
    assert dict(t.calls) == {"x": 1, "y": 2, "z": 2}
    spans = {s["name"]: s for s in t.spans}
    assert set(spans) == {"A", "B", "D"}
    assert spans["A"]["parent"] is None
    assert spans["B"]["parent"] == spans["D"]["parent"] == spans["A"]["id"]
    assert [spans[n]["self_s"] for n in "ABD"] == [4.0, 2.0, 2.0]
    assert sum(t.self_s.values()) == spans["A"]["end"] - spans["A"]["start"]


def test_frames_must_close_in_order():
    t = tracing.Tracer()
    outer = t.enter("x", "outer", span=True)
    t.enter("x", "inner", span=True)
    with pytest.raises(RuntimeError):
        t.exit(outer)


def _tiny_lil(out):
    return ["lil-run", "--horizon", "20000", "--paths", "64", "--eps-prime", "0.02",
            "--seed", "3", "--out", str(out)]


def test_wrappers_removed_after_traced_run(tmp_path):
    originals = (lil.sample_step_increments, martingales.sample_step_increments,
                 operators.eigenvalues, operators.Operator.__init__, cli.run_lil_experiment)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        assert lil.sample_step_increments is not originals[0]
        assert hasattr(operators.Operator.__init__, tracing.MARK)
        assert cli.main(_tiny_lil(tmp_path / "t")) == 0
    assert tracing.leftover_wrappers() == []
    assert (lil.sample_step_increments, martingales.sample_step_increments,
            operators.eigenvalues, operators.Operator.__init__,
            cli.run_lil_experiment) == originals
    assert tracer.calls["martingales.increments"] > 0 and tracer.calls["lil"] == 1


def test_wrappers_removed_when_the_traced_call_raises():
    with pytest.raises(ZeroDivisionError):
        with tracing.Instrumented(tracing.Tracer()):
            1 / 0
    assert tracing.leftover_wrappers() == []


def test_path_steps_is_last_k_end_times_paths(tmp_path):
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        assert cli.main(_tiny_lil(tmp_path / "t")) == 0
    assert cli.main(_tiny_lil(tmp_path / "u")) == 0
    summary = wl.read_summary(tmp_path / "u")
    k_end = summary["blocks"][-1]["k_end"]
    assert k_end < 20000                      # streams only to the last boundary
    assert wl.work_done(summary) == ("path-steps", k_end * 64)
    assert tracer.counts["lil.path_steps"] == k_end * 64
    assert wl.payload_digest(tmp_path / "t") == wl.payload_digest(tmp_path / "u")


def test_gates_report_failed_conditions():
    bad = {"summary": {"certified_violations": 1, "hold_rate": 0.5}}
    assert wl.gate_doob(bad) == ["certified_violations == 0", "hold_rate >= 0.95"]
    ok = {"median": 1.2, "frac_above_2": 0.01, "preasymptotic": True}
    assert wl.gate_baseline(ok) == []


class _FailingCli:
    """Stands in for nclil.cli: every call exits 1 and writes nothing."""

    @staticmethod
    def main(argv):
        return 1


def test_failed_counts_calls_not_messages(tmp_path):
    calls = [wl.Call("a", ("a",), wl.gate_doob), wl.Call("b", ("b",), wl.gate_doob)]
    workload = wl.Workload("fake", "checks", 1, False, lambda seed: calls, (("a",),))
    result = run.run_once(_FailingCli, workload, 0, tmp_path)
    assert result["calls"] == 2 and result["failed_calls"] == 2
    assert result["digest"] is None           # a run-level failure, not a third failed call
    warm = run.warm_up(_FailingCli, workload, tmp_path)
    assert warm["calls"] == 1 and warm["failed_calls"] == 1


def test_sweep_pool_has_no_traced_run():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "sweep-pool", "--trace", "1"])
    assert exc.value.code == 2
