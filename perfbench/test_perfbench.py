"""Tests of the benchmark itself: inputs, output checks and span arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mgbary  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.generate(workload, 3)
    b = workloads.generate(workload, 3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_other_seed_changes_cyclic_instances():
    for workload in ("joint_lp", "edge_fixed_point"):
        a, b = workloads.generate(workload, 3), workloads.generate(workload, 4)
        assert a["tripod"] == b["tripod"]
        assert a["cyclic"] != b["cyclic"]
    a, b = workloads.generate("cli_graphs", 3), workloads.generate("cli_graphs", 4)
    assert a["graphs"]["g10"]["graph"] != b["graphs"]["g10"]["graph"]
    assert a["problem"] != b["problem"]


def _small_joint_lp_ops(tmp_path):
    ops = workloads.build("joint_lp", workloads.generate("joint_lp", 3), str(tmp_path))
    return [op for op in ops if op.label in ("tripod h=1/16", "triangle#0 h=1/32")]


def test_right_results_pass(tmp_path):
    ops = _small_joint_lp_ops(tmp_path)
    assert len(ops) == 2
    assert run.run_pass(ops).failed == 0


def test_wrong_result_counts_as_failed(tmp_path, monkeypatch):
    solve_lp = mgbary.solve_lp

    def off_by_a_little(problem):
        mu, value = solve_lp(problem)
        return mu, value * (1 + 1e-6)

    monkeypatch.setattr(mgbary, "solve_lp", off_by_a_little)
    res = run.run_pass(_small_joint_lp_ops(tmp_path))
    assert res.failed == 2
    assert len(res.times) == 2


class ScriptedRef:
    """Stands in for ReferenceLP with fixed solve times."""

    def __init__(self, times):
        self.times = [times[0]]
        self._next = iter(times[1:])

    def __call__(self):
        self.times.append(next(self._next))
        return self.times[-1]


def test_op_time_is_relative_to_mean_of_bracketing_reference_solves():
    ops = [workloads.Op(str(i), lambda: None, lambda out: None) for i in range(3)]
    res = run.run_pass(ops, ref=ScriptedRef([1.0, 3.0, 2.0, 6.0]))
    brackets = [(1.0, 3.0), (3.0, 2.0), (2.0, 6.0)]
    assert res.rel == [t / ((a + b) / 2) for t, (a, b) in zip(res.times, brackets)]
    other = run.run_pass(ops, ref=ScriptedRef([2.0, 2.0, 2.0, 2.0]))
    assert run.rel_times([res, other]) == [
        (x + y) / 2 for x, y in zip(res.rel, other.rel)
    ]


def test_reference_lp_checks_its_own_value():
    ref = run.ReferenceLP()
    assert ref() > 0 and ref() > 0
    assert len(ref.times) == 2
    ref.value += 1.0
    with pytest.raises(RuntimeError):
        ref()


def test_raising_operation_and_changed_stdout_count_as_failed():
    def boom():
        raise RuntimeError("boom")

    outputs = iter(["1\n", "2\n"])
    check = workloads._check_cli()
    ops = [
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("cli", lambda: (0, next(outputs)), check),
    ]
    assert run.run_pass(ops).failed == 1  # the raise; first stdout is the reference
    assert run.run_pass(ops[1:]).failed == 1  # stdout changed


def test_self_times_of_nested_tree_add_up_to_root():
    tr = spans.Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    root = tr.open("root")
    busy(0.002)
    for _ in range(2):
        a = tr.open("a")
        busy(0.001)
        b = tr.open("b")
        busy(0.001)
        tr.close(b)
        c = tr.open("c")
        tr.close(c)
        tr.close(a)
    tr.close(root)
    table = spans.SpanTable(tr, 0, len(tr))
    assert table.self_time.sum() == pytest.approx(table.duration[0], rel=1e-12, abs=1e-12)
    assert (table.self_time >= 0).all()
    assert table.parent.tolist() == [-1, 0, 1, 1, 0, 4, 4]


def test_installed_wrappers_record_layers_and_restore(tmp_path):
    distance = mgbary.distance
    linprog = mgbary.barycenter.linprog
    op = _small_joint_lp_ops(tmp_path)[0]
    tr = spans.Tracer()
    with spans.installed(tr, mgbary):
        res = run.run_pass([op], tr)
    assert res.failed == 0
    assert mgbary.distance is distance
    assert mgbary.metric_graph.distance is distance
    assert mgbary.barycenter.linprog is linprog
    m = spans.layer_metrics(spans.SpanTable(tr, *res.spans), res.counts)
    assert m["barycenter.solve_lp.calls"] == 1
    assert m["highs.joint.calls"] == 1
    assert m["barycenter.lp.vars"] > m["barycenter.lp.rows"] > 0
    assert 0 < m["barycenter.lp.active_frac"] < 1
    assert 0 < m["barycenter.cost_matrix_s"] <= m["metric_graph.distance.busy_s"]
    assert m["barycenter.regularity_report.busy_s"] > 0
    # the check of the op recomputes nothing under tracing
    assert m["barycenter.objective.busy_s"] == 0


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == spans.PER_LAYER
