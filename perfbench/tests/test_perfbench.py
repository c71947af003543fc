"""Self-tests of the benchmark: span arithmetic, tracing transparency, checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  lone [20, 21]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    names = ["root", "a", "a1", "b"]
    name_id = np.array([0, 1, 2, 3, 1])
    stats = tracing.summarize(names, name_id, parent, start, end)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == 3.0          # 2 from the nested call, 1 alone
    assert stats["a"]["total_s"] == 4.0
    assert sum(s["self_s"] for s in stats.values()) == 11.0   # both root spans


def test_recorder_nests_wrapped_calls():
    rec = tracing.SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    with rec.span("root"):
        assert outer(1) == 4
    arrays = rec.arrays()
    by_name = dict(zip((rec.names[i] for i in arrays["name_id"]), arrays["parent"]))
    sid = {rec.names[i]: k for k, i in enumerate(arrays["name_id"])}
    assert by_name == {"root": -1, "outer": sid["root"], "inner": sid["outer"]}


class SmallTail(workloads.TailPoint):
    replicas = op_units = 100
    max_horizon = 1 << 13


class SmallCompare(workloads.CompareSymmetric):
    replicas = op_units = 20
    max_horizon = 1 << 12


class SmallErgodic(workloads.ErgodicLong):
    horizon = 1 << 11
    max_horizon = 1 << 12


class SmallWindow(workloads.WindowExact):
    pool = 8


@pytest.mark.parametrize("cls", [SmallTail, SmallCompare, SmallErgodic, SmallWindow])
def test_tracing_leaves_outputs_byte_identical(cls, tmp_path):
    wl = cls(3, tmp_path)
    plain = [wl.run_op(k).digest for k in range(3)]
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    try:
        traced = [wl.run_op(k).digest for k in range(3)]
    finally:
        tracing.uninstall(undo)
    assert traced == plain
    assert len(rec.start) > 0
    assert not hasattr(workloads.stable_alloc.stable_allocation, "__wrapped__")


def test_traced_pass_pairs_every_operation(tmp_path):
    wl = SmallCompare(4, tmp_path)
    rec = tracing.SpanRecorder()
    out = worker.timed_phase(wl, 0.5, rec)
    assert out["ops"] and all(op[1] == [] for op in out["ops"])
    assert all(op[2] > 0 and op[3] > 0 for op in out["ops"])
    layers = tracing.layer_metrics(rec, out["censored"], out["replicas"])
    assert layers["bench.harness.calls"] == len(out["ops"])
    assert layers["embedding.match_slots.calls"] > 0
    assert 0.9 < layers["bench.accounted_share"] <= 1.0
    assert not hasattr(workloads.cli.main, "__wrapped__")


def test_window_check_rejects_corrupted_outputs(tmp_path):
    wl = SmallWindow(5, tmp_path)
    # Instance 3 has 4 pairs: allocation, inequality and repair all run.
    out = wl.solve(*wl.instances[3])
    assert "margins" in out and "sweep" in out and len(out["tau"]) >= 2
    assert workloads.check_window(out) == []

    def corrupted(edit):
        bad = copy.deepcopy(out)
        edit(bad)
        return workloads.check_window(bad)

    def swap_two(o):
        tau = list(o["tau"])
        tau[0], tau[1] = tau[1], tau[0]
        o["tau"] = tuple(tau)

    def off_by_one(o):
        o["tau"] = (o["tau"][0] + 1,) + tuple(o["tau"][1:])

    def negative_margin(o):
        o["margins"][next(iter(o["margins"]))] = -1e-6

    def rising_cost(o):
        costs = next(iter(o["sweep"]["costs"].values()))
        costs.append(costs[-1] + 1.0)

    def wrong_fixpoint(o):
        o["sweep"]["final"] = {}

    for edit in (swap_two, off_by_one, negative_margin, rising_cost, wrong_fixpoint):
        assert corrupted(edit), edit.__name__


def test_compare_check_rejects_corrupted_outputs(tmp_path):
    wl = SmallCompare(5, tmp_path)
    cfg = wl.config(0)
    data, _raw, _out = wl._run(cfg, "op")
    assert workloads.check_compare(data, cfg["replicas"]) == []
    assert workloads.check_compare(dict(data, pathwise_violations=1), cfg["replicas"])
    assert workloads.check_compare(dict(data, paths_used=data["paths_used"] + 1),
                                   cfg["replicas"])


def test_tail_and_ergodic_checks_reject_corrupted_outputs():
    data = {"replicas": 100, "censored": 3, "alpha_hat": 0.25,
            "partial_mean_quarter": [{"checkpoint": 100, "mean": 1.0}]}
    survival = [0.5, 0.2, 0.05]
    assert workloads.check_tail(data, survival, 100) == []
    assert workloads.check_tail(dict(data, censored=101), survival, 100)
    assert workloads.check_tail(dict(data, alpha_hat=0.5), survival, 100)
    assert workloads.check_tail(dict(data, alpha_hat=None), survival, 100)
    assert workloads.check_tail(data, [0.2, 0.5, 0.05], 100)
    assert workloads.check_tail(data, [0.5, 0.2, 0.01], 100)

    summary = [{"gauge": g, "fwd_ok": True, "bwd_ok": True} for g in "abcd"]
    assert workloads.check_ergodic({"summary": summary}, 4) == []
    bad = copy.deepcopy(summary)
    bad[2]["bwd_ok"] = False
    assert workloads.check_ergodic({"summary": bad}, 4)
    assert workloads.check_ergodic({"summary": summary[:3]}, 4)


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tail-point", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
