import ast
import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab
from shiftlab import experiments
from shiftlab.cli import (EXIT_CONFIG, EXIT_HORIZON, EXIT_INVARIANT, EXIT_OK,
                          OUTPUT_DIR_ENV, main)
from shiftlab.experiments import ExperimentConfig


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def walk_config(extra=None):
    obj = {
        "mu": {"denominator": 1, "atoms": [[0, 1]]},
        "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]},
        "walk": {"dx": "1", "horizon_fwd": 2048, "horizon_bwd": 8, "seed": 1},
        "replicas": 40,
        "max_horizon": 1 << 15,
    }
    obj.update(extra or {})
    return obj


def test_walk_command_writes_tables(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    rc = main(["--output-dir", str(tmp_path / "out"), "walk", cfg])
    assert rc == EXIT_OK
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "tables" / "path.csv").exists()
    assert (tmp_path / "out" / "tables" / "ledger.csv").exists()
    assert "report written" in capsys.readouterr().out


_WALK_PINS = {
    # A two-atom mu of weights 3/4 and 1/4 (three slots at site 0), a
    # three-atom nu and dx = 1/3.
    "multi-slot": ({
        "mu": {"denominator": 4, "atoms": [[0, 3], [2, 1]]},
        "nu": {"denominator": 4, "atoms": [[-1, 1], [1, 2], [3, 1]]},
        "walk": {"dx": "1/3", "horizon_fwd": 300, "horizon_bwd": 300,
                 "seed": 11}}, (
        "8d9cc2eadd4c46cc23179299526f5cbb7a99afb83cc4f4e3d002fac2dbc9747e",
        "186a49c7e60712226aec146e9c92c39ff9d0ed88325ab1ad1812560196fb95ff",
        "695926e44fd87174fff4ffbefdf69ed33fe4f43c709a6de05d398d99bf2b67bf")),
    "unequal-horizons": ({
        "mu": {"denominator": 1, "atoms": [[0, 1]]},
        "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]},
        "walk": {"dx": "1", "horizon_fwd": 777, "horizon_bwd": 41, "seed": 5},
        "replica": 3}, (
        "354ab6ff6e8153586f0642b20840e2164438aa533d67d976e32b17d67a59f6a2",
        "3fe051909cf70618f26784f0a45d90c40288d94b36947a08a39185cc2fb5ca8f",
        "023e57945e78f423ea4c4d3b3fd9ab1ec131aeb2a14c40daa74a21279abc2812")),
}


@pytest.mark.parametrize("name", sorted(_WALK_PINS))
def test_walk_command_bytes_are_pinned(tmp_path, name):
    obj, pins = _WALK_PINS[name]
    cfg = write_json(tmp_path, "cfg.json", obj)
    assert main(["--output-dir", str(tmp_path / "o"), "walk", cfg]) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / "o" / f).read_bytes()).hexdigest()
                for f in ("report.json", "tables/path.csv", "tables/ledger.csv"))
    assert got == pins


def test_embed_command_and_report_content(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    rc = main(["--output-dir", str(tmp_path / "o"), "embed", cfg])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["experiment"] == "embed_law"
    data = report["data"]
    assert data["completed"] + data["censored"] == 40


def test_env_var_overrides_flag(tmp_path, monkeypatch):
    cfg = write_json(tmp_path, "cfg.json", {"a": [3, 1], "b": [2, 4, 5, 6]})
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    rc = main(["--output-dir", str(tmp_path / "from_flag"), "allocate", cfg])
    assert rc == EXIT_OK
    assert (env_dir / "report.json").exists()
    assert not (tmp_path / "from_flag").exists()


def test_config_dir_key_used_as_fallback(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_json(tmp_path, "cfg.json",
                     {"a": [3, 1], "b": [2, 4, 5, 6], "output_dir": "cfg_out"})
    assert main(["allocate", cfg]) == EXIT_OK
    assert (tmp_path / "cfg_out" / "report.json").exists()


@pytest.mark.parametrize("value", [5, None, [], True])
def test_config_dir_key_of_the_wrong_type_is_config_error(tmp_path, monkeypatch,
                                                          capsys, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    cfg = write_json(tmp_path, "cfg.json",
                     {"a": [3, 1], "b": [2, 4, 5, 6], "output_dir": value})
    assert main(["allocate", cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_allocate_report_values(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {"a": [3, 1], "b": [2, 4, 5, 6]})
    assert main(["--output-dir", str(tmp_path / "o"), "allocate", cfg]) == EXIT_OK
    data = json.loads((tmp_path / "o" / "report.json").read_text())["data"]
    assert data["match"]["pairs"] == [["3", "4"], ["1", "2"]]


def test_inequality_fixture_margin(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {
        "a": [5, 4], "b": [6, 7], "N": 2,
        "matrix": [[0, 1, 1, 1], [1, 0, 1, 1]],
        "gauges": [{"kind": "power", "param": [1, 2]}],
    })
    assert main(["--output-dir", str(tmp_path / "o"), "inequality", cfg]) == EXIT_OK
    data = json.loads((tmp_path / "o" / "report.json").read_text())["data"]
    (rep,) = data["cost_reports"].values()
    assert rep["margin"] == pytest.approx(0.19272, abs=1e-4)


def test_repair_writes_cost_trace(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {
        "a": [5, 4], "b": [6, 7], "N": 2,
        "matrix": [[0, 1, 1, 1], [1, 0, 1, 1]],
    })
    assert main(["--output-dir", str(tmp_path / "o"), "repair", cfg]) == EXIT_OK
    data = json.loads((tmp_path / "o" / "report.json").read_text())["data"]
    assert data["converged"] and data["steps"] == 1
    trace = (tmp_path / "o" / "tables" / "cost_trace.csv").read_text()
    assert trace.startswith("step,")
    for rep in data["cost_reports"].values():
        assert abs(rep["margin"]) < 1e-9


def test_missing_file_is_config_error(tmp_path, capsys):
    rc = main(["--output-dir", str(tmp_path), "embed",
               str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_malformed_json_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["--output-dir", str(tmp_path), "embed", str(p)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_unknown_gauge_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json",
                     walk_config({"gauges": [{"kind": "nope"}]}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_CONFIG
    capsys.readouterr()


def test_infeasible_matrix_is_invariant_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", {
        "a": [5, 4], "b": [6, 7], "N": 2,
        "matrix": [[0, 0, 1, 2], [1, 1, 1, 1]],   # row sums 1/2 and 1
    })
    assert main(["--output-dir", str(tmp_path / "o"), "repair", cfg]) == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invariant" and err["violations"]


def test_unmatched_truncation_is_invariant_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", {"a": [5, 4], "b": [6]})
    assert main(["--output-dir", str(tmp_path / "o"), "allocate", cfg]) == EXIT_INVARIANT
    capsys.readouterr()


def test_unbalanced_split_is_invariant_error(tmp_path, capsys, monkeypatch):
    from shiftlab.measures import DiscreteMeasure

    monkeypatch.setattr(DiscreteMeasure, "is_probability",
                        property(lambda self: True))
    cfg = write_json(tmp_path, "cfg.json", walk_config(
        {"nu": {"denominator": 2, "atoms": [[1, 1]]}}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_INVARIANT
    assert json.loads(capsys.readouterr().err)["error"] == "invariant"


def test_censoring_everywhere_is_not_an_error(tmp_path):
    # Exhausted horizons on some replicas are data, not a failure.
    cfg = write_json(tmp_path, "cfg.json", walk_config(
        {"max_horizon": 256,
         "walk": {"dx": "1", "horizon_fwd": 256, "horizon_bwd": 4, "seed": 1}}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_OK
    data = json.loads((tmp_path / "o" / "report.json").read_text())["data"]
    assert data["censored"] > 0


def test_tail_with_every_t_star_zero_is_not_an_error(tmp_path):
    # mu = nu: every replica stops at T* = 0, so each partial mean is 0 and
    # their relative change is undefined; it is reported as null.
    cfg = write_json(tmp_path, "cfg.json", walk_config(
        {"nu": {"denominator": 1, "atoms": [[0, 1]]}, "replicas": 2000}))
    assert main(["--output-dir", str(tmp_path / "o"), "tail", cfg]) == EXIT_OK
    data = json.loads((tmp_path / "o" / "report.json").read_text())["data"]
    assert data["censored"] == 0 and data["tenth_rel_change"] is None


def test_horizon_exit_code(tmp_path, capsys, monkeypatch):
    import shiftlab.cli as cli_mod
    from shiftlab.errors import HorizonExceededError

    def boom(cfg):
        raise HorizonExceededError("budget exhausted", horizon=512)

    monkeypatch.setitem(cli_mod._COMMANDS, "embed",
                        cli_mod._experiment("embed", "embed_law", boom))
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_HORIZON
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "horizon" and err["horizon"] == 512


def test_mode_and_horizon_policy_are_ignored_keys(tmp_path):
    # T* has one stop rule and one horizon policy: a config naming an old
    # one, or a misspelt one, writes the bytes of the config without it.
    def report(command, extra):
        out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
        cfg = write_json(tmp_path, "cfg.json", walk_config(extra))
        assert main(["--output-dir", str(out), command, cfg]) == EXIT_OK
        return (out / "report.json").read_bytes()

    for command in ("embed", "compare"):
        plain = report(command, {})
        for extra in ({"mode": "crossing"}, {"mode": "exact"},
                      {"mode": "exakt"}, {"horizon_policy": "fixed"}):
            assert report(command, extra) == plain


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# What each experiment reports with no completed replica: no statistic of
# an empty sample, and no passed verdict.
_NO_SAMPLE = {
    "embed": {"completed": 0, "tv_distance": None, "chi2": None,
              "excess_censoring_flag": True},
    "unbiased": {"completed": 0, "p_plus_first_step": None, "sign_z": None,
                 "sign_ok": False},
    "compare": {"paths_used": 0, "pathwise_violations": 0},
    "excursion-cost": {"excursions_used": 0, "min_margin": None,
                       "all_nonnegative": False},
    "tail": {"censored": 40, "alpha_hat": None,
             "partial_mean_quarter": [{"checkpoint": 40, "mean": None}],
             "partial_mean_tenth": [{"checkpoint": 40, "mean": None}],
             "quarter_increasing": False},
    "ergodic": {"ensemble_censored": 1000},
}


@pytest.mark.parametrize("command", sorted(_NO_SAMPLE))
def test_all_censored_reports_are_strict_json(tmp_path, command):
    # delta_5 lies 5 steps from the start: max_horizon 1 censors every
    # replica, ergodic's ensemble included.
    cfg = write_json(tmp_path, "cfg.json", walk_config({
        "nu": [[5, 1, 1]], "max_horizon": 1,
        "walk": {"horizon_fwd": 2048, "horizon_bwd": 2048, "seed": 1}}))
    out = tmp_path / "o"
    assert main(["--output-dir", str(out), command, cfg]) == EXIT_OK
    data = json.loads((out / "report.json").read_text(),
                      parse_constant=_refuse_constant)["data"]
    assert {k: data[k] for k in _NO_SAMPLE[command]} == _NO_SAMPLE[command]
    for row in data.get("summary", []):
        assert row["half_ensemble"] is None and row["ensemble_se"] is None
        assert not row["fwd_ok"] and not row["bwd_ok"]
    for table in (out / "tables").glob("*.csv"):
        cells = [c for line in table.read_text().splitlines()
                 for c in line.split(",")]
        assert "nan" not in cells, table.name


def test_a_non_finite_report_is_an_invariant_error(tmp_path, capsys,
                                                   monkeypatch):
    import shiftlab.cli as cli_mod
    from shiftlab.experiments import StatReport

    monkeypatch.setitem(cli_mod._COMMANDS, "embed", cli_mod._experiment(
        "embed", "embed_law",
        lambda cfg: StatReport("embed_law", "-", {"tv_distance": math.nan})))
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    out = tmp_path / "o"
    assert main(["--output-dir", str(out), "embed", cfg]) == EXIT_INVARIANT
    assert json.loads(capsys.readouterr().err)["error"] == "invariant"
    assert not (out / "report.json").exists()


def test_matching_on_non_orthogonal_pair_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", walk_config({
        "mu": {"denominator": 2, "atoms": [[0, 1], [1, 1]]},
        "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]}}))
    assert main(["--output-dir", str(tmp_path / "o"), "compare", cfg]) == EXIT_CONFIG
    assert "orthogonal" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("point", ["x", "inf", "1/0"])
def test_malformed_point_is_config_error(tmp_path, capsys, point):
    cfg = write_json(tmp_path, "cfg.json", {"a": [point, 1], "b": [2, 4, 5]})
    assert main(["--output-dir", str(tmp_path / "o"), "allocate", cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("command, extra", [
    ("tail", {"replicas": 0}),
    ("embed", {"replicas": 0}),
    ("unbiased", {"lags": [0, 4]}),
    ("embed", {"max_horizon": 0}),
    ("tail", {"max_horizon": -5}),
])
def test_out_of_range_counts_are_config_errors(tmp_path, capsys, command,
                                               extra):
    cfg = write_json(tmp_path, "cfg.json", walk_config(extra))
    assert main(["--output-dir", str(tmp_path / "o"), command, cfg]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and ">= 1" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["embed", "tail"])
def test_a_hull_too_wide_for_the_engine_is_a_config_error(tmp_path, capsys,
                                                           command):
    # The engine tables every site of the atoms' hull: delta_0 to
    # delta_(10^10) once died allocating 74.5 GiB.  It is refused when the
    # config is read; a hull of 2^24 sites passes.
    cfg = write_json(tmp_path, "cfg.json", walk_config({"nu": [[10**10, 1, 1]]}))
    assert main(["--output-dir", str(tmp_path / "o"), command, cfg]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": "the atoms of mu and nu must lie within "
                                      "2^24 sites of one another, got 10000000000"}
    assert not (tmp_path / "o").exists()
    ExperimentConfig.from_json(walk_config({"nu": [[-(1 << 24), 1, 1]]}))


def test_excursion_cost_needs_unit_nu_atoms_in_either_mode(tmp_path, capsys):
    # A nu-atom of weight 2/3 closes two slots at once, so T* can overshoot
    # the balance and the excursion's slots would not match up.  The old
    # "mode" key is ignored; the pair is refused before any scan.
    for extra in ({"mode": "crossing"}, {}):
        cfg = write_json(tmp_path, "cfg.json", walk_config({
            "mu": [[0, 1, 1]], "nu": [[-1, 1, 3], [1, 2, 3]], **extra}))
        assert main(["--output-dir", str(tmp_path / "o"), "excursion-cost",
                     cfg]) == EXIT_CONFIG
        assert "1/q" in json.loads(capsys.readouterr().err)["message"]


def test_excursion_cost_off_equality_is_invariant_error(tmp_path, capsys,
                                                        monkeypatch):
    import shiftlab.experiments as exp
    from shiftlab.transport import CostReport

    monkeypatch.setattr(exp, "inequality_check",
                        lambda pi, g: CostReport(lhs=1.5, rhs=1.0, gauge=g))
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    assert main(["--output-dir", str(tmp_path / "o"), "excursion-cost",
                 cfg]) == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invariant" and "equality" in err["message"]


def test_compare_with_a_broken_comparator_is_invariant_error(tmp_path, capsys,
                                                             monkeypatch):
    # A matching the program built itself that misses a slot is a bug, not
    # bad input: here FIFO drops the cohort's last slot.
    from shiftlab import experiments

    apply = experiments.apply_comparator

    def drop_fifo_slot(comp, cohort, stable):
        pairs = apply(comp, cohort, stable)
        return (tuple(a[:-1] for a in pairs) if comp.kind == "fifo_rematch"
                else pairs)

    monkeypatch.setattr(experiments, "apply_comparator", drop_fifo_slot)
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    assert main(["--output-dir", str(tmp_path / "o"), "compare",
                 cfg]) == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invariant" and "slots" in err["message"]


_POINTS = {"a": [5, 4], "b": [6, 7]}


@pytest.mark.parametrize("command, obj", [
    ("compare", walk_config({"gauges": [{"kind": "power", "param": [1, 0]}]})),
    ("compare", walk_config({"gauges": [{"kind": "power", "param": "abc"}]})),
    ("compare", walk_config({"comparators": [{"seed": 3}]})),
    ("compare", walk_config({"comparators": [
        {"kind": "random_feasible_rematch", "n_swaps": -3}]})),
    ("embed", walk_config({"replicas": "abc"})),
    ("embed", walk_config({"mu": [[0, "x", 1]]})),
    ("unbiased", walk_config({"lags": 4})),
    ("embed", walk_config({"thresholds": [1]})),
    ("ergodic", walk_config({"r_levels": 0})),
    ("tail", walk_config({"experiment": "embed_law"})),
    ("inequality", {**_POINTS, "N": 2, "matrix": [[0, 0, 1, 0], [1, 1, 1, 1]]}),
    ("inequality", {**_POINTS, "N": 2, "matrix": [[0, 0, 1, 1], [1, 5, 1, 1]]}),
    ("repair", {**_POINTS, "N": "x"}),
    ("embed", walk_config({"nu": {"denominator": 0, "atoms": [[1, 1]]}})),
    ("embed", walk_config({"walk": {"dx": [1, 0], "horizon_fwd": 64,
                                    "horizon_bwd": 4, "seed": 1}})),
    ("embed", walk_config({"walk": 5})),
    ("embed", walk_config({"nu": [[1.5, 1, 1]]})),
    ("embed", walk_config({"walk": {"horizon_fwd": 64, "horizon_bwd": 4,
                                    "seed": 1.7}})),
    ("embed", walk_config({"replicas": 2.5})),
    ("tail", walk_config({"max_horizon": 4096.5})),
    ("embed", walk_config({"walk": {"horizon_fwd": 64.5, "horizon_bwd": 4,
                                    "seed": 1}})),
    ("unbiased", walk_config({"lags": [1, 2.5]})),
    ("ergodic", walk_config({"r_levels": 3.5})),
    ("embed", walk_config({"thresholds": {"sigm": 2}})),
    ("walk", walk_config({"walk": {"horizon_fwd": 10**12, "horizon_bwd": 4,
                                   "seed": 1}})),
    ("ergodic", walk_config({"walk": {"horizon_fwd": 10**12,
                                      "horizon_bwd": 10**12, "seed": 1}})),
    ("compare", walk_config({"gauges": [{"kind": "power", "param": [1.5, 2]}]})),
    ("walk", walk_config({"replica": 1.5})),
    ("walk", walk_config({"replica": "abc"})),
    ("walk", walk_config({"replica": -3})),
    ("tail", walk_config({"replicas": 10**12})),
    ("unbiased", walk_config({"replicas": 10**12})),
    ("unbiased", walk_config({"lags": [1, 10**12]})),
    ("tail", walk_config({"max_horizon": 10**15})),
    ("walk", walk_config({"walk": {"horizon_fwd": 1 << 23,
                                   "horizon_bwd": (1 << 23) + 1, "seed": 1}})),
    ("ergodic", walk_config({"r_levels": 65})),
    ("compare", walk_config({"comparators": [
        {"kind": "random_feasible_rematch", "n_swaps": (1 << 20) + 1}]})),
    ("compare", walk_config({"comparators": [
        {"kind": "random_feasible_rematch", "seed": 1 << 63}]})),
    ("compare", walk_config({"comparators": [
        {"kind": "random_feasible_rematch", "seed": 1 << 53}]})),
    ("embed", walk_config({"walk": {"horizon_fwd": 64, "horizon_bwd": 4,
                                    "seed": 1 << 53}})),
    ("excursion-cost", walk_config({"walk": {
        "horizon_fwd": 64, "horizon_bwd": 4, "seed": 9007199254741}})),
    ("unbiased", walk_config({"lags": [4, 4]})),
    ("compare", walk_config({"gauges": [{"kind": "power", "param": [1, 3]},
                                        {"kind": "power",
                                         "param": [333333, 1000000]}]})),
    ("compare", walk_config({"comparators": [
        {"kind": "random_feasible_rematch", "seed": 1},
        {"kind": "random_feasible_rematch", "seed": 2}]})),
    ("unbiased", walk_config({"thresholds": {"sigma": -1}})),
    ("embed", walk_config({"thresholds": {"censor_flag": -0.5}})),
    ("compare", walk_config({"thresholds": {"margin_tol": math.inf}})),
    ("repair", {**_POINTS, "N": 1.5}),
    ("repair", {**_POINTS, "N": 1e400}),
    ("inequality", {**_POINTS, "N": 2, "matrix": [[0, 0, 1e400, 1], [1, 1, 1, 1]]}),
    ("allocate", {**_POINTS, "allow_ties": "no"}),
    ("embed", walk_config({"walk": {"dx": True, "horizon_fwd": 64, "horizon_bwd": 4,
                                    "seed": 1}})),
    ("embed", walk_config({"replicas": True})),
    ("embed", walk_config({"walk": {"dx": [], "horizon_fwd": 64, "horizon_bwd": 4,
                                    "seed": 1}})),
    ("compare", walk_config({"walk": {"dx": 1e400, "horizon_fwd": 64,
                                      "horizon_bwd": 4, "seed": 1}})),
    ("compare", walk_config({"walk": {"dx": "1e200", "horizon_fwd": 64,
                                      "horizon_bwd": 4, "seed": 1}})),
    ("repair", {**_POINTS, "gauges": [{"kind": "capped", "param": "1e400"}]}),
    ("inequality", {**_POINTS, "gauges": 1.5}),
    ("embed", walk_config({"mu": {"denominator": 1 << 62, "atoms": [[0, 1 << 62]]},
                           "nu": {"denominator": 1 << 62, "atoms": [[1, 1 << 62]]},
                           "replicas": 200, "max_horizon": 1 << 12})),
    ("embed", walk_config({"mu": {"denominator": 10**20, "atoms": [[0, 10**20]]},
                           "nu": {"denominator": 10**20, "atoms": [[1, 10**20]]}})),
    ("walk", walk_config({"mu": {"denominator": 10**20, "atoms": [[0, 10**20]]},
                          "nu": {"denominator": 10**20, "atoms": [[1, 10**20]]}})),
    ("embed", walk_config({"nu": [[1, 1, 3**40], [2, 3**40 - 1, 3**40]]})),
], ids=["gauge-param-zero-den", "gauge-param-text", "comparator-no-kind",
        "negative-n-swaps", "replicas-text", "measure-text-weight",
        "lags-not-a-list", "thresholds-not-an-object", "r-levels-zero",
        "experiment-mismatch", "matrix-zero-den", "matrix-index-past-points",
        "window-text", "measure-zero-den", "dx-zero-den", "walk-not-an-object",
        "fractional-site", "fractional-seed", "fractional-replicas",
        "fractional-max-horizon", "fractional-horizon", "fractional-lag",
        "fractional-r-levels", "unknown-threshold", "walk-horizon-too-long",
        "ergodic-horizon-too-long", "fractional-gauge-param",
        "fractional-replica", "replica-text", "negative-replica",
        "tail-too-many-replicas", "unbiased-too-many-replicas",
        "lag-too-long", "max-horizon-too-long", "walk-dense-path-too-long",
        "too-many-r-levels", "too-many-swaps", "comparator-seed-past-63-bits",
        "comparator-seed-past-53-bits", "walk-seed-past-53-bits",
        "sampler-seed-past-53-bits", "duplicate-lags", "duplicate-gauge-labels",
        "duplicate-comparator-kinds", "sigma-negative", "censor-flag-negative",
        "margin-tol-infinite", "fractional-window", "infinite-window",
        "infinite-matrix-mass", "allow-ties-text", "dx-boolean", "replicas-boolean",
        "dx-empty-list", "dx-infinite", "dx-squared-past-floats", "capped-past-floats",
        "gauges-not-a-list", "denominator-2-to-62", "denominator-10-to-20",
        "walk-denominator-10-to-20", "denominator-3-to-40"])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, command, obj):
    cfg = write_json(tmp_path, "cfg.json", obj)
    assert main(["--output-dir", str(tmp_path / "o"), command, cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "o").exists()


# Each command's minimal config, and the values the sweep puts into its keys
# (JSON reads 1e400 as an infinity).
_SWEEP_BASE = {"mu": {"denominator": 1, "atoms": [[0, 1]]},
               "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]},
               "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 1}, "replicas": 4}
_SWEEP_CONFIGS = {**{command: _SWEEP_BASE for command in (
    "walk", "embed", "unbiased", "compare", "excursion-cost", "ergodic", "tail")},
    "allocate": _POINTS, "repair": {**_POINTS, "N": 2},
    "inequality": {**_POINTS, "N": 2}}
_SWEEP_VALUES = [1e400, -1e400, math.nan, 1.5, "x", "", [], {}, [1, 0], True, None, -1,
                 2**70]


@pytest.mark.parametrize("command", sorted(_SWEEP_CONFIGS))
def test_no_malformed_value_escapes_main(tmp_path, capsys, monkeypatch, command):
    # Every sweep value in every key of the minimal config, nested keys
    # included, and in walk.dx, gauges and allow_ties: main returns, with a
    # JSON error on the last line of stderr unless it succeeds.  Cohorts are
    # scanned in-process (ergodic's ensemble has four), so nothing is forked.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    base = _SWEEP_CONFIGS[command]
    cfg = write_json(tmp_path, "cfg.json", base)
    assert main(["--output-dir", str(tmp_path / "o"), command, cfg]) == EXIT_OK
    keys = [(k,) for k in base] + [(k, sub) for k, v in base.items()
                                   if isinstance(v, dict) for sub in v]
    keys += [("walk", "dx")] if "walk" in base else []
    for key in keys + [("gauges",), ("allow_ties",)]:
        for value in _SWEEP_VALUES:
            obj = copy.deepcopy(base)
            (obj[key[0]] if len(key) == 2 else obj)[key[-1]] = value
            cfg = write_json(tmp_path, "cfg.json", obj)
            code = main(["--output-dir", str(tmp_path / "o"), command, cfg])
            err = capsys.readouterr().err.splitlines()
            assert code == EXIT_OK or "error" in json.loads(err[-1]), (key, value)


def test_shorthand_float_weights_embed_their_decimal_values(tmp_path):
    # 0.1 and 0.9 are read as 1/10 and 9/10, not as the binary fractions
    # over 2^55 whose sum exceeds 1.
    cfg = write_json(tmp_path, "cfg.json", walk_config(
        {"mu": [[0, 1]], "nu": [[1, 0.1], [2, 0.9]], "replicas": 20}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_OK
    with open(tmp_path / "o" / "tables" / "law.csv") as fobj:
        assert [row["target"] for row in csv.DictReader(fobj)] == ["0.1", "0.9"]


def test_excursion_cost_runs_at_its_largest_seed(tmp_path):
    # 40 replicas and 4 matrices each: the sampler seeds reach
    # 9007199254740 * 1000 + 393 < 2^53; the next walk seed is refused.
    cfg = write_json(tmp_path, "cfg.json", walk_config({"walk": {
        "horizon_fwd": 64, "horizon_bwd": 4, "seed": 9007199254740}}))
    out = tmp_path / "o"
    assert main(["--output-dir", str(out), "excursion-cost", cfg]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["data"]["checks"] > 0


def test_import_leaves_scipy_stats_unloaded():
    # Only the unbiased experiment reads scipy.stats (0.6 s and 70 MiB); it
    # is imported there.  No other scipy module is loaded either: every
    # benchmark pass imports the CLI in its set-up time.
    code = ("import sys, shiftlab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(shiftlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_import_leaves_the_process_pool_unloaded():
    # The engine imports multiprocessing and concurrent.futures (about 20
    # ms) at its first pooled scan, so the CLI's import, which every
    # benchmark pass times as set-up, loads neither.
    code = ("import sys, shiftlab.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(shiftlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_compare_run_leaves_numpy_ma_unloaded(tmp_path):
    # A 1-D np.unique imports numpy.ma (about 18 ms and 0.6 MiB), and the
    # benchmark's set-up time includes one compare op: a compare run in a
    # fresh process loads neither numpy.ma nor scipy.
    cfg = write_json(tmp_path, "cfg.json", walk_config({"replicas": 10}))
    code = ("import sys; from shiftlab.cli import main; "
            f"main(['--output-dir', {str(tmp_path / 'o')!r}, 'compare', {cfg!r}]); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.split('.')[:2] == ['numpy', 'ma']])")
    src = os.path.dirname(os.path.dirname(shiftlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_module_level_imports_are_used():
    # Each is read in its module, exported in __all__, or marked as the
    # tracer's with "# noqa: F401"; an import a change orphans fails here.
    unused = []
    for path in sorted(Path(shiftlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                 for name in ast.literal_eval(node.value)}
        for node in tree.body:
            marked = "# noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno])
            if (not isinstance(node, (ast.Import, ast.ImportFrom)) or marked
                    or getattr(node, "module", None) == "__future__"):
                continue
            unused += [f"{path.name}: {name}" for name in
                       ((a.asname or a.name.split(".")[0]) for a in node.names)
                       if name not in read]
    assert unused == []


def test_no_top_level_definition_is_orphaned():
    # Each top-level function, class and assigned name (dunders aside) of
    # src/shiftlab is read in src/ or perfbench/, or named as a string in
    # perfbench/ (the tracer's LAYERS); a definition or constant that only
    # __all__ or the tests read fails here.
    src = sorted(Path(shiftlab.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").rglob("*.py"))
    read, defined = set(), []
    for path in src + bench:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (path in bench and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.add(node.value)
        if path in src:
            defined += [f"{path.name}: {node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            defined += [f"{path.name}: {t.id}" for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for t in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])
                        if isinstance(t, ast.Name) and not t.id.startswith("__")]
    assert bench and [d for d in defined if d.split(": ")[1] not in read] == []


_COMMAND_NAMES = ["walk", "embed", "allocate", "repair", "inequality", "compare",
                  "ergodic", "tail", "excursion-cost", "unbiased"]


def test_each_command_reaches_its_handler(tmp_path, monkeypatch, capsys):
    import shiftlab.cli as cli_mod
    assert list(cli_mod._COMMANDS) == _COMMAND_NAMES
    cfg = write_json(tmp_path, "cfg.json", {"k": 1})
    seen = []
    for name in _COMMAND_NAMES:
        monkeypatch.setitem(cli_mod._COMMANDS, name,
                            lambda obj, out_dir, name=name:
                            seen.append((name, obj, out_dir)) or EXIT_OK)
    for name in _COMMAND_NAMES:
        assert main(["--output-dir", str(tmp_path / name), name, cfg]) == EXIT_OK
    assert seen == [(name, {"k": 1}, tmp_path / name) for name in _COMMAND_NAMES]
    # An unknown command or a missing config is refused by argparse and
    # reaches no handler.
    for argv in (["nope", cfg], ["compare"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert seen == [(name, {"k": 1}, tmp_path / name) for name in _COMMAND_NAMES]
