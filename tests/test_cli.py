import json
import os
import subprocess
import sys

import pytest

import shiftlab
from shiftlab.cli import (EXIT_CONFIG, EXIT_HORIZON, EXIT_INVARIANT, EXIT_OK,
                          OUTPUT_DIR_ENV, main)


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


def test_horizon_exit_code(tmp_path, capsys, monkeypatch):
    import shiftlab.cli as cli_mod
    from shiftlab.errors import HorizonExceededError

    def boom(cfg):
        raise HorizonExceededError("budget exhausted", horizon=512)

    monkeypatch.setitem(cli_mod._EXPERIMENT_RUNNERS, "embed",
                        ("embed_law", boom))
    cfg = write_json(tmp_path, "cfg.json", walk_config())
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_HORIZON
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "horizon" and err["horizon"] == 512


def test_unknown_mode_and_policy_are_config_errors(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json",
                     walk_config({"mode": "exakt"}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "o").exists()


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


def test_excursion_cost_needs_unit_nu_atoms_in_either_mode(tmp_path, capsys):
    # A nu-atom of weight 2/3 closes two slots at once, so T* can overshoot
    # the balance and the excursion's slots would not match up.
    cfg = write_json(tmp_path, "cfg.json", walk_config({
        "mu": [[0, 1, 1]], "nu": [[-1, 1, 3], [1, 2, 3]], "mode": "crossing"}))
    assert main(["--output-dir", str(tmp_path / "o"), "excursion-cost",
                 cfg]) == EXIT_CONFIG
    assert "exact mode" in json.loads(capsys.readouterr().err)["message"]


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
    # bad input.
    from shiftlab import comparators

    fifo = comparators.fifo_matching
    monkeypatch.setattr(comparators, "fifo_matching",
                        lambda slots: fifo(slots)[:-1])
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
], ids=["gauge-param-zero-den", "gauge-param-text", "comparator-no-kind",
        "negative-n-swaps", "replicas-text", "measure-text-weight",
        "lags-not-a-list", "thresholds-not-an-object", "r-levels-zero",
        "experiment-mismatch", "matrix-zero-den", "matrix-index-past-points",
        "window-text", "measure-zero-den", "dx-zero-den", "walk-not-an-object",
        "fractional-site", "fractional-seed", "fractional-replicas",
        "fractional-max-horizon", "fractional-horizon", "fractional-lag",
        "fractional-r-levels", "unknown-threshold", "walk-horizon-too-long",
        "ergodic-horizon-too-long"])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, command, obj):
    cfg = write_json(tmp_path, "cfg.json", obj)
    assert main(["--output-dir", str(tmp_path / "o"), command, cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "o").exists()


def test_import_leaves_scipy_stats_unloaded():
    # Only the unbiased experiment reads scipy.stats; it is imported there.
    code = "import sys, shiftlab.cli; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(shiftlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
