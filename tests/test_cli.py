import json

import pytest

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


def test_censoring_everywhere_is_not_an_error(tmp_path):
    # Exhausted horizons on some replicas are data, not a failure.
    cfg = write_json(tmp_path, "cfg.json", walk_config(
        {"max_horizon": 256, "horizon_policy": "fixed",
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
                     walk_config({"mode": "exakt", "horizon_policy": "dubling"}))
    assert main(["--output-dir", str(tmp_path / "o"), "embed", cfg]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "o").exists()


def test_matching_on_non_orthogonal_pair_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", walk_config({
        "mu": {"denominator": 2, "atoms": [[0, 1], [1, 1]]},
        "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]}}))
    assert main(["--output-dir", str(tmp_path / "o"), "compare", cfg]) == EXIT_CONFIG
    assert "orthogonal" in json.loads(capsys.readouterr().err)["message"]
