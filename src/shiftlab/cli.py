"""Command-line entry point: experiments, allocation tools, and reports.

Every subcommand reads one JSON config document, writes report.json (plus
CSV tables) into the output directory, and exits with 0 on success, 1 on a
configuration error, 2 on an invariant failure, 3 when a horizon or step
budget is exhausted.  Errors are also emitted as structured JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (ConfigError, FeasibilityError, HorizonExceededError,
                     InvariantError, ShiftLabError, SizeLimitError,
                     TruncationError)
from .experiments import (ExperimentConfig, StatReport, run_cost_compare,
                          run_embed_law, run_ergodic, run_excursion_cost,
                          run_tail, run_unbiased_test)
from .gauges import default_gauges, gauges_from_json
from .stable_alloc import PointConfig, compute_N, stable_allocation
from .transport import (TransportMatrix, inequality_check, repair_sweep,
                        stable_indicator)
from .walk import build_ledger, sample_walk

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_HORIZON = 3

OUTPUT_DIR_ENV = "SHIFTLAB_OUTPUT_DIR"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fobj:
            obj = json.load(fobj)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")
    return obj


def _output_dir(args, obj: dict) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if args.output_dir:
        return Path(args.output_dir)
    return Path(obj.get("output_dir", "out"))


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    if isinstance(exc, FeasibilityError) and exc.violations:
        payload["violations"] = [[str(x) for x in v] for v in exc.violations]
    if isinstance(exc, HorizonExceededError):
        if exc.horizon is not None:
            payload["horizon"] = exc.horizon
        if exc.attained is not None:
            payload["attained"] = str(exc.attained)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _write_report(report: StatReport, out_dir: Path) -> None:
    report.write(out_dir)
    print(f"report written to {out_dir / 'report.json'}")


def _cmd_walk(args, obj: dict, out_dir: Path) -> int:
    cfg = ExperimentConfig.from_json(obj)
    path = sample_walk(cfg.walk, replica=int(obj.get("replica", 0)))
    ledger = build_ledger(path, cfg.pair)
    out_dir.mkdir(parents=True, exist_ok=True)
    tdir = out_dir / "tables"
    tdir.mkdir(exist_ok=True)
    with open(tdir / "path.csv", "w") as fobj:
        path.to_csv(fobj)
    with open(tdir / "ledger.csv", "w") as fobj:
        ledger.to_csv(fobj)
    report = StatReport("walk", cfg.digest(), {
        "start": path.start,
        "horizon_fwd": path.horizon_fwd,
        "horizon_bwd": path.horizon_bwd,
        "final_position": path.positions(path.horizon_fwd),
        "seed": cfg.walk.seed,
    })
    _write_report(report, out_dir)
    return EXIT_OK


def _cmd_allocate(args, obj: dict, out_dir: Path) -> int:
    cfg = PointConfig.from_json(obj)
    match = stable_allocation(cfg)
    horizon = compute_N(cfg)
    report = StatReport("allocate", "-", {
        "match": match.to_json(),
        "N": horizon["N"],
        "M": horizon["M"],
    }, {"pairs": [{"a": str(a), "b": str(b)} for a, b in match.pairs()]})
    _write_report(report, out_dir)
    return EXIT_OK


def _gauges(obj: dict):
    return gauges_from_json(obj["gauges"]) if obj.get("gauges") else default_gauges()


def _matrix(obj: dict, cfg: PointConfig) -> TransportMatrix:
    """The config's matrix, or the stable indicator, on the window N."""
    pi = TransportMatrix.from_json(cfg, {
        "N": obj["N"] if "N" in obj else compute_N(cfg)["N"],
        "entries": obj.get("matrix", [])})
    return pi if "matrix" in obj else stable_indicator(cfg, pi.N)


def _cmd_repair(args, obj: dict, out_dir: Path) -> int:
    cfg = PointConfig.from_json(obj)
    pi = _matrix(obj, cfg)
    pi.validate()
    gauges = _gauges(obj)
    sweep = repair_sweep(pi)
    trace_rows = []
    for step, mat in enumerate(sweep["trace"]):
        row = {"step": step}
        for g in gauges:
            row[g.label] = mat.cost(g)
        trace_rows.append(row)
    final = sweep["matrix"]
    reports = {g.label: inequality_check(final, g=g).to_json() for g in gauges}
    report = StatReport("repair", "-", {
        "steps": sweep["steps"],
        "converged": sweep["converged"],
        "final_matrix": final.to_json(),
        "cost_reports": reports,
    }, {"cost_trace": trace_rows})
    _write_report(report, out_dir)
    if not sweep["converged"]:
        raise HorizonExceededError("repair sweep exhausted its step budget",
                                   horizon=sweep["steps"])
    return EXIT_OK


def _cmd_inequality(args, obj: dict, out_dir: Path) -> int:
    cfg = PointConfig.from_json(obj)
    pi = _matrix(obj, cfg)
    gauges = _gauges(obj)
    reports = {g.label: inequality_check(pi, g=g).to_json() for g in gauges}
    report = StatReport("inequality", "-", {"cost_reports": reports})
    _write_report(report, out_dir)
    return EXIT_OK


_EXPERIMENT_RUNNERS = {
    "embed": ("embed_law", run_embed_law),
    "compare": ("cost_compare", run_cost_compare),
    "ergodic": ("ergodic", run_ergodic),
    "tail": ("tail", run_tail),
    "excursion-cost": ("excursion_cost", run_excursion_cost),
    "unbiased": ("unbiased", run_unbiased_test),
}


def _cmd_experiment(name: str, obj: dict, out_dir: Path) -> int:
    experiment, runner = _EXPERIMENT_RUNNERS[name]
    if obj.get("experiment", experiment) != experiment:
        raise ConfigError(f"config names experiment {obj['experiment']!r}, "
                          f"but '{name}' runs {experiment!r}")
    cfg = ExperimentConfig.from_json({**obj, "experiment": experiment})
    report = runner(cfg)
    _write_report(report, out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Simulation laboratory for optimal embeddings of random "
                    "walks by balancing allocation rules.")
    parser.add_argument("--output-dir", default=None,
                        help=f"output directory (overridden by ${OUTPUT_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("walk", "embed", "allocate", "repair", "inequality",
                 "compare", "ergodic", "tail", "excursion-cost", "unbiased"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON config document")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = _load_config(args.config)
        out_dir = _output_dir(args, obj)
        if args.command == "walk":
            return _cmd_walk(args, obj, out_dir)
        if args.command == "allocate":
            return _cmd_allocate(args, obj, out_dir)
        if args.command == "repair":
            return _cmd_repair(args, obj, out_dir)
        if args.command == "inequality":
            return _cmd_inequality(args, obj, out_dir)
        return _cmd_experiment(args.command, obj, out_dir)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except HorizonExceededError as exc:
        _emit_error("horizon", exc)
        return EXIT_HORIZON
    except (FeasibilityError, TruncationError, SizeLimitError,
            InvariantError, AssertionError) as exc:
        _emit_error("invariant", exc)
        return EXIT_INVARIANT
    except ShiftLabError as exc:
        _emit_error("error", exc)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
