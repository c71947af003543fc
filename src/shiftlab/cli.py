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
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (ConfigError, FeasibilityError, HorizonExceededError,
                     InvariantError, ShiftLabError, TruncationError)
from .experiments import (ExperimentConfig, StatReport, run_cost_compare,
                          run_embed_law, run_ergodic, run_excursion_cost,
                          run_tail, run_unbiased_test)
from .gauges import gauges_from_json
from .measures import as_int
from .stable_alloc import PointConfig, compute_N, stable_allocation
from .transport import (TransportMatrix, inequality_check, repair_sweep,
                        stable_indicator)
from .walk import MAX_DENSE_STEPS, sample_walk, site_weights

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


def _cmd_walk(obj: dict, out_dir: Path) -> int:
    cfg = ExperimentConfig.from_json(obj)
    try:
        replica = as_int(obj.get("replica", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed replica: {exc}") from exc
    if replica < 0:
        raise ConfigError(f"replica must be >= 0, got {replica}")
    if cfg.walk.horizon_fwd + cfg.walk.horizon_bwd > MAX_DENSE_STEPS:
        raise ConfigError("walk needs horizon_fwd + horizon_bwd <= 2^24 dense "
                          f"steps, got {cfg.walk.horizon_fwd + cfg.walk.horizon_bwd}")
    path = sample_walk(cfg.walk, replica=replica)
    hb, q = path.horizon_bwd, cfg.pair.denominator
    pos = path.full_positions()
    masses = []                            # L^mu, L^nu numerators over q
    for m in (cfg.pair.mu, cfg.pair.nu):
        # L(n) is the mass over [min(n, 0), max(n, 0)]: sums out of step 0.
        w = site_weights(pos, m, q)
        masses.append(np.concatenate([np.cumsum(w[hb::-1])[:0:-1],
                                      np.cumsum(w[hb:])]).tolist())
    out_dir.mkdir(parents=True, exist_ok=True)
    tdir = out_dir / "tables"
    tdir.mkdir(exist_ok=True)
    with open(tdir / "path.csv", "w") as fobj:
        path.to_csv(fobj)
    with open(tdir / "ledger.csv", "w") as fobj:
        fobj.write("step,Lmu,Lnu,D\n")
        for n, a, b in zip(range(-hb, path.horizon_fwd + 1), *masses):
            lmu, lnu = Fraction(a, q), Fraction(b, q)
            fobj.write(f"{n},{lmu},{lnu},{lmu - lnu}\n")
    report = StatReport("walk", cfg.digest(), {
        "start": path.start,
        "horizon_fwd": path.horizon_fwd,
        "horizon_bwd": path.horizon_bwd,
        "final_position": path.positions(path.horizon_fwd),
        "seed": cfg.walk.seed,
    })
    _write_report(report, out_dir)
    return EXIT_OK


def _cmd_allocate(obj: dict, out_dir: Path) -> int:
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


def _matrix(obj: dict, cfg: PointConfig) -> TransportMatrix:
    """The config's matrix, or the stable indicator, on the window N."""
    pi = TransportMatrix.from_json(cfg, {
        "N": obj["N"] if "N" in obj else compute_N(cfg)["N"],
        "entries": obj.get("matrix", [])})
    return pi if "matrix" in obj else stable_indicator(cfg, pi.N)


def _cmd_repair(obj: dict, out_dir: Path) -> int:
    cfg = PointConfig.from_json(obj)
    pi = _matrix(obj, cfg)
    pi.validate()
    gauges = gauges_from_json(obj.get("gauges"))
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


def _cmd_inequality(obj: dict, out_dir: Path) -> int:
    cfg = PointConfig.from_json(obj)
    pi = _matrix(obj, cfg)
    gauges = gauges_from_json(obj.get("gauges"))
    reports = {g.label: inequality_check(pi, g=g).to_json() for g in gauges}
    report = StatReport("inequality", "-", {"cost_reports": reports})
    _write_report(report, out_dir)
    return EXIT_OK


def _experiment(command: str, experiment: str, runner):
    """The handler of ``command``, which runs ``runner`` on the config."""
    def handler(obj: dict, out_dir: Path) -> int:
        if obj.get("experiment", experiment) != experiment:
            raise ConfigError(f"config names experiment {obj['experiment']!r}, "
                              f"but '{command}' runs {experiment!r}")
        cfg = ExperimentConfig.from_json({**obj, "experiment": experiment})
        _write_report(runner(cfg), out_dir)
        return EXIT_OK
    return handler


# Command name -> handler(config object, output directory) -> exit code.
_COMMANDS = {
    "walk": _cmd_walk,
    "embed": _experiment("embed", "embed_law", run_embed_law),
    "allocate": _cmd_allocate,
    "repair": _cmd_repair,
    "inequality": _cmd_inequality,
    "compare": _experiment("compare", "cost_compare", run_cost_compare),
    "ergodic": _experiment("ergodic", "ergodic", run_ergodic),
    "tail": _experiment("tail", "tail", run_tail),
    "excursion-cost": _experiment("excursion-cost", "excursion_cost",
                                  run_excursion_cost),
    "unbiased": _experiment("unbiased", "unbiased", run_unbiased_test),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Simulation laboratory for optimal embeddings of random "
                    "walks by balancing allocation rules.")
    parser.add_argument("--output-dir", default=None,
                        help=f"output directory (overridden by ${OUTPUT_DIR_ENV})")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("config", help="path to the JSON config document")
    args = parser.parse_args(argv)
    try:
        obj = _load_config(args.config)
        return _COMMANDS[args.command](obj, _output_dir(args, obj))
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except HorizonExceededError as exc:
        _emit_error("horizon", exc)
        return EXIT_HORIZON
    except (FeasibilityError, TruncationError, InvariantError,
            AssertionError) as exc:
        _emit_error("invariant", exc)
        return EXIT_INVARIANT
    except ShiftLabError as exc:
        _emit_error("error", exc)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
