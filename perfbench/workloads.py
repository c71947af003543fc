"""The four benchmark workloads: input generation, one operation, checks.

Each workload turns the benchmark seed into program inputs (experiment
configs, or point-configuration instances), runs one operation at a time
through shiftlab's public entry points, and checks every output.  The check
functions are pure functions of the output so the self-tests can feed them
corrupted outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from shiftlab import cli, stable_alloc, transport
from shiftlab.gauges import default_gauges

MU = [[0, 1, 1]]                          # delta_0
NU_POINT = [[1, 1, 1]]                    # delta_1
NU_SYMMETRIC = [[-1, 1, 2], [1, 1, 2]]    # (delta_-1 + delta_1) / 2
FINITE_MEAN_GAUGES = [{"kind": "log1p"}, {"kind": "capped", "param": [3, 1]},
                      {"kind": "rational"}, {"kind": "power", "param": [1, 10]}]

ALPHA_BAND = (0.15, 0.35)     # acceptance band of the fitted tail exponent
MARGIN_TOL = 1e-10            # window inequality margin tolerance
COST_TOL = 1e-9               # round-off allowed in a repair cost trace

# Distinct op seeds per benchmark seed: op k of seed s uses s * SEED_STRIDE + k.
SEED_STRIDE = 1_000_000


@dataclass
class Outcome:
    """Result of one operation: ``units`` replicas, instances or checks."""
    units: int
    problems: list[str]
    digest: str
    censored: int = 0
    replicas: int = 0


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output checks

def check_tail(data: dict, survival: list[float], replicas: int) -> list[str]:
    problems = []
    censored = data["censored"]
    if data["replicas"] != replicas:
        problems.append(f"report has {data['replicas']} replicas, ran {replicas}")
    # The report has no completed count: completed = replicas - censored, so
    # completed + censored = replicas reduces to a range check on censored.
    if not 0 <= censored <= replicas:
        problems.append(f"censored count {censored} outside [0, {replicas}]")
    if data["partial_mean_quarter"][-1]["checkpoint"] != replicas:
        problems.append("partial moments do not cover every replica")
    if any(x < y for x, y in zip(survival, survival[1:])):
        problems.append("survival curve increases")
    if survival and survival[-1] < censored / replicas:
        problems.append("survival below the censored share at the cap")
    alpha = data["alpha_hat"]
    if alpha is None or not ALPHA_BAND[0] <= alpha <= ALPHA_BAND[1]:
        problems.append(f"alpha_hat {alpha} outside {list(ALPHA_BAND)}")
    return problems


def check_compare(data: dict, replicas: int) -> list[str]:
    problems = []
    if data["pathwise_violations"] != 0:
        problems.append(f"{data['pathwise_violations']} pathwise violations")
    if data["paths_used"] + data["paths_skipped"] != replicas:
        problems.append(f"paths used {data['paths_used']} + skipped "
                        f"{data['paths_skipped']} != {replicas} replicas")
    return problems


def check_ergodic(data: dict, n_gauges: int) -> list[str]:
    summary = data["summary"]
    problems = [f"gauge {s['gauge']}: fwd_ok={s['fwd_ok']} bwd_ok={s['bwd_ok']}"
                for s in summary if not (s["fwd_ok"] and s["bwd_ok"])]
    if len(summary) != n_gauges:
        problems.append(f"{len(summary)} gauge summaries, expected {n_gauges}")
    return problems


def check_window(out: dict) -> list[str]:
    problems = []
    if out["naive_tau"] != out["tau"]:
        problems.append("stable_allocation and naive_allocation disagree")
    if out["N"] != out["N_generated"]:
        problems.append(f"compute_N gives {out['N']}, generator {out['N_generated']}")
    for label, margin in out.get("margins", {}).items():
        if margin < -MARGIN_TOL:
            problems.append(f"inequality margin {margin:.3e} for {label}")
    sweep = out.get("sweep")
    if sweep is not None:
        if not sweep["converged"]:
            problems.append("repair sweep did not converge")
        if sweep["final"] != sweep["stable"]:
            problems.append("repair sweep ended off the stable indicator")
        for label, costs in sweep["costs"].items():
            if any(x < y - COST_TOL for x, y in zip(costs, costs[1:])):
                problems.append(f"repair cost trace increases for {label}")
    return problems


# ---------------------------------------------------------------------------
# workloads

class CliWorkload:
    """An experiment run through ``shiftlab.cli.main`` once per operation."""

    command = ""
    unit = "replicas"
    op_units = 1      # units one operation attempts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def config(self, k: int) -> dict:
        raise NotImplementedError

    def warm_config(self) -> dict:
        raise NotImplementedError

    def op_seed(self, k: int) -> int:
        return self.seed * SEED_STRIDE + k

    def _run(self, cfg: dict, tag: str):
        cfg_path = self.workdir / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = self.workdir / tag
        code = cli.main(["--output-dir", str(out), self.command, str(cfg_path)])
        if code != 0:
            raise RuntimeError(f"shiftlab {self.command} exited with {code}")
        raw = (out / "report.json").read_bytes()
        return json.loads(raw)["data"], raw, out

    def warm_up(self) -> None:
        self._run(self.warm_config(), "warmup")

    def run_op(self, k: int) -> Outcome:
        cfg = self.config(k)
        data, raw, out = self._run(cfg, "op")
        return self.outcome(cfg, data, _digest(raw), out)


class TailPoint(CliWorkload):
    """``shiftlab tail``: mu = delta_0, nu = delta_1, horizon doubling to a cap."""

    command = "tail"
    replicas = op_units = 4000
    max_horizon = 1 << 21

    def config(self, k):
        return {"mu": MU, "nu": NU_POINT, "replicas": self.replicas,
                "max_horizon": self.max_horizon,
                "walk": {"horizon_fwd": 1024, "horizon_bwd": 4,
                         "seed": self.op_seed(k)}}

    def warm_config(self):
        return dict(self.config(-1), replicas=50, max_horizon=1 << 14)

    def outcome(self, cfg, data, digest, out):
        with open(out / "tables" / "survival.csv") as fobj:
            survival = [float(row["survival"]) for row in csv.DictReader(fobj)]
        problems = check_tail(data, survival, cfg["replicas"])
        return Outcome(cfg["replicas"], problems, digest,
                       censored=data["censored"], replicas=cfg["replicas"])

    def working_set(self):
        chunk = self.max_horizon // 2          # last chunk of the doubling
        return {"what": f"largest engine chunk ({chunk} steps): int64 "
                        "positions, weights and C plus int8 steps",
                "bytes": chunk * (3 * 8 + 1)}


class CompareSymmetric(CliWorkload):
    """``shiftlab compare``: default comparators and gauges, symmetric target."""

    command = "compare"
    replicas = op_units = 200
    max_horizon = 1 << 14

    def config(self, k):
        return {"mu": MU, "nu": NU_SYMMETRIC, "replicas": self.replicas,
                "max_horizon": self.max_horizon,
                "walk": {"horizon_fwd": 1024, "horizon_bwd": 4,
                         "seed": self.op_seed(k)}}

    def warm_config(self):
        return dict(self.config(-1), replicas=10)

    def outcome(self, cfg, data, digest, out):
        problems = check_compare(data, cfg["replicas"])
        return Outcome(cfg["replicas"], problems, digest,
                       censored=data["paths_skipped"], replicas=cfg["replicas"])

    def working_set(self):
        steps = self.max_horizon + 4 + 1
        return {"what": f"largest ledger ({steps} steps): six int64 arrays "
                        "plus the int8 path and its int64 positions",
                "bytes": steps * (6 * 8 + 1 + 8)}


class ErgodicLong(CliWorkload):
    """``shiftlab ergodic``: one long two-sided path plus its ensemble."""

    command = "ergodic"
    unit = "ergodic checks"
    horizon = 1 << 18
    max_horizon = 1 << 20

    def config(self, k):
        return {"mu": MU, "nu": NU_SYMMETRIC, "replicas": 1,
                "max_horizon": self.max_horizon, "gauges": FINITE_MEAN_GAUGES,
                "walk": {"horizon_fwd": self.horizon, "horizon_bwd": self.horizon,
                         "seed": self.op_seed(k)}}

    def warm_config(self):
        cfg = self.config(-1)
        cfg["walk"].update(horizon_fwd=1 << 12, horizon_bwd=1 << 12)
        return dict(cfg, max_horizon=1 << 13)

    def outcome(self, cfg, data, digest, out):
        problems = check_ergodic(data, len(FINITE_MEAN_GAUGES))
        return Outcome(1, problems, digest, censored=data["ensemble_censored"],
                       replicas=data["ensemble_replicas"])

    def working_set(self):
        steps = 2 * self.horizon + 1
        return {"what": f"long-path ledger ({steps} steps): six int64 arrays "
                        "plus the int8 path and its int64 positions",
                "bytes": steps * (6 * 8 + 1 + 8)}


class WindowExact:
    """Exact allocation and transport on generated point configurations.

    The pool mixes sizes 1..25 pairs as acceptance criterion 4 does; the
    timed phase cycles through it.  Windows with N <= 8 also get a random
    feasible matrix checked against the inequality per gauge (criterion 1),
    and instances of 2..6 pairs get the repair sweep with its cost trace
    (criterion 3).
    """

    unit = "instances"
    op_units = 1
    pool = 600

    def __init__(self, seed: int, workdir: Path | None = None):
        self.gauges = default_gauges()
        self.instances = []
        for i in range(self.pool):
            inst_seed = seed * SEED_STRIDE + i
            n_pairs = 1 + i % 25
            cfg, n_window = transport.random_interleaved_config(inst_seed, n_pairs)
            self.instances.append((inst_seed, n_pairs, cfg, n_window))

    def warm_up(self) -> None:
        self.solve(*self.instances[0])

    def solve(self, inst_seed, n_pairs, cfg, n_window) -> dict:
        match = stable_alloc.stable_allocation(cfg)
        out = {"tau": match.tau,
               "naive_tau": stable_alloc.naive_allocation(cfg).tau,
               "N": stable_alloc.compute_N(cfg)["N"],
               "N_generated": n_window}
        small = 2 <= n_pairs <= 6
        if n_window > 8 and not small:
            return out
        pi = transport.sample_feasible_matrix(cfg, n_window, seed=inst_seed + 1)
        if n_window <= 8:
            out["margins"] = {g.label: transport.inequality_check(pi, g=g).margin
                              for g in self.gauges}
        if small:
            sweep = transport.repair_sweep(pi)
            stable = transport.stable_indicator(cfg, n_window, match)
            out["sweep"] = {
                "converged": sweep["converged"],
                "final": sweep["matrix"].entries,
                "stable": stable.entries,
                "costs": {g.label: [m.cost(g) for m in sweep["trace"]]
                          for g in self.gauges},
            }
        return out

    def run_op(self, k: int) -> Outcome:
        out = self.solve(*self.instances[k % len(self.instances)])
        return Outcome(1, check_window(out), _digest(repr(out).encode()))

    def working_set(self):
        points = max(len(c.a) + len(c.b) for _, _, c, _ in self.instances)
        return {"what": f"no arrays; largest instance holds {points} Fraction "
                        "points", "bytes": 0}


WORKLOADS = {
    "tail-point": TailPoint,
    "compare-symmetric": CompareSymmetric,
    "window-exact": WindowExact,
    "ergodic-long": ErgodicLong,
}
