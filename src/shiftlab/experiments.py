"""Monte Carlo and ergodic verification experiments.

The chunked first-hit engine simulates the difference process C(n) replica
by replica with geometric horizon doubling, so heavy-tailed embedding times
can be sampled up to 2^24 steps without retaining whole paths.  Censored
replicas (horizon policy exhausted) are reported, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats as sstats

from .comparators import (Comparator, apply_comparator, check_matching,
                          lifo_matching, matching_cost)
from .embedding import (Excursion, check_options, compute_t_star,
                        draw_u_flag, excursion_mass, first_balance,
                        match_slots, mu_charged_steps, require_mode,
                        tau_star_map)
from .errors import ConfigError, HorizonExceededError
from .gauges import Gauge, default_gauges, eval_gauge, gauges_from_json
from .measures import MeasurePair, measure_from_spec, split_measures
from .rng import BitStream, STREAM_FWD, STREAM_START
from .stable_alloc import PointConfig
from .transport import inequality_check, sample_feasible_matrix, stable_indicator
from .walk import (LocalTimeLedger, WalkConfig, WalkPath, build_ledger,
                   draw_start, inverse_local_time, sample_walk)

EXPERIMENTS = ("embed_law", "unbiased", "cost_compare", "excursion_cost",
               "ergodic", "tail")

DEFAULT_THRESHOLDS = {
    "sigma": 3.0,
    "ks_alpha": 0.01,
    "rel_gap": 0.10,
    "margin_tol": 1e-10,
    "censor_flag": 0.20,
}

_CHUNK_CAP = 1 << 22


@dataclass(frozen=True)
class ExperimentConfig:
    walk: WalkConfig
    pair: MeasurePair
    gauges: tuple[Gauge, ...]
    replicas: int
    experiment: str
    mode: str = "exact"                    # "exact" | "crossing"
    horizon_policy: str = "doubling"       # "fixed" | "doubling"
    max_horizon: int = 1 << 20
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    comparators: tuple[Comparator, ...] = (
        Comparator("stable"), Comparator("fifo_rematch"),
        Comparator("random_feasible_rematch", seed=7),
    )
    lags: tuple[int, ...] = (1, 4, 16)
    r_levels: int = 6

    def __post_init__(self):
        check_options(self.mode, self.horizon_policy)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        try:
            mu = measure_from_spec(obj["mu"])
            nu = measure_from_spec(obj["nu"])
        except KeyError as exc:
            raise ConfigError("config must define 'mu' and 'nu'") from exc
        pair = split_measures(mu, nu)
        if "walk" not in obj:
            raise ConfigError("config must define 'walk'")
        walk = WalkConfig.from_json(obj["walk"], start_law=mu)
        gauges = gauges_from_json(obj["gauges"]) if obj.get("gauges") else default_gauges()
        thresholds = dict(DEFAULT_THRESHOLDS)
        thresholds.update(obj.get("thresholds", {}))
        experiment = obj.get("experiment", "embed_law")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}")
        comps = []
        for c in obj.get("comparators", []):
            comps.append(Comparator(c["kind"], seed=int(c.get("seed", 0)),
                                    n_swaps=int(c.get("n_swaps", 8))))
        kwargs = {}
        if comps:
            kwargs["comparators"] = tuple(comps)
        if "lags" in obj:
            kwargs["lags"] = tuple(int(x) for x in obj["lags"])
        if "r_levels" in obj:
            kwargs["r_levels"] = int(obj["r_levels"])
        return cls(
            walk=walk, pair=pair, gauges=gauges,
            replicas=int(obj.get("replicas", 1000)),
            experiment=experiment,
            mode=obj.get("mode", "exact"),
            horizon_policy=obj.get("horizon_policy", "doubling"),
            max_horizon=int(obj.get("max_horizon", 1 << 20)),
            thresholds=thresholds, **kwargs)

    def digest(self) -> str:
        payload = {
            "walk": {"seed": self.walk.seed, "dx": str(self.walk.dx),
                     "horizon_fwd": self.walk.horizon_fwd,
                     "horizon_bwd": self.walk.horizon_bwd},
            "pair": self.pair.to_json(),
            "gauges": [g.to_json() for g in self.gauges],
            "replicas": self.replicas,
            "experiment": self.experiment,
            "mode": self.mode,
            "horizon_policy": self.horizon_policy,
            "max_horizon": self.max_horizon,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class StatReport:
    experiment: str
    config_digest: str
    data: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.experiment, "config_digest": self.config_digest,
             "data": self.data}, sort_keys=True, indent=2) + "\n"

    def write(self, out_dir: Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(self.to_json())
        tdir = out_dir / "tables"
        tdirdone = False
        for name, rows in self.tables.items():
            if not rows:
                continue
            if not tdirdone:
                tdir.mkdir(exist_ok=True)
                tdirdone = True
            cols = list(rows[0].keys())
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(str(row[c]) for c in cols))
            (tdir / f"{name}.csv").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# chunked first-hit engine

class FirstHitEngine:
    """Simulates T* = first n > 0 with C(n) back at C(-1), per replica.

    Never materializes more than one chunk of a path; horizon doubling
    continues the replica's counter-based stream exactly where it stopped.
    """

    def __init__(self, seed: int, pair: MeasurePair, mode: str = "exact"):
        require_mode(pair, mode)
        self.seed = seed
        self.pair = pair
        self.mode = mode
        q = pair.denominator
        self.wdiff = {s: int(w * q) for s, w in pair.mu.atoms}
        for s, w in pair.nu.atoms:
            self.wdiff[s] = self.wdiff.get(s, 0) - int(w * q)
        self.wdiff = {s: w for s, w in self.wdiff.items() if w != 0}

    def run_replica(self, replica: int, h0: int, hmax: int,
                    policy: str = "doubling") -> dict:
        """Returns {"t_star", "site", "censored", "horizon", "u_flag"}."""
        start_stream = BitStream(self.seed, replica, STREAM_START)
        start = draw_start(self.pair.mu, start_stream)
        if draw_u_flag(self.pair, self.seed, replica, start) == 0:
            return {"t_star": 0, "site": start, "censored": False,
                    "horizon": 0, "u_flag": 0}
        stream = BitStream(self.seed, replica, STREAM_FWD)
        pos = start
        c = self.wdiff.get(start, 0)       # C(0); reference C(-1) = 0
        done = 0
        horizon = h0 if policy == "doubling" else hmax
        while True:
            want = min(horizon, hmax) - done
            chunk = min(want, _CHUNK_CAP)
            if chunk <= 0:
                if policy == "doubling" and horizon < hmax:
                    horizon *= 2
                    continue
                return {"t_star": None, "site": None, "censored": True,
                        "horizon": done, "u_flag": 1}
            steps = stream.take_steps(chunk)
            pos_arr = np.cumsum(steps, dtype=np.int64)
            pos_arr += pos
            warr = np.zeros(chunk, dtype=np.int64)
            for site, wn in self.wdiff.items():
                warr[pos_arr == site] = wn
            c_arr = np.cumsum(warr, dtype=np.int64)
            c_arr += c
            h = first_balance(c_arr, 0, self.mode)
            if h is not None:
                return {"t_star": done + h + 1, "site": int(pos_arr[h]),
                        "censored": False, "horizon": done + chunk, "u_flag": 1}
            pos = int(pos_arr[-1])
            c = int(c_arr[-1])
            done += chunk


def _mean_se(xs: list[float]) -> tuple[float, float]:
    if not xs:
        return float("nan"), float("nan")
    arr = np.asarray(xs, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


# ---------------------------------------------------------------------------
# experiments

def run_embed_law(cfg: ExperimentConfig) -> StatReport:
    """Empirical law of the site at T* versus nu."""
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair, cfg.mode)
    h0 = min(cfg.walk.horizon_fwd, cfg.max_horizon)
    sites: dict[int, int] = {}
    censored = 0
    t_values: list[int] = []
    for rep in range(cfg.replicas):
        out = engine.run_replica(rep, h0, cfg.max_horizon, cfg.horizon_policy)
        if out["censored"]:
            censored += 1
            continue
        sites[out["site"]] = sites.get(out["site"], 0) + 1
        t_values.append(out["t_star"])
    completed = cfg.replicas - censored
    nu = cfg.pair.nu
    tv = 0.0
    chi2 = 0.0
    rows = []
    for site, w in nu.atoms:
        obs = sites.get(site, 0)
        p_hat = obs / completed if completed else float("nan")
        p_nu = float(w)
        tv += abs(p_hat - p_nu) / 2.0
        if completed and p_nu > 0:
            chi2 += (obs - completed * p_nu) ** 2 / (completed * p_nu)
        se = math.sqrt(p_nu * (1 - p_nu) / completed) if completed else float("nan")
        rows.append({"site": site, "target": p_nu, "observed": p_hat,
                     "binomial_se": se, "count": obs})
    extra = sum(c for s, c in sites.items() if nu.weight(s) == 0)
    tv += extra / (2.0 * completed) if completed else 0.0
    censor_rate = censored / cfg.replicas
    flagged = (cfg.horizon_policy == "fixed"
               and censor_rate > cfg.thresholds["censor_flag"])
    data = {
        "replicas": cfg.replicas, "completed": completed, "censored": censored,
        "tv_distance": tv, "chi2": chi2, "off_support_hits": extra,
        "censor_rate": censor_rate, "excess_censoring_flag": flagged,
        "mean_t_star_steps": float(np.mean(t_values)) if t_values else None,
        "seed": cfg.walk.seed,
    }
    return StatReport("embed_law", cfg.digest(), data, {"law": rows})


def run_unbiased_test(cfg: ExperimentConfig, lags=None) -> StatReport:
    """Increment law of the shifted walk (B_{T*+t} - B_{T*})."""
    lags = tuple(lags or cfg.lags)
    window = max(lags)
    per_lag_fwd = {k: [] for k in lags}
    per_lag_bwd = {k: [] for k in lags}
    control = {k: [] for k in lags}
    plus_count = 0
    step_count = 0
    censored = 0
    ctrl_stream = BitStream(cfg.walk.seed, 0xC117, 0)
    for rep in range(cfg.replicas):
        path = sample_walk(cfg.walk, replica=rep)
        ledger = build_ledger(path, cfg.pair)
        try:
            res = compute_t_star(ledger, cfg.pair, mode="exact")
        except HorizonExceededError:
            censored += 1
            continue
        t = res.t_star
        if t + window > path.horizon_fwd:
            path.extend_fwd(t + window)
        base = path.positions(t)
        plus_count += int(path.positions(t + 1) - base == 1)
        step_count += 1
        for k in lags:
            per_lag_fwd[k].append((path.positions(t + k) - base) / math.sqrt(k))
            if t - k >= -path.horizon_bwd:
                per_lag_bwd[k].append((base - path.positions(t - k)) / math.sqrt(k))
            ctrl = ctrl_stream.take_steps(k).sum()
            control[k].append(float(ctrl) / math.sqrt(k))
    rows = []
    for k in lags:
        ks_f = sstats.ks_2samp(per_lag_fwd[k], control[k]) if per_lag_fwd[k] else None
        ks_b = sstats.ks_2samp(per_lag_bwd[k], control[k]) if per_lag_bwd[k] else None
        rows.append({
            "lag": k,
            "n_fwd": len(per_lag_fwd[k]), "n_bwd": len(per_lag_bwd[k]),
            "mean_fwd": float(np.mean(per_lag_fwd[k])) if per_lag_fwd[k] else None,
            "ks_stat_fwd": float(ks_f.statistic) if ks_f else None,
            "ks_pvalue_fwd": float(ks_f.pvalue) if ks_f else None,
            "ks_stat_bwd": float(ks_b.statistic) if ks_b else None,
            "ks_pvalue_bwd": float(ks_b.pvalue) if ks_b else None,
        })
    n = max(step_count, 1)
    p_plus = plus_count / n
    sign_z = (p_plus - 0.5) / math.sqrt(0.25 / n)
    data = {
        "replicas": cfg.replicas, "completed": step_count, "censored": censored,
        "p_plus_first_step": p_plus, "sign_z": sign_z,
        "sign_ok": abs(sign_z) <= cfg.thresholds["sigma"],
        "seed": cfg.walk.seed,
    }
    return StatReport("unbiased", cfg.digest(), data, {"lags": rows})


def _first_excursion(cfg: ExperimentConfig, rep: int,
                     slot_cap: int | None = None):
    """Ledger and excursion [0, T*] for one replica, or None if censored."""
    walk_cfg = cfg.walk
    horizon = walk_cfg.horizon_fwd
    path = sample_walk(walk_cfg, replica=rep)
    while True:
        ledger = build_ledger(path, cfg.pair)
        try:
            res = compute_t_star(ledger, cfg.pair, mode="exact")
            break
        except HorizonExceededError:
            if cfg.horizon_policy != "doubling" or horizon >= cfg.max_horizon:
                return None
            horizon = min(2 * horizon, cfg.max_horizon)
            path.extend_fwd(horizon)
    if res.t_star == 0:
        return None
    exc = Excursion(left=0, right=res.t_star,
                    mass=excursion_mass(ledger, 0, res.t_star))
    if slot_cap is not None and exc.mass * ledger.q > slot_cap:
        return None
    return ledger, exc


def run_cost_compare(cfg: ExperimentConfig, comparators=None) -> StatReport:
    """Pathwise excursion-cost dominance of tau* over comparator rematchings."""
    comparators = tuple(comparators or cfg.comparators)
    tol = cfg.thresholds["margin_tol"]
    per: dict[tuple[str, str], list[float]] = {}
    diffs: dict[tuple[str, str], list[float]] = {}
    violations = 0
    skipped = 0
    used = 0
    for rep in range(cfg.replicas):
        got = _first_excursion(cfg, rep)
        if got is None:
            skipped += 1
            continue
        ledger, exc = got
        used += 1
        unit = Fraction(1, ledger.q)
        mass = float(exc.mass)
        stable_pairs = lifo_matching(ledger, exc)
        for comp in comparators:
            pairs = apply_comparator(ledger, exc, comp)
            check_matching(ledger, exc, pairs)
            for g in cfg.gauges:
                c_stable = matching_cost(stable_pairs, g, cfg.walk.dt, unit)
                c_comp = matching_cost(pairs, g, cfg.walk.dt, unit)
                if c_comp < c_stable - tol:
                    violations += 1
                key = (comp.kind, g.label)
                per.setdefault(key, []).append(c_comp / mass)
                diffs.setdefault(key, []).append((c_comp - c_stable) / mass)
    rows = []
    for (kind, glabel), vals in sorted(per.items()):
        mean, se = _mean_se(vals)
        dmean, dse = _mean_se(diffs[kind, glabel])
        rows.append({"comparator": kind, "gauge": glabel,
                     "mean_psi": mean, "se": se,
                     "paired_diff_mean": dmean, "paired_diff_se": dse})
    data = {
        "replicas": cfg.replicas, "paths_used": used, "paths_skipped": skipped,
        "pathwise_violations": violations,
        "comparators": [c.kind for c in comparators],
        "seed": cfg.walk.seed,
    }
    return StatReport("cost_compare", cfg.digest(), data, {"costs": rows})


def run_excursion_cost(cfg: ExperimentConfig, matrices_per_excursion: int = 4,
                       slot_cap: int = 48) -> StatReport:
    """Both sides of the excursion inequality for random feasible matrices."""
    if not cfg.pair.orthogonal:
        raise ConfigError(
            "excursion-cost checks need an orthogonal pair (distinct source "
            "and target steps)")
    tol = cfg.thresholds["margin_tol"]
    min_margin = math.inf
    checked = 0
    skipped = 0
    equality_checked = 0
    rows = []
    for rep in range(cfg.replicas):
        got = _first_excursion(cfg, rep, slot_cap=slot_cap)
        if got is None:
            skipped += 1
            continue
        ledger, exc = got
        pairs = match_slots(ledger, exc.left, exc.right)
        dt_f = cfg.walk.dt
        sources = sorted((s for s, _ in pairs), reverse=True)
        targets = sorted(t for _, t in pairs)
        if not sources:
            skipped += 1
            continue
        pcfg = PointConfig(
            tuple(Fraction(s) * dt_f for s in sources),
            tuple(Fraction(t) * dt_f for t in targets),
            allow_ties=True)
        n = len(sources)
        # Stable indicator: exact equality of both sides.
        pi0 = stable_indicator(pcfg, n)
        for g in cfg.gauges:
            rep0 = inequality_check(pi0, g=g, N=n)
            if abs(rep0.margin) > 1e-9 * max(1.0, rep0.rhs):
                raise AssertionError("stable indicator not at equality")
        equality_checked += 1
        for mi in range(matrices_per_excursion):
            pi = sample_feasible_matrix(pcfg, n, seed=cfg.walk.seed * 1000 + rep * 10 + mi)
            for g in cfg.gauges:
                crep = inequality_check(pi, g=g, N=n)
                checked += 1
                if crep.margin < min_margin:
                    min_margin = crep.margin
                rows.append({"replica": rep, "matrix": mi, "gauge": g.label,
                             "lhs": crep.lhs, "rhs": crep.rhs,
                             "margin": crep.margin})
    data = {
        "replicas": cfg.replicas, "excursions_used": equality_checked,
        "skipped": skipped, "checks": checked,
        "min_margin": (None if checked == 0 else min_margin),
        "all_nonnegative": (checked > 0 and min_margin >= -tol),
        "seed": cfg.walk.seed,
    }
    return StatReport("excursion_cost", cfg.digest(), data,
                      {"margins": rows[:2000]})


def run_ergodic(cfg: ExperimentConfig, r_levels: int | None = None,
                ensemble_replicas: int = 1000) -> StatReport:
    """Time-averaged tau* cost along one long path versus half the ensemble mean."""
    r_levels = r_levels or cfg.r_levels
    walk_cfg = cfg.walk
    path = sample_walk(walk_cfg, replica=0)
    ledger = build_ledger(path, cfg.pair)
    q = ledger.q
    dt = float(walk_cfg.dt)

    tau_map, unresolved = tau_star_map(ledger, -ledger.hb, ledger.hf)
    unresolved = set(unresolved)

    # Largest two-sided mass level attainable with tau* defined inside the
    # forward horizon: cap r at 80% of each side's mass.
    total_fwd = int(ledger.prefix_for("mu+nu")[-1] - ledger.prefix_for("mu+nu")[ledger.idx(0)])
    total_bwd = int(ledger.prefix_for("mu+nu")[ledger.idx(0) + 1])
    r_max = Fraction(int(0.8 * min(total_fwd, total_bwd)), q)
    if r_max <= 0:
        raise ConfigError("path too short for an ergodic run")
    r_grid = [r_max / (2 ** k) for k in reversed(range(r_levels))]

    def window_average(lo: int, hi: int, r: Fraction, g: Gauge) -> tuple[float, int]:
        """(1/r) sum of mu(x_s) psi((tau*(s) - s) dt) over charged s in [lo, hi)."""
        total = 0.0
        unmatched = 0
        for s in mu_charged_steps(ledger, lo, hi).tolist():
            w = float(ledger.wmu[ledger.idx(s)]) / q
            if s in unresolved:
                unmatched += 1
                continue
            total += w * eval_gauge(g, (tau_map[s] - s) * dt)
        return total / float(r), unmatched

    rows = []
    for r in r_grid:
        s_fwd = inverse_local_time(ledger, "mu+nu", r)
        s_bwd = inverse_local_time(ledger, "mu+nu", -r)
        for g in cfg.gauges:
            fwd, un_f = window_average(0, s_fwd + 1, r, g)
            bwd, un_b = window_average(s_bwd, 0, r, g)
            rows.append({"r": float(r), "gauge": g.label, "fwd": fwd, "bwd": bwd,
                         "gap_fwd_bwd": abs(fwd - bwd),
                         "unmatched_slots": un_f + un_b})

    # Block SE at the largest r from disjoint mass blocks.
    n_blocks = 8
    block_rows = {}
    for g in cfg.gauges:
        vals = []
        prev = 0
        for kblock in range(1, n_blocks + 1):
            r_k = r_max * kblock / n_blocks
            s_k = inverse_local_time(ledger, "mu+nu", r_k)
            v, _ = window_average(prev, s_k + 1, r_max / n_blocks, g)
            vals.append(v)
            prev = s_k + 1
        block_rows[g.label] = vals

    # Independent ensemble estimate of E psi(T*).
    engine = FirstHitEngine(walk_cfg.seed, cfg.pair)
    ens: dict[str, list[float]] = {g.label: [] for g in cfg.gauges}
    ens_censored = 0
    for rep in range(1, ensemble_replicas + 1):
        out = engine.run_replica(rep, walk_cfg.horizon_fwd, cfg.max_horizon,
                                 cfg.horizon_policy)
        if out["censored"]:
            ens_censored += 1
            continue
        for g in cfg.gauges:
            ens[g.label].append(eval_gauge(g, out["t_star"] * dt))

    summary = []
    for g in cfg.gauges:
        e_mean, e_se = _mean_se(ens[g.label])
        half = e_mean / 2.0
        bvals = block_rows[g.label]
        t_se = (float(np.std(bvals, ddof=1)) / math.sqrt(len(bvals))
                if len(bvals) > 1 else 0.0)
        fwd_last = next(r["fwd"] for r in reversed(rows) if r["gauge"] == g.label)
        bwd_last = next(r["bwd"] for r in reversed(rows) if r["gauge"] == g.label)
        comb = math.sqrt(t_se ** 2 + (e_se / 2.0) ** 2)
        sig = cfg.thresholds["sigma"]
        summary.append({
            "gauge": g.label, "fwd": fwd_last, "bwd": bwd_last,
            "half_ensemble": half, "ensemble_se": e_se, "time_se": t_se,
            "fwd_ok": abs(fwd_last - half) <= sig * max(comb, 1e-12),
            "bwd_ok": abs(bwd_last - half) <= sig * max(comb, 1e-12),
        })
    data = {
        "r_max": float(r_max), "r_grid": [float(r) for r in r_grid],
        "ensemble_replicas": ensemble_replicas,
        "ensemble_censored": ens_censored,
        "summary": summary,
        "seed": walk_cfg.seed,
    }
    return StatReport("ergodic", cfg.digest(), data, {"averages": rows})


def run_tail(cfg: ExperimentConfig, n_boot: int = 100,
             checkpoints=(1000, 10000, 100000)) -> StatReport:
    """Censoring-aware survival of T* and the fitted tail exponent."""
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair, cfg.mode)
    h0 = min(cfg.walk.horizon_fwd, cfg.max_horizon)
    t_steps = np.empty(cfg.replicas, dtype=np.float64)
    cens = np.zeros(cfg.replicas, dtype=bool)
    for rep in range(cfg.replicas):
        out = engine.run_replica(rep, h0, cfg.max_horizon, cfg.horizon_policy)
        if out["censored"]:
            t_steps[rep] = cfg.max_horizon
            cens[rep] = True
        else:
            t_steps[rep] = out["t_star"]
    dt = float(cfg.walk.dt)
    t_phys = t_steps * dt
    hmax_phys = cfg.max_horizon * dt

    # All censoring happens at the common cap, so the product-limit estimate
    # below the cap is the empirical survival function.
    grid = []
    t = 64.0 * dt
    while t < hmax_phys:
        grid.append(t)
        t *= 2.0
    surv = [(g, float(np.mean(t_phys > g))) for g in grid]

    def fit_slope(tp: np.ndarray) -> float | None:
        pts = [(g, float(np.mean(tp > g))) for g in grid]
        dec = [(g, s) for g, s in pts if hmax_phys / 16.0 <= g < hmax_phys and s > 0]
        if len(dec) < 3:
            return None
        lg = np.log([g for g, _ in dec])
        ls = np.log([s for _, s in dec])
        return float(-np.polyfit(lg, ls, 1)[0])

    alpha_hat = fit_slope(t_phys)
    boot_rng = np.random.Generator(np.random.Philox(key=[cfg.walk.seed, 0xB007]))
    boots = []
    for _ in range(n_boot):
        idx = boot_rng.integers(0, cfg.replicas, cfg.replicas)
        b = fit_slope(t_phys[idx])
        if b is not None:
            boots.append(b)
    ci = (float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))) \
        if boots else (None, None)

    def partial_means(alpha: float) -> list[dict]:
        out = []
        vals = t_phys ** alpha
        run = np.cumsum(vals)
        for ck in checkpoints:
            if ck <= cfg.replicas:
                out.append({"checkpoint": ck, "mean": float(run[ck - 1] / ck)})
        if cfg.replicas not in [c["checkpoint"] for c in out]:
            out.append({"checkpoint": cfg.replicas,
                        "mean": float(run[-1] / cfg.replicas)})
        return out

    pm_quarter = partial_means(0.25)
    pm_tenth = partial_means(0.1)
    quarter_increasing = all(x["mean"] < y["mean"]
                             for x, y in zip(pm_quarter, pm_quarter[1:]))
    tenth_change = (abs(pm_tenth[-1]["mean"] - pm_tenth[-2]["mean"])
                    / pm_tenth[-2]["mean"]) if len(pm_tenth) >= 2 else None
    data = {
        "replicas": cfg.replicas, "censored": int(cens.sum()),
        "max_horizon_steps": cfg.max_horizon,
        "alpha_hat": alpha_hat, "alpha_ci": ci,
        "partial_mean_quarter": pm_quarter,
        "partial_mean_tenth": pm_tenth,
        "quarter_increasing": quarter_increasing,
        "tenth_rel_change": tenth_change,
        "seed": cfg.walk.seed,
    }
    table = [{"t": g, "survival": s} for g, s in surv]
    return StatReport("tail", cfg.digest(), data, {"survival": table})
