"""Monte Carlo and ergodic verification experiments.

Every experiment finds T* with the first-hit engine, which simulates the
difference process C(n) replica by replica, doubling its horizon from
``horizon_fwd`` up to ``max_horizon`` and skipping whole 64-step words far
from the atoms, so heavy-tailed embedding times can be sampled up to 2^24
steps without retaining whole paths.  Censored replicas (T* past
``max_horizon``) are reported, never dropped.
The same scan yields atom visits: compare and excursion-cost read each
excursion from them, and ergodic its long two-sided path, as event ledgers;
no experiment builds a dense ledger.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .comparators import (Comparator, apply_comparator, check_matching,
                          extract_slots, lifo_matching, matching_cost)
from .embedding import (Excursion, check_mode, draw_u_flag,
                        excursion_mass, first_balance, require_mode,
                        tau_star_map)
# perfbench/tracing.LAYERS patches these in this namespace.
from .embedding import compute_t_star, match_slots  # noqa: F401
from .walk import build_ledger  # noqa: F401
from .errors import ConfigError, InvariantError
from .gauges import Gauge, default_gauges, eval_gauge, gauges_from_json
from .measures import MeasurePair, as_int, measure_from_spec, split_measures
from .rng import BitStream, STREAM_BWD, STREAM_FWD, STREAM_START
from .stable_alloc import PointConfig
from .transport import inequality_check, sample_feasible_matrix, stable_indicator
from .walk import (EventLedger, WalkConfig, draw_start, inverse_local_time,
                   sample_walk, site_weights)

EXPERIMENTS = ("embed_law", "unbiased", "cost_compare", "excursion_cost",
               "ergodic", "tail")

# The only keys a config's "thresholds" may set.
DEFAULT_THRESHOLDS = {"sigma": 3.0, "margin_tol": 1e-10, "censor_flag": 0.20}

_CHUNK_CAP = 1 << 22


@dataclass(frozen=True)
class ExperimentConfig:
    walk: WalkConfig
    pair: MeasurePair
    gauges: tuple[Gauge, ...]
    replicas: int
    experiment: str
    mode: str = "exact"                    # "exact" | "crossing"
    max_horizon: int = 1 << 20
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    comparators: tuple[Comparator, ...] = (
        Comparator("stable"), Comparator("fifo_rematch"),
        Comparator("random_feasible_rematch", seed=7),
    )
    lags: tuple[int, ...] = (1, 4, 16)
    r_levels: int = 6

    def __post_init__(self):
        check_mode(self.mode)
        if not set(self.thresholds) <= set(DEFAULT_THRESHOLDS):
            raise ConfigError(f"thresholds take only {sorted(DEFAULT_THRESHOLDS)}, "
                              f"got {sorted(self.thresholds)}")
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_horizon < 1:
            raise ConfigError(f"max_horizon must be >= 1, got {self.max_horizon}")
        if not self.lags or min(self.lags) < 1:
            raise ConfigError(f"lags must be nonempty and >= 1, got {list(self.lags)}")
        if self.r_levels < 1:
            raise ConfigError(f"r_levels must be >= 1, got {self.r_levels}")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        for key in ("mu", "nu", "walk"):
            if key not in obj:
                raise ConfigError(f"config must define {key!r}")
        mu = measure_from_spec(obj["mu"])
        pair = split_measures(mu, measure_from_spec(obj["nu"]))
        walk = WalkConfig.from_json(obj["walk"], start_law=mu)
        experiment = obj.get("experiment", "embed_law")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}")
        kwargs = {}
        try:
            if obj.get("comparators"):
                kwargs["comparators"] = tuple(
                    Comparator(c["kind"], seed=as_int(c.get("seed", 0)),
                               n_swaps=as_int(c.get("n_swaps", 8)))
                    for c in obj["comparators"])
            if "lags" in obj:
                kwargs["lags"] = tuple(as_int(x) for x in obj["lags"])
            if "r_levels" in obj:
                kwargs["r_levels"] = as_int(obj["r_levels"])
            extra = dict(obj.get("thresholds", {}))
            return cls(
                walk=walk, pair=pair,
                gauges=(gauges_from_json(obj["gauges"]) if obj.get("gauges")
                        else default_gauges()),
                replicas=as_int(obj.get("replicas", 1000)),
                experiment=experiment,
                mode=obj.get("mode", "exact"),
                max_horizon=as_int(obj.get("max_horizon", 1 << 20)),
                thresholds={**DEFAULT_THRESHOLDS,
                            **{k: float(v) for k, v in extra.items()}},
                **kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed experiment config: {exc!r}") from exc

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
            # The one horizon policy, kept so that digests stay those of
            # configs written when a second policy existed.
            "horizon_policy": "doubling",
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
# word-skipping first-hit engine

# Each byte of a step word holds 8 steps, read from its high bit down.  Per
# byte value: the positions after each of its steps relative to the byte's
# start, their net displacement, and their lowest and highest values.
_BYTE_PATH = np.cumsum(
    2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    .astype(np.int64) - 1, axis=1)
_BYTE_DISP = _BYTE_PATH[:, -1]
_BYTE_MIN = _BYTE_PATH.min(axis=1)
_BYTE_MAX = _BYTE_PATH.max(axis=1)


def _doubling_chunks(h0: int, hmax: int):
    """Ends of the step blocks examined: the horizon runs h0, 2 h0, 4 h0, ...
    capped at hmax, each block cut into pieces of at most _CHUNK_CAP steps."""
    done, horizon = 0, h0
    while done < hmax:
        while horizon <= done:
            horizon *= 2
        done = min(horizon, hmax, done + _CHUNK_CAP)
        yield done


class FirstHitEngine:
    """Simulates T* = first n > 0 with C(n) back at C(-1), per replica.

    C changes only at visits to atoms with a nonzero weight difference, and
    it starts above the balance level, so the first balance is an atom
    visit.  The engine reads the replica's forward stream as 64-step words
    and spends single steps only near the atoms: a word whose start lies
    more than 64 sites outside the hull of the atoms of mu and nu is
    skipped whole, the other words split into bytes, and only bytes whose
    range meets the hull become steps, so every atom visit is one of them.
    The path is the stream's, step for step, so the result equals a
    step-by-step simulation of the same stream whatever the block sizes;
    horizon doubling continues the stream where it stopped.
    """

    def __init__(self, seed: int, pair: MeasurePair, mode: str = "exact"):
        require_mode(pair, mode)
        self.seed = seed
        self.pair = pair
        self.mode = mode
        sites = [s for m in (pair.mu, pair.nu) for s, _ in m.atoms]
        self._lo, self._hi = min(sites), max(sites)
        # Weight difference and atom flag by site over [lo - 8, hi + 8]:
        # every step of a kept byte lies within 7 sites of the hull.
        grid = np.arange(self._lo - 8, self._hi + 9)
        wmu, wnu = (site_weights(grid, m, pair.denominator)
                    for m in (pair.mu, pair.nu))
        self._wtab = wmu - wnu
        self._atom = wmu + wnu > 0
        self.wdiff = {int(s): int(w) for s, w in zip(grid, self._wtab) if w}

    def run_replica(self, replica: int, h0: int, hmax: int,
                    events: bool = False) -> dict:
        """Returns {"t_star", "site", "censored", "horizon", "u_flag"}.

        The horizon doubles from h0 up to hmax.  ``horizon`` is the end of
        the block holding T*, or the last block's end when the replica is
        censored at hmax.  With ``events`` the dict also holds "events": the
        (steps, sites) arrays of the atom visits on [0, T*], step 0
        included, or None when censored.
        """
        if h0 < 1 <= hmax:
            raise ConfigError(f"horizon doubling needs h0 >= 1, got {h0}")
        start_stream = BitStream(self.seed, replica, STREAM_START)
        start = draw_start(self.pair.mu, start_stream)
        visits = [([0], [start])]          # step 0: the start, a mu-atom
        out = {"t_star": 0, "site": start, "censored": False,
               "horizon": 0, "u_flag": 0}
        if draw_u_flag(self.pair, self.seed, replica, start) == 1:
            out = self._first_hit(replica, start, h0, hmax,
                                  visits if events else None)
        if events:
            out["events"] = None if out["censored"] else tuple(
                map(np.concatenate, zip(*visits)))
        return out

    def _first_hit(self, replica, start, h0, hmax, visits):
        """run_replica after a U-flag of 1: the scan from ``start``."""
        stream = BitStream(self.seed, replica, STREAM_FWD)
        pos = start
        c = self.wdiff.get(start, 0)       # C(0); reference C(-1) = 0
        scanned = 0                        # steps read, a multiple of 64
        hit, horizon = None, 0
        for horizon in _doubling_chunks(h0, hmax):
            # The last word of a block can run past the block; a balance
            # found there belongs to a later block, or past hmax to none.
            if hit is None and scanned < horizon:
                n_words = -(-(horizon - scanned) // 64)
                found, pos, c = self._scan(stream.take_words(n_words), pos, c,
                                           visits, scanned)
                if found is not None:
                    hit = (scanned + found[0] + 1, found[1])
                scanned += 64 * n_words
            if hit is not None and hit[0] <= horizon:
                return {"t_star": hit[0], "site": hit[1], "censored": False,
                        "horizon": horizon, "u_flag": 1}
        return {"t_star": None, "site": None, "censored": True,
                "horizon": horizon, "u_flag": 1}

    def _scan(self, words: np.ndarray, pos: int, c: int,
              visits: list | None, offset: int):
        """First balance in the steps of ``words``, walked from (pos, c).

        Returns ((step index, site) or None, end position, end C).  When
        ``visits`` is a list, appends the (step, site) arrays of the atom
        visits up to the balance, steps counted from ``offset``.
        """
        pos_end, sites, near, keep = self._near(words, pos)
        if sites.size == 0:
            return None, pos_end, c
        c_arr = np.cumsum(self._wtab[sites - (self._lo - 8)])
        c_arr += c
        c_end = int(c_arr[-1])
        h = first_balance(c_arr, 0, self.mode)
        if visits is not None:
            end = None if h is None else h + 1
            visits.append(self._visits(sites[:end], near, keep, offset))
        if h is None:
            return None, pos_end, c_end
        byte = keep[h // 8]
        step = int(near[byte // 8]) * 64 + int(byte % 8) * 8 + h % 8
        return (step, int(sites[h])), pos_end, c_end

    def _near(self, words: np.ndarray, pos: int):
        """The sites of ``words``, walked from ``pos``, near the atoms' hull.

        Returns (end position, sites, near, keep): the sites after the 8
        steps of each byte that may meet the hull, which are bytes ``keep``
        of words ``near``; sites is empty when no byte may.
        """
        disp = np.bitwise_count(words).astype(np.int64)
        disp *= 2
        disp -= 64
        ends = np.cumsum(disp)
        ends += pos
        pos_end = int(ends[-1])
        starts = ends - disp
        near = np.flatnonzero((starts >= self._lo - 64) & (starts <= self._hi + 64))
        if near.size == 0:
            return pos_end, near, near, near
        # Bytes of the near words, in stream order, and their start sites.
        byts = words[near].astype(">u8").view(np.uint8).reshape(-1, 8)
        bdisp = _BYTE_DISP[byts]
        bstart = np.cumsum(bdisp, axis=1)
        bstart -= bdisp
        bstart += starts[near, None]
        keep = np.flatnonzero((bstart + _BYTE_MIN[byts] <= self._hi)
                              & (bstart + _BYTE_MAX[byts] >= self._lo))
        if keep.size == 0:
            return pos_end, keep, near, keep
        sites = _BYTE_PATH[byts.ravel()[keep]]
        sites += bstart.ravel()[keep, None]
        return pos_end, sites.ravel(), near, keep

    def _visits(self, sites, near, keep, offset: int):
        """(steps, sites) of the atom visits among ``_near``'s sites."""
        k = np.flatnonzero(self._atom[sites - (self._lo - 8)])
        byte = keep[k // 8]
        return near[byte // 8] * 64 + byte % 8 * 8 + k % 8 + (offset + 1), sites[k]

    def path_visits(self, replica: int, role: int, start: int, n: int):
        """(steps, sites) of the atom visits at steps 1..n of a walk.

        The walk starts at ``start`` and reads stream ``role`` of
        ``replica`` the way ``WalkPath`` does.
        """
        words = BitStream(self.seed, replica, role).take_words(-(-n // 64))
        steps, sites = self._visits(*self._near(words, start)[1:], 0)
        return steps[steps <= n], sites[steps <= n]


def _t_star_finder(cfg: ExperimentConfig, events: bool = False):
    """rep -> run_replica output: T* under the one horizon contract.

    Every experiment finds T* here.  The horizon doubles from
    ``horizon_fwd`` up to ``max_horizon``, and a replica whose T* lies
    beyond the cap is censored.
    """
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair, cfg.mode)
    return lambda rep: engine.run_replica(rep, cfg.walk.horizon_fwd,
                                          cfg.max_horizon, events)


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
    t_star = _t_star_finder(cfg)
    sites: dict[int, int] = {}
    censored = 0
    t_values: list[int] = []
    for rep in range(cfg.replicas):
        out = t_star(rep)
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
    data = {
        "replicas": cfg.replicas, "completed": completed, "censored": censored,
        "tv_distance": tv, "chi2": chi2, "off_support_hits": extra,
        "censor_rate": censor_rate,
        "excess_censoring_flag": censor_rate > cfg.thresholds["censor_flag"],
        "mean_t_star_steps": float(np.mean(t_values)) if t_values else None,
        "seed": cfg.walk.seed,
    }
    return StatReport("embed_law", cfg.digest(), data, {"law": rows})


def run_unbiased_test(cfg: ExperimentConfig) -> StatReport:
    """Increment law of the shifted walk (B_{T*+t} - B_{T*}).

    Each completed replica's path is sampled to T* + max lag; censored
    replicas are counted and left out.
    """
    # Only this experiment needs scipy.stats (0.6 s and 70 MiB to import).
    from scipy import stats as sstats

    lags = cfg.lags
    window = max(lags)
    per_lag_fwd = {k: [] for k in lags}
    per_lag_bwd = {k: [] for k in lags}
    control = {k: [] for k in lags}
    plus_count = 0
    step_count = 0
    censored = 0
    ctrl_stream = BitStream(cfg.walk.seed, 0xC117, 0)
    t_star = _t_star_finder(cfg)
    for rep in range(cfg.replicas):
        out = t_star(rep)
        if out["censored"]:
            censored += 1
            continue
        t = out["t_star"]
        path = sample_walk(cfg.walk, replica=rep)
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
                     slot_cap: int | None = None, find=None):
    """Event ledger and excursion [0, T*] for one replica, or None.

    None when the replica is censored, when T* = 0 (U-flag 0), or when the
    excursion carries more than ``slot_cap`` mu-slots.  The ledger holds the
    atom visits the first-hit scan saw; ``find`` is the run's
    ``_t_star_finder(cfg, events=True)``, built here when not given.
    """
    out = (find or _t_star_finder(cfg, events=True))(rep)
    t = out["t_star"]
    if not t:                              # censored (None) or T* = 0
        return None
    ledger = EventLedger(*out["events"], cfg.pair)
    exc = Excursion(left=0, right=t, mass=excursion_mass(ledger, 0, t))
    if slot_cap is not None and exc.mass * ledger.q > slot_cap:
        return None
    return ledger, exc


def run_cost_compare(cfg: ExperimentConfig) -> StatReport:
    """Pathwise excursion-cost dominance of tau* over comparator rematchings."""
    tol = cfg.thresholds["margin_tol"]
    per: dict[tuple[str, str], list[float]] = {}
    diffs: dict[tuple[str, str], list[float]] = {}
    violations = 0
    skipped = 0
    used = 0
    find = _t_star_finder(cfg, events=True)
    dt = float(cfg.walk.dt)
    for rep in range(cfg.replicas):
        got = _first_excursion(cfg, rep, find=find)
        if got is None:
            skipped += 1
            continue
        ledger, exc = got
        used += 1
        unit = 1 / ledger.q
        mass = float(exc.mass)
        slots = extract_slots(ledger, exc)
        stable = lifo_matching(ledger, exc)
        c_stable = [matching_cost(stable, g, dt, unit) for g in cfg.gauges]
        for comp in cfg.comparators:
            pairs = apply_comparator(comp, exc, slots, stable)
            check_matching(slots, pairs)
            costs = c_stable if comp.kind == "stable" else [
                matching_cost(pairs, g, dt, unit) for g in cfg.gauges]
            for g, c_stable_g, c_comp in zip(cfg.gauges, c_stable, costs):
                if c_comp < c_stable_g - tol:
                    violations += 1
                key = (comp.kind, g.label)
                per.setdefault(key, []).append(c_comp / mass)
                diffs.setdefault(key, []).append((c_comp - c_stable_g) / mass)
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
        "comparators": [c.kind for c in cfg.comparators],
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
    require_mode(cfg.pair, "exact")        # unit nu-slots: T* balances
    tol = cfg.thresholds["margin_tol"]
    min_margin = math.inf
    skipped = 0
    equality_checked = 0
    rows = []
    find = _t_star_finder(cfg, events=True)
    dt = cfg.walk.dt
    for rep in range(cfg.replicas):
        got = _first_excursion(cfg, rep, slot_cap, find)
        if got is None:
            skipped += 1
            continue
        # The excursion balances at T*, so its slots are exactly the stable
        # matching's.  Step s is the point s * dt, an integer numerator over
        # dt's denominator; the a-sequence descends.
        sources, targets = extract_slots(*got)
        pcfg = PointConfig(tuple(s * dt.numerator for s in reversed(sources)),
                           tuple(t * dt.numerator for t in targets),
                           dt.denominator, allow_ties=True)
        n = len(sources)
        # Stable indicator: exact equality of both sides.  Its check gives
        # each gauge's rhs once; the sampler has validated its matrices.
        pi0 = stable_indicator(pcfg, n)
        rhs = []
        for g in cfg.gauges:
            rep0 = inequality_check(pi0, g)
            if abs(rep0.margin) > 1e-9 * max(1.0, rep0.rhs):
                raise InvariantError(
                    f"stable indicator not at equality (margin {rep0.margin})")
            rhs.append(rep0.rhs)
        equality_checked += 1
        for mi in range(matrices_per_excursion):
            pi = sample_feasible_matrix(pcfg, n, seed=cfg.walk.seed * 1000 + rep * 10 + mi)
            for g, rhs_g in zip(cfg.gauges, rhs):
                lhs = pi.cost(g)
                min_margin = min(min_margin, lhs - rhs_g)
                rows.append({"replica": rep, "matrix": mi, "gauge": g.label,
                             "lhs": lhs, "rhs": rhs_g, "margin": lhs - rhs_g})
    checked = len(rows)
    data = {
        "replicas": cfg.replicas, "excursions_used": equality_checked,
        "skipped": skipped, "checks": checked,
        "min_margin": (None if checked == 0 else min_margin),
        "all_nonnegative": (checked > 0 and min_margin >= -tol),
        "seed": cfg.walk.seed,
    }
    return StatReport("excursion_cost", cfg.digest(), data,
                      {"margins": rows[:2000]})


def _long_path(cfg: ExperimentConfig) -> EventLedger:
    """Replica 0's path on [-horizon_bwd, horizon_fwd] as one event ledger.

    It starts at a mu-atom drawn as the engine draws it; the first-hit scan
    reads both streams the way ``WalkPath`` does and keeps the atom visits.
    """
    walk = cfg.walk
    engine = FirstHitEngine(walk.seed, cfg.pair, cfg.mode)
    start = draw_start(cfg.pair.mu, BitStream(walk.seed, 0, STREAM_START))
    fwd, fwd_sites = engine.path_visits(0, STREAM_FWD, start, walk.horizon_fwd)
    bwd, bwd_sites = engine.path_visits(0, STREAM_BWD, start, walk.horizon_bwd)
    return EventLedger(np.concatenate([-bwd[::-1], [0], fwd]),
                       np.concatenate([bwd_sites[::-1], [start], fwd_sites]),
                       cfg.pair, walk.horizon_bwd, walk.horizon_fwd)


def run_ergodic(cfg: ExperimentConfig, ensemble_replicas: int = 1000) -> StatReport:
    """Time-averaged tau* cost along one long path versus half the ensemble mean."""
    ledger = _long_path(cfg)
    q = ledger.q
    dt = float(cfg.walk.dt)
    # Charged steps missing from the map have tau* past the forward horizon.
    tau_map, _ = tau_star_map(ledger, -ledger.hb, ledger.hf)

    # Largest two-sided mass level attainable with tau* defined inside the
    # forward horizon: cap r at 80% of each side's mass.
    total_fwd, total_bwd = (int((wmu + wnu).sum()) for _, wmu, wnu in
                            (ledger.events(0, ledger.hf),
                             ledger.events(-ledger.hb, 0)))
    r_max = Fraction(int(0.8 * min(total_fwd, total_bwd)), q)
    if r_max <= 0:
        raise ConfigError("path too short for an ergodic run")
    r_grid = [r_max / (2 ** k) for k in reversed(range(cfg.r_levels))]

    def window_average(lo: int, hi: int, r: Fraction, g: Gauge) -> tuple[float, int]:
        """(1/r) sum of mu(x_s) psi((tau*(s) - s) dt) over charged s in [lo, hi)."""
        total = 0.0
        unmatched = 0
        steps, wmu, _ = ledger.events(lo, hi - 1)
        for s, w in zip(steps[wmu > 0].tolist(), wmu[wmu > 0].tolist()):
            if s not in tau_map:
                unmatched += 1
                continue
            total += float(w) / q * eval_gauge(g, (tau_map[s] - s) * dt)
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
    t_star = _t_star_finder(cfg)
    ens: dict[str, list[float]] = {g.label: [] for g in cfg.gauges}
    ens_censored = 0
    for rep in range(1, ensemble_replicas + 1):
        out = t_star(rep)
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
        "seed": cfg.walk.seed,
    }
    return StatReport("ergodic", cfg.digest(), data, {"averages": rows})


def run_tail(cfg: ExperimentConfig, n_boot: int = 100,
             checkpoints=(1000, 10000, 100000)) -> StatReport:
    """Censoring-aware survival of T* and the fitted tail exponent."""
    t_star = _t_star_finder(cfg)
    t_steps = np.empty(cfg.replicas, dtype=np.float64)
    cens = np.zeros(cfg.replicas, dtype=bool)
    for rep in range(cfg.replicas):
        out = t_star(rep)
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
