"""Monte Carlo and ergodic verification experiments.

Every experiment finds T* with the first-hit engine, which simulates the
difference process C(n) for cohorts of up to 256 replicas at once, one row
of a word array per replica and up to 16384 words per scan call, scanning
each replica to ``max_horizon`` (at most 2^30 steps) and skipping whole
64-step words whose popcount keeps them off the atoms, so heavy-tailed
embedding times are sampled without retaining whole paths.  A row reads at
most as many words as it has read, so a replica that balances early reads
little; once it hits, its generator is re-keyed for another.
Censored replicas (T* past ``max_horizon``) are reported, never dropped.
With two cohorts or more, forked workers, one per CPU, scan them and, for
compare and excursion-cost, score each cohort's excursions as one
``Cohort``.  ergodic reads its long path's atom visits as an event ledger,
unbiased the increments around T* as popcounts of seeked stream words.
No experiment builds a dense path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from .comparators import (Cohort, Comparator, apply_comparator, check_matching,
                          matching_cost)
from .embedding import draw_u_flag, require_unit_slots, tau_star_map
# perfbench/tracing.LAYERS patches these in this namespace.
from .embedding import compute_t_star, match_slots  # noqa: F401
from .walk import build_ledger, sample_walk  # noqa: F401
from .errors import ConfigError, InvariantError
from .gauges import Gauge, eval_gauge, gauges_from_json
from .measures import MeasurePair, as_int, measure_from_spec, split_measures
from .rng import BitStream, STREAM_BWD, STREAM_FWD, STREAM_START
from .stable_alloc import PointConfig
from .transport import inequality_check, sample_feasible_matrix, stable_indicator
from .walk import (MAX_DENSE_STEPS, MAX_HORIZON_STEPS, MAX_REPLICAS, EventLedger,
                   WalkConfig, draw_start, inverse_local_time)

EXPERIMENTS = ("embed_law", "unbiased", "cost_compare", "excursion_cost",
               "ergodic", "tail")

# The only keys a config's "thresholds" may set.
DEFAULT_THRESHOLDS = {"sigma": 3.0, "margin_tol": 1e-10, "censor_flag": 0.20}

# Replicas scanned together, and the most words one scan call, or one
# row's read, takes.  Outputs do not depend on either.
_COHORT = 256
_WORD_BUDGET = 16384
# Forked workers that scan run_replicas' cohorts: one per CPU the process may
# run on (``taskset`` narrows it).  With one, or without sched_getaffinity
# (no fork-safe pool outside Linux), the cohorts are scanned in-process.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@dataclass(frozen=True)
class ExperimentConfig:
    walk: WalkConfig
    pair: MeasurePair
    gauges: tuple[Gauge, ...]
    replicas: int
    experiment: str
    max_horizon: int = 1 << 20
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    comparators: tuple[Comparator, ...] = (
        Comparator("stable"), Comparator("fifo_rematch"),
        Comparator("random_feasible_rematch", seed=7),
    )
    lags: tuple[int, ...] = (1, 4, 16)
    r_levels: int = 6

    def __post_init__(self):
        if not set(self.thresholds) <= set(DEFAULT_THRESHOLDS):
            raise ConfigError(f"thresholds take only {sorted(DEFAULT_THRESHOLDS)}, "
                              f"got {sorted(self.thresholds)}")
        t = {**DEFAULT_THRESHOLDS, **self.thresholds}
        if not (0 < t["sigma"] < math.inf and 0 <= t["censor_flag"] <= 1
                and 0 <= t["margin_tol"] <= 1e-6):
            raise ConfigError("thresholds need sigma finite and > 0, censor_flag in "
                              f"[0, 1] and margin_tol in [0, 1e-6], got {t}")
        if not 1 <= self.replicas <= MAX_REPLICAS:
            raise ConfigError(
                f"replicas must be >= 1 and <= 2^24, got {self.replicas}")
        if not 1 <= self.max_horizon <= MAX_HORIZON_STEPS:
            raise ConfigError(
                f"max_horizon must be >= 1 and <= 2^30, got {self.max_horizon}")
        if not (self.lags and 1 <= min(self.lags)
                and max(self.lags) <= MAX_HORIZON_STEPS):
            raise ConfigError(
                f"lags must be nonempty, >= 1 and <= 2^30, got {list(self.lags)}")
        # The engine tables one entry per site of the atoms' hull.
        sites = [s for m in (self.pair.mu, self.pair.nu) for s, _ in m.atoms]
        if max(sites) - min(sites) > MAX_DENSE_STEPS:
            raise ConfigError("the atoms of mu and nu must lie within 2^24 sites "
                              f"of one another, got {max(sites) - min(sites)}")
        if not 1 <= self.r_levels <= 64:
            raise ConfigError(f"r_levels must lie in [1, 64], got {self.r_levels}")
        # A repeat pools its samples in one row (and parameters share labels).
        for name, items in (("lags", self.lags),
                            ("gauge labels", [g.label for g in self.gauges]),
                            ("comparator kinds", [c.kind for c in self.comparators])):
            if len(set(items)) < len(items):
                raise ConfigError(f"{name} must be distinct, got {list(items)}")

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
                gauges=gauges_from_json(obj.get("gauges")),
                replicas=as_int(obj.get("replicas", 1000)),
                experiment=experiment,
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
            # Constants, so that digests stay those of configs written when
            # horizons doubled and a second policy existed, and when "exact"
            # (C == 0) and "crossing" (C <= 0) were two stop rules; every run
            # now scans to max_horizon and stops at the first C <= 0.
            "mode": "exact",
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
        """Strict JSON: a statistic with no sample is null, never NaN."""
        try:
            return json.dumps(
                {"experiment": self.experiment, "config_digest": self.config_digest,
                 "data": self.data}, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise InvariantError(f"{self.experiment} report: {exc}") from exc

    def write(self, out_dir: Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(self.to_json())
        tdir = out_dir / "tables"
        for name, rows in self.tables.items():
            if not rows:
                continue
            tdir.mkdir(exist_ok=True)
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


class FirstHitEngine:
    """Simulates T* = first n > 0 with C(n) <= 0, per replica.

    C changes only at visits to atoms with a nonzero weight difference, and
    it starts above the balance level, so the first balance is an atom
    visit.  The engine reads each replica's forward stream as 64-step words
    and spends single steps only near the atoms: a word of u up-steps from
    site s stays within [s + u - 64, s + u], and it is skipped whole unless
    that range meets the hull of the atoms of mu and nu; the other words
    split into bytes, and only bytes whose range meets the hull become
    steps, so every atom visit is one of them.  Replicas run in cohorts of
    up to _COHORT, scanned to hmax.  Each read takes the next words of every
    live replica's stream into the rows of one array, at most as many per
    row as it has read so far (at least one), at most _WORD_BUDGET, and no
    further than the word holding step hmax, so a row reads 1, 1, 2, 4, ...
    words and one that balances early stops reading.  One pass of numpy
    calls scans up to _WORD_BUDGET words of a read.  A row's stream is
    released at its hit, or at the cohort's end if censored.  Each row is
    its replica's stream, step for step, so the result equals a step-by-step
    simulation of that stream whatever the cohort and call sizes.
    """

    def __init__(self, seed: int, pair: MeasurePair):
        self.seed = seed
        self.pair = pair
        sites = [s for m in (pair.mu, pair.nu) for s, _ in m.atoms]
        self._lo, self._hi = min(sites), max(sites)
        # Weight difference and atom flag by site over [lo - 8, hi + 8] (a
        # kept byte's steps lie within 7 sites of the hull), scattered from
        # the atoms: a common site whose weights cancel stays an atom.
        base = self._lo - 8
        self._wtab = np.zeros(self._hi - base + 9, dtype=np.int64)
        self._atom = np.zeros(self._wtab.size, dtype=bool)
        for sign, m in ((1, pair.mu), (-1, pair.nu)):
            for s, w in m.atoms:
                self._wtab[s - base] += sign * int(w * pair.denominator)
                self._atom[s - base] = True
        self.wdiff = {s: int(self._wtab[s - base]) for s in sorted(set(sites))
                      if self._wtab[s - base]}

    def run_replica(self, replica: int, hmax: int) -> dict:
        """Returns {"t_star", "site", "censored", "u_flag"}: the replica is
        censored when its T* lies past hmax."""
        return next(self.run_replicas([replica], hmax))

    def run_replicas(self, replicas, hmax: int):
        """Yields ``run_replica(rep, hmax)`` for each of the sequence
        ``replicas``, in order, scanned in cohorts."""
        scan = partial(FirstHitEngine.scan_cohort, events=False)
        for outs, _ in self.map_cohorts(replicas, hmax, scan):
            yield from outs

    def map_cohorts(self, replicas, hmax: int, fn):
        """Yields ``fn(self, reps, hmax)`` for each cohort ``reps`` of up to
        _COHORT of the sequence ``replicas``, in order: the one place they
        are cut.  A cohort's scan depends only on (seed, its replicas,
        hmax), so with two cohorts or more, up to _WORKERS forked processes
        call ``fn``; the pool lives only as long as this iteration."""
        cohorts = [replicas[i:i + _COHORT] for i in range(0, len(replicas), _COHORT)]
        workers = min(_WORKERS, len(cohorts))
        if workers < 2:
            for reps in cohorts:
                yield fn(self, reps, hmax)
            return
        # Imported here, so that a serial run never loads them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # A forked worker inherits the engine and fn: only replicas and fn's
        # values are pickled.
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   initializer=_adopted.append, initargs=((self, fn),))
        try:
            yield from pool.map(_run_adopted, cohorts, [hmax] * len(cohorts))
        finally:
            pool.shutdown(cancel_futures=True)

    def scan_cohort(self, reps, hmax: int, events: bool):
        """run_replica's dicts for the replicas ``reps``, scanned together,
        and with ``events`` the (rows, steps, sites) of their atom visits up
        to each hit or scan end, by row, step 0 included (else None).  This
        is the one place the engine hands out visits."""
        outs, streams = [], []
        mu = self.pair.mu
        for rep in reps:
            start = (draw_start(mu, BitStream(self.seed, rep, STREAM_START))
                     if len(mu.atoms) > 1 else mu.atoms[0][0])   # no draw
            outs.append({"t_star": 0, "site": start, "censored": False,
                         "u_flag": draw_u_flag(self.pair, self.seed, rep, start)})
            # The generator is claimed at the first read and released at the hit.
            streams.append(BitStream(self.seed, rep, STREAM_FWD))
        pos = np.array([o["site"] for o in outs], dtype=np.int64)
        # (rows, steps, sites) per scan call; step 0 is the start, a mu-atom.
        visits = [(np.arange(len(outs)), np.zeros(len(outs), np.int64), pos.copy())]
        c = np.array([self.wdiff.get(p, 0) for p in pos.tolist()])  # C(0)
        live = [r for r, o in enumerate(outs) if o["u_flag"]]   # no hit yet
        scanned = 0                        # steps read by each live row
        while live and scanned < hmax:
            # At most as many words as read so far: 1, 1, 2, 4, ...
            n = min(max(1, scanned // 64), _WORD_BUDGET, -(-(hmax - scanned) // 64))
            per = _WORD_BUDGET // n
            for g in range(0, len(live), per):
                rows = live[g:g + per]
                words = np.stack([streams[r].take_words(n) for r in rows])
                pos[rows], c[rows], hits, seen = self._scan(
                    words, pos[rows], c[rows], scanned, events)
                if events:
                    visits.append((np.array(rows)[seen[0]], *seen[1:]))
                # A balance past hmax, in the last read, leaves its row censored.
                for i, t, site in zip(*hits):
                    if t <= hmax:
                        outs[rows[i]].update(t_star=t, site=site)
                        streams[rows[i]].release()
            live = [r for r in live if not outs[r]["t_star"]]
            scanned += 64 * n
        for r in live:
            outs[r].update(t_star=None, site=None, censored=True)
            streams[r].release()
        if not events:
            return outs, None
        # Each row's visits of later calls lie later: a stable sort by row.
        rows, steps, sites = (np.concatenate(a) for a in zip(*visits))
        order = np.argsort(rows, kind="stable")
        return outs, (rows[order], steps[order], sites[order])

    def _scan(self, words: np.ndarray, pos: np.ndarray, c: np.ndarray,
              offset: int, events: bool):
        """First balances in the rows of ``words``, each walked from its
        (pos, c).

        Returns (end positions, end Cs, (rows, steps, sites), visits): the
        rows that balance, each with its first balance's step, counted from
        ``offset`` + 1, and site; with ``events``, the (rows, steps, sites)
        of the atom visits up to each balance, else None.
        """
        pos_end, sites, rows, steps = self._near(words, pos)
        seg = np.searchsorted(rows, np.arange(len(words) + 1))  # row starts
        cum = np.concatenate(([0], np.cumsum(self._wtab[sites - (self._lo - 8)])))
        c_arr = cum[1:] + np.repeat(c - cum[seg[:-1]], np.diff(seg))
        # Hits are the steps where a row's C falls to <= 0 (it enters above
        # 0), not every later step at or below 0, which can be most of them.
        hits = c_arr <= 0
        hits[1:] &= ~hits[:-1] | (rows[1:] != rows[:-1])
        hits = np.flatnonzero(hits)
        hits = hits[np.diff(rows[hits], prepend=-1) != 0]      # first per row
        seen = None
        if events:
            cut = seg[1:].copy()
            cut[rows[hits]] = hits + 1
            k = np.flatnonzero(self._atom[sites - (self._lo - 8)]
                               & (np.arange(sites.size) < cut[rows]))
            seen = rows[k], steps[k] + (offset + 1), sites[k]
        found = rows[hits], steps[hits] + (offset + 1), sites[hits]
        return pos_end, c + np.diff(cum[seg]), [x.tolist() for x in found], seen

    def _near(self, words: np.ndarray, pos: np.ndarray):
        """The sites of the rows of ``words``, each walked from its ``pos``,
        near the atoms' hull.

        Returns (end positions, sites, rows, steps): the site after each of
        the 8 steps of every byte that may meet the hull, in row then stream
        order, with its row and its step index in the row from 0.
        """
        # A word of u up-steps from s ends at s + 2u - 64 and stays within
        # [s + u - 64, s + u]: keep it when that range meets the hull.
        up = np.bitwise_count(words).astype(np.int64)
        top = np.cumsum(2 * up - 64, axis=1)        # the ends, then s + u
        top += (pos + 64)[:, None] - up
        near = np.flatnonzero((top >= self._lo) & (top <= self._hi + 64))
        starts = top.ravel()[near] - up.ravel()[near]
        # Bytes of the near words, in stream order, and their start sites.
        byts = words.ravel()[near].astype(">u8").view(np.uint8).reshape(-1, 8)
        bdisp = _BYTE_DISP[byts]
        bstart = np.cumsum(bdisp, axis=1)
        bstart -= bdisp
        bstart += starts[:, None]
        keep = np.flatnonzero((bstart + _BYTE_MIN[byts] <= self._hi)
                              & (bstart + _BYTE_MAX[byts] >= self._lo))
        sites = _BYTE_PATH[byts.ravel()[keep]]
        sites += bstart.ravel()[keep, None]
        rows, word = np.divmod(near[keep // 8], words.shape[1])
        steps = (word * 64 + keep % 8 * 8)[:, None] + np.arange(8)
        return (top[:, -1] + up[:, -1] - 64, sites.ravel(), np.repeat(rows, 8),
                steps.ravel())

    def path_visits(self, replica: int, role: int, start: int, n: int):
        """(steps, sites) of the atom visits at steps 1..n of a walk.

        The walk starts at ``start`` and reads stream ``role`` of
        ``replica`` the way ``WalkPath`` does.
        """
        stream = BitStream(self.seed, replica, role)
        words = stream.take_words(-(-n // 64))
        stream.release()
        _, sites, _, steps = self._near(words[None], np.array([start]))
        k = self._atom[sites - (self._lo - 8)] & (steps < n)
        return steps[k] + 1, sites[k]


_adopted: list = []                    # a pool worker's (engine, fn)


def _run_adopted(reps, hmax: int):
    engine, fn = _adopted[0]
    return fn(engine, reps, hmax)


def _used_cohort(engine: FirstHitEngine, reps, hmax: int):
    """(run_replica dicts of ``reps``, the Cohort of their used paths
    (T* > 0) or None), from one events scan."""
    outs, (rows, steps, sites) = engine.scan_cohort(reps, hmax, True)
    used = np.array([bool(out["t_star"]) for out in outs])
    on, path = used[rows], np.cumsum(used) - 1         # used rows renumbered
    return outs, (Cohort(path[rows[on]], steps[on], sites[on], engine.pair)
                  if used.any() else None)


def _t_star_finder(cfg: ExperimentConfig):
    """replicas -> their run_replica dicts under the one horizon contract:
    each is scanned to ``max_horizon``, and censored if its T* lies beyond."""
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair)
    return lambda reps: engine.run_replicas(reps, cfg.max_horizon)


def _mean_se(xs) -> tuple[float, float]:
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
    for out in t_star(range(cfg.replicas)):
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
        p_nu = float(w)
        # No observed share or SE without a completed replica.
        p_hat = se = None
        if completed:
            p_hat = obs / completed
            tv += abs(p_hat - p_nu) / 2.0
            if p_nu > 0:
                chi2 += (obs - completed * p_nu) ** 2 / (completed * p_nu)
            se = math.sqrt(p_nu * (1 - p_nu) / completed)
        rows.append({"site": site, "target": p_nu, "observed": p_hat,
                     "binomial_se": se, "count": obs})
    extra = sum(c for s, c in sites.items() if nu.weight(s) == 0)
    tv += extra / (2.0 * completed) if completed else 0.0
    censor_rate = censored / cfg.replicas
    data = {
        "replicas": cfg.replicas, "completed": completed, "censored": censored,
        "tv_distance": tv if completed else None,
        "chi2": chi2 if completed else None, "off_support_hits": extra,
        "censor_rate": censor_rate,
        "excess_censoring_flag": censor_rate > cfg.thresholds["censor_flag"],
        "mean_t_star_steps": float(np.mean(t_values)) if t_values else None,
        "seed": cfg.walk.seed,
    }
    return StatReport("embed_law", cfg.digest(), data, {"law": rows})


def _displacement(seed: int, ids: tuple[int, ...], a: int, b: int) -> int:
    """Net displacement of the +-1 steps [a, b) of stream (seed, *ids):
    2 popcount - (b - a) over its seeked words, where step i is bit
    63 - i % 64 of word i // 64, as ``take_steps`` reads it."""
    if a == b:
        return 0
    stream = BitStream(seed, *ids)
    stream.skip_words(a // 64)
    words = stream.take_words(-(-b // 64) - a // 64)
    stream.release()
    up = int(np.bitwise_count(words).sum())
    up -= (int(words[0]) >> (64 - a % 64)).bit_count()       # steps before a
    up -= (int(words[-1]) & ((1 << -b % 64) - 1)).bit_count()  # steps from b on
    return 2 * up - (b - a)


def run_unbiased_test(cfg: ExperimentConfig) -> StatReport:
    """Increment law of the shifted walk (B_{T*+t} - B_{T*}).

    Every increment around a completed replica's T* is the displacement of
    a step range of its forward or backward stream, and every control
    sample that of the next steps of stream (seed, 0xC117, 0), each read
    from seeked words, so no path is built and memory does not grow with
    T* or the lags.  Censored replicas are counted and left out.
    """
    # Only this experiment needs scipy.stats (0.6 s and 70 MiB to import).
    from scipy import stats as sstats

    lags = cfg.lags
    seed = cfg.walk.seed
    per_lag_fwd = {k: [] for k in lags}
    per_lag_bwd = {k: [] for k in lags}
    control = {k: [] for k in lags}
    plus_count = 0
    step_count = 0
    censored = 0
    cursor = 0                             # control steps read so far
    t_star = _t_star_finder(cfg)
    for rep, out in enumerate(t_star(range(cfg.replicas))):
        if out["censored"]:
            censored += 1
            continue
        t = out["t_star"]

        def fwd(a: int, b: int) -> int:
            return _displacement(seed, (rep, STREAM_FWD), a, b)

        plus_count += int(fwd(t, t + 1) == 1)
        step_count += 1
        for k in lags:
            per_lag_fwd[k].append(fwd(t, t + k) / math.sqrt(k))
            # B_T* - B_{T*-k}; before step 0 the path is the backward walk.
            if t >= k:
                per_lag_bwd[k].append(fwd(t - k, t) / math.sqrt(k))
            elif t - k >= -cfg.walk.horizon_bwd:
                bwd = _displacement(seed, (rep, STREAM_BWD), 0, k - t)
                per_lag_bwd[k].append((fwd(0, t) - bwd) / math.sqrt(k))
            ctrl = _displacement(seed, (0xC117, 0), cursor, cursor + k)
            control[k].append(ctrl / math.sqrt(k))
            cursor += k
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
    # None, and no pass, when no replica completed.
    p_plus = plus_count / step_count if step_count else None
    sign_z = ((p_plus - 0.5) / math.sqrt(0.25 / step_count) if step_count
              else None)
    data = {
        "replicas": cfg.replicas, "completed": step_count, "censored": censored,
        "p_plus_first_step": p_plus, "sign_z": sign_z,
        "sign_ok": sign_z is not None and abs(sign_z) <= cfg.thresholds["sigma"],
        "seed": cfg.walk.seed,
    }
    return StatReport("unbiased", cfg.digest(), data, {"lags": rows})


def _score_cohort(cfg: ExperimentConfig, engine: FirstHitEngine, reps, hmax: int):
    """(skipped, violations, psi, diff) of the engine cohort ``reps``; psi and
    the paired differences against tau* are (comparator x gauge, used path)."""
    outs, cohort = _used_cohort(engine, reps, hmax)
    keys = len(cfg.comparators) * len(cfg.gauges)
    if cohort is None:
        return len(outs), 0, np.empty((keys, 0)), np.empty((keys, 0))
    stable = cohort.stable()
    matchings = [apply_comparator(comp, cohort, stable) for comp in cfg.comparators]
    for pairs in matchings:
        check_matching(cohort, pairs)
    # The stable costs serve every comparator; "stable" reuses them.
    c_stable, *rest = matching_cost(
        [stable] + [m for m in matchings if m is not stable],
        cohort.counts, cfg.gauges, cfg.walk.dt, 1 / cohort.q)
    rest = iter(rest)
    c_all = np.stack([c_stable if m is stable else next(rest)
                      for m in matchings])     # (comparator, gauge, path)
    tol = cfg.thresholds["margin_tol"]
    violations = int(np.count_nonzero(c_all < c_stable - tol))
    psi = (c_all / cohort.mass).reshape(keys, -1)
    diff = ((c_all - c_stable) / cohort.mass).reshape(keys, -1)
    return len(outs) - len(cohort.counts), violations, psi, diff


def run_cost_compare(cfg: ExperimentConfig) -> StatReport:
    """Pathwise excursion-cost dominance of tau* over comparator rematchings,
    scored one engine cohort of used excursions at a time."""
    require_unit_slots(cfg.pair)
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair)
    skipped, violations, psi, diff = zip(*engine.map_cohorts(
        range(cfg.replicas), cfg.max_horizon, partial(_score_cohort, cfg)))
    kinds = [comp.kind for comp in cfg.comparators]
    keys = [(kind, g.label) for kind in kinds for g in cfg.gauges]
    psi, diff = np.concatenate(psi, axis=1), np.concatenate(diff, axis=1)
    rows = []                              # none without a used path
    for (kind, glabel), i in sorted(zip(keys, range(len(keys)))) if psi.size else ():
        (mean, se), (dmean, dse) = _mean_se(psi[i]), _mean_se(diff[i])
        rows.append({"comparator": kind, "gauge": glabel, "mean_psi": mean, "se": se,
                     "paired_diff_mean": dmean, "paired_diff_se": dse})
    data = {
        "replicas": cfg.replicas, "paths_used": cfg.replicas - sum(skipped),
        "paths_skipped": sum(skipped), "pathwise_violations": sum(violations),
        "comparators": kinds, "seed": cfg.walk.seed,
    }
    return StatReport("cost_compare", cfg.digest(), data, {"costs": rows})


_MARGIN_ROWS = 2000         # excursion-cost's table keeps the first rows only


def _margin_rows(cfg: ExperimentConfig, matrices_per_excursion: int, slot_cap: int,
                 engine: FirstHitEngine, reps, hmax: int):
    """(excursions used, checks, least margin or None, the first
    ``_MARGIN_ROWS`` margin rows) of the engine cohort ``reps``."""
    outs, cohort = _used_cohort(engine, reps, hmax)
    if cohort is None:                     # censored or T* = 0
        return 0, 0, None, []
    used, rows, dt = 0, [], cfg.walk.dt
    # Each excursion balances at its T*, so its slots, [a, b) of the
    # cohort's, are exactly the stable matching's.  Step s is the point
    # s * dt, an integer numerator over dt's denominator.
    paths = [rep for rep, out in zip(reps, outs) if out["t_star"]]
    ends = np.cumsum(cohort.counts).tolist()
    for rep, a, b in zip(paths, [0] + ends, ends):
        if b - a > slot_cap:
            continue
        sources, targets = (x[a:b].tolist() for x in cohort.slots)
        pcfg = PointConfig(tuple(s * dt.numerator for s in reversed(sources)),
                           tuple(t * dt.numerator for t in targets),
                           dt.denominator, allow_ties=True)   # a descends
        # Stable indicator: exact equality of both sides.  Its check gives
        # each gauge's rhs once; the sampler has validated its matrices.
        pi0 = stable_indicator(pcfg, b - a)
        eq = [inequality_check(pi0, g) for g in cfg.gauges]
        off = [r.margin for r in eq if abs(r.margin) > 1e-9 * max(1.0, r.rhs)]
        if off:
            raise InvariantError(f"stable indicator not at equality (margin {off[0]})")
        rhs = [r.rhs for r in eq]
        used += 1
        for mi in range(matrices_per_excursion):
            pi = sample_feasible_matrix(
                pcfg, b - a, seed=cfg.walk.seed * 1000 + rep * 10 + mi)
            for g, rhs_g in zip(cfg.gauges, rhs):
                lhs = pi.cost(g)
                rows.append({"replica": rep, "matrix": mi, "gauge": g.label,
                             "lhs": lhs, "rhs": rhs_g, "margin": lhs - rhs_g})
    return (used, len(rows), min((row["margin"] for row in rows), default=None),
            rows[:_MARGIN_ROWS])


def run_excursion_cost(cfg: ExperimentConfig, matrices_per_excursion: int = 4,
                       slot_cap: int = 48) -> StatReport:
    """Both sides of the excursion inequality for random feasible matrices."""
    # A sampler seed from 2^53 on rounds through float64 in its stream key.
    top = cfg.walk.seed * 1000 + (cfg.replicas - 1) * 10 + matrices_per_excursion - 1
    if top >= 1 << 53:
        raise ConfigError(f"excursion-cost sampler seeds reach {top} >= 2^53: "
                          "lower the walk seed or the replicas")
    require_unit_slots(cfg.pair)
    engine = FirstHitEngine(cfg.walk.seed, cfg.pair)
    used = checks = 0
    minima, rows = [], []          # a cohort's rows are dropped once read
    for n_used, n_checks, least, part in engine.map_cohorts(
            range(cfg.replicas), cfg.max_horizon,
            partial(_margin_rows, cfg, matrices_per_excursion, slot_cap)):
        used, checks = used + n_used, checks + n_checks
        minima.append(least)
        rows += part[:_MARGIN_ROWS - len(rows)]
    min_margin = min((m for m in minima if m is not None), default=None)
    tol = cfg.thresholds["margin_tol"]
    data = {
        "replicas": cfg.replicas, "excursions_used": used,
        "skipped": cfg.replicas - used, "checks": checks,
        "min_margin": min_margin,
        "all_nonnegative": min_margin is not None and min_margin >= -tol,
        "seed": cfg.walk.seed,
    }
    return StatReport("excursion_cost", cfg.digest(), data, {"margins": rows})


def _long_path(cfg: ExperimentConfig) -> EventLedger:
    """Replica 0's path on [-horizon_bwd, horizon_fwd] as one event ledger.

    It starts at a mu-atom drawn as the engine draws it; the first-hit scan
    reads both streams the way ``WalkPath`` does and keeps the atom visits.
    """
    walk = cfg.walk
    engine = FirstHitEngine(walk.seed, cfg.pair)
    start = draw_start(cfg.pair.mu, BitStream(walk.seed, 0, STREAM_START))
    fwd, fwd_sites = engine.path_visits(0, STREAM_FWD, start, walk.horizon_fwd)
    bwd, bwd_sites = engine.path_visits(0, STREAM_BWD, start, walk.horizon_bwd)
    return EventLedger(np.concatenate([-bwd[::-1], [0], fwd]),
                       np.concatenate([bwd_sites[::-1], [start], fwd_sites]),
                       cfg.pair, walk.horizon_bwd, walk.horizon_fwd)


def run_ergodic(cfg: ExperimentConfig, ensemble_replicas: int = 1000) -> StatReport:
    """Time-averaged tau* cost along one long path versus half the ensemble mean."""
    require_unit_slots(cfg.pair)
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
        s_fwd = inverse_local_time(ledger, r)
        s_bwd = inverse_local_time(ledger, -r)
        for g in cfg.gauges:
            fwd, un_f = window_average(0, s_fwd + 1, r, g)
            bwd, un_b = window_average(s_bwd, 0, r, g)
            rows.append({"r": float(r), "gauge": g.label, "fwd": fwd, "bwd": bwd,
                         "gap_fwd_bwd": abs(fwd - bwd),
                         "unmatched_slots": un_f + un_b})

    # Block SE at the largest r from disjoint mass blocks.
    n_blocks = 8
    ends = [inverse_local_time(ledger, r_max * k / n_blocks) + 1
            for k in range(1, n_blocks + 1)]
    block_rows = {g.label: [window_average(lo, hi, r_max / n_blocks, g)[0]
                            for lo, hi in zip([0] + ends, ends)]
                  for g in cfg.gauges}

    # Independent ensemble estimate of E psi(T*).
    t_star = _t_star_finder(cfg)
    ens: dict[str, list[float]] = {g.label: [] for g in cfg.gauges}
    ens_censored = 0
    for out in t_star(range(1, ensemble_replicas + 1)):
        if out["censored"]:
            ens_censored += 1
            continue
        for g in cfg.gauges:
            ens[g.label].append(eval_gauge(g, out["t_star"] * dt))

    summary = []
    for g in cfg.gauges:
        bvals = block_rows[g.label]
        t_se = (float(np.std(bvals, ddof=1)) / math.sqrt(len(bvals))
                if len(bvals) > 1 else 0.0)
        fwd_last = next(r["fwd"] for r in reversed(rows) if r["gauge"] == g.label)
        bwd_last = next(r["bwd"] for r in reversed(rows) if r["gauge"] == g.label)
        # With every ensemble replica censored there is no sample: the
        # ensemble fields are None and neither side passes.
        row = {"gauge": g.label, "fwd": fwd_last, "bwd": bwd_last,
               "half_ensemble": None, "ensemble_se": None, "time_se": t_se,
               "fwd_ok": False, "bwd_ok": False}
        if ens[g.label]:
            e_mean, e_se = _mean_se(ens[g.label])
            half = e_mean / 2.0
            comb = math.sqrt(t_se ** 2 + (e_se / 2.0) ** 2)
            tol = cfg.thresholds["sigma"] * max(comb, 1e-12)
            row.update(half_ensemble=half, ensemble_se=e_se,
                       fwd_ok=abs(fwd_last - half) <= tol,
                       bwd_ok=abs(bwd_last - half) <= tol)
        summary.append(row)
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
    for rep, out in enumerate(t_star(range(cfg.replicas))):
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
    band = np.searchsorted(grid, t_phys, "left")   # grid points below each

    def survival(b: np.ndarray) -> list[tuple[float, float]]:
        # Share above g_j: n - #{band <= j} over n, as np.mean(tp > g_j) gives.
        above = len(b) - np.cumsum(np.bincount(b, minlength=len(grid) + 1))
        return list(zip(grid, (above[:len(grid)] / len(b)).tolist()))

    def fit_slope(b: np.ndarray) -> float | None:
        dec = [(g, s) for g, s in survival(b) if hmax_phys / 16.0 <= g < hmax_phys and s > 0]
        if len(dec) < 3:
            return None
        lg = np.log([g for g, _ in dec])
        ls = np.log([s for _, s in dec])
        return float(-np.polyfit(lg, ls, 1)[0])

    alpha_hat = fit_slope(band)
    boot_rng = np.random.Generator(np.random.Philox(key=[cfg.walk.seed, 0xB007]))
    boots = []
    for _ in range(n_boot):
        idx = boot_rng.integers(0, cfg.replicas, cfg.replicas)
        b = fit_slope(band[idx])
        if b is not None:
            boots.append(b)
    ci = (float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))) \
        if boots else (None, None)

    # With no completed replica every value is the cap: no mean, and no
    # passed verdict.
    any_completed = not cens.all()

    def partial_means(alpha: float) -> list[dict]:
        run = np.cumsum(t_phys ** alpha)
        cks = [ck for ck in checkpoints if ck <= cfg.replicas]
        if cfg.replicas not in cks:
            cks.append(cfg.replicas)
        return [{"checkpoint": ck,
                 "mean": float(run[ck - 1] / ck) if any_completed else None}
                for ck in cks]

    pm_quarter = partial_means(0.25)
    pm_tenth = partial_means(0.1)
    quarter_increasing = any_completed and all(
        x["mean"] < y["mean"] for x, y in zip(pm_quarter, pm_quarter[1:]))
    # None when there is no earlier nonzero mean (every T* is 0 when mu = nu,
    # and no mean without a completed replica).
    tenth_change = (abs(pm_tenth[-1]["mean"] - pm_tenth[-2]["mean"])
                    / pm_tenth[-2]["mean"]
                    if len(pm_tenth) >= 2 and pm_tenth[-2]["mean"] else None)
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
    table = [{"t": g, "survival": s} for g, s in survival(band)]
    return StatReport("tail", cfg.digest(), data, {"survival": table})
