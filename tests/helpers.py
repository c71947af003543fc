"""Hand-built walk paths and reference simulations for tests.

ScriptedPath mimics the WalkPath interface but replays a fixed position
sequence, so ledger and embedding behavior can be checked against hand
counts.  step_first_hit is the step-by-step first-hit simulation that the
word-skipping FirstHitEngine must reproduce exactly; dense_first_excursion
(one dense path and ledger) and doubling_first_excursion (a ledger rebuilt
at each doubling) are references for the event-ledger
experiments._first_excursion; excursion_from and cost_of_tau_star_rescan
take tau* from the per-step compute_tau_star instead of the kernel;
queue_fifo_matching is the list-queue reference for
comparators.fifo_matching; bisect_compute_N and
scan_find_crossing are the per-point and per-cell references for the merged
compute_N sweep and the index-list find_crossing; FractionMatrix with
fraction_sample_feasible_matrix and fraction_repair_trace are the
Fraction-mass references for the integer masses of TransportMatrix;
uniform_fraction, fraction_draw_start and fraction_draw_u_flag are the
Fraction references for the integer uniform draws.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shiftlab import experiments
from shiftlab.comparators import extract_slots
from shiftlab.embedding import (Excursion, compute_t_star, compute_tau_star,
                                draw_u_flag, excursion_mass, first_balance,
                                mu_charged_steps)
from shiftlab.errors import ConfigError, HorizonExceededError, TruncationError
from shiftlab.gauges import eval_gauge
from shiftlab.rng import STREAM_FWD, STREAM_START, STREAM_UFLAG, BitStream
from shiftlab.stable_alloc import stable_allocation
from shiftlab.transport import Crossing
from shiftlab.walk import build_ledger, draw_start, sample_walk


@dataclass
class _Cfg:
    dx: Fraction = Fraction(1)
    seed: int = 0

    @property
    def dt(self) -> Fraction:
        return self.dx * self.dx


class ScriptedPath:
    """Replays positions(0..n_fwd) forward and positions(0..-n_bwd) backward."""

    def __init__(self, fwd_positions, bwd_positions=None, dx=Fraction(1)):
        fwd = [int(x) for x in fwd_positions]
        bwd = [int(x) for x in (bwd_positions or [fwd[0]])]
        if bwd[0] != fwd[0]:
            raise ValueError("both sides must share the start position")
        self.start = fwd[0]
        self._fwd = np.asarray(fwd, dtype=np.int64)
        self._bwd = np.asarray(bwd, dtype=np.int64)
        self.cfg = _Cfg(dx=Fraction(dx))
        self.replica = 0

    @property
    def horizon_fwd(self) -> int:
        return len(self._fwd) - 1

    @property
    def horizon_bwd(self) -> int:
        return len(self._bwd) - 1

    def positions(self, n: int) -> int:
        return int(self._fwd[n]) if n >= 0 else int(self._bwd[-n])

    def full_positions(self) -> np.ndarray:
        return np.concatenate([self._bwd[:0:-1], self._fwd])


def step_first_hit(engine, replica: int, h0: int, hmax: int) -> dict:
    """FirstHitEngine.run_replica, one step at a time over the doubling chunks.

    Every step of each chunk gets its position and weight; the chunk
    schedule doubles from h0, capped at hmax (so h0 >= hmax is hmax at
    once), in pieces of at most experiments._CHUNK_CAP steps.
    """
    start = draw_start(engine.pair.mu,
                       BitStream(engine.seed, replica, STREAM_START))
    if draw_u_flag(engine.pair, engine.seed, replica, start) == 0:
        return {"t_star": 0, "site": start, "censored": False,
                "horizon": 0, "u_flag": 0}
    stream = BitStream(engine.seed, replica, STREAM_FWD)
    pos = start
    c = engine.wdiff.get(start, 0)
    done = 0
    horizon = h0
    while True:
        want = min(horizon, hmax) - done
        chunk = min(want, experiments._CHUNK_CAP)
        if chunk <= 0:
            if horizon < hmax:
                horizon *= 2
                continue
            return {"t_star": None, "site": None, "censored": True,
                    "horizon": done, "u_flag": 1}
        steps = stream.take_steps(chunk)
        pos_arr = np.cumsum(steps, dtype=np.int64)
        pos_arr += pos
        warr = np.zeros(chunk, dtype=np.int64)
        for site, wn in engine.wdiff.items():
            warr[pos_arr == site] = wn
        c_arr = np.cumsum(warr, dtype=np.int64)
        c_arr += c
        h = first_balance(c_arr, 0, engine.mode)
        if h is not None:
            return {"t_star": done + h + 1, "site": int(pos_arr[h]),
                    "censored": False, "horizon": done + chunk, "u_flag": 1}
        pos = int(pos_arr[-1])
        c = int(c_arr[-1])
        done += chunk


def dense_first_excursion(cfg, rep: int, slot_cap: int | None = None):
    """experiments._first_excursion on the dense path and ledger.

    T* comes from the engine; the path is sampled once, extended to T*, and
    gets one LocalTimeLedger.
    """
    t = experiments._t_star_finder(cfg)(rep)["t_star"]
    if not t:                              # censored (None) or T* = 0
        return None
    path = sample_walk(cfg.walk, replica=rep)
    path.extend_fwd(t)
    ledger = build_ledger(path, cfg.pair)
    exc = Excursion(left=0, right=t, mass=excursion_mass(ledger, 0, t))
    if slot_cap is not None and exc.mass * ledger.q > slot_cap:
        return None
    return ledger, exc


def excursion_from(ledger, a: int) -> Excursion:
    """The excursion [a, tau*(a)], tau* by the per-step scan."""
    right = compute_tau_star(ledger, a)
    return Excursion(left=a, right=right, mass=excursion_mass(ledger, a, right))


def cost_of_tau_star_rescan(ledger, exc, g) -> float:
    """embedding.cost_of_tau_star with tau* recomputed per charged step."""
    dt = float(ledger.path.cfg.dt)
    total = 0.0
    for s in mu_charged_steps(ledger, exc.left, exc.right):
        w = float(ledger.wmu[ledger.idx(int(s))]) / ledger.q
        t = compute_tau_star(ledger, int(s))
        total += w * eval_gauge(g, (t - int(s)) * dt)
    return total


def queue_fifo_matching(ledger, exc) -> list[tuple[int, int]]:
    """comparators.fifo_matching with an explicit list queue (pop(0))."""
    sources, targets = extract_slots(ledger, exc)
    pairs: list[tuple[int, int]] = []
    queue: list[int] = []
    si = 0
    for t in sorted(targets):
        while si < len(sources) and sources[si] < t:
            queue.append(sources[si])
            si += 1
        if queue:
            pairs.append((queue.pop(0), t))
    pairs.sort()
    return pairs


def doubling_first_excursion(cfg, rep: int, slot_cap: int | None = None):
    """experiments._first_excursion by ledger rebuilding under doubling.

    Builds the whole ledger of the path at horizon_fwd and again after each
    doubling until compute_t_star finds T*.  The horizon stops doubling once
    it reaches max_horizon, so when horizon_fwd exceeds max_horizon the cap
    is horizon_fwd; the engine caps at max_horizon instead.
    """
    horizon = cfg.walk.horizon_fwd
    path = sample_walk(cfg.walk, replica=rep)
    while True:
        ledger = build_ledger(path, cfg.pair)
        try:
            res = compute_t_star(ledger, cfg.pair, mode="exact")
            break
        except HorizonExceededError:
            if horizon >= cfg.max_horizon:
                return None
            # T* > horizon, so the excursion carries at least this mass.
            if (slot_cap is not None
                    and ledger.range_mass(ledger.Pmu, 0, ledger.hf) > slot_cap):
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


def bisect_compute_N(cfg) -> dict:
    """compute_N with a bisect per point of [b_1, a_1] and per b_n."""
    if not cfg.a_num or not cfg.b_num:
        raise ConfigError("need nonempty sequences")
    a1, b1 = cfg.a_num[0], cfg.b_num[0]
    if a1 < b1:
        return {"N": 1, "M": 0}
    pts = sorted(p for p in set(cfg.a_num) | set(cfg.b_num) if b1 <= p <= a1)
    a_sorted = sorted(cfg.a_num)
    b_sorted = list(cfg.b_num)
    values = []
    for x in pts:
        fa = bisect.bisect_right(a_sorted, x) - bisect.bisect_left(a_sorted, b1)
        fb = bisect.bisect_right(b_sorted, x) - bisect.bisect_left(b_sorted, b1)
        values.append(fa - fb)
    M = min(values)
    # Smallest n with f(b_n) = M - 1; f decreases by unit jumps beyond a_1.
    for n, b in enumerate(cfg.b_num, start=1):
        fa = bisect.bisect_right(a_sorted, b) - bisect.bisect_left(a_sorted, b1)
        if fa - n == M - 1:
            return {"N": n, "M": M}
    raise TruncationError("b-truncation too short to reach f(b_n) = M - 1")


def scan_find_crossing(pi):
    """find_crossing as the four nested loops over cells, probing pi.get."""
    rows = sorted({i for (i, _), v in pi.entries.items() if v > 0})
    cols = sorted({j for (_, j), v in pi.entries.items() if v > 0})
    if not rows or not cols:
        return None
    a, b = pi.cfg.a_num, pi.cfg.b_num
    n_cols = max(max(cols) + 1, pi.N)
    n_rows = max(max(rows) + 1, pi.N)
    for j in range(n_cols):
        for i in range(n_rows):
            if a[i] >= b[j]:
                continue
            for k in range(i + 1, n_rows):
                if pi.get(k, j) == 0 or a[k] >= a[i]:
                    continue
                for l in range(j + 1, len(b)):
                    if pi.get(i, l) > 0 and b[l] > b[j]:
                        return Crossing(k=k, i=i, j=j, l=l)
    return None


@dataclass
class FractionMatrix:
    """TransportMatrix with Fraction masses, mutated in place by set."""

    cfg: object
    N: int
    entries: dict

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def set(self, i: int, j: int, v: Fraction) -> None:
        if v == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = v

    def cost(self, g) -> float:
        a, b, q = self.cfg.a_num, self.cfg.b_num, self.cfg.q
        total = 0.0
        for (i, j), v in self.entries.items():
            if v == 0:
                continue
            mult = (i < self.N) + (j < self.N)
            if mult:
                total += mult * float(v) * eval_gauge(g, (b[j] - a[i]) / q)
        return total


def fraction_sample_feasible_matrix(cfg, N: int, seed: int,
                                    n_perturbations: int = 12) -> FractionMatrix:
    """transport.sample_feasible_matrix with delta = avail * Fraction(num, 8)."""
    tau = stable_allocation(cfg).tau
    pi = FractionMatrix(cfg, N, {(i, tau[i]): Fraction(1) for i in range(N)})
    rng = BitStream(seed, 0xFEA51B1E)
    a, b = cfg.a_num, cfg.b_num
    for _ in range(n_perturbations):
        occupied = sorted((i, j) for (i, j), v in pi.entries.items() if v > 0)
        cands = [(i, j, k, l)
                 for (i, j), (k, l) in itertools.combinations(occupied, 2)
                 if i != k and j < l and a[k] < b[j] and a[i] < b[l]
                 and a[k] < a[i] and b[j] < b[l]]
        if not cands:
            continue
        i, j, k, l = cands[rng.uniform_index(len(cands))]
        delta = min(pi.get(i, j), pi.get(k, l)) * Fraction(rng.uniform_index(8) + 1, 8)
        pi.set(i, j, pi.get(i, j) - delta)
        pi.set(k, l, pi.get(k, l) - delta)
        pi.set(k, j, pi.get(k, j) + delta)
        pi.set(i, l, pi.get(i, l) + delta)
    return pi


def fraction_repair_trace(pi: FractionMatrix) -> list[FractionMatrix]:
    """transport.repair_sweep's trace on Fraction masses, crossings by scan."""
    trace = [pi]
    while (c := scan_find_crossing(trace[-1])) is not None:
        cur = trace[-1]
        out = FractionMatrix(cur.cfg, cur.N, dict(cur.entries))
        delta = min(cur.get(c.k, c.j), cur.get(c.i, c.l))
        out.set(c.k, c.j, cur.get(c.k, c.j) - delta)
        out.set(c.i, c.l, cur.get(c.i, c.l) - delta)
        out.set(c.i, c.j, cur.get(c.i, c.j) + delta)
        out.set(c.k, c.l, cur.get(c.k, c.l) + delta)
        trace.append(out)
    return trace


def uniform_fraction(stream) -> Fraction:
    """One uniform on [0, 1): the stream's next raw word over 2^64."""
    return Fraction(int(stream.take_words(1)[0]), 1 << 64)


def fraction_draw_start(law, stream) -> int:
    """walk.draw_start comparing a Fraction uniform with the Fraction CDF."""
    if len(law.atoms) == 1:
        return law.atoms[0][0]
    u = uniform_fraction(stream)
    for site, acc in law.cumulative():
        if u < acc:
            return site
    return law.atoms[-1][0]


def fraction_draw_u_flag(pair, seed: int, replica: int, start: int) -> int:
    """embedding.draw_u_flag comparing a Fraction uniform with p."""
    if pair.orthogonal:
        return 1
    p = pair.mu_tilde.weight(start) / pair.mu.weight(start)
    if p in (0, 1):
        return int(p)
    return int(uniform_fraction(BitStream(seed, replica, STREAM_UFLAG)) < p)
