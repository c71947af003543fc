"""Hand-built walk paths, dense oracles and reference simulations for tests.

ScriptedPath mimics the WalkPath interface but replays a fixed position
sequence, so ledger and embedding behavior can be checked against hand
counts.  Excursion (a window [left, right] and its mu-mass),
excursion_mass (the mu-mass of a step range) and mu_charged_steps (the
steps of a range that carry mu-mass) left embedding for here, and
loop_parenthesis_match is the plain loop of the balancing kernel,
its oracle.  LocalTimeLedger is the dense ledger (prefix sums over every step)
that walk.build_ledger's event ledger replaced; compute_tau_star (tau* by
a per-step scan), decompose_excursions (the sigma/rho level chain and its
excursion partition), cost_of_tau_star (the kernel's cost of an
excursion) and check_gauge_properties (grid checks of concavity) are the
oracles that run on it.  step_first_hit is the step-by-step first-hit
simulation that the word-skipping FirstHitEngine must reproduce exactly;
run_with_events (and t_star_events, at the finder's max_horizon) cuts
each replica's atom visits from its engine cohort's flat arrays;
cohort_excursions reads each replica's excursion [0, T*] from the Cohort
of its engine cohort, as excursion-cost does; dense_first_excursion (one
dense path and ledger) and doubling_first_excursion (a ledger rebuilt at
each doubling) are references for it;
excursion_from and cost_of_tau_star_rescan take tau* from the per-step
compute_tau_star instead of the kernel; per_path_cost_compare is
experiments.run_cost_compare one excursion at a time, on the per-path
matchings, checks and costs (fifo_matching, random_rematch,
apply_comparator, check_matching, matching_cost) the cohort-level ones
replaced, random_rematch being the per-excursion swap loop the cohort-wide
rematch must equal; path_visits lays per-path visits end to end as Cohort
takes them, and cohort_of builds a comparators.Cohort from ledgers of dense
paths; queue_fifo_matching is the list-queue reference for fifo_matching;
bisect_compute_N and scan_find_crossing are the per-point and per-cell
references for the merged compute_N sweep and the index-list
find_crossing; permutation_oracle (with SizeLimitError) is the exhaustive
minimum over window matchings that criterion 2 checks the stable cost
against; FractionMatrix with fraction_sample_feasible_matrix and
fraction_repair_trace are the Fraction-mass references for the integer
masses of TransportMatrix; uniform_fraction, fraction_draw_start and
fraction_draw_u_flag are the Fraction references for the integer uniform
draws; pm64_near is the near-word rule the popcount bound of
FirstHitEngine._near replaced; quantile_discretize and
tau_n_convergence_test are criterion 9's harness: the quantile window of
an excursion on Fraction thresholds, and the distance of its stable
allocation tau_n from tau*.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from shiftlab import experiments
from shiftlab.comparators import Cohort, extract_slots
from shiftlab.embedding import (_match_ledger, compute_t_star, draw_u_flag,
                                first_balance, match_slots,
                                require_unit_slots, tau_star_map)
from shiftlab.errors import (ConfigError, FeasibilityError,
                             HorizonExceededError, InvariantError,
                             ShiftLabError, TruncationError)
from shiftlab.gauges import Gauge, eval_gauge
from shiftlab.measures import MeasurePair
from shiftlab.rng import STREAM_FWD, STREAM_START, STREAM_UFLAG, BitStream
from shiftlab.stable_alloc import PointConfig, compute_N, stable_allocation
from shiftlab.transport import Crossing
from shiftlab.walk import (EventLedger, WalkPath, draw_start, sample_walk,
                           site_weights)


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


@dataclass(frozen=True)
class Excursion:
    """An interval [left, tau*(left-adjacent charged step)] in signed steps."""
    left: int
    right: int
    mass: Fraction


def excursion_mass(ledger, left: int, right: int) -> Fraction:
    """mu-mass of visits at steps in [left, right)."""
    steps, wmu, _ = ledger.events(left, right)
    return Fraction(int(wmu[steps < right].sum()), ledger.q)


def mu_charged_steps(ledger: EventLedger, left: int, right: int) -> np.ndarray:
    """Signed steps in [left, right) carrying mu mass."""
    steps, wmu, _ = ledger.events(left, right)
    return steps[(wmu > 0) & (steps < right)]


def loop_parenthesis_match(keys, opens, closes) -> tuple[list, list]:
    """embedding.parenthesis_match as the plain loop: each event's closes
    pop min(closes, stack) slots, then its opens are pushed."""
    pairs, stack = [], []
    for key, n_open, n_close in zip(keys, opens, closes):
        for _ in range(min(n_close, len(stack))):
            pairs.append((stack.pop(), key))
        stack.extend([key] * n_open)
    return pairs, stack


# ---------------------------------------------------------------------------
# the dense ledger and its per-step oracles

class LocalTimeLedger:
    """Per-site visit counts and the functionals L^mu, L^nu, D = L^mu - L^nu.

    Internally everything is an integer-numerator prefix sum over the signed
    step range; public accessors return exact Fractions.  The dense ledger
    ``walk.build_ledger``'s event ledger replaced; its ``events`` has the
    same contract, so the ledger functions run on it too.
    """

    def __init__(self, path: WalkPath, pair: MeasurePair):
        self.path = path
        self.pair = pair
        self.q = pair.denominator
        self.hb = path.horizon_bwd
        self.hf = path.horizon_fwd
        self.pos_all = path.full_positions()
        self.wmu = site_weights(self.pos_all, pair.mu, self.q)
        self.wnu = site_weights(self.pos_all, pair.nu, self.q)
        # Exclusive prefix sums: mass over steps [s, t] = P[idx(t)+1] - P[idx(s)].
        self.Pmu = np.concatenate([[0], np.cumsum(self.wmu, dtype=np.int64)])
        self.Pnu = np.concatenate([[0], np.cumsum(self.wnu, dtype=np.int64)])
        self.X = self.Pmu - self.Pnu

    def idx(self, n: int) -> int:
        i = n + self.hb
        if i < 0 or i >= len(self.pos_all):
            raise HorizonExceededError(f"step {n} outside ledger range")
        return i

    def events(self, left: int, right: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps, wmu, wnu) of the steps in [left, right] that carry mass."""
        lo, hi = self.idx(left), self.idx(right) + 1
        rel = np.flatnonzero(self.wmu[lo:hi] + self.wnu[lo:hi])
        return rel + left, self.wmu[lo + rel], self.wnu[lo + rel]

    def range_mass(self, prefix: np.ndarray, s: int, t: int) -> int:
        """Integer numerator of the functional mass over steps [s, t]."""
        if s > t:
            raise ConfigError("empty step range")
        return int(prefix[self.idx(t) + 1] - prefix[self.idx(s)])

    def visits(self, x: int, n: int) -> int:
        if n >= 0:
            seg = self.pos_all[self.idx(0):self.idx(n) + 1]
        else:
            seg = self.pos_all[self.idx(n):self.idx(0) + 1]
        return int(np.count_nonzero(seg == x))

    def _functional(self, prefix: np.ndarray, n: int) -> Fraction:
        return Fraction(self.range_mass(prefix, min(n, 0), max(n, 0)), self.q)

    def Lmu(self, n: int) -> Fraction:
        return self._functional(self.Pmu, n)

    def Lnu(self, n: int) -> Fraction:
        return self._functional(self.Pnu, n)

    def D(self, n: int) -> Fraction:
        return self.Lmu(n) - self.Lnu(n)

    # C(t) = shifted inclusive prefix of the difference process; comparisons
    # of C values express all interval-balance conditions.
    def C(self, t: int) -> int:
        return int(self.X[self.idx(t) + 1])

    def to_csv(self, fobj) -> None:
        fobj.write("step,Lmu,Lnu,D\n")
        for n in range(-self.hb, self.hf + 1):
            fobj.write(f"{n},{self.Lmu(n)},{self.Lnu(n)},{self.D(n)}\n")


_MAX_LEVELS = 64              # size cap of decompose_excursions' level grid


@dataclass(frozen=True)
class ExcursionChain:
    levels: tuple[Fraction, ...]
    sigma: tuple[int, ...]
    rho: tuple[int, ...]


def compute_tau_star(ledger: LocalTimeLedger, s: int) -> int:
    """Smallest t > s with equal mu- and nu-mass over [s, t] (unit nu-atoms)."""
    if not ledger.pair.unit_nu_slots:
        raise ConfigError("tau* by scan needs every effective nu-atom at 1/q")
    i_s = ledger.idx(s)
    target = ledger.X[i_s]                 # C(s-1)
    c_later = ledger.X[i_s + 2:]           # C(s+1), ...
    hits = np.flatnonzero(c_later == target)
    if hits.size == 0:
        raise HorizonExceededError(
            f"tau*({s}) not reached within forward horizon", horizon=ledger.hf)
    return s + 1 + int(hits[0])


def decompose_excursions(ledger: LocalTimeLedger, up_to_level: Fraction):
    """rho(u)/sigma(u) for a grid of levels plus the excursion partition.

    The level grid is the attainable multiples of 1/q up to ``up_to_level``
    (thinned to at most ``_MAX_LEVELS`` entries).  The partition lists the
    maximal excursions [a, tau*(a)] covering all mu-charged steps of
    [sigma(u_max), rho(u_max)], scanned left to right.

    Discrete convention: sigma(u) is the first backward time at or below the
    nominal level C(0) - u*q (backward down-moves have mu-atom size and can
    skip a level exactly), and rho(u) is the first forward hit of the level
    actually attained at sigma(u).  Forward down-moves are unit (unit
    nu-slots), so that hit exists and tau*(sigma(u)) = rho(u) holds exactly;
    u = 0 degenerates to [0, 0].  The partition takes tau* from the
    balancing kernel (``tau_star_map``), so it needs an orthogonal pair.
    """
    require_unit_slots(ledger.pair)
    up_to_level = Fraction(up_to_level)
    if up_to_level < 0:
        raise ConfigError("level must be nonnegative")
    q = ledger.q
    i0 = ledger.idx(0)
    c0 = ledger.X[i0 + 1]                  # C(0)
    c_fwd = ledger.X[i0 + 1:]              # C(0), C(1), ...
    c_bwd = ledger.X[i0::-1]               # C(-1), C(-2), ... = X[i0], X[i0-1], ...

    units = int(up_to_level * q)
    ks = list(range(0, units + 1))
    if len(ks) > _MAX_LEVELS:
        stride = -(-len(ks) // _MAX_LEVELS)
        ks = ks[::stride]
        if ks[-1] != units:
            ks.append(units)

    levels, sigmas, rhos = [], [], []
    for k in ks:
        u = Fraction(k, q)
        if k == 0:
            levels.append(u)
            sigmas.append(0)
            rhos.append(0)
            continue
        j = first_balance(c_bwd, c0 - k)
        rho = None if j is None else first_balance(c_fwd, c_bwd[j])
        if rho is None:
            raise HorizonExceededError(
                f"level {u} not attained on both sides",
                attained=levels[-1] if levels else Fraction(0))
        levels.append(u)
        rhos.append(rho)
        # sigma(u) = max{t <= 0 : C(t-1) <= level}; c_bwd[j] = C(-1-j).
        sigmas.append(-j)
    chain = ExcursionChain(levels=tuple(levels), sigma=tuple(sigmas),
                           rho=tuple(rhos))

    # Greedy partition of the outermost interval into excursions [a, tau*(a)].
    left, right = chain.sigma[-1], chain.rho[-1]
    excursions = []
    if right > left:
        charged = mu_charged_steps(ledger, left, right)
        tau, _ = tau_star_map(ledger, left, right)
        pos = 0
        while pos < len(charged):
            a = int(charged[pos])
            b = tau.get(a)                 # None: tau*(a) beyond the horizon
            if b is None or b > right:
                raise InvariantError("excursion escapes the sigma/rho window")
            excursions.append(Excursion(a, b, excursion_mass(ledger, a, b)))
            pos = int(np.searchsorted(charged, b))
    return chain, excursions


def cost_of_tau_star(ledger: LocalTimeLedger, exc: Excursion, g: Gauge) -> float:
    """Sum over mu-charged steps s in [left, right) of mu(x_s) psi((tau*(s)-s) dt).

    One pass of the balancing kernel over the excursion; cross-checked
    against ``cost_of_tau_star_rescan``.
    """
    pairs, unmatched = _match_ledger(ledger, exc.left, exc.right)
    if any(s < exc.right for s in unmatched):
        raise HorizonExceededError(
            "tau* leaves the ledger range for some charged step in the excursion",
            horizon=ledger.hf)
    dt = float(ledger.path.cfg.dt)
    total = 0.0
    for s, t in dict(pairs).items():
        w = float(ledger.wmu[ledger.idx(s)]) / ledger.q
        total += w * eval_gauge(g, (t - s) * dt)
    return total


_CHECK_TOL = 1e-9             # float slack of check_gauge_properties


def check_gauge_properties(g: Gauge, grid: Sequence[float]) -> dict:
    """Scan a sample grid for nonnegativity, midpoint concavity and subadditivity.

    Returns {"concave_ok", "subadditive_ok", "nonnegative_ok"}.  The scan is
    O(len(grid)^2) over all pairs.
    """
    if len(grid) == 0:
        raise ConfigError("grid must be nonempty")
    pts = sorted(float(t) for t in grid)
    if pts[0] < 0:
        raise ConfigError("grid points must be nonnegative")
    vals = [eval_gauge(g, t) for t in pts]
    nonneg = all(v >= 0.0 for v in vals)
    concave = True
    subadd = True
    for i, s in enumerate(pts):
        for j in range(i, len(pts)):
            t = pts[j]
            mid = eval_gauge(g, (s + t) / 2.0)
            if mid < (vals[i] + vals[j]) / 2.0 - _CHECK_TOL:
                concave = False
            if eval_gauge(g, s + t) > vals[i] + vals[j] + _CHECK_TOL:
                subadd = False
    return {
        "concave_ok": concave,
        "subadditive_ok": subadd,
        "nonnegative_ok": nonneg,
    }


def step_first_hit(engine, replica: int, hmax: int,
                   events: bool = False) -> dict:
    """FirstHitEngine.run_replica, one step at a time over [1, hmax].

    Every step gets its position and weight.  With ``events`` the dict
    holds "events" as run_with_events' do: the steps and sites on [0, T*]
    at an atom of mu or nu, or None when censored.
    """
    start = draw_start(engine.pair.mu,
                       BitStream(engine.seed, replica, STREAM_START))
    out = {"t_star": 0, "site": start, "censored": False, "u_flag": 0}
    path = np.array([start])                   # positions at steps 0, 1, ...
    if draw_u_flag(engine.pair, engine.seed, replica, start):
        steps = BitStream(engine.seed, replica, STREAM_FWD).take_steps(hmax)
        path = start + np.cumsum(np.concatenate(([0], steps)), dtype=np.int64)
        warr = np.zeros(hmax + 1, dtype=np.int64)
        for site, wn in engine.wdiff.items():
            warr[path == site] = wn
        h = first_balance(np.cumsum(warr)[1:], 0)
        out = ({"t_star": None, "site": None, "censored": True, "u_flag": 1}
               if h is None else {"t_star": h + 1, "site": int(path[h + 1]),
                                  "censored": False, "u_flag": 1})
        path = path[:None if h is None else h + 2]
    if events:
        atoms = [s for m in (engine.pair.mu, engine.pair.nu) for s, _ in m.atoms]
        seen = np.flatnonzero(np.isin(path, atoms))
        out["events"] = None if out["censored"] else (seen, path[seen])
    return out


def run_with_events(engine, replicas, hmax: int):
    """FirstHitEngine.run_replicas' dicts, each with "events": its replica's
    (steps, sites) of atom visits on [0, T*], step 0 included, as views of
    its cohort's flat scan_cohort arrays, or None when censored."""
    for i in range(0, len(replicas), experiments._COHORT):
        outs, (rows, steps, sites) = engine.scan_cohort(
            replicas[i:i + experiments._COHORT], hmax, True)
        ends = np.searchsorted(rows, np.arange(len(outs)), "right").tolist()
        for out, a, b in zip(outs, [0] + ends, ends):
            out["events"] = None if out["censored"] else (steps[a:b], sites[a:b])
        yield from outs


def t_star_events(cfg, replicas):
    """run_with_events under experiments._t_star_finder's horizon contract."""
    engine = experiments.FirstHitEngine(cfg.walk.seed, cfg.pair)
    return run_with_events(engine, replicas, cfg.max_horizon)


def pm64_near(engine, words: np.ndarray, pos: np.ndarray):
    """FirstHitEngine._near with the plain word rule: a word is kept when
    its start lies within 64 sites of the atoms' hull, whatever its steps."""
    disp = np.bitwise_count(words).astype(np.int64) * 2 - 64
    ends = np.cumsum(disp, axis=1) + pos[:, None]
    starts = (ends - disp).ravel()
    near = np.flatnonzero((starts >= engine._lo - 64)
                          & (starts <= engine._hi + 64))
    byts = words.ravel()[near].astype(">u8").view(np.uint8).reshape(-1, 8)
    bdisp = experiments._BYTE_DISP[byts]
    bstart = np.cumsum(bdisp, axis=1) - bdisp + starts[near, None]
    keep = np.flatnonzero(
        (bstart + experiments._BYTE_MIN[byts] <= engine._hi)
        & (bstart + experiments._BYTE_MAX[byts] >= engine._lo))
    sites = experiments._BYTE_PATH[byts.ravel()[keep]] + bstart.ravel()[keep, None]
    rows, word = np.divmod(near[keep // 8], words.shape[1])
    steps = (word * 64 + keep % 8 * 8)[:, None] + np.arange(8)
    return ends[:, -1], sites.ravel(), np.repeat(rows, 8), steps.ravel()


class CohortPath(NamedTuple):
    """Path k of a comparators.Cohort and its (sources, targets) slot steps."""

    cohort: Cohort
    k: int
    slots: tuple

    @property
    def t_star(self) -> int:
        return self.cohort.t_star[self.k]

    def events(self):
        """(steps, wmu, wnu) of the path's atom visits on [0, T*]."""
        on = self.cohort.path == self.k
        return (self.cohort.steps[on], self.cohort.events.wmu[on],
                self.cohort.events.wnu[on])


def cohort_excursions(cfg, slot_cap: int | None = None) -> list:
    """Per replica, its excursion [0, T*] as run_excursion_cost reads it: a
    CohortPath of the Cohort of its engine cohort's paths with T* > 0, its
    slots cut from the cohort's at cumsum(counts), or None when censored,
    T* = 0 or past ``slot_cap`` mu-slots."""
    experiments.require_unit_slots(cfg.pair)
    engine = experiments.FirstHitEngine(cfg.walk.seed, cfg.pair)
    got = []
    for outs, cohort in engine.map_cohorts(range(cfg.replicas), cfg.max_horizon,
                                           experiments._used_cohort):
        ends = np.cumsum(cohort.counts).tolist() if cohort else []
        paths = iter(zip(range(len(ends)), [0] + ends, ends))
        for out in outs:
            path = next(paths) if out["t_star"] else None
            if path is None or (slot_cap is not None
                                and path[2] - path[1] > slot_cap):
                got.append(None)
                continue
            k, a, b = path
            got.append(CohortPath(cohort, k,
                                  tuple(x[a:b].tolist() for x in cohort.slots)))
    return got


def dense_first_excursion(cfg, rep: int, slot_cap: int | None = None):
    """A replica's excursion [0, T*] on the dense path and ledger.

    T* comes from the engine; the path is sampled once, extended to T*, and
    gets one LocalTimeLedger.
    """
    t = next(experiments._t_star_finder(cfg)([rep]))["t_star"]
    if not t:                              # censored (None) or T* = 0
        return None
    path = sample_walk(cfg.walk, replica=rep)
    path.extend_fwd(t)
    ledger = LocalTimeLedger(path, cfg.pair)
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


def fifo_matching(slots) -> list[tuple[int, int]]:
    """Each target slot takes the oldest waiting source slot."""
    sources, targets = slots
    pairs: list[tuple[int, int]] = []
    head = si = 0                  # the waiting queue is sources[head:si]
    for t in targets:
        while si < len(sources) and sources[si] < t:
            si += 1
        if head < si:
            pairs.append((sources[head], t))
            head += 1
    return pairs


def random_rematch(stable, exc, seed: int, n_swaps: int = 8):
    """Random forward-preserving transpositions of the stable pairs, one
    uniform_index draw per index."""
    if len(stable) < 2:
        return stable
    rng = BitStream(seed, 0x5EAC, exc.left, exc.right)
    pairs = list(stable)
    for _ in range(n_swaps):
        i = rng.uniform_index(len(pairs))
        j = rng.uniform_index(len(pairs))
        if i == j:
            continue
        (s1, t1), (s2, t2) = pairs[i], pairs[j]
        if t2 > s1 and t1 > s2:
            pairs[i], pairs[j] = (s1, t2), (s2, t1)
    pairs.sort()
    return pairs


def apply_comparator(comp, exc, slots, stable):
    """One excursion's matching under ``comp``."""
    if comp.kind == "stable":
        return stable
    if comp.kind == "fifo_rematch":
        return fifo_matching(slots)
    return random_rematch(stable, exc, comp.seed, comp.n_swaps)


def matching_cost(pairs, g, dt, unit_mass) -> float:
    """Sum of unit_mass * psi((t - s) * dt) over the pairs, left to right."""
    u, d = float(unit_mass), float(dt)
    total = 0.0
    for s, t in pairs:
        total += u * eval_gauge(g, (t - s) * d)
    return total


def check_matching(slots, pairs) -> None:
    """One excursion's slot coverage and forward-looking pairs."""
    sources, targets = slots
    if sorted(s for s, _ in pairs) != sources:
        raise InvariantError("matching does not cover the mu-slots exactly")
    if sorted(t for _, t in pairs) != targets:
        raise InvariantError("matching does not cover the nu-slots exactly")
    for s, t in pairs:
        if not (t > s):
            raise InvariantError(f"pair ({s}, {t}) is not forward-looking")


def path_visits(visits) -> tuple:
    """Per-path (steps, sites) laid end to end, as comparators.Cohort takes
    them: (path of each visit, steps, sites)."""
    steps, sites = (np.concatenate(a) for a in zip(*visits))
    return np.repeat(np.arange(len(visits)), [len(s) for s, _ in visits]), steps, sites


def cohort_of(items, pair):
    """comparators.Cohort of the excursions [0, exc.right] of ledgers of
    dense paths, given as (ledger, exc) pairs."""
    visits = []
    for led, exc in items:
        steps, _, _ = led.events(0, exc.right)
        visits.append((steps, led.path.full_positions()[steps + led.hb]))
    return Cohort(*path_visits(visits), pair)


def per_path_cost_compare(cfg) -> "experiments.StatReport":
    """experiments.run_cost_compare with one ledger, kernel call, check and
    cost sum per excursion."""
    require_unit_slots(cfg.pair)           # before any scan, as compare does
    tol = cfg.thresholds["margin_tol"]
    per, diffs = {}, {}
    violations = skipped = used = 0
    dt = float(cfg.walk.dt)
    for out in t_star_events(cfg, range(cfg.replicas)):
        t = out["t_star"]
        if not t:                          # censored (None) or T* = 0
            skipped += 1
            continue
        ledger = EventLedger(*out["events"], cfg.pair)
        exc = Excursion(left=0, right=t, mass=excursion_mass(ledger, 0, t))
        used += 1
        unit, mass = 1 / ledger.q, float(exc.mass)
        slots = extract_slots(ledger, exc)
        stable = match_slots(ledger, exc.left, exc.right)
        c_stable = [matching_cost(stable, g, dt, unit) for g in cfg.gauges]
        for comp in cfg.comparators:
            pairs = apply_comparator(comp, exc, slots, stable)
            check_matching(slots, pairs)
            for g, c_stable_g in zip(cfg.gauges, c_stable):
                c_comp = matching_cost(pairs, g, dt, unit)
                violations += c_comp < c_stable_g - tol
                key = (comp.kind, g.label)
                per.setdefault(key, []).append(c_comp / mass)
                diffs.setdefault(key, []).append((c_comp - c_stable_g) / mass)
    rows = []
    for (kind, glabel), vals in sorted(per.items()):
        mean, se = experiments._mean_se(vals)
        dmean, dse = experiments._mean_se(diffs[kind, glabel])
        rows.append({"comparator": kind, "gauge": glabel,
                     "mean_psi": mean, "se": se,
                     "paired_diff_mean": dmean, "paired_diff_se": dse})
    data = {
        "replicas": cfg.replicas, "paths_used": used, "paths_skipped": skipped,
        "pathwise_violations": violations,
        "comparators": [c.kind for c in cfg.comparators],
        "seed": cfg.walk.seed,
    }
    return experiments.StatReport("cost_compare", cfg.digest(), data,
                                  {"costs": rows})


def doubling_first_excursion(cfg, rep: int, slot_cap: int | None = None):
    """A replica's excursion [0, T*] by ledger rebuilding under doubling.

    Builds the whole ledger of the path at horizon_fwd and again after each
    doubling until compute_t_star finds T*.  The horizon stops doubling once
    it reaches max_horizon, so when horizon_fwd exceeds max_horizon the cap
    is horizon_fwd; the engine caps at max_horizon instead.
    """
    horizon = cfg.walk.horizon_fwd
    path = sample_walk(cfg.walk, replica=rep)
    while True:
        ledger = LocalTimeLedger(path, cfg.pair)
        try:
            t_star = compute_t_star(ledger, cfg.pair)["t_star"]
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
    if t_star == 0:
        return None
    exc = Excursion(left=0, right=t_star,
                    mass=excursion_mass(ledger, 0, t_star))
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


class SizeLimitError(ShiftLabError):
    """Brute-force oracle invoked beyond its supported instance size."""


_PERMS_CACHE: dict[int, np.ndarray] = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERMS_CACHE:
        _PERMS_CACHE[n] = np.array(list(itertools.permutations(range(n))),
                                   dtype=np.int64)
    return _PERMS_CACHE[n]


def permutation_oracle(cfg: PointConfig, g: Gauge, N: int | None = None) -> dict:
    """Exhaustive minimum over feasible window matchings (N <= 8).

    Enumerates the bijections of the N a's onto the N leftmost b's: the
    paper's constraint set with the identity tail.
    """
    if N is None:
        N = compute_N(cfg)["N"]
    if N > 8:
        raise SizeLimitError(f"oracle limited to N <= 8, got {N}")
    if N > len(cfg.b_num):
        raise ConfigError("b-points must cover the window")
    a = np.array([x / cfg.q for x in cfg.a_num[:N]])
    b = np.array([x / cfg.q for x in cfg.b_num[:N]])
    psi = np.full((N, N), np.inf)
    for i in range(N):
        for j in range(N):
            gap = b[j] - a[i]
            if gap > 0:
                psi[i, j] = eval_gauge(g, gap)
    sigmas = _perms(N)
    costs = psi[np.arange(N)[None, :], sigmas].sum(axis=1)
    best = int(np.argmin(costs))
    if not np.isfinite(costs[best]):
        raise FeasibilityError("no feasible matching in the window")
    return {"min_cost": float(costs[best]), "sigma": tuple(int(x) for x in sigmas[best])}


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


def quantile_points(steps, weights, q: int, thresholds,
                    last: Fraction) -> list[Fraction]:
    """For each threshold, the first step whose cumulated weight/q reaches it.

    The final point is ``last`` by construction, and so is any point the
    weights never reach.
    """
    cum = np.cumsum(weights).tolist()
    pts = []
    for thr in thresholds:
        k = bisect.bisect_left(cum, thr * q)
        pts.append(Fraction(int(steps[k])) if k < len(cum) else last)
    pts[-1] = last
    return pts


def quantile_discretize(ledger, exc, n: int) -> dict:
    """n-quantile points of ell^mu (descending) and ell^nu (ascending) in exc.

    Quantile i on each side is the first step whose cumulated weight
    reaches the Fraction threshold i M/n of the mu-mass M; an atom larger
    than M/n yields repeated points at its step (left to right).  Beyond
    the excursion the sequences are padded with mesh (right - left)/n so
    the padding vanishes as n grows.

    Returns {"config", "g_n", "h_n", "n", "mesh", "a", "b"} where g_n/h_n are
    the rounding maps a -> a_i, b -> b_j, which scan the quantile points.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    M = exc.mass
    if M == 0:
        raise ConfigError("empty excursion (zero mu-mass)")
    left, right = Fraction(exc.left), Fraction(exc.right)
    q = ledger.q
    thresholds = [i * M / n for i in range(1, n + 1)]
    steps, wmu, wnu = ledger.events(exc.left, exc.right)
    # Descending mu-quantiles: a_i = largest step t with mass([t, right)) >= i*M/n.
    before = steps < exc.right
    a_pts = quantile_points(steps[before][::-1], wmu[before][::-1], q,
                            thresholds, left)      # a_n = b_0
    # Ascending nu-quantiles: mass((left, b_j]) >= j*M/n, b_n = right.
    b_pts = quantile_points(steps, wnu, q, thresholds, right)

    mesh = (right - left) / n
    pad = 2 * n + 4
    a_full = a_pts + [left - k * mesh for k in range(1, pad + 1)]
    b_full = b_pts + [right + k * mesh for k in range(1, pad + 1)]
    cfg = PointConfig.make(a_full, b_full, allow_ties=True)

    def g_n(aval) -> Fraction:
        """The largest quantile point <= a, or a_n."""
        aval = Fraction(aval)
        for ai in a_pts:
            if ai <= aval:
                return ai
        return a_pts[-1]

    def h_n(bval) -> Fraction:
        """b -> b_j for b in (b_{j-1}, b_j]; b_0 is the left endpoint."""
        bval = Fraction(bval)
        prev = left
        for bj in b_pts:
            if prev < bval <= bj:
                return bj
            prev = bj
        return b_pts[-1]

    return {"config": cfg, "g_n": g_n, "h_n": h_n, "n": n, "mesh": mesh,
            "a": tuple(a_pts), "b": tuple(b_pts)}


def tau_n_convergence_test(ledger, exc, n_list) -> dict:
    """sup |tau_n(g_n(a)) - tau*(a)| over mu-charged a in exc, per n.

    Distances are in steps; the report also carries the g_n rounding error
    sup |a - g_n(a)| so both convergence claims can be checked on fixtures.
    tau* comes from the balancing kernel (``tau_star_map``), so the pair
    must be orthogonal; g_n's index is found by a scan of the config's
    Fraction a-points.
    """
    charged = [int(s) for s in mu_charged_steps(ledger, exc.left, exc.right)]
    tau_star, unresolved = tau_star_map(ledger, exc.left, exc.right)
    if unresolved:
        raise HorizonExceededError(
            f"tau*({unresolved[0]}) not reached within forward horizon",
            horizon=ledger.hf)
    rows = []
    for n in n_list:
        disc = quantile_discretize(ledger, exc, n)
        match = stable_allocation(disc["config"])
        a_list = disc["config"].a
        b_list = disc["config"].b
        sup_dist = Fraction(0)
        sup_round = Fraction(0)
        for s in charged:
            ga = disc["g_n"](s)
            # The lowest index among tied quantile copies.
            i = min(k for k, av in enumerate(a_list) if av == ga)
            tn = b_list[match.tau[i]]
            sup_dist = max(sup_dist, abs(tn - tau_star[s]))
            sup_round = max(sup_round, abs(Fraction(s) - ga))
        rows.append({"n": int(n), "sup_distance": sup_dist,
                     "sup_rounding": sup_round})
    dists = [r["sup_distance"] for r in rows]
    return {
        "rows": rows,
        "monotone_nonincreasing": all(x >= y for x, y in zip(dists, dists[1:])),
        "final_distance": dists[-1] if dists else None,
    }
