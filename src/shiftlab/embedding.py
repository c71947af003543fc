"""The embedding time T*, allocation rule tau*, and excursion machinery.

T* is the first positive step at which the additive functional of nu catches
up with that of mu; tau* sends each step s to the first later step balancing
the two functionals over [s, t].  In exact mode (all effective down-steps of
size 1/q) the balance events are hit exactly and every identity below holds
with equality in rational arithmetic.  Crossing mode (first D <= 0) takes
any target but only approximates nu on the lattice: from delta_0, the site
at T* is at TV distance 0.12 from nu = (delta_-m + 2 delta_m)/3 for m = 1,
0.04 for m = 2 and 0.012 for m = 4.

tau* comes from one balancing kernel, ``parenthesis_match`` (LIFO matching
of mu-slots against nu-slots); ``compute_tau_star`` is the per-step
definition the tests hold it against.  T* has one first-balance rule and
one U-flag draw, shared with the first-hit engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, HorizonExceededError, InvariantError
from .gauges import Gauge, eval_gauge
from .measures import MeasurePair
from .rng import BitStream, STREAM_UFLAG
from .walk import EventLedger, LocalTimeLedger

Mode = str  # "exact" | "crossing"
Ledger = LocalTimeLedger | EventLedger   # both serve ``events(left, right)``


@dataclass(frozen=True)
class EmbeddingResult:
    t_star: int
    site: int
    mode: Mode
    u_flag: int
    censored: bool = False

    def to_json(self, dt: Fraction) -> dict:
        return {
            "t_star_steps": self.t_star,
            "t_star_time": float(self.t_star * dt),
            "site": self.site,
            "mode": self.mode,
            "u_flag": self.u_flag,
            "censored": self.censored,
        }


@dataclass(frozen=True)
class Excursion:
    """An interval [left, tau*(left-adjacent charged step)] in signed steps."""
    left: int
    right: int
    mass: Fraction


@dataclass(frozen=True)
class ExcursionChain:
    levels: tuple[Fraction, ...]
    sigma: tuple[int, ...]
    rho: tuple[int, ...]


MODES = ("exact", "crossing")
_MAX_LEVELS = 64              # size cap of decompose_excursions' level grid


def check_mode(mode: Mode) -> None:
    """Reject an embedding mode the engines do not know."""
    if mode not in MODES:
        raise ConfigError(f"unknown embedding mode {mode!r}")


def require_mode(pair: MeasurePair, mode: Mode) -> None:
    """The exact-mode precondition: every effective down-step of D is 1/q."""
    check_mode(mode)
    if mode == "exact" and not pair.exact_mode_ok:
        raise ConfigError(
            "exact mode requires every effective nu-atom to weigh exactly 1/q; "
            "use crossing mode for general weights")


def balanced(c: np.ndarray, base: int, mode: Mode) -> np.ndarray:
    """Mask of c == base (exact mode) or c <= base (crossing)."""
    return c == base if mode == "exact" else c <= base


def first_balance(c: np.ndarray, base: int, mode: Mode) -> int | None:
    """First index of ``balanced(c, base, mode)``, else None."""
    hits = np.flatnonzero(balanced(c, base, mode))
    return int(hits[0]) if hits.size else None


def draw_u_flag(pair: MeasurePair, seed: int, replica: int, start: int) -> int:
    """Remark-2 Bernoulli, measurable w.r.t. the start site.

    U ~ Bernoulli(mu~(start)/mu(start)); in the orthogonal case this is
    always 1.
    """
    if pair.orthogonal:
        return 1
    w = pair.mu.weight(start)
    if w == 0:
        raise ConfigError("start site carries no mu mass; start_law must be mu")
    p = pair.mu_tilde.weight(start) / w
    if p == 1:
        return 1
    if p == 0:
        return 0
    # u < p exactly when floor(u * denominator) < numerator.
    u = BitStream(seed, replica, STREAM_UFLAG).uniform_index(p.denominator)
    return 1 if u < p.numerator else 0


def compute_t_star(ledger: LocalTimeLedger, pair: MeasurePair,
                   mode: Mode = "exact") -> EmbeddingResult:
    """First positive step with D = 0 (exact) or D <= 0 (crossing).

    Raises HorizonExceededError with the attained minimum of D when the
    event does not occur within the forward horizon.
    """
    if pair is not ledger.pair and pair.to_json() != ledger.pair.to_json():
        raise ConfigError("measure pair does not match the ledger")
    require_mode(ledger.pair, mode)
    path = ledger.path
    if draw_u_flag(ledger.pair, path.cfg.seed, path.replica, path.start) == 0:
        return EmbeddingResult(t_star=0, site=path.start, mode=mode, u_flag=0)
    i0 = ledger.idx(0)
    base = ledger.X[i0]                    # C(-1)
    c_fwd = ledger.X[i0 + 2:]              # C(1), C(2), ...
    h = first_balance(c_fwd, base, mode)
    if h is None:
        d_min = Fraction(int((c_fwd - base).min()), ledger.q) if c_fwd.size else None
        raise HorizonExceededError(
            "T* not reached within forward horizon",
            horizon=ledger.hf, attained=d_min)
    n = h + 1
    return EmbeddingResult(t_star=n, site=int(ledger.pos_all[i0 + n]),
                           mode=mode, u_flag=1)


def compute_tau_star(ledger: LocalTimeLedger, s: int) -> int:
    """Smallest t > s with equal mu- and nu-mass over [s, t] (exact mode)."""
    require_mode(ledger.pair, "exact")
    i_s = ledger.idx(s)
    target = ledger.X[i_s]                 # C(s-1)
    c_later = ledger.X[i_s + 2:]           # C(s+1), ...
    hits = np.flatnonzero(c_later == target)
    if hits.size == 0:
        raise HorizonExceededError(
            f"tau*({s}) not reached within forward horizon", horizon=ledger.hf)
    return s + 1 + int(hits[0])


def mu_charged_steps(ledger: Ledger, left: int, right: int) -> np.ndarray:
    """Signed steps in [left, right) carrying mu mass."""
    steps, wmu, _ = ledger.events(left, right)
    return steps[(wmu > 0) & (steps < right)]


def excursion_mass(ledger: Ledger, left: int, right: int) -> Fraction:
    """mu-mass of visits at steps in [left, right)."""
    steps, wmu, _ = ledger.events(left, right)
    return Fraction(int(wmu[steps < right].sum()), ledger.q)


def decompose_excursions(ledger: LocalTimeLedger, up_to_level: Fraction):
    """rho(u)/sigma(u) for a grid of levels plus the excursion partition.

    The level grid is the attainable multiples of 1/q up to ``up_to_level``
    (thinned to at most ``_MAX_LEVELS`` entries).  The partition lists the
    maximal excursions [a, tau*(a)] covering all mu-charged steps of
    [sigma(u_max), rho(u_max)], scanned left to right.

    Discrete convention: sigma(u) is the first backward time at or below the
    nominal level C(0) - u*q (backward down-moves have mu-atom size and can
    skip a level exactly), and rho(u) is the first forward hit of the level
    actually attained at sigma(u).  Forward down-moves are unit in exact
    mode, so that hit exists and tau*(sigma(u)) = rho(u) holds exactly;
    u = 0 degenerates to [0, 0].  The partition takes tau* from the
    balancing kernel (``tau_star_map``), so it needs an orthogonal pair.
    """
    require_mode(ledger.pair, "exact")
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
        j = first_balance(c_bwd, c0 - k, "crossing")
        rho = None if j is None else first_balance(c_fwd, c_bwd[j], "exact")
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


def parenthesis_match(keys, opens, closes) -> tuple[list, list]:
    """The balancing kernel: LIFO (parenthesis) matching of unit slots.

    Walks ordered events; event i opens ``opens[i]`` slots and closes
    ``closes[i]`` slots, its closes popping the newest open slots before its
    own opens are pushed, so every pair points strictly forward.  Returns
    (pairs, unmatched): (open key, close key) pairs in closing order, and the
    keys of the slots still open, oldest first.
    """
    pairs, stack = [], []
    for key, n_open, n_close in zip(keys, opens, closes):
        for _ in range(min(n_close, len(stack))):
            pairs.append((stack.pop(), key))
        stack.extend([key] * n_open)
    return pairs, stack


def _match_ledger(ledger: Ledger, left: int, right: int
                  ) -> tuple[list[tuple[int, int]], list[int]]:
    """The kernel over the mass-carrying steps in [left, right] (exact mode).

    mu-visits open mu(x)*q slots and nu-visits close one each; ``dict(pairs)``
    maps each fully matched step to tau*, the close of its last slot.  Where
    mu and nu share a site the kernel and the balance definition of tau*
    disagree, so the pair must be orthogonal.
    """
    require_mode(ledger.pair, "exact")
    if not ledger.pair.orthogonal:
        raise ConfigError(
            "slot matching needs an orthogonal pair (mu and nu share a site)")
    steps, wmu, wnu = ledger.events(left, right)
    return parenthesis_match(steps.tolist(), wmu.tolist(), wnu.tolist())


def cost_of_tau_star(ledger: LocalTimeLedger, exc: Excursion, g: Gauge) -> float:
    """Sum over mu-charged steps s in [left, right) of mu(x_s) psi((tau*(s)-s) dt).

    One pass of the balancing kernel over the excursion.  Tests cross-check
    the result against a direct per-step rescan.
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


def tau_star_map(ledger: Ledger, left: int, right: int
                 ) -> tuple[dict[int, int], list[int]]:
    """tau* for every mu-charged step in [left, right), in one forward pass.

    The kernel runs to the forward horizon so targets may lie beyond
    ``right``; steps at or after ``right`` still open slots (they nest inside
    earlier ones) but are not reported.  Returns (tau, unresolved) where
    unresolved lists the charged steps whose tau* exceeds the horizon.
    """
    ledger.events(right, right)            # raises outside the ledger range
    pairs, unmatched = _match_ledger(ledger, left, ledger.hf)
    still_open = set(unmatched)
    tau = {s: t for s, t in dict(pairs).items()
           if s < right and s not in still_open}
    return tau, sorted(s for s in still_open if s < right)


def match_slots(ledger: Ledger, left: int, right: int) -> list[tuple[int, int]]:
    """Sorted (source_step, target_step) slot pairs of the kernel on [left, right].

    Every mu-charged step contributes mu(x)*q open slots, every nu-charged
    step one close slot (exact mode, orthogonal pair).  A step's last pair
    is its tau*, as long as that lies inside the window.
    """
    pairs, _ = _match_ledger(ledger, left, right)
    pairs.sort()
    return pairs
