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
of mu-slots against nu-slots).  T* has one first-balance rule and one U-flag
draw, shared with the first-hit engine.  Every ledger function reads an
``EventLedger``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, HorizonExceededError
# perfbench/tracing.LAYERS patches this in this namespace.
from .gauges import eval_gauge  # noqa: F401
from .measures import MeasurePair
from .rng import BitStream, STREAM_UFLAG
from .walk import EventLedger

Mode = str  # "exact" | "crossing"


@dataclass(frozen=True)
class EmbeddingResult:
    t_star: int
    site: int
    mode: Mode
    u_flag: int
    censored: bool = False


@dataclass(frozen=True)
class Excursion:
    """An interval [left, tau*(left-adjacent charged step)] in signed steps."""
    left: int
    right: int
    mass: Fraction


MODES = ("exact", "crossing")


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
    stream = BitStream(seed, replica, STREAM_UFLAG)
    u = stream.uniform_index(p.denominator)
    stream.release()
    return 1 if u < p.numerator else 0


def compute_t_star(ledger: EventLedger, pair: MeasurePair,
                   mode: Mode = "exact") -> EmbeddingResult:
    """First positive step with D = 0 (exact) or D <= 0 (crossing).

    The first-hit engine's rule on a ledger from ``build_ledger``: D starts
    above 0 at a mu-atom and changes only at atom visits, so the first
    balance is one.  Raises HorizonExceededError with the attained minimum
    of D over [1, hf] when the event does not occur within the forward
    horizon.
    """
    if pair is not ledger.pair and pair.to_json() != ledger.pair.to_json():
        raise ConfigError("measure pair does not match the ledger")
    require_mode(ledger.pair, mode)
    path = ledger.path
    if draw_u_flag(ledger.pair, path.cfg.seed, path.replica, path.start) == 0:
        return EmbeddingResult(t_star=0, site=path.start, mode=mode, u_flag=0)
    steps, wmu, wnu = ledger.events(0, ledger.hf)
    d = np.cumsum(wmu - wnu)               # q D at each visit from step 0
    if not steps.size or steps[0] != 0 or d[0] <= 0:
        raise ConfigError("D(0) must be positive: start_law must be mu")
    h = first_balance(d[1:], 0, mode)
    if h is None:
        # D over [1, hf]: its values at the later visits, and D(0) at step
        # 1 unless step 1 is a visit.
        vals = d[1:].tolist()
        if ledger.hf >= 1 and 1 not in steps[1:2]:
            vals.append(int(d[0]))
        raise HorizonExceededError(
            "T* not reached within forward horizon", horizon=ledger.hf,
            attained=Fraction(min(vals), ledger.q) if vals else None)
    n = int(steps[1 + h])
    return EmbeddingResult(t_star=n, site=path.positions(n), mode=mode,
                           u_flag=1)


def mu_charged_steps(ledger: EventLedger, left: int, right: int) -> np.ndarray:
    """Signed steps in [left, right) carrying mu mass."""
    steps, wmu, _ = ledger.events(left, right)
    return steps[(wmu > 0) & (steps < right)]


def parenthesis_match(keys, opens, closes) -> tuple[list, list]:
    """The balancing kernel: LIFO (parenthesis) matching of unit slots.

    Walks ordered events; event i opens ``opens[i]`` slots and closes
    ``closes[i]`` slots, its closes popping the newest open slots before its
    own opens are pushed, so every pair points strictly forward.  Returns
    (pairs, unmatched): (open key, close key) pairs in closing order, and the
    keys of the slots still open, oldest first.
    """
    pairs, stack = [], []
    pop, pair, push = stack.pop, pairs.append, stack.append
    for key, n_open, n_close in zip(keys, opens, closes):
        if n_close == 1 and stack:         # the common events: one slot
            pair((pop(), key))
        elif n_close > 1:
            for _ in range(min(n_close, len(stack))):
                pair((pop(), key))
        if n_open == 1:
            push(key)
        elif n_open:
            stack.extend([key] * n_open)
    return pairs, stack


def _match_ledger(ledger: EventLedger, left: int, right: int
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


def tau_star_map(ledger: EventLedger, left: int, right: int
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


def match_slots(ledger: EventLedger, left: int, right: int) -> list[tuple[int, int]]:
    """Sorted (source_step, target_step) slot pairs of the kernel on [left, right].

    Every mu-charged step contributes mu(x)*q open slots, every nu-charged
    step one close slot (exact mode, orthogonal pair).  A step's last pair
    is its tau*, as long as that lies inside the window.
    """
    pairs, _ = _match_ledger(ledger, left, right)
    pairs.sort()
    return pairs
