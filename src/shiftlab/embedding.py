"""The embedding time T*, the allocation rule tau* and its slot matchings.

T* is the first positive step at which the additive functional of nu catches
up with that of mu: the first n > 0 with C(n) <= 0.  tau* sends each step s
to the first later step balancing the two functionals over [s, t].  When
every effective down-step of C has size 1/q (unit nu-slots) C meets 0
exactly and every identity below holds with equality in rational
arithmetic.  On other targets T* only approximates nu on the lattice: from
delta_0, the site at T* is at TV distance 0.12 from
nu = (delta_-m + 2 delta_m)/3 for m = 1, 0.04 for m = 2 and 0.012 for m = 4.

tau* comes from one balancing kernel, ``parenthesis_match`` (LIFO matching
of mu-slots against nu-slots), which needs an orthogonal pair with unit
nu-slots.  T* has one first-balance rule and one U-flag draw, shared with
the first-hit engine.  Every ledger function reads an ``EventLedger``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConfigError, HorizonExceededError
# perfbench/tracing.LAYERS patches this in this namespace.
from .gauges import eval_gauge  # noqa: F401
from .measures import MeasurePair
from .rng import BitStream, STREAM_UFLAG
from .walk import EventLedger


def require_unit_slots(pair: MeasurePair) -> None:
    """The slot kernel's precondition: an orthogonal pair (mu and nu share
    no site) whose every effective nu-atom weighs 1/q, so C falls by one
    slot at a time and each excursion closes at its balance."""
    if not pair.orthogonal:
        raise ConfigError(
            "slot matching needs an orthogonal pair (mu and nu share a site)")
    if not pair.unit_nu_slots:
        raise ConfigError(
            "slot matching needs every effective nu-atom to weigh exactly 1/q")


def first_balance(c: np.ndarray, base: int) -> int | None:
    """First index with c <= base, else None."""
    hits = np.flatnonzero(c <= base)
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


def compute_t_star(ledger: EventLedger, pair: MeasurePair) -> dict:
    """First positive step with C <= 0, as the first-hit engine's dict
    {"t_star", "site", "censored", "u_flag"}.

    The engine's rule on a ledger from ``build_ledger``: C starts above 0
    at a mu-atom and changes only at atom visits, so the first balance is
    one.  Raises HorizonExceededError with the attained minimum of C over
    [1, hf] when the event does not occur within the forward horizon.
    """
    if pair is not ledger.pair and pair.to_json() != ledger.pair.to_json():
        raise ConfigError("measure pair does not match the ledger")
    path = ledger.path
    out = {"t_star": 0, "site": path.start, "censored": False, "u_flag": 0}
    if draw_u_flag(ledger.pair, path.cfg.seed, path.replica, path.start) == 0:
        return out
    steps, wmu, wnu = ledger.events(0, ledger.hf)
    c = np.cumsum(wmu - wnu)               # q C at each visit from step 0
    if not steps.size or steps[0] != 0 or c[0] <= 0:
        raise ConfigError("C(0) must be positive: start_law must be mu")
    h = first_balance(c[1:], 0)
    if h is None:
        # C over [1, hf]: its values at the later visits, and C(0) at step
        # 1 unless step 1 is a visit.
        vals = c[1:].tolist()
        if ledger.hf >= 1 and 1 not in steps[1:2]:
            vals.append(int(c[0]))
        raise HorizonExceededError(
            "T* not reached within forward horizon", horizon=ledger.hf,
            attained=Fraction(min(vals), ledger.q) if vals else None)
    n = int(steps[1 + h])
    return {**out, "t_star": n, "site": path.positions(n), "u_flag": 1}


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
    """The kernel over the mass-carrying steps in [left, right].

    mu-visits open mu(x)*q slots and nu-visits close one each; ``dict(pairs)``
    maps each fully matched step to tau*, the close of its last slot.  Where
    mu and nu share a site the kernel and the balance definition of tau*
    disagree, hence ``require_unit_slots``.
    """
    require_unit_slots(ledger.pair)
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
    step one close slot (``require_unit_slots``).  A step's last pair
    is its tau*, as long as that lies inside the window.
    """
    pairs, _ = _match_ledger(ledger, left, right)
    pairs.sort()
    return pairs
