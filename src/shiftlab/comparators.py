"""Alternative forward-looking balancing rules, scored a cohort at a time.

An excursion's mu-visits expand into unit-mass source slots and its
nu-visits into target slots; any forward bijection between the two is a
feasible competitor to tau*.  The stable (LIFO) matching is tau* itself,
computed by the balancing kernel of ``shiftlab.embedding`` through
``match_slots``; FIFO and randomly perturbed matchings provide the
comparison class whose cost is provably never below the stable one.
Compare scores the excursions [0, T*] of a cohort of replicas together,
laid end to end (``Cohort``): a matching is a pair of arrays (source
steps, target steps), excursion after excursion, and its stable pairs,
check and costs take a fixed number of passes per cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import match_slots
from .errors import ConfigError, InvariantError
from .gauges import Gauge, eval_gauge
from .measures import MeasurePair
from .rng import BitStream
from .walk import EventLedger

COMPARATOR_KINDS = ("stable", "fifo_rematch", "random_feasible_rematch")
_SWAP_WORDS = 1 << 14         # swap words the random rematch holds at once


@dataclass(frozen=True)
class Comparator:
    kind: str
    seed: int = 0
    n_swaps: int = 8

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ConfigError(f"unknown comparator kind {self.kind!r}")
        if not 0 <= self.n_swaps <= 1 << 20:
            raise ConfigError(f"n_swaps must lie in [0, 2^20], got {self.n_swaps}")
        if not 0 <= self.seed < 1 << 53:       # as WalkConfig's seed
            raise ConfigError(f"comparator seed must lie in [0, 2^53), got {self.seed}")


Pairs = tuple[np.ndarray, np.ndarray]     # (source steps, target steps)


def extract_slots(ledger: EventLedger, exc) -> tuple[list[int], list[int]]:
    """(source_steps, target_steps) of the window [exc.left, exc.right],
    with multiplicity, chronological order."""
    steps, wmu, wnu = ledger.events(exc.left, exc.right)
    return np.repeat(steps, wmu).tolist(), np.repeat(steps, wnu).tolist()


class Cohort:
    """Excursions [0, T*] as one event sequence keyed by event index, from
    their atom visits laid end to end: each visit's excursion (0, 1, ...),
    step and site.  Each balances at its T*, so their kernel's stack empties
    at every boundary.  ``counts`` holds each one's pairs in every matching."""

    def __init__(self, path, steps, sites, pair: MeasurePair):
        self.path, self.steps, self.q = path, steps, pair.denominator
        self.t_star = steps[np.flatnonzero(np.diff(path, append=path[-1] + 1))]
        self.events = EventLedger(np.arange(len(steps)), sites, pair)
        wmu, wnu = self.events.wmu, self.events.wnu
        self.counts = np.bincount(path, wmu, len(self.t_star)).astype(np.int64)
        self.mass = self.counts / self.q           # float(Fraction(count, q))
        self.slot_path = np.repeat(np.arange(len(self.t_star)), self.counts)
        self.slots = np.repeat(steps, wmu), np.repeat(steps, wnu)

    def stable(self) -> Pairs:
        """Every excursion's sorted stable pairs, from one kernel call."""
        pairs = match_slots(self.events, 0, len(self.steps) - 1)
        tgt = np.fromiter((t for _, t in pairs), np.int64, len(pairs))
        if len(tgt) != len(self.slot_path) or (self.path[tgt] != self.slot_path).any():
            raise InvariantError("the stable matching leaves slots open at T*")
        return self.slots[0], self.steps[tgt]   # all matched: sources sorted


def apply_comparator(comp: Comparator, cohort: Cohort, stable: Pairs) -> Pairs:
    """The comparator's matching of the cohort's slots.  Swap k of the
    random rematch of an excursion of n >= 2 stable pairs swaps the targets
    of pairs floor(w n / 2^64), for words w = 2k and 2k + 1 of stream (seed,
    0x5EAC, 0, T*), if both stay forward-looking; all excursions at once."""
    if comp.kind == "stable":
        return stable
    if comp.kind == "fifo_rematch":
        # C stays above its base before T*: the k-th target takes the k-th source.
        return cohort.slots
    src, tgt, n_swaps = stable[0], stable[1].copy(), comp.n_swaps
    on = np.flatnonzero(cohort.counts >= 2)
    base = (np.cumsum(cohort.counts) - cohort.counts)[on, None]
    n = cohort.counts[on, None].astype(np.uint64)
    streams = [BitStream(comp.seed, 0x5EAC, 0, t) for t in cohort.t_star[on].tolist()]
    per = max(1, _SWAP_WORDS // (2 * len(on) or 1))       # rounds per block
    for k in range(0, n_swaps if streams else 0, per):
        words = np.stack([s.take_words(2 * min(per, n_swaps - k)) for s in streams])
        if k + per >= n_swaps:             # the last block: free the generators
            for s in streams:
                s.release()
        # floor(w n / 2^64) exactly in uint64, from w's 32-bit halves.
        idx = ((words >> 32) * n + ((words & 0xFFFFFFFF) * n >> 32)) >> 32
        idx = idx.astype(np.int64) + base
        for i, j in zip(idx[:, 0::2].T, idx[:, 1::2].T):
            t1, t2 = tgt[i], tgt[j]
            ok = (t2 > src[i]) & (t1 > src[j])
            tgt[i[ok]], tgt[j[ok]] = t2[ok], t1[ok]
    order = np.lexsort((tgt, src, cohort.slot_path))
    return src[order], tgt[order]


def matching_cost(matchings: list[Pairs], counts: np.ndarray,
                  gauges: tuple[Gauge, ...], dt, unit_mass) -> np.ndarray:
    """Sums of unit_mass * psi((t - s) * dt), shape (matching, gauge, path).

    Path k holds the next counts[k] pairs of each matching; psi is evaluated
    once per distinct gap.  One bincount per matching and gauge adds each
    path's terms in order from 0.0, as a running total does (np.sum,
    reduceat and fsum round differently).
    """
    u, d = float(unit_mass), float(dt)
    uniq, inv = np.unique(np.stack([t - s for s, t in matchings]),
                          return_inverse=True)
    term = np.array([[u * eval_gauge(g, gap * d) for gap in uniq.tolist()]
                     for g in gauges])
    path = np.repeat(np.arange(len(counts)), counts)
    return np.array([[np.bincount(path, row[i], len(counts)) for row in term]
                     for i in inv.reshape(len(matchings), -1)])


def check_matching(cohort: Cohort, pairs: Pairs) -> None:
    """Each excursion's matched steps reproduce its slot multisets (so every
    pair lies inside it), and every pair looks forward."""
    for got, want, side in zip(pairs, cohort.slots, ("mu", "nu")):
        if len(got) != len(want) or (
                got[np.lexsort((got, cohort.slot_path))] != want).any():
            raise InvariantError(f"matching does not cover the {side}-slots exactly")
    src, tgt = pairs
    bad = np.flatnonzero(tgt <= src)
    if bad.size:
        raise InvariantError(
            f"pair ({src[bad[0]]}, {tgt[bad[0]]}) is not forward-looking")
