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

from .embedding import Excursion, match_slots
from .errors import ConfigError, InvariantError
from .gauges import Gauge, eval_gauge
from .measures import MeasurePair
from .rng import BitStream
from .walk import EventLedger

COMPARATOR_KINDS = ("stable", "fifo_rematch", "random_feasible_rematch")


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
        if not 0 <= self.seed < 1 << 63:
            raise ConfigError(f"comparator seed must lie in [0, 2^63), got {self.seed}")


Pairs = tuple[np.ndarray, np.ndarray]     # (source steps, target steps)


def extract_slots(ledger: EventLedger, exc: Excursion) -> tuple[list[int], list[int]]:
    """(source_steps, target_steps) with multiplicity, chronological order."""
    steps, wmu, wnu = ledger.events(exc.left, exc.right)
    return np.repeat(steps, wmu).tolist(), np.repeat(steps, wnu).tolist()


class Cohort:
    """Excursions [0, T*] from their (steps, sites) of atom visits, as one
    event sequence keyed by event index: each balances at its T*, so their
    kernel's stack empties at every boundary.  ``counts`` holds each one's
    pairs in every matching, ``slots`` all (source, target) slot steps."""

    def __init__(self, visits, pair: MeasurePair):
        steps, sites = (np.concatenate(a) for a in zip(*visits))
        self.steps, self.q = steps, pair.denominator
        self.t_star = [int(s[-1]) for s, _ in visits]
        self.events = EventLedger(np.arange(len(steps)), sites, pair)
        ids = np.arange(len(visits))
        self.path = np.repeat(ids, [len(s) for s, _ in visits])
        wmu, wnu = self.events.wmu, self.events.wnu
        self.counts = np.bincount(self.path, wmu, len(visits)).astype(np.int64)
        self.mass = self.counts / self.q           # float(Fraction(count, q))
        self.slot_path = np.repeat(ids, self.counts)
        self.slots = np.repeat(steps, wmu), np.repeat(steps, wnu)

    def stable(self) -> Pairs:
        """Every excursion's sorted stable pairs, from one kernel call."""
        src, tgt = np.array(match_slots(self.events, 0, len(self.steps) - 1),
                            dtype=np.int64).reshape(-1, 2).T
        if len(src) != len(self.slot_path) or (self.path[src] != self.path[tgt]).any():
            raise InvariantError("the stable matching leaves slots open at T*")
        return self.steps[src], self.steps[tgt]


def random_rematch(pairs: list, t_star: int, seed: int, n_swaps: int = 8) -> list:
    """Random forward-preserving transpositions of one excursion's pairs, in
    place; swap k reads words 2k and 2k + 1 of stream (seed, 0x5EAC, 0, T*)."""
    n = len(pairs)
    if n < 2:
        return pairs
    stream = BitStream(seed, 0x5EAC, 0, t_star)
    words = stream.take_words(2 * n_swaps).tolist()
    stream.release()
    for wi, wj in zip(words[::2], words[1::2]):
        i, j = (wi * n) >> 64, (wj * n) >> 64
        (s1, t1), (s2, t2) = pairs[i], pairs[j]
        if t2 > s1 and t1 > s2:   # swap keeps both pairs forward-looking
            pairs[i], pairs[j] = (s1, t2), (s2, t1)
    pairs.sort()
    return pairs


def apply_comparator(comp: Comparator, cohort: Cohort, stable: Pairs) -> Pairs:
    """The comparator's matching of the cohort's slots."""
    if comp.kind == "stable":
        return stable
    if comp.kind == "fifo_rematch":
        # C stays above its base before T*: the k-th target takes the k-th source.
        return cohort.slots
    src, tgt = stable[0].tolist(), stable[1].tolist()
    ends = np.cumsum(cohort.counts).tolist()
    out = []
    for t_star, a, b in zip(cohort.t_star, [0] + ends, ends):
        out += random_rematch(list(zip(src[a:b], tgt[a:b])), t_star,
                              comp.seed, comp.n_swaps)
    return tuple(np.array(out, dtype=np.int64).reshape(-1, 2).T)


def matching_cost(matchings: list[Pairs], counts: np.ndarray,
                  gauges: tuple[Gauge, ...], dt, unit_mass) -> np.ndarray:
    """Sums of unit_mass * psi((t - s) * dt), shape (matching, gauge, path).

    Path k holds the next counts[k] pairs of each matching.  psi is
    evaluated once per distinct gap, and a loop over pair position, on
    paths sorted by length, adds each path's terms in pair order: the IEEE
    adds of a running total (np.sum, reduceat and fsum round differently).
    """
    u, d = float(unit_mass), float(dt)
    uniq, inv = np.unique(np.stack([t - s for s, t in matchings]),
                          return_inverse=True)
    term = np.array([[u * eval_gauge(g, gap * d) for gap in uniq.tolist()]
                     for g in gauges])
    vals = term[:, inv.reshape(len(matchings), -1)]   # (gauge, matching, pair)
    order = np.argsort(-counts, kind="stable")
    lens, starts = counts[order], (np.cumsum(counts) - counts)[order]
    total = np.zeros((len(gauges), len(matchings), len(counts)))
    width = np.arange(lens.max(initial=0))
    for j, n in enumerate(np.searchsorted(-lens, -width).tolist()):
        total[..., :n] += vals[..., starts[:n] + j]
    return total[..., np.argsort(order)].swapaxes(0, 1)


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
