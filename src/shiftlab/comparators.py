"""Alternative forward-looking balancing rules on excursion slots.

An excursion's mu-visits expand into unit-mass source slots and its
nu-visits into target slots; any forward bijection between the two is a
feasible competitor to tau*.  The stable (LIFO) matching is tau* itself,
computed by the balancing kernel of ``shiftlab.embedding`` through
``match_slots``; FIFO and randomly perturbed matchings provide the
comparison class whose cost is provably never below the stable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embedding import Excursion, match_slots
from .errors import ConfigError
from .gauges import Gauge, eval_gauge
from .rng import BitStream
from .walk import LocalTimeLedger

COMPARATOR_KINDS = ("stable", "fifo_rematch", "random_feasible_rematch")


@dataclass(frozen=True)
class Comparator:
    kind: str
    seed: int = 0
    n_swaps: int = 8

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ConfigError(f"unknown comparator kind {self.kind!r}")


def extract_slots(ledger: LocalTimeLedger, exc: Excursion
                  ) -> tuple[list[int], list[int]]:
    """(source_steps, target_steps) with multiplicity, chronological order."""
    steps, wmu, wnu = ledger.events(exc.left, exc.right)
    return np.repeat(steps, wmu).tolist(), np.repeat(steps, wnu).tolist()


def lifo_matching(ledger: LocalTimeLedger, exc: Excursion) -> list[tuple[int, int]]:
    """The stable matching; identical to tau* on the excursion's slots."""
    return match_slots(ledger, exc.left, exc.right)


def fifo_matching(ledger: LocalTimeLedger, exc: Excursion) -> list[tuple[int, int]]:
    """Each target slot takes the oldest waiting source slot."""
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


def random_rematch(ledger: LocalTimeLedger, exc: Excursion, seed: int,
                   n_swaps: int = 8) -> list[tuple[int, int]]:
    """Random forward-preserving transpositions applied to the stable matching."""
    pairs = lifo_matching(ledger, exc)
    if len(pairs) < 2:
        return pairs
    rng = BitStream(seed, 0x5EAC, exc.left, exc.right)
    pairs = list(pairs)
    for _ in range(n_swaps):
        i = min(int(rng.uniform_fraction() * len(pairs)), len(pairs) - 1)
        j = min(int(rng.uniform_fraction() * len(pairs)), len(pairs) - 1)
        if i == j:
            continue
        (s1, t1), (s2, t2) = pairs[i], pairs[j]
        if t2 > s1 and t1 > s2:   # swap keeps both pairs forward-looking
            pairs[i], pairs[j] = (s1, t2), (s2, t1)
    pairs.sort()
    return pairs


def apply_comparator(ledger: LocalTimeLedger, exc: Excursion,
                     comp: Comparator) -> list[tuple[int, int]]:
    if comp.kind == "stable":
        return lifo_matching(ledger, exc)
    if comp.kind == "fifo_rematch":
        return fifo_matching(ledger, exc)
    return random_rematch(ledger, exc, comp.seed, comp.n_swaps)


def matching_cost(pairs: list[tuple[int, int]], g: Gauge, dt: Fraction,
                  unit_mass: Fraction) -> float:
    """Sum of unit_mass * psi((t - s) * dt) over matched slot pairs."""
    u, d = float(unit_mass), float(dt)
    return sum(u * eval_gauge(g, (t - s) * d) for s, t in pairs)


def check_matching(ledger: LocalTimeLedger, exc: Excursion,
                   pairs: list[tuple[int, int]]) -> None:
    """Forward-looking and balancing sanity for a comparator matching.

    Balancing means the matched source/target steps reproduce the slot
    multisets of the excursion exactly (a bijection of unit-mass slots).
    """
    sources, targets = extract_slots(ledger, exc)
    if sorted(s for s, _ in pairs) != sources:
        raise ConfigError("matching does not cover the mu-slots exactly")
    if sorted(t for _, t in pairs) != sorted(targets):
        raise ConfigError("matching does not cover the nu-slots exactly")
    for s, t in pairs:
        if not (t > s):
            raise ConfigError(f"pair ({s}, {t}) is not forward-looking")
        if not (exc.left <= s <= exc.right and exc.left <= t <= exc.right):
            raise ConfigError(f"pair ({s}, {t}) leaves the excursion")
