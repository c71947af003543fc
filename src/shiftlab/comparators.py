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

import numpy as np

from .embedding import Excursion, Ledger, match_slots
from .errors import ConfigError, InvariantError
from .gauges import Gauge, eval_gauge
from .rng import BitStream

COMPARATOR_KINDS = ("stable", "fifo_rematch", "random_feasible_rematch")


@dataclass(frozen=True)
class Comparator:
    kind: str
    seed: int = 0
    n_swaps: int = 8

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ConfigError(f"unknown comparator kind {self.kind!r}")
        if self.n_swaps < 0:
            raise ConfigError(f"n_swaps must be >= 0, got {self.n_swaps}")


Slots = tuple[list[int], list[int]]       # (source steps, target steps)


def extract_slots(ledger: Ledger, exc: Excursion) -> Slots:
    """(source_steps, target_steps) with multiplicity, chronological order."""
    steps, wmu, wnu = ledger.events(exc.left, exc.right)
    return np.repeat(steps, wmu).tolist(), np.repeat(steps, wnu).tolist()


def lifo_matching(ledger: Ledger, exc: Excursion) -> list[tuple[int, int]]:
    """The stable matching; identical to tau* on the excursion's slots."""
    return match_slots(ledger, exc.left, exc.right)


def fifo_matching(slots: Slots) -> list[tuple[int, int]]:
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


def random_rematch(stable: list[tuple[int, int]], exc: Excursion, seed: int,
                   n_swaps: int = 8) -> list[tuple[int, int]]:
    """Random forward-preserving transpositions applied to the stable pairs."""
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
        if t2 > s1 and t1 > s2:   # swap keeps both pairs forward-looking
            pairs[i], pairs[j] = (s1, t2), (s2, t1)
    pairs.sort()
    return pairs


def apply_comparator(comp: Comparator, exc: Excursion, slots: Slots,
                     stable: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The comparator's matching of the excursion's slots."""
    if comp.kind == "stable":
        return stable
    if comp.kind == "fifo_rematch":
        return fifo_matching(slots)
    return random_rematch(stable, exc, comp.seed, comp.n_swaps)


def matching_cost(pairs: list[tuple[int, int]], g: Gauge, dt: float,
                  unit_mass: float) -> float:
    """Sum of unit_mass * psi((t - s) * dt) over the pairs, left to right."""
    u, d = float(unit_mass), float(dt)
    gaps = [t - s for s, t in pairs]
    term = {gap: u * eval_gauge(g, gap * d) for gap in set(gaps)}  # once per gap
    total = 0.0
    for gap in gaps:             # not sum(): Python 3.12 compensates it
        total += term[gap]
    return total


def check_matching(slots: Slots, pairs: list[tuple[int, int]]) -> None:
    """Forward-looking and balancing sanity for a comparator matching.

    Balancing means the matched source/target steps reproduce the slot
    multisets of the excursion exactly (a bijection of unit-mass slots),
    so every pair also lies inside the excursion.
    """
    sources, targets = slots
    if sorted(s for s, _ in pairs) != sources:
        raise InvariantError("matching does not cover the mu-slots exactly")
    if sorted(t for _, t in pairs) != targets:
        raise InvariantError("matching does not cover the nu-slots exactly")
    for s, t in pairs:
        if not (t > s):
            raise InvariantError(f"pair ({s}, {t}) is not forward-looking")
