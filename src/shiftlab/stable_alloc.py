"""Discrete stable allocation: tau(a) = min{b > a : |B n [a,b]| = |A n [a,b]|}.

The map is parenthesis matching: scanning the merged point set left to
right, every a opens and every b closes the most recent unmatched a.  The
sweep is the balancing kernel ``parenthesis_match`` of
``shiftlab.embedding`` run on the points as one-slot events.  The
module also computes the horizon N through the integer step function f.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConfigError, TruncationError
from .embedding import parenthesis_match
from .measures import as_rational, reading


@dataclass(frozen=True)
class PointConfig:
    """Finite truncations of a_1 > a_2 > ... and b_1 < b_2 < ... (disjoint).

    Points are integer numerators over one common denominator ``q`` (``make``
    takes the lcm of the input denominators), so window algorithms run on
    ints.  ``allow_ties`` admits repeated values inside one sequence
    (multiset semantics for quantile configurations with atoms);
    cross-sequence values must always be distinct.
    """

    a_num: tuple[int, ...]
    b_num: tuple[int, ...]
    q: int = 1
    allow_ties: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError("common denominator q must be >= 1")
        if not isinstance(self.allow_ties, bool):
            raise ConfigError(f"allow_ties must be true or false: {self.allow_ties!r}")
        step = 0 if self.allow_ties else 1      # least gap between neighbours
        if any(x - y < step for x, y in zip(self.a_num, self.a_num[1:])):
            raise ConfigError("a-sequence must be decreasing")
        if any(y - x < step for x, y in zip(self.b_num, self.b_num[1:])):
            raise ConfigError("b-sequence must be increasing")
        if set(self.a_num) & set(self.b_num):
            raise ConfigError("a- and b-sets must be disjoint")

    @property
    def a(self) -> tuple[Fraction, ...]:
        """The a-points as Fractions, built on each access (not for hot paths)."""
        return tuple(Fraction(x, self.q) for x in self.a_num)

    @property
    def b(self) -> tuple[Fraction, ...]:
        """The b-points as Fractions, built on each access (not for hot paths)."""
        return tuple(Fraction(x, self.q) for x in self.b_num)

    @classmethod
    def make(cls, a: Sequence, b: Sequence, allow_ties: bool = False) -> "PointConfig":
        fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
        q = math.lcm(*(x.denominator for x in fa + fb))
        return cls(tuple(x.numerator * (q // x.denominator) for x in fa),
                   tuple(x.numerator * (q // x.denominator) for x in fb),
                   q, allow_ties)

    def to_json(self) -> dict:
        return {"a": [str(x) for x in self.a], "b": [str(x) for x in self.b],
                "allow_ties": self.allow_ties}

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        """{"a", "b", "allow_ties"} with numbers or strings such as "1/3"."""
        with reading("point config", obj):
            a, b = ([as_rational(x) for x in obj[k]] for k in "ab")
            allow_ties = obj.get("allow_ties", False)
        return cls.make(a, b, allow_ties)


@dataclass(frozen=True)
class StableMatch:
    """tau as an index map: tau[i] = j means tau(a_{i+1}) = b_{j+1} (0-based)."""

    tau: tuple[int, ...]
    config: PointConfig

    def pairs(self) -> list[tuple[Fraction, Fraction]]:
        b = self.config.b
        return [(x, b[j]) for x, j in zip(self.config.a, self.tau)]

    def to_json(self) -> dict:
        return {
            "tau": list(self.tau),
            "pairs": [[str(x), str(y)] for x, y in self.pairs()],
        }


def stable_allocation(cfg: PointConfig) -> StableMatch:
    """Match every a-point via the left-to-right parenthesis sweep.

    Raises TruncationError when some a-point has no balancing b within the
    truncation (its tau would depend on unseen points).
    """
    # Sorted as (x, kind, idx): at equal values (ties within one sequence)
    # process a's before b's and later a-indices (further left in the
    # infinite order) last, so the LIFO pop picks the earliest-index a among
    # ties.
    events = sorted([(x, 0, i) for i, x in enumerate(cfg.a_num)]
                    + [(x, 1, j) for j, x in enumerate(cfg.b_num)])
    pairs, unmatched = parenthesis_match(
        [idx for _, _, idx in events],
        [1 - kind for _, kind, _ in events],        # an a opens one slot
        [kind for _, kind, _ in events])            # a b closes one
    if unmatched:
        raise TruncationError(
            f"a-points at indices {sorted(unmatched)} unmatched; "
            "extend the b-truncation")
    tau = dict(pairs)
    return StableMatch(tau=tuple(tau[i] for i in range(len(cfg.a_num))), config=cfg)


def naive_allocation(cfg: PointConfig) -> StableMatch:
    """Direct evaluation of the min-definition; the O(n^2) oracle."""
    a_sorted, b = sorted(cfg.a_num), cfg.b_num
    right = bisect.bisect_right
    # |B n [a, b_j]| = |B n (-inf, b_j]| - first, with first the b's below
    # a (a is no b), and |A n [a, b_j]| = |A n (-inf, b_j]| - |A n (-inf, a)|;
    # every copy of a tied b_j counts.  excess[j]: the two prefix counts' gap.
    excess = [right(b, x) - right(a_sorted, x) for x in b]
    tau = []
    for a in cfg.a_num:
        first = right(b, a)
        try:                    # the first b past a where both counts agree
            tau.append(excess.index(first - bisect.bisect_left(a_sorted, a),
                                    first))
        except ValueError:
            raise TruncationError(f"a-point {Fraction(a, cfg.q)} unmatched in "
                                  "naive evaluation") from None
    if len(set(tau)) != len(tau):
        # With ties the plain min-definition can reuse a b; resolve by the
        # sweep instead.
        raise ConfigError("naive evaluation requires tie-free configurations")
    return StableMatch(tau=tuple(tau), config=cfg)


def compute_N(cfg: PointConfig) -> dict:
    """Horizon N with tau(a_m) = b_m for all m >= N, via the minimum M of
    f(x) = |A n [b_1, x]| - |B n [b_1, x]| on [b_1, a_1], found in one merged
    sweep of the ascending a's and b's.  Returns {"N": int (1-based), "M": int}.
    """
    if not cfg.a_num or not cfg.b_num:
        raise ConfigError("need nonempty sequences")
    a_asc, b = cfg.a_num[::-1], cfg.b_num
    a1 = a_asc[-1]
    if a1 < b[0]:
        return {"N": 1, "M": 0}
    lo = bisect.bisect_left(a_asc, b[0])    # a's below b_1 never count
    ia, M = lo, 0
    # f falls only at a b, so M is the least f(b_j) over b_j < a_1.
    for j, x in enumerate(b, start=1):
        if x > a1:
            break
        while a_asc[ia] < x:
            ia += 1
        M = min(M, ia - lo - j)
    # Smallest n with |A n [b_1, b_n]| - n = M - 1.  Up to a_1 that count
    # minus n is at least f(b_n) >= M; past a_1 it is A - n for the A
    # a-points in [b_1, a_1], which hits M - 1 once, at n = A - M + 1 (that
    # b_n lies past a_1, else f(b_n) <= (A - 1) - n = M - 2).
    n = len(a_asc) - lo - M + 1
    if n <= len(b):
        return {"N": n, "M": M}
    raise TruncationError("b-truncation too short to reach f(b_n) = M - 1")
