"""Discrete stable allocation: tau(a) = min{b > a : |B n [a,b]| = |A n [a,b]|}.

The map is parenthesis matching: scanning the merged point set left to
right, every a opens and every b closes the most recent unmatched a.  The
sweep is the balancing kernel ``parenthesis_match`` of
``shiftlab.embedding`` run on the points as one-slot events.  The
module also computes the horizon N through the integer step function f, the
local-time quantile discretization of an excursion, and the convergence
harness comparing the discretized allocation tau_n against tau*.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, TruncationError
from .embedding import compute_tau_star, mu_charged_steps, parenthesis_match
from .walk import LocalTimeLedger


@dataclass(frozen=True)
class PointConfig:
    """Finite truncations of a_1 > a_2 > ... and b_1 < b_2 < ... (disjoint).

    ``allow_ties`` admits repeated values inside one sequence (multiset
    semantics for quantile configurations with atoms); cross-sequence values
    must always be distinct.
    """

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    allow_ties: bool = False

    def __post_init__(self):
        cmp = (lambda x, y: x < y) if self.allow_ties else (lambda x, y: x <= y)
        for i in range(1, len(self.a)):
            if cmp(self.a[i - 1], self.a[i]):
                raise ConfigError("a-sequence must be decreasing")
        for j in range(1, len(self.b)):
            if cmp(self.b[j], self.b[j - 1]):
                raise ConfigError("b-sequence must be increasing")
        if set(self.a) & set(self.b):
            raise ConfigError("a- and b-sets must be disjoint")

    @classmethod
    def make(cls, a: Sequence, b: Sequence, allow_ties: bool = False) -> "PointConfig":
        return cls(tuple(Fraction(x) for x in a),
                   tuple(Fraction(x) for x in b), allow_ties)

    def to_json(self) -> dict:
        return {"a": [str(x) for x in self.a], "b": [str(x) for x in self.b]}

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        try:
            return cls.make(obj["a"], obj["b"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed point config: {obj!r}") from exc


@dataclass(frozen=True)
class StableMatch:
    """tau as an index map: tau[i] = j means tau(a_{i+1}) = b_{j+1} (0-based)."""

    tau: tuple[int, ...]
    config: PointConfig

    def pairs(self) -> list[tuple[Fraction, Fraction]]:
        return [(self.config.a[i], self.config.b[j]) for i, j in enumerate(self.tau)]

    def to_json(self) -> dict:
        return {
            "tau": list(self.tau),
            "pairs": [[str(x), str(y)] for x, y in self.pairs()],
        }


@dataclass(frozen=True)
class FFunction:
    """f(x) = |A n [b_1, x]| - |B n [b_1, x]| as breakpoints on [b_1, a_1]."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    minimum: int


def stable_allocation(cfg: PointConfig) -> StableMatch:
    """Match every a-point via the left-to-right parenthesis sweep.

    Raises TruncationError when some a-point has no balancing b within the
    truncation (its tau would depend on unseen points).
    """
    # Sorted as (x, kind, idx): at equal values (ties within one sequence)
    # process a's before b's and later a-indices (further left in the
    # infinite order) last, so the LIFO pop picks the earliest-index a among
    # ties.
    events = sorted([(x, 0, i) for i, x in enumerate(cfg.a)]
                    + [(x, 1, j) for j, x in enumerate(cfg.b)])
    pairs, unmatched = parenthesis_match(
        [idx for _, _, idx in events],
        [1 - kind for _, kind, _ in events],        # an a opens one slot
        [kind for _, kind, _ in events])            # a b closes one
    if unmatched:
        raise TruncationError(
            f"a-points at indices {sorted(unmatched)} unmatched; "
            "extend the b-truncation")
    tau = dict(pairs)
    return StableMatch(tau=tuple(tau[i] for i in range(len(cfg.a))), config=cfg)


def naive_allocation(cfg: PointConfig) -> StableMatch:
    """Direct evaluation of the min-definition; the O(n^2 log n) oracle."""
    a_sorted = sorted(cfg.a)
    b_sorted = list(cfg.b)

    def count_in(points, lo, hi):
        return bisect.bisect_right(points, hi) - bisect.bisect_left(points, lo)

    tau = []
    for i, a in enumerate(cfg.a):
        found = None
        for j, b in enumerate(cfg.b):
            if b > a and count_in(b_sorted, a, b) == count_in(a_sorted, a, b):
                found = j
                break
        if found is None:
            raise TruncationError(f"a-point {a} unmatched in naive evaluation")
        tau.append(found)
    if len(set(tau)) != len(tau):
        # With ties the plain min-definition can reuse a b; resolve by the
        # sweep instead.
        raise ConfigError("naive evaluation requires tie-free configurations")
    return StableMatch(tau=tuple(tau), config=cfg)


def compute_N(cfg: PointConfig) -> dict:
    """Horizon N with tau(a_m) = b_m for all m >= N, via min of f on [b_1, a_1].

    Returns {"N": int (1-based), "M": int, "f": FFunction}.
    """
    if not cfg.a or not cfg.b:
        raise ConfigError("need nonempty sequences")
    a1, b1 = cfg.a[0], cfg.b[0]
    if a1 < b1:
        f = FFunction(breakpoints=(b1,), values=(0,), minimum=0)
        return {"N": 1, "M": 0, "f": f}
    pts = sorted(p for p in set(cfg.a) | set(cfg.b) if b1 <= p <= a1)
    a_sorted = sorted(cfg.a)
    b_sorted = list(cfg.b)
    values = []
    for x in pts:
        fa = bisect.bisect_right(a_sorted, x) - bisect.bisect_left(a_sorted, b1)
        fb = bisect.bisect_right(b_sorted, x) - bisect.bisect_left(b_sorted, b1)
        values.append(fa - fb)
    M = min(values)
    f = FFunction(breakpoints=tuple(pts), values=tuple(values), minimum=M)
    # Smallest n with f(b_n) = M - 1; f decreases by unit jumps beyond a_1.
    for n, b in enumerate(cfg.b, start=1):
        fa = bisect.bisect_right(a_sorted, b) - bisect.bisect_left(a_sorted, b1)
        if fa - n == M - 1:
            return {"N": n, "M": M, "f": f}
    raise TruncationError("b-truncation too short to reach f(b_n) = M - 1")


def _quantile_points(steps, weights, q: int, thresholds, last: Fraction
                     ) -> list[Fraction]:
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


def quantile_discretize(ledger: LocalTimeLedger, exc, n: int) -> dict:
    """n-quantile points of ell^mu (descending) and ell^nu (ascending) in exc.

    Quantile thresholds are spaced exactly M/n apart in rational arithmetic;
    an atom larger than M/n yields repeated points at its step (left to
    right).  Beyond the excursion the sequences are padded with mesh
    (right - left)/n so the padding vanishes as n grows.

    Returns {"config", "g_n", "h_n", "n", "mesh"} where g_n/h_n are the
    rounding maps a -> a_i, b -> b_j (callables on step values).
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
    a_pts = _quantile_points(steps[before][::-1], wmu[before][::-1], q,
                             thresholds, left)      # a_n = b_0
    # Ascending nu-quantiles: mass((left, b_j]) >= j*M/n, b_n = right.
    b_pts = _quantile_points(steps, wnu, q, thresholds, right)  # b_n = a_0

    mesh = (right - left) / n
    pad = 2 * n + 4
    a_full = a_pts + [left - k * mesh for k in range(1, pad + 1)]
    b_full = b_pts + [right + k * mesh for k in range(1, pad + 1)]
    cfg = PointConfig(tuple(a_full), tuple(b_full), allow_ties=True)

    a_desc = a_pts              # a_1 >= a_2 >= ... >= a_n = left
    b_asc = b_pts

    def g_n(aval) -> Fraction:
        """a -> a_i for a in [a_i, a_{i-1}); the largest quantile point <= a.

        Atoms sit exactly on quantile points, so the rounding cell is closed
        at its own point (an atom must round to itself, not to the next cell
        down, or the rounding error would never vanish).
        """
        aval = Fraction(aval)
        for ai in a_desc:
            if ai <= aval:
                return ai
        return a_desc[-1]

    def h_n(bval) -> Fraction:
        """b -> b_j for b in (b_{j-1}, b_j]; b_0 is the left endpoint."""
        bval = Fraction(bval)
        prev = left
        for bj in b_asc:
            if prev < bval <= bj:
                return bj
            prev = bj
        return b_asc[-1]

    return {"config": cfg, "g_n": g_n, "h_n": h_n, "n": n, "mesh": mesh,
            "a": tuple(a_desc), "b": tuple(b_asc)}


def tau_n_convergence_test(ledger: LocalTimeLedger, exc,
                           n_list: Sequence[int]) -> dict:
    """sup |tau_n(g_n(a)) - tau*(a)| over mu-charged a in exc, per n.

    Distances are in steps; the report also carries the g_n rounding error
    sup |a - g_n(a)| so both convergence claims can be checked on fixtures.
    """
    charged = [int(s) for s in mu_charged_steps(ledger, exc.left, exc.right)]
    tau_star = {s: compute_tau_star(ledger, s) for s in charged}
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
            # Among tied quantile copies the lowest index is matched last in
            # the sweep, which is the per-step tau* analogue at saturation.
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
