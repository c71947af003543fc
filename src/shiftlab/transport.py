"""Transport matrices on the forward-looking polytope and the crossing-repair sweep.

A feasible matrix sends unit mass from each a_i (i <= N) forward to the b's,
with every b_j (j <= N) receiving unit mass.  Four points a_k < a_i < b_j < b_l
carrying transversal mass form a crossing; repairing it moves the overlap to
the uncrossed pairs and, by concavity of the gauge, never increases cost.
Points are integer numerators over q and masses exact rationals; floats
appear only at gauge evaluation, a gap (b - a) / q being one int division.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, FeasibilityError, SizeLimitError
from .gauges import Gauge, eval_gauge
from .rng import BitStream
from .stable_alloc import PointConfig, StableMatch, compute_N, stable_allocation


@dataclass
class TransportMatrix:
    """Sparse nonnegative rational matrix over a PointConfig window.

    Row/column indices are 0-based into the a- and b-points; the constraint window
    is rows i < N and columns j < N.
    """

    cfg: PointConfig
    N: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def copy(self) -> "TransportMatrix":
        return TransportMatrix(self.cfg, self.N, dict(self.entries))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def set(self, i: int, j: int, v: Fraction) -> None:
        if v == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = v

    def validate(self) -> None:
        """Raise FeasibilityError listing every violated constraint."""
        a, b = self.cfg.a_num, self.cfg.b_num
        bad = []
        rows, cols = defaultdict(Fraction), defaultdict(Fraction)
        for (i, j), v in self.entries.items():
            if v < 0:
                bad.append(("nonnegative", (i, j), v))
            if a[i] > b[j]:
                bad.append(("forward_looking", (i, j), v))
            rows[i] += v
            cols[j] += v
        for kind, sums in (("row_sum", rows), ("col_sum", cols)):
            bad += [(kind, i, sums[i] - 1) for i in range(self.N) if sums[i] != 1]
        if bad:
            raise FeasibilityError(f"{len(bad)} constraint violations", bad)

    def cost(self, g: Gauge) -> float:
        """Window cost with the double-count convention (pairs i,j < N twice)."""
        a, b, q = self.cfg.a_num, self.cfg.b_num, self.cfg.q
        total = 0.0
        for (i, j), v in self.entries.items():
            if v == 0:
                continue
            mult = (i < self.N) + (j < self.N)
            if mult:
                total += mult * float(v) * eval_gauge(g, (b[j] - a[i]) / q)
        return total

    def to_json(self) -> dict:
        trips = sorted(
            [[i, j, v.numerator, v.denominator] for (i, j), v in self.entries.items()])
        return {"N": self.N, "entries": trips}

    @classmethod
    def from_json(cls, cfg: PointConfig, obj: dict) -> "TransportMatrix":
        try:
            entries = {(int(i), int(j)): Fraction(int(p), int(q))
                       for i, j, p, q in obj["entries"]}
            N = int(obj["N"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed transport matrix: {obj!r}") from exc
        n_a, n_b = len(cfg.a_num), len(cfg.b_num)
        if not 1 <= N <= min(n_a, n_b):
            raise ConfigError(f"window N must be in [1, {min(n_a, n_b)}], got {N}")
        if any(not (0 <= i < n_a and 0 <= j < n_b) for i, j in entries):
            raise ConfigError(f"matrix entry outside the {n_a} x {n_b} points")
        return cls(cfg, N, entries)


@dataclass(frozen=True)
class Crossing:
    k: int
    i: int
    j: int
    l: int


@dataclass(frozen=True)
class CostReport:
    lhs: float
    rhs: float
    gauge: Gauge

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
                "gauge": self.gauge.to_json()}


def stable_indicator(cfg: PointConfig, N: int,
                     match: StableMatch | None = None) -> TransportMatrix:
    """The indicator matrix of the stable allocation, rows restricted to the window."""
    if match is None:
        match = stable_allocation(cfg)
    entries = {(i, match.tau[i]): Fraction(1) for i in range(N)}
    return TransportMatrix(cfg, N, entries)


def _is_crossing(pi: TransportMatrix, k: int, i: int, j: int, l: int) -> bool:
    a, b = pi.cfg.a_num, pi.cfg.b_num
    return (a[k] < a[i] < b[j] < b[l]
            and pi.get(k, j) > 0 and pi.get(i, l) > 0)


def find_crossing(pi: TransportMatrix) -> Crossing | None:
    """Next crossing in the prescribed four-level scan order.

    b_j left to right over the window; a_i < b_j right to left; a_k further
    left, right to left; b_l further right, left to right.  The last two
    scans run over the whole finite support (the finite stand-in for the
    limit steps).  Index lists replace cell probes; b_l does not depend on a_k.
    """
    positive = sorted(cell for cell, v in pi.entries.items() if v > 0)
    if not positive:
        return None
    n_rows = max(positive[-1][0] + 1, pi.N)
    row_cols: dict[int, list[int]] = defaultdict(list)     # l: pi(i, l) > 0
    col_rows: dict[int, list[int]] = defaultdict(list)     # k: pi(k, j) != 0
    for i, l in positive:
        row_cols[i].append(l)
    for k, j in sorted(pi.entries):
        if k < n_rows and pi.entries[k, j] != 0:
            col_rows[j].append(k)
    a, b = pi.cfg.a_num, pi.cfg.b_num
    for j, ks in sorted(col_rows.items()):
        for i, ls in row_cols.items():
            if a[i] >= b[j]:
                continue
            l = next((l for l in ls if l > j and b[l] > b[j]), None)
            if l is None:
                continue
            k = next((k for k in ks if k > i and a[k] < a[i]), None)
            if k is not None:
                return Crossing(k=k, i=i, j=j, l=l)
    return None


def repair_crossing(pi: TransportMatrix, c: Crossing) -> TransportMatrix:
    """Move delta = min(pi_kj, pi_il) to the uncrossed pairs (i,j) and (k,l)."""
    if not _is_crossing(pi, c.k, c.i, c.j, c.l):
        raise ConfigError(f"{c} is not a crossing of this matrix")
    out = pi.copy()
    delta = min(pi.get(c.k, c.j), pi.get(c.i, c.l))
    out.set(c.k, c.j, pi.get(c.k, c.j) - delta)
    out.set(c.i, c.l, pi.get(c.i, c.l) - delta)
    out.set(c.i, c.j, pi.get(c.i, c.j) + delta)
    out.set(c.k, c.l, pi.get(c.k, c.l) + delta)
    return out


def repair_sweep(pi: TransportMatrix, max_steps: int | None = None) -> dict:
    """Repair crossings until none remain or the step budget runs out.

    Returns {"matrix", "steps", "converged", "trace"} where trace holds the
    matrix after every repair (for cost-monotonicity checks).
    """
    n = max(len(pi.cfg.a_num), len(pi.cfg.b_num))
    if max_steps is None:
        max_steps = 10 * n ** 4
    trace = [pi]
    cur = pi
    steps = 0
    while steps < max_steps:
        c = find_crossing(cur)
        if c is None:
            return {"matrix": cur, "steps": steps, "converged": True,
                    "trace": trace}
        cur = repair_crossing(cur, c)
        trace.append(cur)
        steps += 1
    return {"matrix": cur, "steps": steps, "converged": False, "trace": trace}


def inequality_check(pi: TransportMatrix, g: Gauge) -> CostReport:
    """Both sides of the window inequality: pi-cost >= 2 sum psi(tau(a_i) - a_i)."""
    pi.validate()
    cfg = pi.cfg
    tau = stable_allocation(cfg).tau
    a, b, q = cfg.a_num, cfg.b_num, cfg.q
    total = 0.0
    for i in range(pi.N):        # not sum(): Python 3.12 compensates it
        total += eval_gauge(g, (b[tau[i]] - a[i]) / q)
    return CostReport(lhs=pi.cost(g), rhs=2.0 * total, gauge=g)


_PERMS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _perms(m: int, n: int) -> np.ndarray:
    if (m, n) not in _PERMS_CACHE:
        _PERMS_CACHE[m, n] = np.array(
            list(itertools.permutations(range(m), n)), dtype=np.int64)
    return _PERMS_CACHE[m, n]


def permutation_oracle(cfg: PointConfig, g: Gauge, N: int | None = None,
                       n_candidates: int | None = None) -> dict:
    """Exhaustive minimum over feasible window matchings (N <= 8).

    Default enumeration is over the square window (bijections of the N a's
    onto the N leftmost b's, the paper's constraint set with the identity
    tail); passing n_candidates > N widens the b-pool to injective
    forward-looking maps.
    """
    if N is None:
        N = compute_N(cfg)["N"]
    if N > 8:
        raise SizeLimitError(f"oracle limited to N <= 8, got {N}")
    m = N if n_candidates is None else n_candidates
    if m > 10:
        raise SizeLimitError(f"oracle limited to <= 10 b-candidates, got {m}")
    if m < N or m > len(cfg.b_num):
        raise ConfigError("b-candidate pool must cover the window")
    a = np.array([x / cfg.q for x in cfg.a_num[:N]])
    b = np.array([x / cfg.q for x in cfg.b_num[:m]])
    psi = np.full((N, m), np.inf)
    for i in range(N):
        for j in range(m):
            gap = b[j] - a[i]
            if gap > 0:
                psi[i, j] = eval_gauge(g, gap)
    sigmas = _perms(m, N)
    costs = psi[np.arange(N)[None, :], sigmas].sum(axis=1)
    best = int(np.argmin(costs))
    if not np.isfinite(costs[best]):
        raise FeasibilityError("no feasible matching in the window")
    return {"min_cost": float(costs[best]), "sigma": tuple(int(x) for x in sigmas[best])}


def sample_feasible_matrix(cfg: PointConfig, N: int, seed: int,
                           n_perturbations: int = 12) -> TransportMatrix:
    """Random feasible matrix: stable indicator plus random anti-repairs.

    Each perturbation picks two occupied cells (i, j), (k, l) with i < k and
    j < l (so a_k < a_i and b_j < b_l) and moves a random rational fraction
    of the available mass onto the crossed pairs (k, j), (i, l), preserving
    all constraints.  Deterministic in the seed.
    """
    pi = stable_indicator(cfg, N)
    rng = BitStream(seed, 0xFEA51B1E)
    a, b = cfg.a_num, cfg.b_num
    for _ in range(n_perturbations):
        occupied = sorted((i, j) for (i, j), v in pi.entries.items() if v > 0)
        cands = []
        for (i, j), (k, l) in itertools.combinations(occupied, 2):
            if i == k or j == l:        # sorted, so i < k from here on
                continue
            if j > l:
                continue
            # Anti-repair feasibility: both new cells must stay forward-looking.
            if a[k] < b[j] and a[i] < b[l] and a[k] < a[i] and b[j] < b[l]:
                cands.append((i, j, k, l))
        if not cands:
            continue
        i, j, k, l = cands[rng.uniform_index(len(cands))]
        avail = min(pi.get(i, j), pi.get(k, l))
        # Random rational delta in (0, avail] with a small denominator.
        num = rng.uniform_index(8) + 1
        delta = avail * Fraction(num, 8)
        if delta == 0:
            continue
        pi.set(i, j, pi.get(i, j) - delta)
        pi.set(k, l, pi.get(k, l) - delta)
        pi.set(k, j, pi.get(k, j) + delta)
        pi.set(i, l, pi.get(i, l) + delta)
    pi.validate()
    return pi


def random_interleaved_config(seed: int, n_pairs: int,
                              value_range: int = 1000) -> tuple[PointConfig, int]:
    """A random disjoint interleaved instance with enough padding for compute_N.

    Returns (config, N).
    """
    rng = BitStream(seed, 0xC0F19)
    values: set[int] = set()        # numerators over 4
    while len(values) < 2 * n_pairs:
        values.add(rng.uniform_index(4 * value_range))
    vals = sorted(values)
    labels = [(v, rng.uniform_index(2)) for v in vals]
    a_vals = [v for v, t in labels if t == 0]
    b_vals = [v for v, t in labels if t == 1]
    # Guarantee nonempty sides and right-padding so every a matches and the
    # f-function reaches its target.
    top = vals[-1]
    pad = len(a_vals) + 2
    b_vals += [top + 4 * k for k in range(1, pad + 1)]
    a_vals = sorted(a_vals, reverse=True) or [vals[0] - 4]
    cfg = PointConfig(tuple(a_vals), tuple(b_vals), 4)
    N = compute_N(cfg)["N"]
    if N > len(a_vals):
        # The window must be covered by the a-truncation; pad below b_1 (this
        # leaves f on [b_1, a_1], hence N, unchanged) and widen the b-padding
        # so every added a still matches.
        extra = N - len(a_vals)
        low = min(a_vals[-1], b_vals[0])
        a_vals += [low - 4 * k for k in range(1, extra + 1)]
        b_vals += [b_vals[-1] + 4 * k for k in range(1, extra + 1)]
        cfg = PointConfig(tuple(a_vals), tuple(b_vals), 4)
        N = compute_N(cfg)["N"]
    return cfg, N
