"""Transport matrices on the forward-looking polytope and the crossing-repair sweep.

A feasible matrix sends unit mass from each a_i (i <= N) forward to the b's,
with every b_j (j <= N) receiving unit mass.  Four points a_k < a_i < b_j < b_l
carrying transversal mass form a crossing; repairing it moves the overlap to
the uncrossed pairs and, by concavity of the gauge, never increases cost.
Points are integer numerators over q and masses integer numerators over
mass_q; floats appear only at gauge evaluation and cost, where a gap
(b - a) / q and a mass v / mass_q are one int division each.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError, FeasibilityError
from .gauges import Gauge, eval_gauge
from .measures import as_int, as_rational, reading
from .rng import BitStream
from .stable_alloc import PointConfig, StableMatch, compute_N, stable_allocation


@dataclass
class TransportMatrix:
    """Sparse nonnegative rational matrix over a PointConfig window.

    Row/column indices are 0-based into the a- and b-points; the constraint window
    is rows i < N and columns j < N.  Masses are integer numerators over one
    denominator ``mass_q``, kept in lowest terms, so equal matrices have equal
    ``entries``.
    """

    cfg: PointConfig
    N: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    mass_q: int = 1

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def moved(self, i: int, j: int, k: int, l: int, delta: int,
              scale: int = 1) -> "TransportMatrix":
        """Masses over mass_q * scale with delta added at (i, j), (k, l) and
        taken from (k, j), (i, l); a new matrix in lowest terms."""
        e = {c: v * scale for c, v in self.entries.items()}
        for cell, d in (((i, j), delta), ((k, l), delta),
                        ((k, j), -delta), ((i, l), -delta)):
            e[cell] = e.get(cell, 0) + d
        q = self.mass_q * scale
        g = math.gcd(q, *e.values())
        return TransportMatrix(self.cfg, self.N,
                               {c: v // g for c, v in e.items() if v}, q // g)

    def validate(self) -> None:
        """Raise FeasibilityError listing every violated constraint."""
        a, b, q = self.cfg.a_num, self.cfg.b_num, self.mass_q
        bad = []
        rows, cols = defaultdict(int), defaultdict(int)
        for (i, j), v in self.entries.items():
            if v < 0:
                bad.append(("nonnegative", (i, j), Fraction(v, q)))
            if a[i] > b[j]:
                bad.append(("forward_looking", (i, j), Fraction(v, q)))
            rows[i] += v
            cols[j] += v
        for kind, sums in (("row_sum", rows), ("col_sum", cols)):
            bad += [(kind, i, Fraction(sums[i] - q, q))
                    for i in range(self.N) if sums[i] != q]
        if bad:
            raise FeasibilityError(f"{len(bad)} constraint violations", bad)

    def cost(self, g: Gauge) -> float:
        """Window cost with the double-count convention (pairs i,j < N twice)."""
        a, b, q, N = self.cfg.a_num, self.cfg.b_num, self.cfg.q, self.N
        mq, psi = self.mass_q, g._psi   # psi is eval_gauge above 0
        total = 0.0
        for (i, j), v in self.entries.items():
            mult = (i < N) + (j < N)
            if v and mult:
                t = (b[j] - a[i]) / q
                total += mult * (v / mq) * (psi(t) if t > 0 else eval_gauge(g, t))
        return total

    def to_json(self) -> dict:
        fr = {c: Fraction(v, self.mass_q) for c, v in self.entries.items()}
        trips = sorted([i, j, f.numerator, f.denominator] for (i, j), f in fr.items())
        return {"N": self.N, "entries": trips}

    @classmethod
    def from_json(cls, cfg: PointConfig, obj: dict) -> "TransportMatrix":
        with reading("transport matrix", obj):
            masses = {(as_int(i), as_int(j)): as_rational(pq)
                      for i, j, *pq in obj["entries"]}
            N = as_int(obj["N"])
        n_a, n_b = len(cfg.a_num), len(cfg.b_num)
        if not 1 <= N <= min(n_a, n_b):
            raise ConfigError(f"window N must be in [1, {min(n_a, n_b)}], got {N}")
        if any(not (0 <= i < n_a and 0 <= j < n_b) for i, j in masses):
            raise ConfigError(f"matrix entry outside the {n_a} x {n_b} points")
        # The lcm of reduced denominators leaves the numerators in lowest terms.
        mass_q = math.lcm(*(f.denominator for f in masses.values()))
        return cls(cfg, N, {c: f.numerator * (mass_q // f.denominator)
                            for c, f in masses.items()}, mass_q)


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
    entries = {(i, match.tau[i]): 1 for i in range(N)}
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
    row_cols: dict[int, list[int]] = {}     # l: pi(i, l) > 0
    col_rows: dict[int, list[int]] = {}     # k: pi(k, j) != 0
    for (i, j), v in sorted(pi.entries.items()):
        if v > 0:
            row_cols.setdefault(i, []).append(j)
        if v:
            col_rows.setdefault(j, []).append(i)
    if not row_cols:
        return None
    n_rows = max(max(row_cols) + 1, pi.N)
    a, b = pi.cfg.a_num, pi.cfg.b_num
    for j in sorted(col_rows):
        ks, bj = col_rows[j], b[j]
        for i, ls in row_cols.items():
            ai = a[i]
            if ai >= bj:
                continue
            for l in ls:
                if l > j and b[l] > bj:     # the first such l; then the k's
                    for k in ks:
                        if k >= n_rows:     # where the cell scan's rows end
                            break
                        if k > i and a[k] < ai:
                            return Crossing(k=k, i=i, j=j, l=l)
                    break
    return None


def repair_crossing(pi: TransportMatrix, c: Crossing) -> TransportMatrix:
    """Move delta = min(pi_kj, pi_il) to the uncrossed pairs (i,j) and (k,l)."""
    if not _is_crossing(pi, c.k, c.i, c.j, c.l):
        raise ConfigError(f"{c} is not a crossing of this matrix")
    return pi.moved(c.i, c.j, c.k, c.l, min(pi.get(c.k, c.j), pi.get(c.i, c.l)))


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
    psi, total = g._psi, 0.0
    for i in range(pi.N):        # not sum(): Python 3.12 compensates it
        t = (b[tau[i]] - a[i]) / q
        total += psi(t) if t > 0 else eval_gauge(g, t)
    return CostReport(lhs=pi.cost(g), rhs=2.0 * total, gauge=g)


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
        # Random delta in (0, avail]: num/8 of it, over eight times mass_q.
        num = rng.uniform_index(8) + 1
        pi = pi.moved(i, j, k, l, -min(pi.get(i, j), pi.get(k, l)) * num, scale=8)
    rng.release()
    pi.validate()
    return pi


_VALUE_RANGE = 1000        # points are multiples of 1/4 in [0, _VALUE_RANGE)


def random_interleaved_config(seed: int, n_pairs: int) -> tuple[PointConfig, int]:
    """A random disjoint interleaved instance with enough padding for compute_N.

    Returns (config, N).
    """
    rng = BitStream(seed, 0xC0F19)
    values: set[int] = set()        # numerators over 4
    while len(values) < 2 * n_pairs:
        # Each draw adds at most one value: the deficit never over-reads.
        values.update(rng.uniform_index(4 * _VALUE_RANGE, 2 * n_pairs - len(values)))
    vals = sorted(values)
    labels = list(zip(vals, rng.uniform_index(2, len(vals))))
    rng.release()
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
