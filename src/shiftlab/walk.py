"""Two-sided simple random walk and exact local-time accounting.

The walk is the Brownian surrogate: lattice spacing dx, time step dt = dx^2.
Local time at a site is its visit count; the additive functionals L^mu, L^nu
mix visit counts with rational measure weights, tracked as integer
numerators over the pair's common denominator q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .errors import ConfigError, HorizonExceededError
from .measures import DiscreteMeasure, MeasurePair
from .rng import BitStream, STREAM_BWD, STREAM_FWD, STREAM_START


def _parse_fraction(x) -> Fraction:
    if isinstance(x, (list, tuple)):
        return Fraction(int(x[0]), int(x[1]))
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


@dataclass(frozen=True)
class WalkConfig:
    dx: Fraction
    horizon_fwd: int
    horizon_bwd: int
    seed: int
    start_law: DiscreteMeasure

    def __post_init__(self):
        if self.dx <= 0:
            raise ConfigError("dx must be positive")
        if self.horizon_fwd < 1 or self.horizon_bwd < 1:
            raise ConfigError("horizons must be >= 1")
        if not self.start_law.is_probability:
            raise ConfigError("start_law must be a probability measure")

    @property
    def dt(self) -> Fraction:
        return self.dx * self.dx

    @classmethod
    def from_json(cls, obj: dict, start_law: DiscreteMeasure) -> "WalkConfig":
        try:
            return cls(
                dx=_parse_fraction(obj.get("dx", 1)),
                horizon_fwd=int(obj["horizon_fwd"]),
                horizon_bwd=int(obj["horizon_bwd"]),
                seed=int(obj["seed"]),
                start_law=start_law,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed walk config: {obj!r}") from exc


def draw_start(law: DiscreteMeasure, stream: BitStream) -> int:
    """Inverse-CDF draw from an atomic law, exact in rational arithmetic."""
    u = stream.uniform_fraction()
    for site, acc in law.cumulative():
        if u < acc:
            return site
    return law.atoms[-1][0]


class WalkPath:
    """Two independent one-sided walks glued at step 0.

    positions(n) for n in [-horizon_bwd, horizon_fwd].  Both directions can
    be extended on demand; the underlying counter-based streams make the
    extension agree with what a longer initial horizon would have produced.
    """

    def __init__(self, cfg: WalkConfig, replica: int = 0):
        self.cfg = cfg
        self.replica = replica
        self._start_stream = BitStream(cfg.seed, replica, STREAM_START)
        self.start = draw_start(cfg.start_law, self._start_stream)
        self._fwd_stream = BitStream(cfg.seed, replica, STREAM_FWD)
        self._bwd_stream = BitStream(cfg.seed, replica, STREAM_BWD)
        self.fwd = self._fwd_stream.take_steps(cfg.horizon_fwd)
        self.bwd = self._bwd_stream.take_steps(cfg.horizon_bwd)
        self._pos_fwd: np.ndarray | None = None
        self._pos_bwd: np.ndarray | None = None

    @property
    def horizon_fwd(self) -> int:
        return len(self.fwd)

    @property
    def horizon_bwd(self) -> int:
        return len(self.bwd)

    def extend_fwd(self, new_horizon: int) -> None:
        if new_horizon > len(self.fwd):
            extra = self._fwd_stream.take_steps(new_horizon - len(self.fwd))
            self.fwd = np.concatenate([self.fwd, extra])
            self._pos_fwd = None

    def extend_bwd(self, new_horizon: int) -> None:
        if new_horizon > len(self.bwd):
            extra = self._bwd_stream.take_steps(new_horizon - len(self.bwd))
            self.bwd = np.concatenate([self.bwd, extra])
            self._pos_bwd = None

    @property
    def pos_fwd(self) -> np.ndarray:
        """positions(0..horizon_fwd) as int64."""
        if self._pos_fwd is None or len(self._pos_fwd) != len(self.fwd) + 1:
            out = np.empty(len(self.fwd) + 1, dtype=np.int64)
            out[0] = self.start
            np.cumsum(self.fwd, out=out[1:], dtype=np.int64)
            out[1:] += self.start
            self._pos_fwd = out
        return self._pos_fwd

    @property
    def pos_bwd(self) -> np.ndarray:
        """positions(0, -1, ..., -horizon_bwd) as int64."""
        if self._pos_bwd is None or len(self._pos_bwd) != len(self.bwd) + 1:
            out = np.empty(len(self.bwd) + 1, dtype=np.int64)
            out[0] = self.start
            np.cumsum(self.bwd, out=out[1:], dtype=np.int64)
            out[1:] += self.start
            self._pos_bwd = out
        return self._pos_bwd

    def positions(self, n: int) -> int:
        if n >= 0:
            if n > self.horizon_fwd:
                raise HorizonExceededError("step beyond forward horizon",
                                           horizon=self.horizon_fwd)
            return int(self.pos_fwd[n])
        if -n > self.horizon_bwd:
            raise HorizonExceededError("step beyond backward horizon",
                                       horizon=self.horizon_bwd)
        return int(self.pos_bwd[-n])

    def full_positions(self) -> np.ndarray:
        """positions over signed steps -hb..hf as one array (index n + hb)."""
        return np.concatenate([self.pos_bwd[:0:-1], self.pos_fwd])

    def increment(self, n: int) -> int:
        """positions(n) - positions(n-1)."""
        return self.positions(n) - self.positions(n - 1)

    def to_csv(self, fobj) -> None:
        fobj.write("step,position\n")
        for n in range(-self.horizon_bwd, self.horizon_fwd + 1):
            fobj.write(f"{n},{self.positions(n)}\n")


def sample_walk(cfg: WalkConfig, replica: int = 0) -> WalkPath:
    """Deterministic function of (seed, replica, horizons, start_law)."""
    return WalkPath(cfg, replica)


Functional = Literal["mu", "nu", "mu+nu"]


class LocalTimeLedger:
    """Per-site visit counts and the functionals L^mu, L^nu, D = L^mu - L^nu.

    Internally everything is an integer-numerator prefix sum over the signed
    step range; public accessors return exact Fractions.
    """

    def __init__(self, path: WalkPath, pair: MeasurePair):
        self.path = path
        self.pair = pair
        self.q = pair.denominator
        self.hb = path.horizon_bwd
        self.hf = path.horizon_fwd
        pos = path.full_positions()
        self.pos_all = pos
        m = len(pos)
        wmu = np.zeros(m, dtype=np.int64)
        wnu = np.zeros(m, dtype=np.int64)
        for site, w in pair.mu.atoms:
            wmu[pos == site] = int(w * self.q)
        for site, w in pair.nu.atoms:
            wnu[pos == site] = int(w * self.q)
        self.wmu = wmu
        self.wnu = wnu
        # Exclusive prefix sums: mass over steps [s, t] = P[idx(t)+1] - P[idx(s)].
        self.Pmu = np.concatenate([[0], np.cumsum(wmu, dtype=np.int64)])
        self.Pnu = np.concatenate([[0], np.cumsum(wnu, dtype=np.int64)])
        self.X = self.Pmu - self.Pnu

    def idx(self, n: int) -> int:
        i = n + self.hb
        if i < 0 or i >= len(self.pos_all):
            raise HorizonExceededError(f"step {n} outside ledger range")
        return i

    def events(self, left: int, right: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps, wmu, wnu) of the steps in [left, right] that carry mass."""
        lo, hi = self.idx(left), self.idx(right) + 1
        rel = np.flatnonzero(self.wmu[lo:hi] + self.wnu[lo:hi])
        return rel + left, self.wmu[lo + rel], self.wnu[lo + rel]

    def range_mass(self, prefix: np.ndarray, s: int, t: int) -> int:
        """Integer numerator of the functional mass over steps [s, t]."""
        if s > t:
            raise ConfigError("empty step range")
        return int(prefix[self.idx(t) + 1] - prefix[self.idx(s)])

    def visits(self, x: int, n: int) -> int:
        if n >= 0:
            seg = self.pos_all[self.idx(0):self.idx(n) + 1]
        else:
            seg = self.pos_all[self.idx(n):self.idx(0) + 1]
        return int(np.count_nonzero(seg == x))

    def _functional(self, prefix: np.ndarray, n: int) -> Fraction:
        if n >= 0:
            return Fraction(self.range_mass(prefix, 0, n), self.q)
        return Fraction(self.range_mass(prefix, n, 0), self.q)

    def Lmu(self, n: int) -> Fraction:
        return self._functional(self.Pmu, n)

    def Lnu(self, n: int) -> Fraction:
        return self._functional(self.Pnu, n)

    def D(self, n: int) -> Fraction:
        return self.Lmu(n) - self.Lnu(n)

    # C(t) = shifted inclusive prefix of the difference process; comparisons
    # of C values express all interval-balance conditions.
    def C(self, t: int) -> int:
        return int(self.X[self.idx(t) + 1])

    def C_base(self) -> int:
        """C(-1): reference value so that D(n) = (C(n) - C(-1)) / q for n >= 0."""
        return int(self.X[self.idx(0)])

    @property
    def max_atom(self) -> Fraction:
        weights = [w for _, w in self.pair.mu.atoms] + [w for _, w in self.pair.nu.atoms]
        return max(weights) if weights else Fraction(0)

    def prefix_for(self, functional: Functional) -> np.ndarray:
        if functional == "mu":
            return self.Pmu
        if functional == "nu":
            return self.Pnu
        if functional == "mu+nu":
            return self.Pmu + self.Pnu
        raise ConfigError(f"unknown functional {functional!r}")

    def to_csv(self, fobj) -> None:
        fobj.write("step,Lmu,Lnu,D\n")
        for n in range(-self.hb, self.hf + 1):
            fobj.write(f"{n},{self.Lmu(n)},{self.Lnu(n)},{self.D(n)}\n")


def build_ledger(path: WalkPath, pair: MeasurePair) -> LocalTimeLedger:
    return LocalTimeLedger(path, pair)


def inverse_local_time(ledger: LocalTimeLedger, functional: Functional,
                       r: Fraction | int) -> int:
    """Generalized inverse S^r of the chosen additive functional.

    For r > 0 returns the first step n >= 0 whose cumulated mass over [0, n]
    reaches r (so the attained mass lies in [r, r + max_atom)).  For r = 0
    returns the last step before the functional first increases.  Negative r
    mirrors the construction in backward time.
    """
    r = Fraction(r)
    prefix = ledger.prefix_for(functional)
    i0 = ledger.idx(0)
    if r >= 0:
        cum = prefix[i0 + 1:] - prefix[i0]          # mass over [0, n]
        if r == 0:
            above = np.flatnonzero(cum >= 1)
            return int(above[0]) - 1 if above.size else ledger.hf
        threshold = -((-r * ledger.q).__floor__())  # ceil(r * q)
        hit = np.searchsorted(cum, threshold, side="left")
        if hit >= len(cum) or cum[-1] < threshold:
            raise HorizonExceededError(
                "local-time level not attained within forward horizon",
                horizon=ledger.hf, attained=Fraction(int(cum[-1]), ledger.q))
        return int(hit)
    # r < 0: cumulated mass over [n, 0] as n decreases.
    cumb = prefix[i0 + 1] - prefix[i0::-1]          # index k -> mass over [-k, 0]
    threshold = -((r * ledger.q).__floor__())       # ceil(|r| * q)
    hits = np.flatnonzero(cumb >= threshold)
    if hits.size == 0:
        raise HorizonExceededError(
            "local-time level not attained within backward horizon",
            horizon=ledger.hb, attained=Fraction(int(cumb[-1]), ledger.q))
    return -int(hits[0])
