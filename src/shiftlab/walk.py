"""Two-sided simple random walk and exact local-time accounting.

The walk is the Brownian surrogate: lattice spacing dx, time step dt = dx^2.
Local time at a site is its visit count; the additive functionals L^mu, L^nu
mix visit counts with rational measure weights, tracked as integer
numerators over the pair's common denominator q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Literal

import numpy as np

from .errors import ConfigError, HorizonExceededError
from .measures import DiscreteMeasure, MeasurePair, as_int
from .rng import BitStream, STREAM_BWD, STREAM_FWD, STREAM_START

# Horizon cap, checked before any path is allocated; configs use up to 2^18.
MAX_HORIZON_STEPS = 1 << 30


def _parse_fraction(x) -> Fraction:
    if isinstance(x, (list, tuple)):
        return Fraction(as_int(x[0]), as_int(x[1]))
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
        if not 0 <= self.seed < 1 << 63:
            raise ConfigError(f"seed must lie in [0, 2^63), got {self.seed}")
        for h in (self.horizon_fwd, self.horizon_bwd):
            if not 1 <= h <= MAX_HORIZON_STEPS:
                raise ConfigError(f"horizons must lie in [1, 2^30], got {h}")
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
                horizon_fwd=as_int(obj["horizon_fwd"]),
                horizon_bwd=as_int(obj["horizon_bwd"]),
                seed=as_int(obj["seed"]),
                start_law=start_law,
            )
        except (AttributeError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise ConfigError(f"malformed walk config: {obj!r}") from exc


def draw_start(law: DiscreteMeasure, stream: BitStream) -> int:
    """Inverse-CDF draw: u < F(site) exactly when floor(u q) < F(site) q."""
    if len(law.atoms) == 1:                # no draw: the stream stays unread
        return law.atoms[0][0]
    u = stream.uniform_index(law.denominator)
    for site, acc in law.cumulative():
        if u < acc * law.denominator:
            return site
    return law.atoms[-1][0]


class WalkPath:
    """Two independent one-sided walks glued at step 0.

    positions(n) for n in [-horizon_bwd, horizon_fwd].  The forward walk can
    be extended on demand; the underlying counter-based stream makes the
    extension agree with what a longer initial horizon would have produced.
    """

    def __init__(self, cfg: WalkConfig, replica: int = 0):
        self.cfg = cfg
        self.replica = replica
        self.start = draw_start(cfg.start_law,
                                BitStream(cfg.seed, replica, STREAM_START))
        self._fwd_stream = BitStream(cfg.seed, replica, STREAM_FWD)
        self.fwd = self._fwd_stream.take_steps(cfg.horizon_fwd)
        self.bwd = BitStream(cfg.seed, replica, STREAM_BWD).take_steps(cfg.horizon_bwd)

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
            self.__dict__.pop("pos_fwd", None)

    @cached_property
    def pos_fwd(self) -> np.ndarray:
        """positions(0..horizon_fwd) as int64."""
        return np.concatenate([[self.start],
                               self.start + np.cumsum(self.fwd, dtype=np.int64)])

    @cached_property
    def pos_bwd(self) -> np.ndarray:
        """positions(0, -1, ..., -horizon_bwd) as int64."""
        return np.concatenate([[self.start],
                               self.start + np.cumsum(self.bwd, dtype=np.int64)])

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

    def to_csv(self, fobj) -> None:
        fobj.write("step,position\n")
        for n in range(-self.horizon_bwd, self.horizon_fwd + 1):
            fobj.write(f"{n},{self.positions(n)}\n")


def sample_walk(cfg: WalkConfig, replica: int = 0) -> WalkPath:
    """Deterministic function of (seed, replica, horizons, start_law)."""
    return WalkPath(cfg, replica)


Functional = Literal["mu", "nu", "mu+nu"]


def site_weights(pos: np.ndarray, m: DiscreteMeasure, q: int) -> np.ndarray:
    """Weight numerator over q of ``m`` at each position of ``pos``."""
    w = np.zeros(len(pos), dtype=np.int64)
    for site, x in m.atoms:
        w[pos == site] = int(x * q)
    return w


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
        self.pos_all = path.full_positions()
        self.wmu = site_weights(self.pos_all, pair.mu, self.q)
        self.wnu = site_weights(self.pos_all, pair.nu, self.q)
        # Exclusive prefix sums: mass over steps [s, t] = P[idx(t)+1] - P[idx(s)].
        self.Pmu = np.concatenate([[0], np.cumsum(self.wmu, dtype=np.int64)])
        self.Pnu = np.concatenate([[0], np.cumsum(self.wnu, dtype=np.int64)])
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
        return Fraction(self.range_mass(prefix, min(n, 0), max(n, 0)), self.q)

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

    def to_csv(self, fobj) -> None:
        fobj.write("step,Lmu,Lnu,D\n")
        for n in range(-self.hb, self.hf + 1):
            fobj.write(f"{n},{self.Lmu(n)},{self.Lnu(n)},{self.D(n)}\n")


def build_ledger(path: WalkPath, pair: MeasurePair) -> LocalTimeLedger:
    return LocalTimeLedger(path, pair)


class EventLedger:
    """The mass-carrying steps of a path on [-hb, hf], nothing else.

    Built from atom visits: increasing signed steps and their sites, on
    [0, steps[-1]] by default.  ``events`` has the contract of
    ``LocalTimeLedger.events``, so the ledger functions run on either one.
    """

    def __init__(self, steps: np.ndarray, sites: np.ndarray, pair: MeasurePair,
                 hb: int = 0, hf: int | None = None):
        self.steps, self.pair, self.q = steps, pair, pair.denominator
        self.hb, self.hf = hb, int(steps[-1]) if hf is None else hf
        self.wmu = site_weights(sites, pair.mu, self.q)
        self.wnu = site_weights(sites, pair.nu, self.q)

    def events(self, left: int, right: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps, wmu, wnu) of the steps in [left, right] that carry mass."""
        if left < -self.hb or right > self.hf:
            raise HorizonExceededError(
                f"steps [{left}, {right}] outside [{-self.hb}, {self.hf}]",
                horizon=self.hf)
        lo, hi = np.searchsorted(self.steps, (left, right + 1))
        return self.steps[lo:hi], self.wmu[lo:hi], self.wnu[lo:hi]


def inverse_local_time(ledger: LocalTimeLedger | EventLedger,
                       functional: Functional, r: Fraction | int) -> int:
    """Generalized inverse S^r of the chosen additive functional.

    For r > 0 returns the first step n >= 0 whose cumulated mass over [0, n]
    reaches r (so the attained mass lies in [r, r + w), w the largest atom
    weight of mu and nu).  For r = 0 returns the last step before the
    functional first increases.  Negative r mirrors the construction in
    backward time.  Runs on the ``events`` of either ledger.
    """
    r = Fraction(r)
    side, horizon = ("forward", ledger.hf) if r >= 0 else ("backward", ledger.hb)
    steps, wmu, wnu = (ledger.events(0, horizon) if r >= 0 else
                       (a[::-1] for a in ledger.events(-horizon, 0)))
    weights = {"mu": wmu, "nu": wnu, "mu+nu": wmu + wnu}
    if functional not in weights:
        raise ConfigError(f"unknown functional {functional!r}")
    cum = np.cumsum(weights[functional])
    # r = 0 looks for the first step that carries mass.
    hit = np.searchsorted(cum, max(math.ceil(abs(r) * ledger.q), 1))
    if r == 0:
        return int(steps[hit]) - 1 if hit < len(cum) else ledger.hf
    if hit == len(cum):
        raise HorizonExceededError(
            f"local-time level not attained within {side} horizon",
            horizon=horizon,
            attained=Fraction(int(weights[functional].sum()), ledger.q))
    return int(steps[hit])
