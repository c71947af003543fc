"""Concave cost gauges: a fixed family of nonnegative concave functions with psi(0)=0.

The four families (fractional power, log1p, capped linear, t/(1+t)) are
concave by construction, so grid checks can only fail through bugs, not
through user input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigError

GAUGE_KINDS = ("power", "log1p", "capped", "rational")

# Slack for float round-off in the grid checks; the properties themselves
# are exact for every built-in family.
_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class Gauge:
    """A concave gauge psi with psi(0) = 0.

    kind:
        "power"    -> psi(t) = t ** alpha, alpha in (0, 1]
        "log1p"    -> psi(t) = log(1 + t)
        "capped"   -> psi(t) = min(t, c), c > 0
        "rational" -> psi(t) = t / (1 + t)
    """

    kind: str
    param: Fraction | None = None

    def __post_init__(self):
        if self.kind not in GAUGE_KINDS:
            raise ConfigError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "power":
            if self.param is None or not (0 < self.param <= 1):
                raise ConfigError("power gauge needs exponent in (0, 1]")
        elif self.kind == "capped":
            if self.param is None or self.param <= 0:
                raise ConfigError("capped gauge needs a positive cap")
        elif self.param is not None:
            raise ConfigError(f"gauge {self.kind!r} takes no parameter")
        # eval_gauge reads the parameter as a float, converted once here.
        object.__setattr__(self, "_p", float(self.param or 0))

    def __call__(self, t: float) -> float:
        return eval_gauge(self, t)

    @property
    def label(self) -> str:
        if self.param is not None:
            return f"{self.kind}({float(self.param):g})"
        return self.kind

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.param is not None:
            obj["param"] = [self.param.numerator, self.param.denominator]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Gauge":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"not a gauge object: {obj!r}")
        param = obj.get("param")
        try:
            if isinstance(param, (list, tuple)):
                num, den = param
                param = Fraction(int(num), int(den))
            elif param is not None:
                param = Fraction(param).limit_denominator(10**9)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"malformed gauge parameter: {obj!r}") from exc
        return cls(kind=obj["kind"], param=param)


def power(alpha) -> Gauge:
    return Gauge("power", Fraction(alpha))


def log1p() -> Gauge:
    return Gauge("log1p")


def capped(c) -> Gauge:
    return Gauge("capped", Fraction(c))


def rational() -> Gauge:
    return Gauge("rational")


def default_gauges() -> tuple[Gauge, ...]:
    """One representative per family; the standard verification set."""
    return (power(Fraction(1, 2)), log1p(), capped(3), rational())


def eval_gauge(g: Gauge, t) -> float:
    """Evaluate psi(t) for t >= 0."""
    t = float(t)
    if t < 0:
        raise ConfigError(f"gauge argument must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    if g.kind == "power":
        return t ** g._p
    if g.kind == "log1p":
        return math.log1p(t)
    if g.kind == "capped":
        return min(t, g._p)
    return t / (1.0 + t)


def check_gauge_properties(g: Gauge, grid: Sequence[float]) -> dict:
    """Scan a sample grid for nonnegativity, midpoint concavity and subadditivity.

    Returns {"concave_ok", "subadditive_ok", "nonnegative_ok"}.  The scan is
    O(len(grid)^2) over all pairs.
    """
    if len(grid) == 0:
        raise ConfigError("grid must be nonempty")
    pts = sorted(float(t) for t in grid)
    if pts[0] < 0:
        raise ConfigError("grid points must be nonnegative")
    vals = [eval_gauge(g, t) for t in pts]
    nonneg = all(v >= 0.0 for v in vals)
    concave = True
    subadd = True
    for i, s in enumerate(pts):
        for j in range(i, len(pts)):
            t = pts[j]
            mid = eval_gauge(g, (s + t) / 2.0)
            if mid < (vals[i] + vals[j]) / 2.0 - _CHECK_TOL:
                concave = False
            if eval_gauge(g, s + t) > vals[i] + vals[j] + _CHECK_TOL:
                subadd = False
    return {
        "concave_ok": concave,
        "subadditive_ok": subadd,
        "nonnegative_ok": nonneg,
    }


def gauges_from_json(items: Iterable[dict]) -> tuple[Gauge, ...]:
    return tuple(Gauge.from_json(x) for x in items)
