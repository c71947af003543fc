"""Concave cost gauges: a fixed family of nonnegative concave functions with psi(0)=0.

The four families (fractional power, log1p, capped linear, t/(1+t)) are
concave by construction, so the tests' grid checks can only fail through
bugs, not through user input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ConfigError
from .measures import as_int

GAUGE_KINDS = ("power", "log1p", "capped", "rational")


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
        # psi as one float function of t > 0 (power's is complex below 0),
        # resolved once: eval_gauge and the window costs call it.  It is no
        # field, so equality and hashing see kind and param only, and so
        # does a pickle (__reduce__): lambdas do not pickle.
        p = float(self.param or 0)
        object.__setattr__(self, "_psi", {
            "power": lambda t: t ** p, "log1p": math.log1p,
            "capped": lambda t: p if p < t else t, "rational": lambda t: t / (1.0 + t),
        }[self.kind])

    def __reduce__(self):
        return Gauge, (self.kind, self.param)

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
                param = Fraction(as_int(num), as_int(den))
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
    return g._psi(t) if t != 0.0 else 0.0


def gauges_from_json(items: Iterable[dict] | None) -> tuple[Gauge, ...]:
    """A config's "gauges" list, or the default set when it is missing or empty."""
    return tuple(Gauge.from_json(x) for x in items) if items else default_gauges()
