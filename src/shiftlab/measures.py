"""Finitely supported measures on the lattice with exact rational weights."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import ConfigError, InvariantError


def as_int(x) -> int:
    """``int(x)`` for an input value, refusing a boolean or a fractional number."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def as_rational(x) -> Fraction:
    """An input value as a Fraction: an int, a "p/q" or decimal string, a [p, q]
    pair of integers, or a float, read by its decimal text (0.1 is 1/10)."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a number")
    if isinstance(x, (list, tuple)):
        p, q = x
        return Fraction(as_int(p), as_int(q))
    return Fraction(str(x) if isinstance(x, float) else x)


@contextmanager
def reading(what: str, obj):
    """Reads of the input ``obj`` in the block raise a ConfigError that names
    ``what`` for any error of a malformed value."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed {what}: {obj!r}") from exc


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported (sub-)probability measure on lattice sites.

    Sites are lattice integers (physical position = site * dx).  All weights
    are positive integer multiples of 1/denominator; this keeps every
    local-time increment exactly representable.
    """

    atoms: tuple[tuple[int, Fraction], ...]
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ConfigError("denominator must be a positive integer")
        last = None
        for site, w in self.atoms:
            if last is not None and site <= last:
                raise ConfigError("atom sites must be strictly increasing")
            last = site
            if w <= 0:
                raise ConfigError(f"atom weight at site {site} must be positive")
            if (w * self.denominator).denominator != 1:
                raise ConfigError(
                    f"weight {w} at site {site} is not a multiple of 1/{self.denominator}")
        if self.total > 1:
            raise ConfigError(f"total mass {self.total} exceeds 1")

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[int, Fraction | int | str]],
                   denominator: int | None = None) -> "DiscreteMeasure":
        norm = sorted((as_int(s), Fraction(w)) for s, w in atoms)
        if denominator is None:
            denominator = lcm(1, *(w.denominator for _, w in norm)) if norm else 1
        return cls(tuple(norm), denominator)

    @classmethod
    def delta(cls, site: int) -> "DiscreteMeasure":
        return cls(((int(site), Fraction(1)),), 1)

    @property
    def total(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))

    @property
    def is_probability(self) -> bool:
        return self.total == 1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.atoms)

    def weight(self, site: int) -> Fraction:
        for s, w in self.atoms:
            if s == site:
                return w
        return Fraction(0)

    def with_denominator(self, q: int) -> "DiscreteMeasure":
        if q % self.denominator != 0:
            raise ConfigError(f"cannot lift denominator {self.denominator} to {q}")
        return DiscreteMeasure(self.atoms, q)

    def cumulative(self) -> tuple[tuple[int, Fraction], ...]:
        acc = Fraction(0)
        out = []
        for s, w in self.atoms:
            acc += w
            out.append((s, acc))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "denominator": self.denominator,
            "atoms": [[s, int(w * self.denominator)] for s, w in self.atoms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        with reading("measure object", obj):
            q = as_int(obj["denominator"])
            atoms = tuple((as_int(s), Fraction(as_int(num), q))
                          for s, num in obj["atoms"])
        return cls(atoms, q)


@dataclass(frozen=True)
class MeasurePair:
    """A pair (mu, nu) with its Jordan-type split mu = mu~ + mu^nu, nu = nu~ + mu^nu."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    common_part: DiscreteMeasure
    mu_tilde: DiscreteMeasure
    nu_tilde: DiscreteMeasure
    rho: Fraction
    orthogonal: bool
    denominator: int = field(default=1)

    @property
    def unit_nu_slots(self) -> bool:
        """Exactness condition for the embedding: every effective down-step of
        the difference process has size exactly 1/q.

        Requires each nu~-atom to weigh 1/q; mu-atoms are multiples of 1/q by
        construction.
        """
        q = self.denominator
        return all(w == Fraction(1, q) for _, w in self.nu_tilde.atoms)

    def to_json(self) -> dict:
        return {"mu": self.mu.to_json(), "nu": self.nu.to_json()}


def split_measures(mu: DiscreteMeasure, nu: DiscreteMeasure) -> MeasurePair:
    """Split two probability measures into common part and orthogonal remainders.

    Lifts both to the lcm denominator first; returns the pair with
    mu~ _|_ nu~ and rho = mu~(R) = nu~(R).
    """
    if not mu.is_probability or not nu.is_probability:
        raise ConfigError("split_measures expects two probability measures")
    q = lcm(mu.denominator, nu.denominator)
    mu = mu.with_denominator(q)
    nu = nu.with_denominator(q)

    common_atoms = []
    for s, w in mu.atoms:
        w2 = nu.weight(s)
        if w2 > 0:
            common_atoms.append((s, min(w, w2)))
    common = DiscreteMeasure(tuple(common_atoms), q)

    def _subtract(m: DiscreteMeasure) -> DiscreteMeasure:
        atoms = []
        for s, w in m.atoms:
            r = w - common.weight(s)
            if r > 0:
                atoms.append((s, r))
        return DiscreteMeasure(tuple(atoms), q)

    mu_t = _subtract(mu)
    nu_t = _subtract(nu)
    if mu_t.total != nu_t.total:
        raise InvariantError(
            f"mu~ and nu~ carry unequal mass {mu_t.total} and {nu_t.total}")
    return MeasurePair(
        mu=mu, nu=nu, common_part=common, mu_tilde=mu_t, nu_tilde=nu_t,
        rho=mu_t.total, orthogonal=(common.total == 0), denominator=q)


def measure_from_spec(obj) -> DiscreteMeasure:
    """Accept either the JSON schema or a shorthand list [[site, w], ...] of
    weights ``as_rational`` reads, where [site, num, den] is [site, [num, den]]."""
    if isinstance(obj, dict):
        return DiscreteMeasure.from_json(obj)
    if not isinstance(obj, Sequence):
        raise ConfigError(f"cannot parse measure from {obj!r}")
    with reading("measure shorthand", obj):
        atoms = [(as_int(site), as_rational(w[0] if len(w) == 1 else w))
                 for site, *w in obj]
    return DiscreteMeasure.from_atoms(atoms)
