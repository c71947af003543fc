from fractions import Fraction

import pytest

from shiftlab.errors import ConfigError, InvariantError
from shiftlab.measures import DiscreteMeasure, measure_from_spec, split_measures


def test_delta_and_totals():
    m = DiscreteMeasure.delta(3)
    assert m.total == 1 and m.is_probability
    assert m.weight(3) == 1 and m.weight(0) == 0


def test_validation_errors():
    with pytest.raises(ConfigError):
        DiscreteMeasure(((0, Fraction(1)), (0, Fraction(1))), 1)
    with pytest.raises(ConfigError):
        DiscreteMeasure(((0, Fraction(-1, 2)),), 2)
    with pytest.raises(ConfigError):
        DiscreteMeasure(((0, Fraction(1, 3)),), 2)  # not a multiple of 1/2
    with pytest.raises(ConfigError):
        DiscreteMeasure(((0, Fraction(1)), (1, Fraction(1))), 1)  # mass > 1


def test_json_roundtrip():
    m = DiscreteMeasure.from_atoms([(-1, Fraction(1, 6)), (0, Fraction(1, 2)),
                                    (2, Fraction(1, 3))])
    assert DiscreteMeasure.from_json(m.to_json()) == m


def test_split_orthogonal():
    mu = DiscreteMeasure.delta(0)
    nu = DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    pair = split_measures(mu, nu)
    assert pair.orthogonal
    assert pair.rho == 1
    assert pair.common_part.total == 0
    assert pair.denominator == 2
    assert pair.exact_mode_ok


def test_split_with_overlap():
    mu = DiscreteMeasure.from_atoms([(0, Fraction(3, 4)), (1, Fraction(1, 4))])
    nu = DiscreteMeasure.from_atoms([(0, Fraction(1, 4)), (2, Fraction(3, 4))])
    pair = split_measures(mu, nu)
    assert not pair.orthogonal
    assert pair.common_part.weight(0) == Fraction(1, 4)
    assert pair.mu_tilde.weight(0) == Fraction(1, 2)
    assert pair.nu_tilde.weight(2) == Fraction(3, 4)
    assert pair.mu_tilde.total == pair.nu_tilde.total == pair.rho == Fraction(3, 4)
    assert not pair.exact_mode_ok  # nu~-atom of 3/4 != 1/4


def test_split_identical_measures():
    mu = DiscreteMeasure.delta(0)
    pair = split_measures(mu, mu)
    assert pair.rho == 0 and not pair.orthogonal
    assert pair.mu_tilde.total == 0
    assert pair.exact_mode_ok  # vacuously: no nu~-atoms


def test_split_unequal_masses_is_an_invariant_error(monkeypatch):
    # Probability inputs always balance; let a half-mass nu through the
    # input check to reach the invariant, which must hold under -O too.
    monkeypatch.setattr(DiscreteMeasure, "is_probability",
                        property(lambda self: True))
    half = DiscreteMeasure.from_atoms([(1, Fraction(1, 2))])
    with pytest.raises(InvariantError):
        split_measures(DiscreteMeasure.delta(0), half)


def test_exactness_condition():
    mu = DiscreteMeasure.delta(0)
    nu = DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))])
    pair = split_measures(mu, nu)
    assert not pair.exact_mode_ok  # the 2/3 atom is 2 units of 1/3


def test_pair_json_and_spec_shorthand():
    pair = split_measures(
        DiscreteMeasure.from_json({"denominator": 1, "atoms": [[0, 1]]}),
        DiscreteMeasure.from_json({"denominator": 2, "atoms": [[-1, 1], [1, 1]]}))
    assert pair.orthogonal and pair.denominator == 2
    m = measure_from_spec([[0, "1/2"], [5, 1, 2]])
    assert m.weight(0) == m.weight(5) == Fraction(1, 2)


def test_lift_denominator_rejects_non_multiple():
    m = DiscreteMeasure.delta(0)
    assert m.with_denominator(4).denominator == 4
    with pytest.raises(ConfigError):
        DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))]) \
            .with_denominator(3)


def test_cumulative():
    m = DiscreteMeasure.from_atoms([(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    assert m.cumulative() == ((0, Fraction(1, 4)), (1, Fraction(1)))
