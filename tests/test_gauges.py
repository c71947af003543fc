import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_gauge_properties

from shiftlab.errors import ConfigError
from shiftlab.gauges import (Gauge, capped, default_gauges, eval_gauge,
                             gauges_from_json, log1p, power, rational)


def test_zero_at_origin():
    for g in default_gauges():
        assert eval_gauge(g, 0) == 0.0


def test_known_values():
    assert eval_gauge(power(Fraction(1, 2)), 4.0) == pytest.approx(2.0)
    assert eval_gauge(log1p(), math.e - 1) == pytest.approx(1.0)
    assert eval_gauge(capped(3), 10.0) == 3.0
    assert eval_gauge(capped(3), 2.0) == 2.0
    assert eval_gauge(rational(), 1.0) == pytest.approx(0.5)


def test_negative_argument_rejected():
    with pytest.raises(ConfigError):
        eval_gauge(log1p(), -0.5)


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        power(Fraction(3, 2))
    with pytest.raises(ConfigError):
        power(0)
    with pytest.raises(ConfigError):
        capped(Fraction(-1))
    with pytest.raises(ConfigError):
        Gauge("log1p", Fraction(1, 2))
    with pytest.raises(ConfigError):
        Gauge("bogus")


def test_linear_power_allowed():
    g = power(1)
    assert eval_gauge(g, 7.0) == 7.0


def test_grid_properties_all_families():
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 100.0]
    for g in list(default_gauges()) + [power(1), power(Fraction(1, 10))]:
        out = check_gauge_properties(g, grid)
        assert out == {"concave_ok": True, "subadditive_ok": True,
                       "nonnegative_ok": True}, g.label


def test_json_roundtrip():
    for g in list(default_gauges()) + [power(Fraction(1, 10))]:
        assert Gauge.from_json(g.to_json()) == g
    gs = gauges_from_json([g.to_json() for g in default_gauges()])
    assert gs == default_gauges()


def test_gauges_pickle_and_compare_by_kind_and_param():
    for g in list(default_gauges()) + [power(Fraction(1, 3)), capped(Fraction(1, 2))]:
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert eval_gauge(back, 2.5) == eval_gauge(g, 2.5)


def test_labels_distinct():
    labels = [g.label for g in default_gauges()]
    assert len(set(labels)) == len(labels)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_subadditivity_property(s, t):
    for g in default_gauges():
        assert eval_gauge(g, s + t) <= eval_gauge(g, s) + eval_gauge(g, t) + 1e-9


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_monotone_property(s, t):
    lo, hi = min(s, t), max(s, t)
    for g in default_gauges():
        assert eval_gauge(g, lo) <= eval_gauge(g, hi) + 1e-12
