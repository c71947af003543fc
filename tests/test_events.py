"""The event layer behind compare, excursion-cost and ergodic.

The first-hit engine reports the atom visits it sees on [0, T*], and its
scan builds ergodic's two-sided path; these tests hold both against the
dense path and ledger, check the event ledger's range contract and its use
by the matchings and the inverse local time, pin the cost layer's call
count and the linear FIFO matching, and pin the report bytes of the
experiments on fixed configs.
"""

import hashlib
import itertools
import json
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedPath, dense_first_excursion, queue_fifo_matching
from test_experiments import _FIXTURE_PAIRS, make_cfg, measure_pairs

from shiftlab import cli, comparators, embedding, experiments, walk
from shiftlab.comparators import extract_slots, fifo_matching
from shiftlab.embedding import (Excursion, excursion_mass, match_slots,
                                mu_charged_steps, tau_star_map)
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.experiments import (FirstHitEngine, _first_excursion,
                                  run_cost_compare, run_excursion_cost)
from shiftlab.gauges import default_gauges
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.walk import (EventLedger, WalkConfig, build_ledger,
                           inverse_local_time, sample_walk)

# mu = delta_0 opens three slots per visit.
_MULTI_SLOT = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
    [(-1, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 3))]))


def dense_events(pair, seed, rep, t):
    """(ledger, (steps, wmu, wnu)) of the dense path of ``rep`` on [0, t]."""
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=1, horizon_bwd=1, seed=seed,
                      start_law=pair.mu)
    path = sample_walk(walk, rep)
    path.extend_fwd(t)
    led = build_ledger(path, pair)
    return led, led.events(0, t)


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()),
       st.booleans(), st.integers(0, 10**6), st.integers(0, 30),
       st.sampled_from((1, 64, 1000, 4096)), st.sampled_from((777, 4096)),
       st.sampled_from((None, 200)))
@settings(max_examples=150, deadline=None)
def test_engine_events_equal_the_dense_ledger(pair, exact, seed, rep, h0, hmax,
                                              cap):
    mode = "exact" if exact and pair.exact_mode_ok else "crossing"
    engine = FirstHitEngine(seed, pair, mode)
    patch = (nullcontext() if cap is None
             else mock.patch.object(experiments, "_CHUNK_CAP", cap))
    with patch:
        out = engine.run_replica(rep, h0, hmax, events=True)
        plain = engine.run_replica(rep, h0, hmax)
    assert {k: v for k, v in out.items() if k != "events"} == plain
    if out["censored"]:
        assert out["events"] is None
        return
    t = out["t_star"]
    led, (steps, wmu, wnu) = dense_events(pair, seed, rep, t)
    got_steps, got_sites = out["events"]
    np.testing.assert_array_equal(got_steps, steps)
    np.testing.assert_array_equal(got_sites, led.pos_all[led.idx(0) + steps])
    events = EventLedger(got_steps, got_sites, pair)
    for x, y in zip(events.events(0, t), (steps, wmu, wnu)):
        np.testing.assert_array_equal(x, y)
    assert excursion_mass(events, 0, t) == excursion_mass(led, 0, t)


def test_event_ledger_refuses_steps_outside_its_range(delta_pair):
    # Path 0, 1, 0, 1: visits at steps 0..3, T* = 1; the ledger holds [0, 3].
    led = EventLedger(np.arange(4), np.array([0, 1, 0, 1]), delta_pair)
    steps, wmu, wnu = led.events(1, 2)
    assert steps.tolist() == [1, 2] and wmu.tolist() == [0, 1]
    assert wnu.tolist() == [1, 0]
    assert led.events(3, 2)[0].size == 0
    for left, right in ((-1, 2), (0, 4), (-3, 9)):
        with pytest.raises(HorizonExceededError):
            led.events(left, right)
    with pytest.raises(HorizonExceededError):
        excursion_mass(led, 0, 4)


def test_event_ledger_matches_like_the_dense_one():
    pair = _MULTI_SLOT
    cfg = make_cfg(pair, "cost_compare", seed=3, replicas=30, hf=64,
                   max_horizon=1 << 12)
    seen = 0
    for rep in range(30):
        got, want = _first_excursion(cfg, rep), dense_first_excursion(cfg, rep)
        assert (got is None) == (want is None)
        if got is None:
            continue
        seen += 1
        (led, exc), (dense, want_exc) = got, want
        assert exc == want_exc
        assert match_slots(led, 0, exc.right) == match_slots(dense, 0, exc.right)
        assert extract_slots(led, exc) == extract_slots(dense, exc)
    assert seen > 10


def _inverse_or_censored(ledger, functional, r):
    try:
        return inverse_local_time(ledger, functional, r)
    except HorizonExceededError as exc:
        return str(exc), exc.horizon, exc.attained


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()).filter(
                     lambda p: p.orthogonal and p.exact_mode_ok),
       st.integers(0, 10**6), st.integers(1, 5000), st.integers(1, 5000),
       st.data())
@settings(max_examples=100, deadline=None)
def test_long_path_events_equal_the_dense_ledger(pair, seed, hf, hb, data):
    cfg = make_cfg(pair, "ergodic", seed=seed, replicas=1, hf=hf, hb=hb)
    led = experiments._long_path(cfg)
    dense = build_ledger(sample_walk(cfg.walk, 0), pair)
    assert (led.hb, led.hf) == (dense.hb, dense.hf) == (hb, hf)
    assert -hb <= led.steps[0] and led.steps[-1] <= hf
    for x, y in zip(led.events(-hb, hf), dense.events(-hb, hf)):
        np.testing.assert_array_equal(x, y)
    for ledger, (left, right) in itertools.product(
            (led, dense), ((-hb - 1, 0), (0, hf + 1))):
        with pytest.raises(HorizonExceededError):
            ledger.events(left, right)
    left = data.draw(st.integers(-hb, hf))
    right = data.draw(st.integers(left, hf))
    np.testing.assert_array_equal(mu_charged_steps(led, left, right),
                                  mu_charged_steps(dense, left, right))
    assert tau_star_map(led, left, right) == tau_star_map(dense, left, right)
    # Levels of both signs, 0, and past all mass of a side (never attained).
    units = [0, data.draw(st.integers(1, 60)), -data.draw(st.integers(1, 60)),
             (hf + 2) * pair.denominator, -(hb + 2) * pair.denominator]
    for functional in ("mu", "nu", "mu+nu"):
        for k in units:
            r = Fraction(k, pair.denominator)
            assert (_inverse_or_censored(led, functional, r)
                    == _inverse_or_censored(dense, functional, r))
    with pytest.raises(ConfigError):
        inverse_local_time(led, "mu-nu", 1)


def test_ergodic_builds_no_dense_path(monkeypatch, symmetric_pair):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path or ledger built")

    monkeypatch.setattr(walk.WalkPath, "__init__", refuse)
    monkeypatch.setattr(walk.LocalTimeLedger, "__init__", refuse)
    cfg = make_cfg(symmetric_pair, "ergodic", seed=2, replicas=1, hf=3001,
                   hb=1999, max_horizon=1 << 12)
    rep = experiments.run_ergodic(cfg, ensemble_replicas=50)
    assert len(rep.data["summary"]) == len(cfg.gauges)


def test_event_ledger_refuses_a_non_orthogonal_pair():
    pair = split_measures(
        DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    led = EventLedger(np.arange(3), np.array([0, 1, 0]), pair)
    with pytest.raises(ConfigError):
        match_slots(led, 0, 2)


def test_cost_compare_costs_each_matching_once_per_gauge(monkeypatch,
                                                         symmetric_pair):
    # Four gauges: the stable matching once, then fifo and random rematch;
    # the "stable" comparator reuses the stable costs.
    calls = []
    real = experiments.matching_cost
    monkeypatch.setattr(experiments, "matching_cost",
                        lambda *args: calls.append(args) or real(*args))
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15, gauges=default_gauges())
    rep = run_cost_compare(cfg)
    assert rep.data["comparators"] == ["stable", "fifo_rematch",
                                       "random_feasible_rematch"]
    assert len(calls) == 12 * rep.data["paths_used"] > 0


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_compare_extracts_the_slots_once_per_path(monkeypatch, symmetric_pair):
    # fifo_matching and check_matching read the one slot list.
    slots = _count_calls(monkeypatch, experiments, "extract_slots")
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15)
    used = run_cost_compare(cfg).data["paths_used"]
    assert len(slots) == used > 0


def test_excursion_cost_builds_its_points_from_the_slots(monkeypatch,
                                                         symmetric_pair):
    slots = _count_calls(monkeypatch, experiments, "extract_slots")
    kernels = [_count_calls(monkeypatch, module, "match_slots")
               for module in (experiments, comparators, embedding)]
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=20,
                   hf=64, max_horizon=1 << 12)
    used = run_excursion_cost(cfg, matrices_per_excursion=1).data["excursions_used"]
    assert len(slots) == used > 0
    assert not any(kernels)


@given(measure_pairs(), st.lists(st.sampled_from((-1, 1)), min_size=1,
                                 max_size=120), st.data())
@settings(max_examples=120, deadline=None)
def test_fifo_matching_equals_the_queue_oracle(pair, steps, data):
    start = data.draw(st.sampled_from([s for s, _ in pair.mu.atoms]))
    positions = np.concatenate([[start], start + np.cumsum(steps)])
    led = build_ledger(ScriptedPath(positions), pair)
    left = data.draw(st.integers(0, len(steps)))
    right = data.draw(st.integers(left, len(steps)))
    exc = Excursion(left, right, excursion_mass(led, left, right))
    assert fifo_matching(extract_slots(led, exc)) == queue_fifo_matching(led, exc)


# sha256 of report.json and the tables; later changes must keep these
# bytes.  compare and excursion-cost were taken before they moved to the
# event ledger; ergodic, unbiased, embed and tail before ergodic's long path
# moved to the first-hit scan.  The ergodic entry has unequal horizons that
# are not multiples of 64, a multi-slot mu, dx = 1/3 and windows with
# unmatched slots.
_MU = [[0, 1, 1]]
_NU_SYMMETRIC = [[-1, 1, 2], [1, 1, 2]]
_MU_MULTI = [[0, 2, 3], [5, 1, 3]]
_NU_THREE = [[-1, 1, 3], [1, 1, 3], [2, 1, 3]]
_GOLDEN = {
    "compare": (
        {"mu": _MU, "nu": _NU_SYMMETRIC, "replicas": 50, "max_horizon": 1 << 14,
         "walk": {"horizon_fwd": 1024, "horizon_bwd": 4, "seed": 3000000}},
        {"report.json": "4b49b9355cd9d969914514cd76293929"
                        "fef6eb790cfa2cf4e016dc4920614470",
         "tables/costs.csv": "801419d58997fa61e56a25a2e85d1b89"
                             "8168012c96de7fd2cb7ea318755ae3ec"}),
    "excursion-cost": (
        {"mu": _MU, "nu": _NU_SYMMETRIC, "replicas": 40, "max_horizon": 1 << 12,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 13}},
        {"report.json": "218e5d2b2fb7f6c1685fca8870dee75c"
                        "b53fdd0c79c964c18a49402e198af0f2",
         "tables/margins.csv": "cb7051ffc44e225b7ed29736826af6c3"
                               "a21fe0595c9dd24e2d4b97f3f4d72cbc"}),
    "ergodic": (
        {"mu": _MU_MULTI, "nu": _NU_THREE, "replicas": 1, "max_horizon": 1 << 12,
         "walk": {"dx": "1/3", "horizon_fwd": 3001, "horizon_bwd": 1999,
                  "seed": 5000004}},
        {"report.json": "1cf352ff6b2a7e37f675821e4f4984d4"
                        "2145bed223aadbcab632aab151147f35",
         "tables/averages.csv": "3bb95d0ef4da34a5ec7f8dbd7033c597"
                                "9a91410ef676459b5085f11b07bb449c"}),
    "unbiased": (
        {"mu": _MU, "nu": _NU_SYMMETRIC, "replicas": 200, "max_horizon": 1 << 12,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 16, "seed": 5000003}},
        {"report.json": "2217579ad107a646e90e0b20e81f9bfa"
                        "39dc68b4970ee0ef88d51894608f54d9",
         "tables/lags.csv": "575344fcd7da71596340568545627694"
                            "df51f47768ee8911bcd50f0f2e8e5708"}),
    "embed": (
        {"mu": _MU_MULTI, "nu": _NU_THREE, "replicas": 300, "max_horizon": 1 << 12,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 5000004}},
        {"report.json": "d1f3211c0e1b70f83cefcfcc844ec31d"
                        "995985c1b05497b1725e3d67cfae427a",
         "tables/law.csv": "fc8f34e8a4e453dc6ca772c351ecd6e0"
                           "5142dc269c3148e9f2a9cad6851e1367"}),
    "tail": (
        {"mu": _MU, "nu": [[1, 1, 1]], "replicas": 500, "max_horizon": 1 << 14,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 5000005}},
        {"report.json": "347171e6adf925e2000d2c813fe6fef1"
                        "6c97d19a591323fc619948c0f8f2ab2d",
         "tables/survival.csv": "6496370ae261ab693ac635a52e1935e9"
                                "08725a67db0df05cda5df2f55462367c"}),
}


def _assert_pinned(tmp_path, command, cfg, digests):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--output-dir", str(out), command, str(path)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_report_bytes_are_pinned(tmp_path, command):
    _assert_pinned(tmp_path, command, *_GOLDEN[command])


# The pins above use dx = 1 and one slot per mu-visit.  These add a
# multi-slot mu (two slots at 0, one at 5, so mu- and nu-visits interleave
# within an excursion) and dx = 1/3 and 2/7, where dt = dx^2 is not an
# integer and excursion-cost's points are numerators over its denominator;
# taken before compare and excursion-cost read one slot list per excursion.
_GOLDEN_SLOTS = {
    "compare-multi-slot": ("compare", {
        "mu": _MU_MULTI, "nu": _NU_THREE, "replicas": 60, "max_horizon": 1 << 13,
        "walk": {"horizon_fwd": 256, "horizon_bwd": 4, "seed": 4000001}},
        {"report.json": "1935d7588b0ad650bcc1f19689cbc255"
                        "92e3839fde6683d68336c5fadc9cc643",
         "tables/costs.csv": "2dab4520cab3857afdb044e3fecf9e93"
                             "e8c08be06ef9ac89c749bfb1fd3d4940"}),
    "compare-dx-1/3": ("compare", {
        "mu": _MU, "nu": _NU_SYMMETRIC, "replicas": 60, "max_horizon": 1 << 13,
        "walk": {"dx": "1/3", "horizon_fwd": 256, "horizon_bwd": 4,
                 "seed": 4000002}},
        {"report.json": "31c52d39bc3ede7230309fcadbea6751"
                        "c01402332e13722447bdfddaf4ae69ec",
         "tables/costs.csv": "e9e48c51abfd0cdb4822d2a3765b0faa"
                             "7e6c73a689c521994dc920fe430d9b4b"}),
    "excursion-cost-dx-2/7": ("excursion-cost", {
        "mu": _MU, "nu": _NU_SYMMETRIC, "replicas": 40, "max_horizon": 1 << 12,
        "walk": {"dx": "2/7", "horizon_fwd": 64, "horizon_bwd": 4, "seed": 17}},
        {"report.json": "4fb8c3f1b7cdf0d26990b602d19df09a"
                        "393d0bc43b9dd4b26eff66da6622cdd4",
         "tables/margins.csv": "74723f4046f0a0b1f468f2b5af4b3b99"
                               "99527672be5dbb15a19f8ec94c79ef7a"}),
    "excursion-cost-multi-slot-dx-1/3": ("excursion-cost", {
        "mu": _MU_MULTI, "nu": _NU_THREE, "replicas": 40, "max_horizon": 1 << 12,
        "walk": {"dx": "1/3", "horizon_fwd": 64, "horizon_bwd": 4, "seed": 19}},
        {"report.json": "479282d3a8a69eb5880bd517db6fb855"
                        "d232ddca1cfb0e1d52cd21e7b5c2ce69",
         "tables/margins.csv": "18d701012b8b7d6a23850fd8a0fc0603"
                               "7dd82204169968cf2b652b11e2b9c2f0"}),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_SLOTS))
def test_report_bytes_are_pinned_off_the_unit_grid(tmp_path, name):
    _assert_pinned(tmp_path, *_GOLDEN_SLOTS[name])
