"""The event layer behind compare and excursion-cost.

The first-hit engine reports the atom visits it sees on [0, T*]; these
tests hold them against the dense path and ledger, check the event
ledger's range contract and its use by the matchings, pin the cost layer's
call count and the linear FIFO matching, and pin the report bytes of
``compare`` and ``excursion-cost`` on fixed configs.
"""

import hashlib
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

from shiftlab import cli, experiments
from shiftlab.comparators import extract_slots, fifo_matching
from shiftlab.embedding import Excursion, excursion_mass, match_slots
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.experiments import (FirstHitEngine, _first_excursion,
                                  run_cost_compare)
from shiftlab.gauges import default_gauges
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.walk import EventLedger, WalkConfig, build_ledger, sample_walk

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
       st.sampled_from((1, 64, 1000)), st.sampled_from((777, 4096)),
       st.sampled_from(("doubling", "fixed")), st.sampled_from((None, 200)))
@settings(max_examples=150, deadline=None)
def test_engine_events_equal_the_dense_ledger(pair, exact, seed, rep, h0, hmax,
                                              policy, cap):
    mode = "exact" if exact and pair.exact_mode_ok else "crossing"
    engine = FirstHitEngine(seed, pair, mode)
    patch = (nullcontext() if cap is None
             else mock.patch.object(experiments, "_CHUNK_CAP", cap))
    with patch:
        out = engine.run_replica(rep, h0, hmax, policy, events=True)
        plain = engine.run_replica(rep, h0, hmax, policy)
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
    assert fifo_matching(led, exc) == queue_fifo_matching(led, exc)


# sha256 of report.json and the tables, taken before compare and
# excursion-cost moved to the event ledger; later changes must keep these
# bytes.
_MU = [[0, 1, 1]]
_NU_SYMMETRIC = [[-1, 1, 2], [1, 1, 2]]
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
}


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_report_bytes_are_pinned(tmp_path, command):
    cfg, digests = _GOLDEN[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--output-dir", str(out), command, str(path)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests
