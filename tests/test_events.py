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

from helpers import (LocalTimeLedger, cohort_excursions, dense_first_excursion,
                     excursion_mass, fifo_matching, mu_charged_steps,
                     path_visits, per_path_cost_compare, queue_fifo_matching,
                     random_rematch, run_with_events, t_star_events)
from test_experiments import (_FIXTURE_PAIRS, _patched, make_cfg, measure_pairs,
                              run_every_experiment)

from shiftlab import cli, comparators, embedding, experiments, walk
from shiftlab.comparators import (COMPARATOR_KINDS, Cohort, Comparator,
                                  apply_comparator, extract_slots)
from shiftlab.embedding import match_slots, tau_star_map
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.experiments import (ExperimentConfig, FirstHitEngine,
                                  run_cost_compare, run_excursion_cost)
from shiftlab.gauges import capped, default_gauges, log1p, power, rational
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.walk import (EventLedger, WalkConfig, inverse_local_time,
                           sample_walk)

# mu = delta_0 opens three slots per visit.
_MULTI_SLOT = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
    [(-1, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 3))]))


def dense_events(pair, seed, rep, t):
    """(dense ledger, (steps, wmu, wnu)) of the dense path of ``rep`` on
    [0, t]."""
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=1, horizon_bwd=1, seed=seed,
                      start_law=pair.mu)
    path = sample_walk(walk, rep)
    path.extend_fwd(t)
    led = LocalTimeLedger(path, pair)
    return led, led.events(0, t)


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()),
       st.integers(0, 10**6), st.integers(0, 30),
       st.sampled_from((777, 4096)), st.sampled_from((None, 3)))
@settings(max_examples=150, deadline=None)
def test_engine_events_equal_the_dense_ledger(pair, seed, rep, hmax, budget):
    engine = FirstHitEngine(seed, pair)
    patch = (nullcontext() if budget is None
             else mock.patch.object(experiments, "_WORD_BUDGET", budget))
    with patch:
        out = next(run_with_events(engine, [rep], hmax))
        plain = engine.run_replica(rep, hmax)
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


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()),
       st.integers(0, 10**6), st.integers(0, 300),
       st.integers(1, 30), st.sampled_from((1, 7, 256)),
       st.sampled_from((777, 4096)))
@settings(max_examples=60, deadline=None)
def test_flat_events_equal_the_per_replica_events(pair, seed, first, n, cohort,
                                                  hmax):
    # An engine cohort's one flat (rows, steps, sites) holds, row by row in
    # replica order, the events of each replica scanned alone.
    engine = FirstHitEngine(seed, pair)
    reps = range(first, first + n)
    scanned = [engine.scan_cohort(reps[i:i + cohort], hmax, True)
               for i in range(0, n, cohort)]
    paths = []
    for outs, (rows, steps, sites) in scanned:
        assert (np.diff(rows) >= 0).all() and len(rows) == len(steps) == len(sites)
        paths += [(steps[rows == k], sites[rows == k]) for k in range(len(outs))]
    outs = [o for outs, _ in scanned for o in outs]
    for rep, out, (steps, sites) in zip(reps, outs, paths, strict=True):
        one = next(run_with_events(engine, [rep], hmax))
        assert {k: v for k, v in one.items() if k != "events"} == out
        if not one["censored"]:
            np.testing.assert_array_equal(steps, one["events"][0])
            np.testing.assert_array_equal(sites, one["events"][1])


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
    # A cohort's event ledger gives each path the stable pairs and slots of
    # its dense ledger.
    pair = _MULTI_SLOT
    cfg = make_cfg(pair, "cost_compare", seed=3, replicas=30, hf=64,
                   max_horizon=1 << 12)
    seen = 0
    for rep, got in enumerate(cohort_excursions(cfg)):
        want = dense_first_excursion(cfg, rep)
        assert (got is None) == (want is None)
        if got is None:
            continue
        seen += 1
        dense, want_exc = want
        assert got.t_star == want_exc.right
        on = got.cohort.slot_path == got.k
        stable = list(zip(*(x[on].tolist() for x in got.cohort.stable())))
        assert stable == match_slots(dense, 0, want_exc.right)
        assert got.slots == tuple(extract_slots(dense, want_exc))
    assert seen > 10


def _inverse_or_censored(ledger, r):
    try:
        return inverse_local_time(ledger, r)
    except HorizonExceededError as exc:
        return str(exc), exc.horizon, exc.attained


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()).filter(
                     lambda p: p.orthogonal and p.unit_nu_slots),
       st.integers(0, 10**6), st.integers(1, 5000), st.integers(1, 5000),
       st.data())
@settings(max_examples=100, deadline=None)
def test_long_path_events_equal_the_dense_ledger(pair, seed, hf, hb, data):
    cfg = make_cfg(pair, "ergodic", seed=seed, replicas=1, hf=hf, hb=hb)
    led = experiments._long_path(cfg)
    dense = LocalTimeLedger(sample_walk(cfg.walk, 0), pair)
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
    for k in units:
        r = Fraction(k, pair.denominator)
        assert _inverse_or_censored(led, r) == _inverse_or_censored(dense, r)


def test_ergodic_builds_no_dense_path(monkeypatch, symmetric_pair):
    # Nor does any other experiment: all six read words, never a WalkPath.
    def refuse(*args, **kwargs):
        raise AssertionError("dense path built")

    monkeypatch.setattr(walk.WalkPath, "__init__", refuse)
    cfg = make_cfg(symmetric_pair, "ergodic", seed=2, replicas=1, hf=3001,
                   hb=1999, max_horizon=1 << 12)
    rep = experiments.run_ergodic(cfg, ensemble_replicas=50)
    assert len(rep.data["summary"]) == len(cfg.gauges)
    run_every_experiment(symmetric_pair)


def test_event_ledger_refuses_a_non_orthogonal_pair():
    pair = split_measures(
        DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    led = EventLedger(np.arange(3), np.array([0, 1, 0]), pair)
    with pytest.raises(ConfigError):
        match_slots(led, 0, 2)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def _used_cohorts(cfg, size):
    """Per cohort of ``size`` replicas with a used path, the dense (ledger,
    exc) of its used paths."""
    got = [dense_first_excursion(cfg, rep) for rep in range(cfg.replicas)]
    cohorts = [list(filter(None, got[i:i + size]))
               for i in range(0, len(got), size)]
    return [c for c in cohorts if c]


def test_cost_compare_costs_each_matching_once_per_gauge(monkeypatch,
                                                         symmetric_pair):
    # One cost call per cohort for the stable matching, fifo and random
    # rematch (the "stable" comparator reuses the stable costs), and psi
    # once per gauge for each distinct gap of the cohort's matchings.
    # In-process: the spies see no forked worker's calls.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    monkeypatch.setattr(experiments, "_COHORT", 7)
    costs = _count_calls(monkeypatch, experiments, "matching_cost")
    psi = _count_calls(monkeypatch, comparators, "eval_gauge")
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15, gauges=default_gauges())
    rep = run_cost_compare(cfg)
    assert rep.data["comparators"] == ["stable", "fifo_rematch",
                                       "random_feasible_rematch"]
    random = cfg.comparators[2]
    cohorts = _used_cohorts(cfg, 7)
    assert len(costs) == len(cohorts) == 3
    assert all(len(call[0]) == 3 for call in costs)
    gaps = 0
    for cohort in cohorts:
        seen = set()
        for led, exc in cohort:
            stable = match_slots(led, 0, exc.right)
            for pairs in (stable, fifo_matching(extract_slots(led, exc)),
                          random_rematch(stable, exc, random.seed,
                                         random.n_swaps)):
                seen |= {t - s for s, t in pairs}
        gaps += len(seen)
    assert len(psi) == len(cfg.gauges) * gaps > 0


def test_compare_builds_the_slots_once_per_cohort(monkeypatch,
                                                  symmetric_pair):
    # FIFO and the checks read the cohort's one slot list; no per-path
    # slot list is extracted.
    # In-process: the spies see no forked worker's calls.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    monkeypatch.setattr(experiments, "_COHORT", 7)
    slots = _count_calls(monkeypatch, comparators, "extract_slots")
    built = _count_calls(monkeypatch, experiments, "Cohort")
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15)
    used = run_cost_compare(cfg).data["paths_used"]
    paths = [int(path[-1]) + 1 for path, *_ in built]      # paths per Cohort
    assert paths == [len(c) for c in _used_cohorts(cfg, 7)]
    assert sum(paths) == used > 0
    assert slots == []


def test_excursion_cost_builds_its_points_from_the_slots(monkeypatch,
                                                         symmetric_pair):
    # One Cohort per engine cohort with a used path and no kernel call; each
    # used excursion of at most slot_cap mu-slots (a cap some excursion
    # meets) gets a window of its dense ledger's slots as steps times
    # dt = 4/49 (dx = 2/7) over 49, the a-points descending.
    # In-process: the spies see no forked worker's calls.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    monkeypatch.setattr(experiments, "_COHORT", 7)
    slots = _count_calls(monkeypatch, comparators, "extract_slots")
    kernels = [_count_calls(monkeypatch, module, "match_slots")
               for module in (experiments, comparators, embedding)]
    real = experiments.PointConfig
    for pair in (symmetric_pair, _MULTI_SLOT):
        built = _count_calls(monkeypatch, experiments, "Cohort")
        windows = []
        monkeypatch.setattr(experiments, "PointConfig", lambda *args, **kw: (
            windows.append(args) or real(*args, **kw)))
        cfg = _compare_cfg(pair, 13, 20, 64, 1 << 12, Fraction(2, 7))
        cohorts = _used_cohorts(cfg, 7)
        counts = sorted(exc.mass * led.q for c in cohorts for led, exc in c)
        cap = counts[len(counts) // 2]
        used = run_excursion_cost(cfg, matrices_per_excursion=1, slot_cap=cap
                                  ).data["excursions_used"]
        assert [int(path[-1]) + 1 for path, *_ in built] == [len(c) for c in cohorts]
        want = [extract_slots(led, exc) for c in cohorts for led, exc in c
                if exc.mass * led.q <= cap]
        assert len(windows) == len(want) == used > 0 and counts[-1] > cap
        for window, (sources, targets) in zip(windows, want):
            assert window == (tuple(4 * s for s in reversed(sources)),
                              tuple(4 * t for t in targets), 49)
    assert not any(kernels) and slots == []


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()).filter(
                     lambda p: p.orthogonal and p.unit_nu_slots),
       st.integers(0, 10**6), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_fifo_matching_equals_the_queue_oracle(pair, seed, replicas):
    # On a cohort of excursions [0, T*], the k-th target of each takes its
    # k-th source: the queue oracle's matching, excursion by excursion.
    cfg = make_cfg(pair, "cost_compare", seed=seed, replicas=replicas, hf=16,
                   max_horizon=1 << 10)
    items = list(filter(None, (dense_first_excursion(cfg, rep)
                               for rep in range(replicas))))
    if not items:
        return
    outs = t_star_events(cfg, range(replicas))
    cohort = Cohort(*path_visits([o["events"] for o in outs if o["t_star"]]), pair)
    fifo = apply_comparator(Comparator("fifo_rematch"), cohort,
                            cohort.stable())
    want = [p for led, exc in items for p in queue_fifo_matching(led, exc)]
    assert list(zip(*(a.tolist() for a in fifo))) == want


def _compare_cfg(pair, seed, replicas, hf, hmax, dx=Fraction(1), **kw):
    walk_cfg = WalkConfig(dx=Fraction(dx), horizon_fwd=hf, horizon_bwd=4,
                          seed=seed, start_law=pair.mu)
    return ExperimentConfig(walk=walk_cfg, pair=pair, replicas=replicas,
                            experiment="cost_compare", max_horizon=hmax, **{"gauges": default_gauges(), **kw})


def _outcome(run, cfg):
    try:
        rep = run(cfg)
    except ConfigError as exc:
        return "ConfigError", str(exc)
    return rep.to_json(), json.dumps(rep.tables)


# A config takes each comparator kind and gauge label once.
_COMPARATOR_LISTS = st.lists(
    st.builds(Comparator, st.sampled_from(COMPARATOR_KINDS),
              st.integers(0, 9), st.integers(0, 12)), min_size=1, max_size=4,
    unique_by=lambda c: c.kind)
_GAUGE_SETS = st.lists(st.sampled_from(
    (power(Fraction(1, 2)), power(1), log1p(), capped(3), rational())),
    min_size=1, max_size=4, unique_by=lambda g: g.label).map(tuple)


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS + (_MULTI_SLOT,)),
                 measure_pairs()).filter(
                     lambda p: p.orthogonal and p.unit_nu_slots),
       st.integers(0, 10**6), st.integers(1, 40), st.sampled_from((1, 16, 64)),
       st.sampled_from((64, 1 << 10, 1 << 12)),
       st.sampled_from((1, Fraction(1, 3), Fraction(2, 7))),
       _COMPARATOR_LISTS, _GAUGE_SETS, st.sampled_from((1, 3, None)))
@settings(max_examples=120, deadline=None)
def test_batched_compare_equals_the_per_path_oracle(pair, seed, replicas, hf,
                                                    hmax, dx, comps, gauges,
                                                    cohort):
    # Report and tables byte-equal to one excursion at a time, whatever
    # the cohort size (None keeps the module default).
    cfg = _compare_cfg(pair, seed, replicas, hf, hmax, dx,
                       comparators=tuple(comps), gauges=gauges)
    with _patched("_COHORT", cohort):
        got = _outcome(run_cost_compare, cfg)
    assert got == _outcome(per_path_cost_compare, cfg)


@given(measure_pairs(), st.integers(0, 10**6), st.integers(1, 30),
       st.sampled_from((1, 3, None)))
@settings(max_examples=100, deadline=None)
def test_batched_compare_fails_like_the_oracle_on_any_pair(pair, seed,
                                                           replicas, cohort):
    # A non-orthogonal pair, or one with a nu-atom above 1/q, raises the
    # oracle's ConfigError before any scan.
    cfg = _compare_cfg(pair, seed, replicas, 16, 1 << 10)
    with _patched("_COHORT", cohort):
        got = _outcome(run_cost_compare, cfg)
    assert got == _outcome(per_path_cost_compare, cfg)


_RANDOM = Comparator("random_feasible_rematch", seed=7)
_EDGE_CONFIGS = {
    "no-stable": (None, dict(comparators=(Comparator("fifo_rematch"), _RANDOM))),
    "two-random-seeds": (None, dict(comparators=(
        _RANDOM, Comparator("stable"),
        Comparator("random_feasible_rematch", seed=8, n_swaps=3)))),
    "no-swaps": (None, dict(comparators=(
        Comparator("random_feasible_rematch", seed=7, n_swaps=0),))),
    "one-comparator": (None, dict(comparators=(Comparator("fifo_rematch"),))),
    "all-censored": (split_measures(DiscreteMeasure.delta(0),
                                    DiscreteMeasure.delta(5)), dict(hmax=4)),
    "u-flag-0": (split_measures(DiscreteMeasure.delta(0),
                                DiscreteMeasure.delta(0)), {}),
    "multi-slot-dx": (_MULTI_SLOT, dict(dx=Fraction(1, 3))),
    "non-orthogonal": (split_measures(
        DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])),
        {}),
    "non-exact": (split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
        [(-1, Fraction(1, 3)), (1, Fraction(2, 3))])), {}),
}


@pytest.mark.parametrize("cohort", [1, 3, None])
@pytest.mark.parametrize("name", sorted(_EDGE_CONFIGS))
def test_batched_compare_edge_configs(name, cohort, symmetric_pair):
    pair, kw = _EDGE_CONFIGS[name]
    kw = {"hf": 16, "hmax": 1 << 10, **kw}
    if name == "two-random-seeds":
        # Refused: both would pool their samples in one row.
        with pytest.raises(ConfigError, match="comparator kinds"):
            _compare_cfg(pair or symmetric_pair, 5, 60, **kw)
        return
    cfg = _compare_cfg(pair or symmetric_pair, 5, 60, **kw)
    with _patched("_COHORT", cohort):
        got = _outcome(run_cost_compare, cfg)
    assert got == _outcome(per_path_cost_compare, cfg)
    # mu = nu shares its sites: refused before any scan, like any pair
    # that is not orthogonal.
    if name.startswith("non-") or name == "u-flag-0":
        assert got[0] == "ConfigError"
        return
    data = json.loads(got[0])["data"]
    if name == "all-censored":
        assert data["paths_used"] == 0 and data["paths_skipped"] == 60
    else:
        assert data["paths_used"] > 20


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


# nu = (delta_1 + 2 delta_2)/3 has a nu-atom of two slots, so C can step
# past 0 and T* is the first C <= 0.  sha256 of the report's data and of
# its table, taken when such a config had to name "mode": "crossing" (the
# config digest then differed).
_NU_TWO_THIRDS = [[1, 1, 3], [2, 2, 3]]
_GOLDEN_GENERAL = {
    "embed": (
        {"mu": _MU, "nu": _NU_TWO_THIRDS, "replicas": 300, "max_horizon": 1 << 12,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 6000001}},
        {"data": "26f0da7c7b9c2de8758bda54bc7c095a"
                 "08f186a311a31d1cbf4900100bcc8174",
         "tables/law.csv": "aaceefc6a28551573c4d7e3e72cdaa7b"
                           "822a9d1510d73b4b4451b9f8cabe3a26"}),
    "tail": (
        {"mu": _MU, "nu": _NU_TWO_THIRDS, "replicas": 500, "max_horizon": 1 << 14,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 6000002}},
        {"data": "08e55dad30986df828ff329168555134"
                 "576d6201267acf2fd3cdd0d12cd09824",
         "tables/survival.csv": "5c04fd74588bdd3a8c9c6443c8fcacee"
                                "5c72a93de835dedfe1d3bc6f752b44f9"}),
    "unbiased": (
        {"mu": _MU, "nu": _NU_TWO_THIRDS, "replicas": 200, "max_horizon": 1 << 12,
         "walk": {"horizon_fwd": 64, "horizon_bwd": 16, "seed": 6000003}},
        {"data": "f43655e591cf4addda1d5e7b18a6293b"
                 "365448e2c65fac0969a5cbe27ee75f2e",
         "tables/lags.csv": "600d456003bdd344b86f8589cd7d317a"
                            "fa9c42b9eab95367aec207357f8b3419"}),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_GENERAL))
def test_general_target_reports_are_pinned(tmp_path, command):
    cfg, digests = _GOLDEN_GENERAL[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--output-dir", str(out), command, str(path)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in digests if name != "data"}
    data = json.loads((out / "report.json").read_text())["data"]
    blob = json.dumps(data, sort_keys=True).encode()
    assert {**got, "data": hashlib.sha256(blob).hexdigest()} == digests


@pytest.mark.parametrize("cohort", [1, 7, 256])
@pytest.mark.parametrize("name", ["excursion-cost", "excursion-cost-dx-2/7",
                                  "excursion-cost-multi-slot-dx-1/3"])
def test_excursion_cost_pins_hold_at_any_cohort_size(tmp_path, name, cohort):
    # excursion-cost cuts each engine cohort's slots per path; its bytes do
    # not depend on the cohort size.
    pinned = _GOLDEN_SLOTS.get(name) or ("excursion-cost", *_GOLDEN[name])
    with _patched("_COHORT", cohort):
        _assert_pinned(tmp_path, *pinned)
