import dataclasses
import json
import math
import multiprocessing
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cohort_excursions, doubling_first_excursion, pm64_near,
                     run_with_events, step_first_hit, t_star_events)
from shiftlab import experiments, walk
from shiftlab.comparators import extract_slots
from shiftlab.embedding import compute_t_star
from shiftlab.errors import ConfigError, HorizonExceededError, InvariantError
from shiftlab.experiments import (DEFAULT_THRESHOLDS, ExperimentConfig,
                                  FirstHitEngine, run_cost_compare,
                                  run_embed_law, run_ergodic,
                                  run_excursion_cost, run_tail,
                                  run_unbiased_test)
from shiftlab.gauges import capped, default_gauges, log1p, power
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.rng import STREAM_FWD, STREAM_START, BitStream
from shiftlab.walk import WalkConfig, build_ledger, sample_walk


def make_cfg(pair, experiment, seed=0, replicas=50, hf=4096, hb=4,
             max_horizon=1 << 16, **kw):
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=hf, horizon_bwd=hb,
                     seed=seed, start_law=pair.mu)
    return ExperimentConfig(walk=walk, pair=pair, gauges=kw.pop(
        "gauges", (power(Fraction(1, 2)), capped(3))),
        replicas=replicas, experiment=experiment,
        max_horizon=max_horizon, **kw)


def test_config_from_json_and_digest(symmetric_pair):
    obj = {
        "mu": {"denominator": 1, "atoms": [[0, 1]]},
        "nu": {"denominator": 2, "atoms": [[-1, 1], [1, 1]]},
        "walk": {"dx": "1", "horizon_fwd": 1024, "horizon_bwd": 8, "seed": 3},
        "experiment": "embed_law",
        "replicas": 10,
    }
    cfg = ExperimentConfig.from_json(obj)
    assert cfg.pair.nu == symmetric_pair.nu
    assert cfg.thresholds == DEFAULT_THRESHOLDS
    assert cfg.digest() == ExperimentConfig.from_json(obj).digest()
    other = dict(obj, replicas=11)
    assert cfg.digest() != ExperimentConfig.from_json(other).digest()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(dict(obj, experiment="nope"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"walk": obj["walk"]})


def test_engine_forced_site(delta_pair):
    engine = FirstHitEngine(0, delta_pair)
    for rep in range(30):
        out = engine.run_replica(rep, 1 << 12)
        if out["censored"]:
            continue
        assert out["site"] == 1 and out["u_flag"] == 1
        assert out["t_star"] % 2 == 1    # parity of hitting an odd site


def test_engine_matches_ledger(symmetric_pair):
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=1,
                      seed=9, start_law=symmetric_pair.mu)
    engine = FirstHitEngine(9, symmetric_pair)
    for rep in range(30):
        led = build_ledger(sample_walk(walk, rep), symmetric_pair)
        out = engine.run_replica(rep, walk.horizon_fwd)
        try:
            res = compute_t_star(led, symmetric_pair)
        except HorizonExceededError:
            assert out["censored"]
            continue
        assert out == res


def test_engine_takes_non_unit_atoms():
    # A 2/3 nu-atom closes two slots at once; T* is the first C <= 0.
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))]))
    outs = list(FirstHitEngine(0, pair).run_replicas(range(40), 1 << 12))
    assert all(o["site"] in (1, 2) for o in outs if not o["censored"])
    assert sum(o["site"] == 2 for o in outs) > 0


def test_engine_on_identical_measures_stops_at_once():
    mu = DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (3, Fraction(1, 2))])
    engine = FirstHitEngine(0, split_measures(mu, mu))
    assert engine.wdiff == {}
    for rep in range(10):
        out = engine.run_replica(rep, 1 << 12)
        assert out["site"] in (0, 3)
        assert out == {"t_star": 0, "site": out["site"], "censored": False,
                       "u_flag": 0}


@pytest.mark.parametrize("budget", [1, 5])
def test_engine_matches_step_oracle_across_word_budgets(monkeypatch, delta_pair,
                                                        budget):
    # A budget below a row's doubling caps every read at that many words.
    monkeypatch.setattr(experiments, "_WORD_BUDGET", budget)
    engine = FirstHitEngine(5, delta_pair)
    for rep in range(40):
        for hmax in (5000, 4097):
            assert engine.run_replica(rep, hmax) == step_first_hit(engine, rep, hmax)


def test_first_excursion_slot_cap_keeps_the_mass_filter(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=60,
                   hf=64, max_horizon=1 << 12)
    fulls, cappeds = cohort_excursions(cfg), cohort_excursions(cfg, slot_cap=6)
    assert len(fulls) == len(cappeds) == 60
    for full, capped in zip(fulls, cappeds):
        if full is None or len(full.slots[0]) > 6:
            assert capped is None
        else:
            assert (capped.t_star, capped.slots) == (full.t_star, full.slots)


def test_first_excursions_build_one_cohort_per_engine_cohort(monkeypatch,
                                                             symmetric_pair):
    # compare and excursion-cost build one Cohort per engine cohort with a
    # used path, holding each used path once, from the engine's atom
    # visits; no WalkPath and no dense ledger is built, however it would
    # be reached, by these runners or any other.
    built, dense = [], []
    real = experiments.Cohort

    def record(*args):
        cohort = real(*args)
        built.append(cohort.t_star.tolist())
        return cohort

    monkeypatch.setattr(experiments, "Cohort", record)
    for owner, attr in ((experiments, "sample_walk"),
                        (experiments, "build_ledger"),
                        (walk, "build_ledger"),
                        (walk.WalkPath, "__init__")):
        monkeypatch.setattr(owner, attr,
                            lambda *args, attr=attr, **kw: dense.append(attr))
    # In-process: the spies see no forked worker's calls.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    monkeypatch.setattr(experiments, "_COHORT", 7)
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=40,
                   hf=16, max_horizon=1 << 14)
    got = cohort_excursions(cfg)
    used = [[p.t_star for p in got[i:i + 7] if p] for i in range(0, 40, 7)]
    used = [c for c in used if c]
    built.clear()
    assert run_cost_compare(cfg).data["paths_used"] == sum(map(len, used)) > 20
    assert built == used and len(used) == 6
    built.clear()
    assert run_excursion_cost(cfg, matrices_per_excursion=1).data["checks"] > 0
    assert built == used
    run_every_experiment(symmetric_pair)
    assert dense == []


def test_embed_law_forced(delta_pair):
    rep = run_embed_law(make_cfg(delta_pair, "embed_law", replicas=40,
                                 max_horizon=1 << 20))
    assert rep.data["completed"] > 0
    assert rep.data["tv_distance"] == 0.0   # every completed hit lands on 1
    assert rep.tables["law"][0]["observed"] == 1.0


def test_embed_law_censoring_accounting(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "embed_law", replicas=200, hf=256,
                   max_horizon=256)
    rep = run_embed_law(cfg)
    assert rep.data["completed"] + rep.data["censored"] == 200
    assert rep.data["censored"] > 0      # the tail guarantees some censoring
    assert 0 <= rep.data["tv_distance"] <= 1


def test_embed_law_flags_excess_censoring_under_doubling(symmetric_pair):
    # The flag follows the censor rate on the one horizon policy: a cap of
    # 16 steps censors more than 20% of the replicas, a cap of 2^16 fewer.
    for hmax, flagged in ((16, True), (1 << 16, False)):
        rep = run_embed_law(make_cfg(symmetric_pair, "embed_law",
                                     replicas=100, hf=4, max_horizon=hmax))
        assert (rep.data["censor_rate"]
                > DEFAULT_THRESHOLDS["censor_flag"]) is flagged
        assert rep.data["excess_censoring_flag"] is flagged


def test_embed_law_deterministic(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "embed_law", replicas=100)
    a = run_embed_law(cfg).to_json()
    b = run_embed_law(cfg).to_json()
    assert a == b


def test_unbiased_small_run(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "unbiased", seed=2, replicas=250,
                   hf=1 << 12, hb=64, lags=(1, 4))
    rep = run_unbiased_test(cfg)
    assert rep.data["completed"] + rep.data["censored"] == 250
    assert rep.data["sign_ok"]
    for row in rep.tables["lags"]:
        assert row["ks_pvalue_fwd"] > 0.01


def test_unbiased_completes_replicas_past_the_first_block(delta_pair):
    # T* in (horizon_fwd, max_horizon] is found, as in the other
    # experiments, and only T* beyond max_horizon is censored.
    cfg = make_cfg(delta_pair, "unbiased", seed=2, replicas=60, hf=64, hb=64,
                   max_horizon=1 << 16, lags=(1, 4))
    engine = FirstHitEngine(2, delta_pair)
    outs = [engine.run_replica(rep, 1 << 16) for rep in range(60)]
    assert any(not o["censored"] and o["t_star"] > 64 for o in outs)
    rep = run_unbiased_test(cfg)
    censored = sum(o["censored"] for o in outs)
    assert rep.data["censored"] == censored
    assert rep.data["completed"] == 60 - censored
    assert {row["n_fwd"] for row in rep.tables["lags"]} == {60 - censored}


def test_unbiased_reads_every_backward_lag(delta_pair):
    # A lag past T* + horizon_bwd reads the backward stream as deep as it
    # needs, so every completed replica gives a backward sample at every
    # lag, and the backward KS test sees no selection on T*.
    cfg = make_cfg(delta_pair, "unbiased", seed=77, replicas=200, hf=64, hb=1,
                   max_horizon=1 << 12, lags=(1, 4, 16))
    rep = run_unbiased_test(cfg)
    assert rep.data["completed"] == 182
    assert [row["n_bwd"] for row in rep.tables["lags"]] == [182] * 3
    assert min(row["ks_pvalue_bwd"] for row in rep.tables["lags"]) > 0.01


def test_unbiased_runs_on_a_general_target():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))]))
    rep = run_unbiased_test(make_cfg(pair, "unbiased", replicas=20, lags=(1,)))
    assert rep.data["completed"] + rep.data["censored"] == 20
    assert rep.data["completed"] > 0


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20),
       st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_displacement_is_the_sum_of_the_steps(seed, rep, ranges):
    # The seeked popcount equals the sum of the steps take_steps reads.
    steps = BitStream(seed, rep, STREAM_FWD).take_steps(6000)
    for a, length in ranges:
        assert experiments._displacement(seed, (rep, STREAM_FWD), a,
                                         a + length) == int(steps[a:a + length].sum())


def test_unbiased_memory_tripwire(symmetric_pair):
    # unbiased with lags up to 2^24 on both sides of T* (horizon_bwd 2^24),
    # 20 replicas, seed 7, under tracemalloc, scipy.stats imported before.
    # Peak measured with numpy 2.4: 2.35 MiB, one 2^18-word read at a time.
    # A dense path to T* + 2^24 takes 18 B per step, over 300 MiB here.
    from scipy import stats  # noqa: F401
    cfg = make_cfg(symmetric_pair, "unbiased", seed=7, replicas=20, hf=64,
                   hb=1 << 24, max_horizon=1 << 12, lags=(1, 1 << 24))
    tracemalloc.start()
    try:
        rep = run_unbiased_test(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.data["completed"] > 15
    assert {row["n_bwd"] for row in rep.tables["lags"]} == {rep.data["completed"]}
    assert peak <= 4 << 20, f"peak {peak / 2**20:.2f} MiB"


def test_cost_compare_no_violations(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=60,
                   hf=1 << 12, max_horizon=1 << 15)
    rep = run_cost_compare(cfg)
    assert rep.data["pathwise_violations"] == 0
    assert rep.data["paths_used"] > 30
    for row in rep.tables["costs"]:
        assert row["paired_diff_mean"] >= -1e-12


def test_cost_compare_matches_each_cohort_once(monkeypatch, symmetric_pair):
    # One kernel call per cohort with a used path, over all of the cohort's
    # events; the random rematch permutes those pairs.
    from shiftlab import comparators
    # In-process: the spies see no forked worker's calls.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    monkeypatch.setattr(experiments, "_COHORT", 7)
    calls = []
    kernel = comparators.match_slots
    monkeypatch.setattr(comparators, "match_slots",
                        lambda *args: calls.append(args) or kernel(*args))
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15)
    rep = run_cost_compare(cfg)
    assert "random_feasible_rematch" in rep.data["comparators"]
    outs = list(t_star_events(cfg, range(20)))
    events = [sum(len(o["events"][0]) for o in outs[i:i + 7] if o["t_star"])
              for i in range(0, 20, 7)]
    assert [(left, right + 1) for _, left, right in calls] == [
        (0, n) for n in events if n]
    assert len(calls) == 3 and rep.data["paths_used"] > 0


def test_excursion_cost_nonnegative(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=40,
                   hf=1 << 12, max_horizon=1 << 14)
    rep = run_excursion_cost(cfg, matrices_per_excursion=2)
    assert rep.data["all_nonnegative"]
    assert rep.data["excursions_used"] > 5
    assert rep.data["min_margin"] >= -DEFAULT_THRESHOLDS["margin_tol"]


def test_excursion_cost_checks_each_window_once(monkeypatch, symmetric_pair):
    # Per excursion: one stable allocation for the indicator, one per gauge
    # for its rhs and one per sampled matrix; the sampler's validate is the
    # only one its matrices get.
    from shiftlab import transport
    calls = {"stable_allocation": 0, "validate": 0}
    alloc, validate = transport.stable_allocation, transport.TransportMatrix.validate

    def count(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    monkeypatch.setattr(transport, "stable_allocation", count("stable_allocation", alloc))
    monkeypatch.setattr(transport.TransportMatrix, "validate", count("validate", validate))
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=40,
                   hf=1 << 12, max_horizon=1 << 14)
    data = run_excursion_cost(cfg, matrices_per_excursion=3).data
    n, n_g = data["excursions_used"], len(cfg.gauges)
    assert n > 5 and data["checks"] == n * 3 * n_g
    assert calls == {"stable_allocation": n * (1 + n_g + 3), "validate": n * (n_g + 3)}


def test_excursion_cost_requires_orthogonal():
    mu = DiscreteMeasure.delta(0)
    pair = split_measures(mu, mu)
    with pytest.raises(ConfigError):
        run_excursion_cost(make_cfg(pair, "excursion_cost"))


def test_ergodic_structure(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "ergodic", seed=0, replicas=1,
                   hf=1 << 15, hb=1 << 15, max_horizon=1 << 16,
                   gauges=(capped(3),), r_levels=3)
    rep = run_ergodic(cfg, ensemble_replicas=150)
    grid = rep.data["r_grid"]
    assert grid == sorted(grid) and len(grid) == 3
    (summ,) = rep.data["summary"]
    assert summ["gauge"] == capped(3).label
    assert summ["fwd"] > 0 and summ["bwd"] > 0
    assert summ["half_ensemble"] > 0
    assert rep.data["ensemble_replicas"] == 150


def run_every_experiment(symmetric_pair):
    """Runs each of the six experiments once, on small configs."""
    small = dict(seed=3, replicas=30, hf=64, hb=64, max_horizon=1 << 12,
                 lags=(1, 4))
    assert run_embed_law(make_cfg(symmetric_pair, "embed_law", **small)
                         ).data["replicas"] == 30
    assert run_unbiased_test(make_cfg(symmetric_pair, "unbiased", **small)
                             ).data["replicas"] == 30
    assert run_cost_compare(make_cfg(symmetric_pair, "cost_compare", **small)
                            ).data["paths_used"] > 0
    assert run_excursion_cost(
        make_cfg(symmetric_pair, "excursion_cost", **small),
        matrices_per_excursion=1).data["excursions_used"] > 0
    assert run_tail(make_cfg(symmetric_pair, "tail", **small), n_boot=5,
                    checkpoints=(10,)).data["replicas"] == 30
    ergodic = make_cfg(symmetric_pair, "ergodic", seed=3, replicas=1,
                       hf=1 << 12, hb=1 << 12, max_horizon=1 << 12,
                       gauges=(capped(3),), r_levels=2)
    assert run_ergodic(ergodic, ensemble_replicas=30
                       ).data["ensemble_replicas"] == 30


def test_every_runner_scans_replicas_in_cohorts(monkeypatch, symmetric_pair):
    # run_replica is one replica's cohort; a runner that calls it per
    # replica pays a full scan pass for each.  Every cohort scan runs inside
    # the one map: T* finding (embed, unbiased, tail, the ergodic ensemble)
    # without visits, compare and excursion-cost with them.
    def refuse(*args, **kwargs):
        raise AssertionError("runners must use FirstHitEngine.run_replicas")

    mapped, scans = [], []
    real_map, real_scan = FirstHitEngine.map_cohorts, FirstHitEngine.scan_cohort

    def map_cohorts(self, replicas, hmax, fn):
        def inside(*args):
            mapped.append(True)
            try:
                return fn(*args)
            finally:
                mapped.pop()
        return real_map(self, replicas, hmax, inside)

    def scan_cohort(self, reps, hmax, events):
        assert mapped, "a cohort scan must run inside FirstHitEngine.map_cohorts"
        scans.append(events)
        return real_scan(self, reps, hmax, events)

    monkeypatch.setattr(FirstHitEngine, "run_replica", refuse)
    monkeypatch.setattr(FirstHitEngine, "map_cohorts", map_cohorts)
    monkeypatch.setattr(FirstHitEngine, "scan_cohort", scan_cohort)
    run_every_experiment(symmetric_pair)
    assert sorted(scans) == [False] * 4 + [True] * 2


def test_tail_small_run(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "tail", seed=4, replicas=400,
                   hf=1 << 10, max_horizon=1 << 15)
    rep = run_tail(cfg, n_boot=20, checkpoints=(100, 400))
    assert rep.data["censored"] > 0
    surv = [row["survival"] for row in rep.tables["survival"]]
    assert all(x >= y for x, y in zip(surv, surv[1:]))
    assert rep.data["partial_mean_quarter"][0]["checkpoint"] == 100
    assert rep.data["quarter_increasing"] in (True, False)


@given(st.lists(st.one_of(st.sampled_from((64, 128, 256, 512, 1024, 2048)),
                          st.integers(1, 4095)), min_size=3, max_size=60),
       st.integers(0, 5), st.sampled_from((Fraction(1), Fraction(1, 3))),
       st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_tail_survival_and_bootstrap_equal_the_np_mean_counts(steps, n_cens, dx,
                                                              seed):
    # T* on the grid points 64 dt 2^k (ties count as not above) and around
    # them: the banded counts give np.mean(t > g) bit for bit, in the table,
    # the fitted exponent and every bootstrap resample.
    cfg = make_cfg(split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1)),
                   "tail", seed=seed, replicas=len(steps) + n_cens,
                   max_horizon=4096)
    cfg = dataclasses.replace(cfg, walk=dataclasses.replace(cfg.walk, dx=dx))
    outs = ([{"censored": False, "t_star": t} for t in steps]
            + [{"censored": True, "t_star": None}] * n_cens)
    with mock.patch.object(experiments, "_t_star_finder",
                           lambda cfg: lambda reps: iter(outs)):
        rep = run_tail(cfg, n_boot=30)
    dt = float(cfg.walk.dt)
    t_phys = np.array(steps + [cfg.max_horizon] * n_cens, dtype=np.float64) * dt
    grid = [64.0 * dt * 2 ** k for k in range(6)]

    def fit(tp):
        pts = [(g, float(np.mean(tp > g))) for g in grid]
        dec = [(g, s) for g, s in pts if 4096 * dt / 16 <= g and s > 0]
        if len(dec) < 3:
            return None
        return float(-np.polyfit(np.log([g for g, _ in dec]),
                                 np.log([s for _, s in dec]), 1)[0])

    assert [(row["t"], row["survival"]) for row in rep.tables["survival"]] == [
        (g, float(np.mean(t_phys > g))) for g in grid]
    assert rep.data["alpha_hat"] == fit(t_phys)
    boot_rng = np.random.Generator(np.random.Philox(key=[cfg.walk.seed, 0xB007]))
    boots = [fit(t_phys[boot_rng.integers(0, len(t_phys), len(t_phys))])
             for _ in range(30)]
    boots = [b for b in boots if b is not None]
    assert rep.data["alpha_ci"] == ((float(np.percentile(boots, 2.5)),
                                     float(np.percentile(boots, 97.5)))
                                    if boots else (None, None))


def test_report_write(tmp_path, delta_pair):
    rep = run_embed_law(make_cfg(delta_pair, "embed_law", replicas=10))
    rep.write(tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "tables" / "law.csv").read_text().startswith("site,")


@st.composite
def measure_pairs(draw):
    """Any pair of probability measures on sites -2..2 with denominator q."""
    q = draw(st.integers(1, 4))

    def measure():
        units = draw(st.lists(st.sampled_from(range(-2, 3)), min_size=q,
                              max_size=q))
        return DiscreteMeasure.from_atoms(
            [(s, Fraction(units.count(s), q)) for s in set(units)], q)

    return split_measures(measure(), measure())


@given(measure_pairs(), st.integers(0, 10**6),
       st.integers(0, 20))
@settings(max_examples=80, deadline=None)
def test_engine_matches_ledger_on_random_pairs(pair, seed, rep):
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=512, horizon_bwd=1,
                      seed=seed, start_law=pair.mu)
    out = FirstHitEngine(seed, pair).run_replica(rep, 512)
    led = build_ledger(sample_walk(walk, rep), pair)
    try:
        res = compute_t_star(led, pair)
    except HorizonExceededError:
        assert out["censored"]
        return
    assert out == res


_FIXTURE_PAIRS = (
    split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1)),
    split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
        [(-1, Fraction(1, 2)), (1, Fraction(1, 2))])),
)


def _patched(name, value):
    return (nullcontext() if value is None
            else mock.patch.object(experiments, name, value))


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS), measure_pairs()),
       st.integers(0, 10**6), st.integers(0, 50),
       st.integers(1, 12), st.sampled_from((1, 63, 64, 777, 4097, 1 << 12)),
       st.booleans(), st.sampled_from((1, 3, None)),
       st.sampled_from((1, 3, None)))
@settings(max_examples=120, deadline=None)
def test_engine_matches_step_oracle(pair, seed, first, n, hmax, events,
                                    cohort, budget):
    # The batched scan, a cohort of one and the step oracle agree, events
    # included, whatever the cohort and word-budget sizes (None keeps the
    # module default).
    engine = FirstHitEngine(seed, pair)
    reps = range(first, first + n)
    with _patched("_COHORT", cohort), _patched("_WORD_BUDGET", budget):
        if events:
            got = list(run_with_events(engine, reps, hmax))
            one = [next(run_with_events(engine, [rep], hmax)) for rep in reps]
        else:
            got = list(engine.run_replicas(reps, hmax))
            one = [engine.run_replica(rep, hmax) for rep in reps]
        want = [step_first_hit(engine, rep, hmax, events) for rep in reps]
    assert len(got) == n
    for outs in zip(got, one, want):
        visits = [out.pop("events", None) for out in outs]
        assert outs[0] == outs[1] == outs[2]
        if not events or outs[0]["censored"]:
            assert visits == [None] * 3
            continue
        for v in visits[1:]:
            for x, y in zip(visits[0], v, strict=True):
                np.testing.assert_array_equal(x, y)


# Words of u up-steps, ups first (they reach start + u) or last (they reach
# start + u - 64), so a word at the bound of the filter has a kept byte.
_WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 64).map(lambda u: ((1 << u) - 1) << (64 - u)),
    st.integers(0, 64).map(lambda u: (1 << u) - 1))


@st.composite
def word_blocks(draw):
    """(engine, words, pos): rows of words, each row placed so that one of
    its words starts at a bound of the new or the old near-word rule, one
    site past it, or anywhere near the hull."""
    a = draw(st.integers(-40, 40))
    b = draw(st.integers(-40, 40).filter(lambda x: x != a))
    engine = FirstHitEngine(0, split_measures(DiscreteMeasure.delta(a),
                                              DiscreteMeasure.delta(b)))
    lo, hi = engine._lo, engine._hi
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_WORDS, min_size=n, max_size=n),
                         min_size=1, max_size=4))
    words = np.array(rows, dtype=np.uint64)
    pos = []
    for row in rows:
        j = draw(st.integers(0, n - 1))
        ups = [bin(w).count("1") for w in row]
        before = sum(2 * u - 64 for u in ups[:j])     # start of word j
        # start + u of word j at lo or hi + 64, or start at lo - 64 or hi + 64.
        start = draw(st.sampled_from((
            lo - ups[j], hi + 64 - ups[j], lo - 64, hi + 64,
            draw(st.integers(lo - 200, hi + 200)))))
        pos.append(start + draw(st.sampled_from((-1, 0, 1))) - before)
    return engine, words, np.array(pos, dtype=np.int64)


@given(word_blocks())
@settings(max_examples=300, deadline=None)
def test_near_keeps_the_bytes_of_the_pm64_rule(block):
    # The popcount bound drops only words no kept byte can come from.
    engine, words, pos = block
    for got, want in zip(engine._near(words, pos), pm64_near(engine, words, pos),
                         strict=True):
        np.testing.assert_array_equal(got, want)


def _two_atoms(*sites):
    return DiscreteMeasure.from_atoms([(s, Fraction(1, 2)) for s in sites])


# A start draw (two-atom mu) and U flags (a common atom at 1).
_POOL_PAIRS = {"point": _FIXTURE_PAIRS[0], "symmetric": _FIXTURE_PAIRS[1],
               "two-atom-mu": split_measures(_two_atoms(0, 2), _two_atoms(1, 3)),
               "non-orthogonal": split_measures(_two_atoms(0, 1), _two_atoms(-1, 1))}


@pytest.mark.parametrize("name", list(_POOL_PAIRS))
def test_pooled_scan_equals_the_in_process_scan(monkeypatch, name):
    # 11 replicas in cohorts of 4 on two forked workers, to a cap low
    # enough that some rows are censored: the dicts equal the in-process
    # scan's, element for element, and the workers end with the iteration.
    engine = FirstHitEngine(11, _POOL_PAIRS[name])
    monkeypatch.setattr(experiments, "_COHORT", 4)
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    serial = list(engine.run_replicas(range(3, 14), 100))
    monkeypatch.setattr(experiments, "_WORKERS", 2)
    pooled = engine.run_replicas(range(3, 14), 100)
    first = next(pooled)
    assert len(multiprocessing.active_children()) == 2
    assert [first, *pooled] == serial
    assert multiprocessing.active_children() == []
    assert 0 < sum(out["censored"] for out in serial) < len(serial)


def test_pool_has_no_more_workers_than_cohorts(monkeypatch, delta_pair):
    # Three cohorts on eight CPUs start three workers; a consumer that
    # stops early still leaves none behind.
    monkeypatch.setattr(experiments, "_COHORT", 4)
    monkeypatch.setattr(experiments, "_WORKERS", 8)
    outs = FirstHitEngine(2, delta_pair).run_replicas(range(12), 1 << 10)
    next(outs)
    assert len(multiprocessing.active_children()) == 3
    outs.close()
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller(monkeypatch, delta_pair):
    # The patch is made before the fork, so the workers inherit it.
    def broken(*args):
        raise InvariantError("broken scan")

    monkeypatch.setattr(experiments, "_COHORT", 4)
    monkeypatch.setattr(experiments, "_WORKERS", 2)
    monkeypatch.setattr(FirstHitEngine, "_scan", broken)
    with pytest.raises(InvariantError, match="broken scan"):
        list(FirstHitEngine(2, delta_pair).run_replicas(range(12), 1 << 10))
    assert multiprocessing.active_children() == []


_THREE_ATOM_MU = split_measures(*(DiscreteMeasure.from_atoms(
    [(s, Fraction(1, 3)) for s in sites]) for sites in ((-2, 0, 2), (-1, 1, 3))))
# The runners that score engine cohorts, and the count of paths they score.
_SCORED = {"cost_compare": (run_cost_compare, "paths_used"),
           "excursion_cost": (run_excursion_cost, "excursions_used")}


@pytest.mark.parametrize("experiment", ["cost_compare", "excursion_cost"])
@pytest.mark.parametrize("pair", [_FIXTURE_PAIRS[1], _THREE_ATOM_MU],
                         ids=["symmetric", "three-atom-mu"])
def test_scored_reports_do_not_depend_on_the_workers(monkeypatch, experiment,
                                                     pair):
    # 600 replicas are three cohorts: scored in-process and on two forked
    # workers, the report bytes and tables are equal.
    run, used = _SCORED[experiment]
    cfg = make_cfg(pair, experiment, seed=8, replicas=600, hf=64,
                   max_horizon=1 << 10)
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(experiments, "_WORKERS", workers)
        rep = run(cfg)
        reports.append((rep.to_json(), rep.tables))
    assert reports[0] == reports[1]
    assert multiprocessing.active_children() == []
    assert 0 < rep.data[used] < 600


@pytest.mark.parametrize("experiment, layer", [
    ("cost_compare", "check_matching"), ("excursion_cost", "inequality_check")])
def test_a_scoring_worker_error_reaches_the_caller(monkeypatch, symmetric_pair,
                                                   experiment, layer):
    # The patch is made before the fork, so the workers inherit it.
    def broken(*args):
        raise InvariantError("broken score")

    monkeypatch.setattr(experiments, "_COHORT", 4)
    monkeypatch.setattr(experiments, "_WORKERS", 2)
    monkeypatch.setattr(experiments, layer, broken)
    cfg = make_cfg(symmetric_pair, experiment, seed=2, replicas=12, hf=64,
                   max_horizon=1 << 10)
    with pytest.raises(InvariantError, match="broken score"):
        _SCORED[experiment][0](cfg)
    assert multiprocessing.active_children() == []


def test_engine_set_up_memory_does_not_grow_with_the_weights():
    # delta_0 -> delta_(2^20): the engine keeps an int64 weight difference
    # and a bool atom flag per site of the hull, 9 B; the peak stays under
    # 12 B per site (41 B when the tables were built over a site grid).
    pair = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1 << 20))
    tracemalloc.start()
    try:
        engine = FirstHitEngine(0, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.wdiff == {0: 1, 1 << 20: -1}
    assert peak <= 12 * ((1 << 20) + 17), f"peak {peak / 2**20:.2f} MiB"


def test_engine_builds_start_streams_only_for_a_start_draw(monkeypatch,
                                                           delta_pair):
    built = []

    class Recorded(experiments.BitStream):
        def __init__(self, seed, *ids):
            built.append(ids)
            super().__init__(seed, *ids)

    monkeypatch.setattr(experiments, "BitStream", Recorded)
    two_atoms = split_measures(*(DiscreteMeasure.from_atoms(
        [(s, Fraction(1, 2)), (s + 2, Fraction(1, 2))]) for s in (0, 1)))
    for pair, starts in ((delta_pair, 0), (two_atoms, 5)):
        built.clear()
        list(FirstHitEngine(3, pair).run_replicas(range(5), 1 << 12))
        assert sum(ids[1] == STREAM_START for ids in built) == starts
        assert sum(ids[1] == STREAM_FWD for ids in built) == 5


@pytest.mark.parametrize("hf", [1024, 4096])
@pytest.mark.parametrize("target", ["point", "symmetric"])
def test_finder_memory_tripwire(target, hf, delta_pair, symmetric_pair):
    # One finder pass of 1000 replicas at cap 2^18, seed 7, events on and
    # outputs kept, under tracemalloc.  Early reads are almost all near the
    # hull, so a call's arrays grow with its words.  Peaks measured with
    # numpy 2.4 (point, symmetric): with the first block read whole, 2.90
    # and 3.53 MiB at horizon_fwd 1024, 4.81 and 5.75 MiB at 4096; with a
    # row reading at most the words it has read, 2.30 and 2.77 MiB at 1024,
    # 2.13 and 2.77 MiB at 4096.
    pair = delta_pair if target == "point" else symmetric_pair
    cfg = make_cfg(pair, "tail", seed=7, replicas=1000, hf=hf,
                   max_horizon=1 << 18)
    tracemalloc.start()
    try:
        outs = list(t_star_events(cfg, range(1000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outs) == 1000
    assert peak <= 3.25 * (1 << 20), f"peak {peak / 2**20:.2f} MiB"


def test_finder_reads_do_not_grow_with_horizon_fwd(monkeypatch, delta_pair):
    # A row reads at most as many words as it has read, 1, 1, 2, 4, ...,
    # so a finder pass (1000 replicas, cap 2^18, seed 7) reads 262,479
    # words whatever horizon_fwd.  Reading each first block whole took
    # 274,176 words at horizon_fwd 1024, 315,136 at 4096 and 4,096,000 at
    # 2^18.  In-process: forked workers' reads would not reach the spy.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    read = []
    take = BitStream.take_words
    monkeypatch.setattr(BitStream, "take_words",
                        lambda self, n: read.append(n) or take(self, n))
    totals = []
    for hf in (1024, 4096, 1 << 18):
        read.clear()
        cfg = make_cfg(delta_pair, "tail", seed=7, replicas=1000, hf=hf,
                       max_horizon=1 << 18)
        assert len(list(experiments._t_star_finder(cfg)(range(1000)))) == 1000
        totals.append(sum(read))
    assert totals == [262_479] * 3


def test_tail_pass_reads_at_most_the_word_budget(monkeypatch, delta_pair):
    # A finder pass of 300 replicas to 2^24, seed 7, under tracemalloc:
    # no read takes more than _WORD_BUDGET words.  Peaks measured with
    # numpy 2.4: 2.69 MiB when horizon blocks of up to 2^22 steps let a
    # read take 65,536 words, 1.19 MiB with the budget as the cap.
    # In-process: forked workers report to neither the spy nor tracemalloc.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    read = []
    take = BitStream.take_words
    monkeypatch.setattr(BitStream, "take_words",
                        lambda self, n: read.append(n) or take(self, n))
    cfg = make_cfg(delta_pair, "tail", seed=7, replicas=300, max_horizon=1 << 24)
    tracemalloc.start()
    try:
        outs = list(experiments._t_star_finder(cfg)(range(300)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outs) == 300 and any(out["censored"] for out in outs)
    assert max(read) <= experiments._WORD_BUDGET
    assert peak < 2 * (1 << 20), f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("experiment, run", [
    ("embed_law", run_embed_law), ("unbiased", run_unbiased_test),
    ("cost_compare", run_cost_compare),
    ("excursion_cost", lambda cfg: run_excursion_cost(cfg, matrices_per_excursion=1)),
    ("tail", lambda cfg: run_tail(cfg, n_boot=5, checkpoints=(10,)))])
def test_reports_do_not_depend_on_horizon_fwd(experiment, run, symmetric_pair):
    # Every runner scans to max_horizon; horizon_fwd is read only by the
    # ergodic long path and the walk command.
    hmax = 777
    reports = [run(make_cfg(symmetric_pair, experiment, seed=5, replicas=60,
                            hf=hf, max_horizon=hmax, lags=(1, 4)))
               for hf in (1, 1000, 1024, hmax)]
    blobs = {json.dumps([rep.data, rep.tables], sort_keys=True) for rep in reports}
    assert len(blobs) == 1


def test_compare_memory_tripwire(monkeypatch, symmetric_pair):
    # Criterion 6's shape: cost_compare of 1000 replicas, horizon_fwd 4096,
    # cap 2^18, seed 21, under tracemalloc.  Peaks measured with numpy 2.4:
    # 5.60 MiB scoring one excursion at a time, 6.29 MiB scoring a cohort
    # at a time with the previous cohort's visits and arrays held while the
    # next one scanned (6.45 MiB with numpy 2.4.6), 5.40 MiB with each
    # cohort scored in its own call, all inside the engine's scan; 5.19 MiB
    # with the first block read whole, 2.35 MiB with a row reading at most
    # the words it has read.  In-process: tracemalloc sees no forked worker.
    monkeypatch.setattr(experiments, "_WORKERS", 1)
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=1000,
                   hf=1 << 12, max_horizon=1 << 18, gauges=default_gauges())
    tracemalloc.start()
    try:
        rep = run_cost_compare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.data["paths_used"] > 900
    assert peak <= 3.5 * (1 << 20), f"peak {peak / 2**20:.2f} MiB"


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS), measure_pairs()).filter(
           lambda p: p.orthogonal and p.unit_nu_slots),
       st.integers(0, 10**6), st.integers(0, 30),
       st.sampled_from((1, 64, 1000)), st.sampled_from((777, 4096)),
       st.sampled_from((None, 6)))
@settings(max_examples=150, deadline=None)
def test_first_excursion_matches_doubling_oracle(pair, seed, rep, hf, hmax,
                                                 slot_cap):
    # Orthogonal pairs, as excursion-cost requires: there T* is a nu-visit,
    # so the mu-slots on [0, T*] are the mass of [0, T*) that the oracle caps.
    cfg = make_cfg(pair, "cost_compare", seed=seed, replicas=rep + 1, hf=hf,
                   max_horizon=hmax)
    got = cohort_excursions(cfg, slot_cap=slot_cap)[rep]
    want = doubling_first_excursion(cfg, rep, slot_cap=slot_cap)
    if want is not None and want[1].right > hmax:
        # horizon_fwd > max_horizon: the oracle stops at horizon_fwd, the
        # engine at max_horizon.
        assert hf > hmax and got is None
        return
    assert (got is None) == (want is None)
    if got is None:
        return
    want_led, want_exc = want
    assert got.t_star == want_exc.right and got.cohort.q == want_led.q
    assert len(got.slots[0]) == want_exc.mass * want_led.q
    assert got.slots == tuple(extract_slots(want_led, want_exc))
    # The cohort holds the path's atom visits on [0, T*] = [0, exc.right].
    for x, y in zip(got.events(), want_led.events(0, want_exc.right)):
        np.testing.assert_array_equal(x, y)


def test_first_excursion_caps_at_max_horizon(symmetric_pair):
    # horizon_fwd 1000 > max_horizon 777: the ledger-doubling path stopped at
    # horizon_fwd and kept T* = 957; the one contract censors it.
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=1, hf=1000,
                   max_horizon=777)
    assert doubling_first_excursion(cfg, 6)[1].right == 957
    assert cohort_excursions(cfg)[6] is None


def test_config_rejects_unknown_threshold_keys(symmetric_pair):
    assert set(DEFAULT_THRESHOLDS) == {"sigma", "margin_tol", "censor_flag"}
    with pytest.raises(ConfigError, match="sigm"):
        make_cfg(symmetric_pair, "embed_law",
                 thresholds={**DEFAULT_THRESHOLDS, "sigm": 2.0})
    obj = {"mu": [[0, 1, 1]], "nu": [[-1, 1, 2], [1, 1, 2]],
           "walk": {"horizon_fwd": 64, "horizon_bwd": 4, "seed": 0}}
    assert ExperimentConfig.from_json(
        dict(obj, thresholds={"sigma": 2})).thresholds["sigma"] == 2.0
    for key in ("sigm", "ks_alpha"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(dict(obj, thresholds={key: 0.1}))


def test_config_merges_partial_thresholds(symmetric_pair):
    # A config built in Python with some thresholds holds all three, so
    # every runner finds the ones it reads.
    cfg = make_cfg(symmetric_pair, "embed_law", replicas=20,
                   thresholds={"sigma": 2.0})
    assert cfg.thresholds == {**DEFAULT_THRESHOLDS, "sigma": 2.0}
    assert run_embed_law(cfg).data["excess_censoring_flag"] is False
    assert make_cfg(symmetric_pair, "cost_compare", replicas=20,
                    thresholds={"censor_flag": 0.5}).thresholds["margin_tol"] == 1e-10


def test_config_bounds_the_thresholds(symmetric_pair):
    # Out of range, a threshold decides a verdict whatever the data: an
    # infinite margin_tol passes every margin.  The bounds themselves load.
    bad = (("sigma", math.nan), ("sigma", -1.0), ("sigma", 0.0),
           ("sigma", math.inf), ("censor_flag", -0.5), ("censor_flag", 1.5),
           ("censor_flag", math.nan), ("margin_tol", math.inf),
           ("margin_tol", 2e-6), ("margin_tol", -1e-12), ("margin_tol", math.nan))
    for key, value in bad:
        with pytest.raises(ConfigError, match="thresholds"):
            make_cfg(symmetric_pair, "embed_law",
                     thresholds={**DEFAULT_THRESHOLDS, key: value})
    for key, value in (("sigma", 1e-3), ("censor_flag", 0.0),
                       ("censor_flag", 1.0), ("margin_tol", 0.0),
                       ("margin_tol", 1e-6)):
        make_cfg(symmetric_pair, "embed_law",
                 thresholds={**DEFAULT_THRESHOLDS, key: value})


def test_config_caps_max_horizon_but_not_unbiased_lags(symmetric_pair):
    # max_horizon holds at 2^30 and fails one step past it; unbiased reads
    # seeked words, so max_horizon + max lag may pass the walk command's
    # dense cap of 2^24 steps.
    make_cfg(symmetric_pair, "tail", max_horizon=walk.MAX_HORIZON_STEPS)
    with pytest.raises(ConfigError, match="2\\^30"):
        make_cfg(symmetric_pair, "tail", max_horizon=walk.MAX_HORIZON_STEPS + 1)
    make_cfg(symmetric_pair, "unbiased", max_horizon=walk.MAX_DENSE_STEPS,
             lags=(16, walk.MAX_HORIZON_STEPS))
