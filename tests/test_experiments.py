from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import doubling_first_excursion, step_first_hit
from shiftlab import experiments, walk
from shiftlab.embedding import compute_t_star
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.experiments import (DEFAULT_THRESHOLDS, ExperimentConfig,
                                  FirstHitEngine, _first_excursion,
                                  run_cost_compare, run_embed_law,
                                  run_ergodic, run_excursion_cost, run_tail,
                                  run_unbiased_test)
from shiftlab.gauges import capped, log1p, power
from shiftlab.measures import DiscreteMeasure, split_measures
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
        out = engine.run_replica(rep, 64, 1 << 12)
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
        out = engine.run_replica(rep, walk.horizon_fwd, walk.horizon_fwd)
        try:
            res = compute_t_star(led, symmetric_pair)
        except HorizonExceededError:
            assert out["censored"]
            continue
        assert (out["t_star"], out["site"]) == (res.t_star, res.site)


def test_engine_rejects_a_zero_first_horizon(delta_pair):
    with pytest.raises(ConfigError):
        FirstHitEngine(0, delta_pair).run_replica(0, 0, 100)


def test_engine_rejects_non_unit_atoms():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))]))
    with pytest.raises(ConfigError):
        FirstHitEngine(0, pair)
    FirstHitEngine(0, pair, mode="crossing")


def test_engine_on_identical_measures_stops_at_once():
    mu = DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (3, Fraction(1, 2))])
    engine = FirstHitEngine(0, split_measures(mu, mu))
    assert engine.wdiff == {}
    for rep in range(10):
        out = engine.run_replica(rep, 64, 1 << 12)
        assert out["site"] in (0, 3)
        assert out == {"t_star": 0, "site": out["site"], "censored": False,
                       "horizon": 0, "u_flag": 0}


@pytest.mark.parametrize("cap", [200, 256])
def test_engine_matches_step_oracle_across_chunk_caps(monkeypatch, delta_pair,
                                                      cap):
    monkeypatch.setattr(experiments, "_CHUNK_CAP", cap)
    engine = FirstHitEngine(5, delta_pair)
    for rep in range(40):
        for h0, hmax in ((1, 5000), (4097, 4097)):
            assert engine.run_replica(rep, h0, hmax) == \
                step_first_hit(engine, rep, h0, hmax)


def test_first_excursion_slot_cap_keeps_the_mass_filter(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=60,
                   hf=64, max_horizon=1 << 12)
    for rep in range(60):
        full = _first_excursion(cfg, rep)
        capped = _first_excursion(cfg, rep, slot_cap=6)
        if full is None or full[1].mass * full[0].q > 6:
            assert capped is None
        else:
            assert capped[1] == full[1]


def test_first_excursion_builds_one_ledger_per_path(monkeypatch,
                                                    symmetric_pair):
    # One event ledger per used path, from the engine's atom visits; no
    # WalkPath and no LocalTimeLedger is built, however it would be reached.
    built, dense = [], []
    real = experiments.EventLedger
    monkeypatch.setattr(experiments, "EventLedger",
                        lambda steps, sites, pair: built.append(int(steps[-1]))
                        or real(steps, sites, pair))
    for owner, attr in ((experiments, "sample_walk"),
                        (experiments, "build_ledger"),
                        (walk.WalkPath, "__init__"),
                        (walk.LocalTimeLedger, "__init__")):
        monkeypatch.setattr(owner, attr,
                            lambda *args, attr=attr, **kw: dense.append(attr))
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=40,
                   hf=16, max_horizon=1 << 14)
    got = [_first_excursion(cfg, rep) for rep in range(40)]
    used = [exc.right for _, exc in filter(None, got)]
    assert built == used and len(used) > 20
    assert run_cost_compare(cfg).data["paths_used"] == len(used)
    assert run_excursion_cost(cfg, matrices_per_excursion=1).data["checks"] > 0
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
    # T* in (horizon_fwd, max_horizon] is found under doubling, as in the
    # other experiments, and only T* beyond max_horizon is censored.
    cfg = make_cfg(delta_pair, "unbiased", seed=2, replicas=60, hf=64, hb=64,
                   max_horizon=1 << 16, lags=(1, 4))
    engine = FirstHitEngine(2, delta_pair)
    outs = [engine.run_replica(rep, 64, 1 << 16) for rep in range(60)]
    assert any(not o["censored"] and o["t_star"] > 64 for o in outs)
    rep = run_unbiased_test(cfg)
    censored = sum(o["censored"] for o in outs)
    assert rep.data["censored"] == censored
    assert rep.data["completed"] == 60 - censored
    assert {row["n_fwd"] for row in rep.tables["lags"]} == {60 - censored}


def test_unbiased_follows_the_config_mode():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))]))
    with pytest.raises(ConfigError):
        run_unbiased_test(make_cfg(pair, "unbiased", replicas=20))
    rep = run_unbiased_test(make_cfg(pair, "unbiased", replicas=20,
                                     mode="crossing", lags=(1,)))
    assert rep.data["completed"] + rep.data["censored"] == 20
    assert rep.data["completed"] > 0


def test_cost_compare_no_violations(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=60,
                   hf=1 << 12, max_horizon=1 << 15)
    rep = run_cost_compare(cfg)
    assert rep.data["pathwise_violations"] == 0
    assert rep.data["paths_used"] > 30
    for row in rep.tables["costs"]:
        assert row["paired_diff_mean"] >= -1e-12


def test_cost_compare_matches_each_path_once(monkeypatch, symmetric_pair):
    from shiftlab import comparators
    calls = []
    kernel = comparators.match_slots
    monkeypatch.setattr(comparators, "match_slots",
                        lambda *args: calls.append(args) or kernel(*args))
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=20,
                   hf=1 << 12, max_horizon=1 << 15)
    rep = run_cost_compare(cfg)
    assert "random_feasible_rematch" in rep.data["comparators"]
    assert len(calls) == rep.data["paths_used"] > 0


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


def test_tail_small_run(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "tail", seed=4, replicas=400,
                   hf=1 << 10, max_horizon=1 << 15)
    rep = run_tail(cfg, n_boot=20, checkpoints=(100, 400))
    assert rep.data["censored"] > 0
    surv = [row["survival"] for row in rep.tables["survival"]]
    assert all(x >= y for x, y in zip(surv, surv[1:]))
    assert rep.data["partial_mean_quarter"][0]["checkpoint"] == 100
    assert rep.data["quarter_increasing"] in (True, False)


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


@given(measure_pairs(), st.booleans(), st.integers(0, 10**6),
       st.integers(0, 20))
@settings(max_examples=80, deadline=None)
def test_engine_matches_ledger_on_random_pairs(pair, exact, seed, rep):
    mode = "exact" if exact and pair.exact_mode_ok else "crossing"
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=512, horizon_bwd=1,
                      seed=seed, start_law=pair.mu)
    out = FirstHitEngine(seed, pair, mode).run_replica(rep, 512, 512)
    led = build_ledger(sample_walk(walk, rep), pair)
    try:
        res = compute_t_star(led, pair, mode=mode)
    except HorizonExceededError:
        assert out["censored"]
        return
    assert not out["censored"]
    assert (out["t_star"], out["site"], out["u_flag"]) == \
        (res.t_star, res.site, res.u_flag)


@given(measure_pairs(), st.booleans(), st.integers(0, 10**6),
       st.integers(0, 20), st.sampled_from((1, 63, 64, 1000, 1024, 1 << 12)),
       st.sampled_from((777, 4097, 1 << 12)))
@settings(max_examples=120, deadline=None)
def test_engine_matches_step_oracle(pair, exact, seed, rep, h0, hmax):
    # h0 >= hmax examines hmax steps at once.
    mode = "exact" if exact and pair.exact_mode_ok else "crossing"
    engine = FirstHitEngine(seed, pair, mode)
    assert engine.run_replica(rep, h0, hmax) == \
        step_first_hit(engine, rep, h0, hmax)


_FIXTURE_PAIRS = (
    split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1)),
    split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
        [(-1, Fraction(1, 2)), (1, Fraction(1, 2))])),
)


@given(st.one_of(st.sampled_from(_FIXTURE_PAIRS), measure_pairs()),
       st.integers(0, 10**6), st.integers(0, 30),
       st.sampled_from((1, 64, 1000)), st.sampled_from((777, 4096)),
       st.sampled_from((None, 6)))
@settings(max_examples=150, deadline=None)
def test_first_excursion_matches_doubling_oracle(pair, seed, rep, hf, hmax,
                                                 slot_cap):
    assume(pair.exact_mode_ok and pair.rho > 0)
    cfg = make_cfg(pair, "cost_compare", seed=seed, hf=hf, max_horizon=hmax)
    got = _first_excursion(cfg, rep, slot_cap=slot_cap)
    want = doubling_first_excursion(cfg, rep, slot_cap=slot_cap)
    if want is not None and want[1].right > hmax:
        # horizon_fwd > max_horizon: the oracle stops at horizon_fwd, the
        # engine at max_horizon.
        assert hf > hmax and got is None
        return
    assert (got is None) == (want is None)
    if got is None:
        return
    (led, exc), (want_led, want_exc) = got, want
    assert exc == want_exc and led.q == want_led.q
    # The event ledger holds [0, T*] = [0, exc.right].
    for x, y in zip(led.events(0, exc.right), want_led.events(0, exc.right)):
        np.testing.assert_array_equal(x, y)


def test_first_excursion_caps_at_max_horizon(symmetric_pair):
    # horizon_fwd 1000 > max_horizon 777: the ledger-doubling path stopped at
    # horizon_fwd and kept T* = 957; the one contract censors it.
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=1, hf=1000,
                   max_horizon=777)
    assert doubling_first_excursion(cfg, 6)[1].right == 957
    assert _first_excursion(cfg, 6) is None


def test_config_rejects_unknown_mode_and_policy(symmetric_pair):
    with pytest.raises(ConfigError):
        make_cfg(symmetric_pair, "embed_law", mode="exakt")


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
