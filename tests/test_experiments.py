from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.embedding import compute_t_star
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.experiments import (DEFAULT_THRESHOLDS, ExperimentConfig,
                                  FirstHitEngine, run_cost_compare,
                                  run_embed_law, run_ergodic,
                                  run_excursion_cost, run_tail,
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
        out = engine.run_replica(rep, walk.horizon_fwd, walk.horizon_fwd,
                                 policy="fixed")
        try:
            res = compute_t_star(led, symmetric_pair)
        except HorizonExceededError:
            assert out["censored"]
            continue
        assert (out["t_star"], out["site"]) == (res.t_star, res.site)


def test_engine_rejects_non_unit_atoms():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))]))
    with pytest.raises(ConfigError):
        FirstHitEngine(0, pair)
    FirstHitEngine(0, pair, mode="crossing")


def test_embed_law_forced(delta_pair):
    rep = run_embed_law(make_cfg(delta_pair, "embed_law", replicas=40,
                                 max_horizon=1 << 20))
    assert rep.data["completed"] > 0
    assert rep.data["tv_distance"] == 0.0   # every completed hit lands on 1
    assert rep.tables["law"][0]["observed"] == 1.0


def test_embed_law_censoring_accounting(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "embed_law", replicas=200, hf=256,
                   max_horizon=256, horizon_policy="fixed")
    rep = run_embed_law(cfg)
    assert rep.data["completed"] + rep.data["censored"] == 200
    assert rep.data["censored"] > 0      # the tail guarantees some censoring
    assert 0 <= rep.data["tv_distance"] <= 1


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
        assert row["ks_pvalue_fwd"] > DEFAULT_THRESHOLDS["ks_alpha"]


def test_cost_compare_no_violations(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=60,
                   hf=1 << 12, max_horizon=1 << 15)
    rep = run_cost_compare(cfg)
    assert rep.data["pathwise_violations"] == 0
    assert rep.data["paths_used"] > 30
    for row in rep.tables["costs"]:
        assert row["paired_diff_mean"] >= -1e-12


def test_excursion_cost_nonnegative(symmetric_pair):
    cfg = make_cfg(symmetric_pair, "excursion_cost", seed=13, replicas=40,
                   hf=1 << 12, max_horizon=1 << 14)
    rep = run_excursion_cost(cfg, matrices_per_excursion=2)
    assert rep.data["all_nonnegative"]
    assert rep.data["excursions_used"] > 5
    assert rep.data["min_margin"] >= -DEFAULT_THRESHOLDS["margin_tol"]


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
    out = FirstHitEngine(seed, pair, mode).run_replica(rep, 512, 512,
                                                       policy="fixed")
    led = build_ledger(sample_walk(walk, rep), pair)
    try:
        res = compute_t_star(led, pair, mode=mode)
    except HorizonExceededError:
        assert out["censored"]
        return
    assert not out["censored"]
    assert (out["t_star"], out["site"], out["u_flag"]) == \
        (res.t_star, res.site, res.u_flag)


def test_config_rejects_unknown_mode_and_policy(symmetric_pair):
    with pytest.raises(ConfigError):
        make_cfg(symmetric_pair, "embed_law", mode="exakt")
    with pytest.raises(ConfigError):
        make_cfg(symmetric_pair, "embed_law", horizon_policy="dubling")
