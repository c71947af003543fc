from fractions import Fraction

import pytest

from helpers import ScriptedPath, cost_of_tau_star_rescan, excursion_from

from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.gauges import capped, default_gauges, power
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.embedding import (Excursion, compute_t_star, compute_tau_star,
                                cost_of_tau_star, decompose_excursions,
                                excursion_mass, match_slots, mu_charged_steps,
                                tau_star_map)
from shiftlab.walk import WalkConfig, build_ledger, sample_walk


def delta01():
    return split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1))


def test_t_star_forced_single_step():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1]), pair)
    res = compute_t_star(led, pair)
    assert res.t_star == 1 and res.site == 1 and res.u_flag == 1
    assert not res.censored


def test_t_star_horizon_exceeded_reports_min():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, -1, 0, 1, 0, 1]), pair)
    with pytest.raises(HorizonExceededError) as err:
        compute_t_star(led, pair)
    assert err.value.attained == Fraction(1)  # min of D over n >= 1


def test_t_star_identical_measures_u_zero():
    mu = DiscreteMeasure.delta(0)
    pair = split_measures(mu, mu)
    led = build_ledger(ScriptedPath([0, 1, 0]), pair)
    res = compute_t_star(led, pair)
    assert res.t_star == 0 and res.site == 0 and res.u_flag == 0


def test_t_star_result_json():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1]), pair)
    obj = compute_t_star(led, pair).to_json(Fraction(1, 4))
    assert obj == {"t_star_steps": 1, "t_star_time": 0.25, "site": 1,
                   "mode": "exact", "u_flag": 1, "censored": False}


def test_exact_mode_requires_unit_nu_atoms():
    mu = DiscreteMeasure.delta(0)
    nu = DiscreteMeasure.from_atoms([(1, Fraction(1, 3)), (2, Fraction(2, 3))])
    pair = split_measures(mu, nu)
    led = build_ledger(ScriptedPath([0, 1, 2]), pair)
    with pytest.raises(ConfigError):
        compute_t_star(led, pair, mode="exact")
    res = compute_t_star(led, pair, mode="crossing")
    assert res.t_star == 2 and res.site == 2


def test_tau_star_hand_count():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 2, 1]), pair)
    assert compute_tau_star(led, 0) == 1


def test_tau_star_strictly_forward(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=2048, horizon_bwd=4, seed=1,
                     start_law=symmetric_pair.mu)
    led = build_ledger(sample_walk(cfg), symmetric_pair)
    t = compute_tau_star(led, 0)
    assert t > 0
    assert compute_tau_star(led, t) > t if led.wmu[led.idx(t)] > 0 else True


def test_minimality_and_support_invariants(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=4,
                     seed=5, start_law=symmetric_pair.mu)
    checked = 0
    for rep in range(30):
        led = build_ledger(sample_walk(cfg, rep), symmetric_pair)
        try:
            res = compute_t_star(led, symmetric_pair)
        except HorizonExceededError:
            continue
        checked += 1
        assert res.site in symmetric_pair.nu.support
        base = led.C(-1)
        for n in range(1, res.t_star):
            assert led.C(n) > base  # D(n) > 0 strictly before t*
        # Consistency: t* equals tau*(0) when 0 is mu-charged.
        assert res.t_star == compute_tau_star(led, 0)
    assert checked >= 20


def test_cost_single_pair_fixture():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1]), pair)
    exc = Excursion(0, 1, excursion_mass(led, 0, 1))
    assert exc.mass == 1
    assert cost_of_tau_star(led, exc, power(1)) == pytest.approx(1.0)


def test_cost_cap_bound_and_oracle_agreement(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=4,
                     seed=0, start_law=symmetric_pair.mu)
    done = 0
    for rep in (0, 1, 11, 18, 34):
        led = build_ledger(sample_walk(cfg, rep), symmetric_pair)
        try:
            res = compute_t_star(led, symmetric_pair)
        except HorizonExceededError:
            continue
        exc = Excursion(0, res.t_star, excursion_mass(led, 0, res.t_star))
        for g in default_gauges():
            a = cost_of_tau_star(led, exc, g)
            b = cost_of_tau_star_rescan(led, exc, g)
            assert a == pytest.approx(b, abs=1e-10)
        c = 3.0
        assert cost_of_tau_star(led, exc, capped(3)) <= c * float(exc.mass) + 1e-12
        done += 1
    assert done >= 3


def test_tau_star_map_matches_per_step_oracle(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=4096, horizon_bwd=256,
                     seed=2, start_law=symmetric_pair.mu)
    led = build_ledger(sample_walk(cfg), symmetric_pair)
    tau, unresolved = tau_star_map(led, -led.hb, 512)
    charged = {int(s) for s in mu_charged_steps(led, -led.hb, 512)}
    assert set(tau) | set(unresolved) == charged
    assert not set(tau) & set(unresolved)
    for s in list(tau)[:200]:
        assert tau[s] == compute_tau_star(led, s)
    for s in unresolved:
        with pytest.raises(HorizonExceededError):
            compute_tau_star(led, s)


def test_match_slots_balanced_fixture():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1]), pair)
    pairs = match_slots(led, 0, 3)
    assert pairs == [(0, 1), (2, 3)]
    for s, t in pairs:
        assert t > s


def test_match_slots_equals_tau_star_for_unit_weights():
    pair = delta01()
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 13, horizon_bwd=4,
                     seed=4, start_law=pair.mu)
    for rep in range(20):
        led = build_ledger(sample_walk(cfg, rep), pair)
        try:
            res = compute_t_star(led, pair)
            break
        except HorizonExceededError:
            continue
    else:
        pytest.fail("no completed replica in the fixture range")
    pairs = dict(match_slots(led, 0, res.t_star))
    for s in pairs:
        assert pairs[s] == compute_tau_star(led, s)


def test_decompose_excursions_degenerate_level(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=4096, horizon_bwd=4096,
                     seed=0, start_law=symmetric_pair.mu)
    led = build_ledger(sample_walk(cfg), symmetric_pair)
    chain, excs = decompose_excursions(led, Fraction(0))
    assert chain.levels == (Fraction(0),)
    assert chain.sigma == (0,) and chain.rho == (0,)
    assert excs == []


def test_decompose_excursions_chain_properties(symmetric_pair):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 16, horizon_bwd=1 << 16,
                     seed=1, start_law=symmetric_pair.mu)
    led = build_ledger(sample_walk(cfg), symmetric_pair)
    for level in (8, 4, 2, 1):
        try:
            chain, excs = decompose_excursions(led, Fraction(level))
            break
        except HorizonExceededError:
            continue
    else:
        pytest.fail("no attainable level on this fixture")
    # Monotone nesting of [sigma(u), rho(u)] in u.
    assert all(x >= y for x, y in zip(chain.sigma, chain.sigma[1:]))
    assert all(x <= y for x, y in zip(chain.rho, chain.rho[1:]))
    # tau*(sigma(u)) = rho(u) whenever sigma is mu-charged.
    for u, s, r in zip(chain.levels, chain.sigma, chain.rho):
        if u == 0:
            continue
        if led.wmu[led.idx(s)] > 0:
            assert compute_tau_star(led, s) == r
    # The partition covers every mu-charged step of the outer window.
    left, right = chain.sigma[-1], chain.rho[-1]
    covered = set()
    for exc in excs:
        assert left <= exc.left < exc.right <= right
        for s in mu_charged_steps(led, exc.left, exc.right):
            covered.add(int(s))
        # Self-map: tau* of charged steps stays inside the excursion.
        for s in mu_charged_steps(led, exc.left, exc.right):
            assert exc.left < compute_tau_star(led, int(s)) <= exc.right
    assert covered == {int(s) for s in mu_charged_steps(led, left, right)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decompose_excursions_matches_the_rescan(symmetric_pair, seed):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=1 << 14,
                     seed=seed, start_law=symmetric_pair.mu)
    led = build_ledger(sample_walk(cfg), symmetric_pair)
    for level in (4, 2, 1):
        try:
            chain, excs = decompose_excursions(led, Fraction(level))
            break
        except HorizonExceededError:
            continue
    else:
        pytest.fail("no attainable level on this fixture")
    # Each excursion is the per-step oracle's [a, tau*(a)], back to back.
    assert excs and excs == [excursion_from(led, e.left) for e in excs]
    charged = mu_charged_steps(led, chain.sigma[-1], chain.rho[-1]).tolist()
    assert excs[0].left == charged[0]
    for prev, nxt in zip(excs, excs[1:]):
        assert nxt.left == min(s for s in charged if s >= prev.right)


def test_decompose_excursions_needs_an_orthogonal_pair():
    pair = split_measures(
        DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=4096, horizon_bwd=4096,
                     seed=0, start_law=pair.mu)
    led = build_ledger(sample_walk(cfg), pair)
    with pytest.raises(ConfigError, match="orthogonal"):
        decompose_excursions(led, Fraction(1, 2))


def test_single_excursion_path():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1]), pair)
    exc = excursion_from(led, 0)
    assert (exc.left, exc.right) == (0, 1)
    assert exc.mass == 1
