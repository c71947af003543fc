import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Excursion, bisect_compute_N, excursion_mass,
                     quantile_discretize, tau_n_convergence_test)
from shiftlab.errors import ConfigError, TruncationError
from shiftlab.embedding import compute_t_star
from shiftlab.gauges import default_gauges, eval_gauge
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.stable_alloc import (PointConfig, compute_N, naive_allocation,
                                   stable_allocation)
from shiftlab.transport import (inequality_check, random_interleaved_config,
                                sample_feasible_matrix)
from shiftlab.walk import WalkConfig, build_ledger, sample_walk


def test_interleaved_fixture():
    m = stable_allocation(PointConfig.make([3, 1], [2, 4]))
    assert m.pairs() == [(3, 4), (1, 2)]


def test_identity_case():
    m = stable_allocation(PointConfig.make([-1, -2, -3], [1, 2, 3]))
    assert m.tau == (0, 1, 2)


def test_nested_case():
    m = stable_allocation(PointConfig.make([5, 4], [6, 7]))
    assert m.pairs() == [(5, 6), (4, 7)]


def test_truncation_error():
    with pytest.raises(TruncationError):
        stable_allocation(PointConfig.make([5, 4], [6]))


def test_config_validation():
    with pytest.raises(ConfigError):
        PointConfig.make([1, 2], [3, 4])       # a not decreasing
    with pytest.raises(ConfigError):
        PointConfig.make([2, 1], [4, 3])       # b not increasing
    with pytest.raises(ConfigError):
        PointConfig.make([2, 1], [1, 3])       # overlap
    with pytest.raises(ConfigError):
        PointConfig.make([1, 1], [2, 3])       # tie without allow_ties
    PointConfig.make([1, 1], [2, 2], allow_ties=True)


def test_compute_n_fixture():
    out = compute_N(PointConfig.make([5, 3, 1, -1], [2, 4, 6, 8]))
    assert out["M"] == -1 and out["N"] == 4
    m = stable_allocation(PointConfig.make([5, 3, 1, -1], [2, 4, 6, 8]))
    assert m.pairs()[3] == (-1, 8)  # tau(a_4) = b_4


def test_compute_n_corollary_cases():
    assert compute_N(PointConfig.make([-1, -2], [1, 2]))["N"] == 1
    assert compute_N(PointConfig.make([2, 1], [3, 4]))["N"] == 1


def test_compute_n_truncation():
    # f never reaches M - 1 inside a too-short b-truncation.
    with pytest.raises((TruncationError, ConfigError)):
        compute_N(PointConfig.make([10, 9, 8], [1]))


def _invariant_check(cfg: PointConfig, tau, N):
    a, b = cfg.a, cfg.b
    pairs = [(a[i], b[j]) for i, j in enumerate(tau)]
    # Forward.
    assert all(y > x for x, y in pairs)
    # Injective.
    assert len(set(tau)) == len(tau)
    # Balance on every matched interval.
    for x, y in pairs:
        in_a = sum(1 for v in a if x <= v <= y)
        in_b = sum(1 for v in b if x <= v <= y)
        assert in_a == in_b, (x, y)
    # Non-crossing: nested or disjoint.
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (x1, y1), (x2, y2) = pairs[i], pairs[j]
            lo1, hi1 = sorted((float(x1), float(y1)))
            lo2, hi2 = sorted((float(x2), float(y2)))
            disjoint = hi1 < lo2 or hi2 < lo1
            nested = (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2)
            assert disjoint or nested, (pairs[i], pairs[j])
    # Identity tail from N on.
    for m in range(N - 1, len(a)):
        if m < len(b):
            assert tau[m] == m


def test_randomized_invariants_and_naive_agreement():
    for seed in range(60):
        cfg, N = random_interleaved_config(seed, 1 + seed % 12)
        m = stable_allocation(cfg)
        _invariant_check(cfg, m.tau, N)
        assert naive_allocation(cfg).tau == m.tau


@given(st.sets(st.integers(min_value=-100, max_value=100), min_size=2,
               max_size=24),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_hypothesis_sweep_equals_naive(values, rnd):
    values = sorted(values)
    labels = [rnd.randint(0, 1) for _ in values]
    a = sorted((v for v, t in zip(values, labels) if t == 0), reverse=True)
    b = sorted(v for v, t in zip(values, labels) if t == 1)
    if not a:
        return
    top = values[-1]
    b = b + [top + k for k in range(1, len(a) + 2)]
    cfg = PointConfig.make(a, b)
    m = stable_allocation(cfg)
    assert naive_allocation(cfg).tau == m.tau
    _invariant_check(cfg, m.tau, compute_N(cfg)["N"])


def _min_definition(cfg: PointConfig):
    """tau(a) = min{b > a : |B n [a, b]| = |A n [a, b]|}, both counts by plain
    loops over the points; an a without such b, or a b taken twice, gives
    naive_allocation's exception type and message instead of the tau."""
    tau = []
    for a in cfg.a_num:
        for j, b in enumerate(cfg.b_num):
            n_b = sum(1 for y in cfg.b_num if a <= y <= b)
            n_a = sum(1 for x in cfg.a_num if a <= x <= b)
            if b > a and n_b == n_a:
                tau.append(j)
                break
        else:
            return (TruncationError,
                    f"a-point {Fraction(a, cfg.q)} unmatched in naive evaluation")
    if len(set(tau)) != len(tau):
        return ConfigError, "naive evaluation requires tie-free configurations"
    return tuple(tau)


def _naive_outcome(cfg: PointConfig):
    try:
        return naive_allocation(cfg).tau
    except (ConfigError, TruncationError) as exc:
        return type(exc), str(exc)


def test_naive_allocation_equals_the_counted_min_definition():
    for seed in range(500):
        cfg, _ = random_interleaved_config(seed, 1 + seed % 20)
        assert naive_allocation(cfg).tau == _min_definition(cfg)


def test_naive_allocation_with_ties_equals_the_counted_min_definition():
    # Repeated a's and b's: a b-value's copies all count once it is reached,
    # so the b-count is not the index distance.  Unpadded draws leave a's
    # unmatched, and tied a's can claim one b.
    rnd, kinds = random.Random(5), set()
    for _ in range(400):
        values = rnd.sample(range(-30, 30), rnd.randint(2, 12))
        side = {v: rnd.randint(0, 1) for v in values}
        a = sorted((v for v in values if not side[v]
                    for _ in range(rnd.randint(1, 3))), reverse=True)
        b = sorted(v for v in values if side[v] for _ in range(rnd.randint(1, 3)))
        if not a:
            continue
        if rnd.random() < 0.7:
            b += [max(values) + k for k in range(1, len(a) + 2)]
        cfg = PointConfig.make(a, b, allow_ties=True)
        got = _naive_outcome(cfg)
        assert got == _min_definition(cfg)
        kinds.add(got[0] if isinstance(got[0], type) else tuple)
    assert kinds == {tuple, TruncationError, ConfigError}


def _fixture_excursion(seed=0, rep=0):
    nu = DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    pair = split_measures(DiscreteMeasure.delta(0), nu)
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=64,
                     seed=seed, start_law=pair.mu)
    led = build_ledger(sample_walk(cfg, rep), pair)
    res = compute_t_star(led, pair)
    return led, Excursion(0, res["t_star"], excursion_mass(led, 0, res["t_star"]))


def test_quantile_mass_property():
    led, exc = _fixture_excursion()
    for n in (1, 2, 4, 8):
        d = quantile_discretize(led, exc, n)
        a = d["a"]
        assert a[-1] == exc.left                 # a_n = b_0
        assert d["b"][-1] == exc.right           # b_n = a_0
        # mu-mass of [a_i, right) grows by exactly M/n per quantile point.
        step = exc.mass / n
        for i, ai in enumerate(a, start=1):
            mass = excursion_mass(led, int(ai), exc.right)
            assert mass >= i * step
            assert mass - excursion_mass(led, int(ai) + 1, exc.right) > 0 or \
                ai == exc.left
        assert d["mesh"] == Fraction(exc.right - exc.left, n)


def test_quantile_rounding_maps():
    led, exc = _fixture_excursion()
    d = quantile_discretize(led, exc, 4)
    # g_n rounds down to a quantile point; exact hits map to themselves.
    for ai in d["a"]:
        assert d["g_n"](ai) == ai
    for bj in d["b"]:
        assert d["h_n"](bj) == bj
    assert d["g_n"](exc.right) == d["a"][0]
    assert d["h_n"](exc.left + Fraction(1, 2)) >= exc.left


def test_quantile_empty_excursion_rejected():
    led, exc = _fixture_excursion()
    empty = Excursion(exc.left, exc.left, Fraction(0))
    with pytest.raises(ConfigError):
        quantile_discretize(led, empty, 4)


def test_convergence_fixture():
    led, exc = _fixture_excursion(seed=0, rep=0)   # t* = 389, 10 slots
    out = tau_n_convergence_test(led, exc, [4, 16, 64, 256])
    dists = [r["sup_distance"] for r in out["rows"]]
    assert out["monotone_nonincreasing"]
    assert out["final_distance"] == 0
    rounds = [r["sup_rounding"] for r in out["rows"]]
    assert all(x >= y for x, y in zip(rounds, rounds[1:]))
    # Saturation: distance within the lattice mesh once n exceeds the slot count.
    mesh = Fraction(exc.right - exc.left, 16)
    assert dists[1] <= mesh


def _outcome(fn, cfg):
    try:
        return fn(cfg)
    except (ConfigError, TruncationError) as exc:
        return type(exc)


_mixed = st.builds(Fraction, st.integers(-300, 300), st.sampled_from([1, 3, 4, 7]))


@given(st.sets(_mixed, min_size=2, max_size=20), st.randoms(use_true_random=False),
       st.integers(0, 1000))
@settings(max_examples=120, deadline=None)
def test_mixed_denominators_match_the_integer_scaled_config(values, rnd, seed):
    values = sorted(values)
    labels = [rnd.randint(0, 1) for _ in values]
    a = sorted((v for v, t in zip(values, labels) if t == 0), reverse=True)
    b = [v for v, t in zip(values, labels) if t == 1]
    if not a:
        return
    b += [values[-1] + k for k in range(1, len(a) + 2)]
    cfg = PointConfig.make(a, b)
    assert cfg.q == math.lcm(*(x.denominator for x in a + b))
    assert cfg.a == tuple(a) and cfg.b == tuple(b)
    # The same points on the integer grid with three times the step.
    scaled = PointConfig.make([3 * cfg.q * x for x in a], [3 * cfg.q * x for x in b])
    assert scaled.q == 1 and scaled.a_num == tuple(3 * x for x in cfg.a_num)
    match = stable_allocation(cfg)
    assert stable_allocation(scaled).tau == match.tau
    assert naive_allocation(cfg).tau == naive_allocation(scaled).tau == match.tau
    horizon = compute_N(cfg)
    assert compute_N(scaled) == horizon == bisect_compute_N(cfg)
    N = horizon["N"]
    if N > len(a):
        return
    pi = sample_feasible_matrix(cfg, N, seed)
    assert sample_feasible_matrix(scaled, N, seed).entries == pi.entries
    # Gauge arguments (b - a) / q are the correctly rounded floats of the
    # Fraction gaps, so both sides agree bit for bit with Fraction arithmetic.
    fa, fb = cfg.a, cfg.b
    for g in default_gauges():
        rep = inequality_check(pi, g=g)
        lhs = sum(((i < N) + (j < N)) * float(Fraction(v, pi.mass_q))
                  * eval_gauge(g, float(fb[j] - fa[i]))
                  for (i, j), v in pi.entries.items() if v != 0)
        rhs = 2.0 * sum(eval_gauge(g, float(fb[match.tau[i]] - fa[i]))
                        for i in range(N))
        assert (rep.lhs, rep.rhs) == (lhs, rhs)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=30),
       st.randoms(use_true_random=False), st.integers(0, 6),
       st.sampled_from([1, 2, 6]))
@settings(max_examples=300, deadline=None)
def test_compute_n_sweep_equals_bisect_oracle_with_ties(values, rnd, pad, q):
    side = {v: rnd.randint(0, 1) for v in values}    # a value stays on one side
    a = sorted((v for v in values if side[v] == 0), reverse=True)
    b = sorted(v for v in values if side[v] == 1)
    if b:
        b += [max(values) + k for k in range(1, pad + 1)]
    cfg = PointConfig(tuple(a), tuple(b), q, allow_ties=True)
    assert _outcome(compute_N, cfg) == _outcome(bisect_compute_N, cfg)


@pytest.mark.parametrize("allow_ties", [False, True])
def test_point_config_json_roundtrip_keeps_values(allow_ties):
    a = [Fraction(7, 3), Fraction(1, 4), Fraction(1, 4) if allow_ties else 0, -2]
    b = [Fraction(5, 2), Fraction(22, 7), 4]
    cfg = PointConfig.make(a, b, allow_ties=allow_ties)
    assert cfg.q == 84 and cfg.a == tuple(a) and cfg.b == tuple(b)
    assert PointConfig.from_json(cfg.to_json()) == cfg
    assert PointConfig.from_json({"a": ["7/3", 0.25], "b": ["2.5"]}).a == tuple(a[:2])


@pytest.mark.parametrize("obj", [{"a": ["x"], "b": [1]}, {"a": ["inf"], "b": [1]},
                                 {"a": ["1/0"], "b": [1]}, {"a": [None], "b": [1]},
                                 {"a": 3, "b": [1]}, {"b": [1]}])
def test_malformed_points_are_config_errors(obj):
    with pytest.raises(ConfigError):
        PointConfig.from_json(obj)
