import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scan_find_crossing

from shiftlab.errors import ConfigError, FeasibilityError, SizeLimitError
from shiftlab.gauges import capped, default_gauges, log1p, power, rational
from shiftlab.stable_alloc import PointConfig, compute_N, stable_allocation
from shiftlab.transport import (Crossing, TransportMatrix, find_crossing,
                                inequality_check, permutation_oracle,
                                random_interleaved_config, repair_crossing,
                                repair_sweep, sample_feasible_matrix,
                                stable_indicator)


def nested_cfg():
    return PointConfig.make([5, 4], [6, 7])


def crossed_matrix():
    cfg = nested_cfg()
    return TransportMatrix(cfg, 2, {(0, 1): Fraction(1), (1, 0): Fraction(1)})


def test_stable_indicator_margin_is_zero():
    for seed in range(8):
        cfg, N = random_interleaved_config(seed, 1 + seed % 5)
        pi = stable_indicator(cfg, N)
        for g in default_gauges():
            rep = inequality_check(pi, g=g)
            assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_crossed_fixture_costs():
    pi = crossed_matrix()
    pi.validate()
    rep = inequality_check(pi, g=power(Fraction(1, 2)))
    assert rep.lhs == pytest.approx(4 * math.sqrt(2))
    assert rep.rhs == pytest.approx(2 * (1 + math.sqrt(3)))
    assert rep.margin == pytest.approx(0.19272, abs=1e-4)
    assert rep.margin > 0


def test_find_and_repair_crossing():
    pi = crossed_matrix()
    c = find_crossing(pi)
    assert c == Crossing(k=1, i=0, j=0, l=1)
    fixed = repair_crossing(pi, c)
    assert find_crossing(fixed) is None
    assert fixed.entries == stable_indicator(nested_cfg(), 2).entries
    with pytest.raises(ConfigError):
        repair_crossing(fixed, c)


def test_repair_sweep_fixpoint_and_monotone_cost():
    for seed in range(12):
        cfg, N = random_interleaved_config(seed, 2 + seed % 4)
        pi = sample_feasible_matrix(cfg, N, seed=seed + 100)
        out = repair_sweep(pi)
        assert out["converged"]
        assert out["matrix"].entries == stable_indicator(cfg, N).entries
        for g in (power(Fraction(1, 2)), log1p(), capped(3), rational()):
            costs = [m.cost(g) for m in out["trace"]]
            assert all(x >= y - 1e-9 for x, y in zip(costs, costs[1:]))


def test_linear_gauge_cost_is_invariant():
    # psi(t) = t is both concave and convex, so every repair preserves cost
    # and the window inequality holds with equality.
    for seed in range(8):
        cfg, N = random_interleaved_config(seed, 2 + seed % 3)
        pi = sample_feasible_matrix(cfg, N, seed=seed)
        out = repair_sweep(pi)
        costs = [m.cost(power(1)) for m in out["trace"]]
        assert max(costs) - min(costs) < 1e-9
        assert inequality_check(pi, g=power(1)).margin == pytest.approx(
            0.0, abs=1e-9)


def test_sweep_budget_exhaustion():
    out = repair_sweep(crossed_matrix(), max_steps=0)
    assert not out["converged"] and out["steps"] == 0


def test_validate_reports_all_violations():
    cfg = nested_cfg()
    pi = TransportMatrix(cfg, 2, {(0, 0): Fraction(1, 2),
                                  (1, 0): Fraction(-1, 4)})
    with pytest.raises(FeasibilityError) as err:
        pi.validate()
    kinds = {v[0] for v in err.value.violations}
    assert "nonnegative" in kinds
    assert "row_sum" in kinds and "col_sum" in kinds


def test_validate_rejects_backward_mass():
    cfg = PointConfig.make([3, 1], [2, 4])
    pi = TransportMatrix(cfg, 2, {(0, 0): Fraction(1),   # 3 -> 2 goes backward
                                  (1, 1): Fraction(1)})
    with pytest.raises(FeasibilityError) as err:
        pi.validate()
    assert any(v[0] == "forward_looking" for v in err.value.violations)


def test_sample_feasible_matrix_properties():
    cfg, N = random_interleaved_config(3, 4)
    pi = sample_feasible_matrix(cfg, N, seed=7)
    pi.validate()
    again = sample_feasible_matrix(cfg, N, seed=7)
    assert pi.entries == again.entries
    other = sample_feasible_matrix(cfg, N, seed=8)
    # Different seeds need not differ, but the fixture seeds do.
    assert pi.entries != other.entries
    for g in default_gauges():
        assert inequality_check(pi, g=g).margin >= -1e-10


def test_permutation_oracle_agrees_with_stable_cost():
    for seed in range(25):
        cfg, N = random_interleaved_config(seed, 1 + seed % 4)
        if N > 8:
            continue
        pi = stable_indicator(cfg, N)
        for g in default_gauges():
            oracle = permutation_oracle(cfg, g, N=N)
            assert pi.cost(g) == pytest.approx(2 * oracle["min_cost"], abs=1e-9)


def test_permutation_oracle_size_limit():
    cfg, _ = random_interleaved_config(0, 12)
    with pytest.raises(SizeLimitError):
        permutation_oracle(cfg, power(Fraction(1, 2)), N=9)


def test_matrix_json_roundtrip():
    pi = crossed_matrix()
    obj = pi.to_json()
    back = TransportMatrix.from_json(pi.cfg, obj)
    assert back.entries == pi.entries and back.N == pi.N
    with pytest.raises(ConfigError):
        TransportMatrix.from_json(pi.cfg, {"entries": [[0, "x"]]})


def test_point_config_json_roundtrip():
    cfg = nested_cfg()
    assert PointConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ConfigError):
        PointConfig.from_json({"a": [1, 2]})


def test_interleaved_config_window_is_covered():
    for seed in range(40):
        cfg, N = random_interleaved_config(seed, 1 + seed % 10)
        assert N <= len(cfg.a) and N <= len(cfg.b)
        assert compute_N(cfg)["N"] == N
        tau = stable_allocation(cfg).tau
        # The window matches within itself (square-window property).
        assert all(tau[i] < N for i in range(N))


@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_find_crossing_equals_cell_scan_along_repair_traces(seed, n_pairs, n_pert):
    cfg, N = random_interleaved_config(seed, n_pairs)
    pi = sample_feasible_matrix(cfg, N, seed=seed + 1, n_perturbations=n_pert)
    for m in repair_sweep(pi)["trace"]:
        assert find_crossing(m) == scan_find_crossing(m)


@given(st.integers(0, 10**6), st.integers(1, 6),
       st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 3),
                                        Fraction(1)]), max_size=25),
       st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_find_crossing_equals_cell_scan_on_arbitrary_cells(seed, n_pairs, cells, n):
    # Any sign pattern, zeros and cells outside the window included.
    cfg, _ = random_interleaved_config(seed, n_pairs)
    na, nb = len(cfg.a_num), len(cfg.b_num)
    entries = {(i % na, j % nb): v for (i, j), v in cells.items()}
    pi = TransportMatrix(cfg, 1 + n % min(na, nb), entries)
    assert find_crossing(pi) == scan_find_crossing(pi)


def test_inequality_rhs_sums_left_to_right_on_every_python():
    # Stable gaps 10^16, 1, 1 in window order: 1e16 + 1 rounds back to 1e16,
    # twice; a compensated sum (builtin sum() from Python 3.12 on) would not.
    cfg = PointConfig((4, 2, 0), (1, 3, 4 + 10**16))
    assert inequality_check(stable_indicator(cfg, 3), power(1)).rhs == 2e16


def test_interleaved_configs_are_pinned():
    # The generated instances feed acceptance criteria 1-4 and the benchmark;
    # a change of number representation must not move a single point.
    rows = []
    for seed in range(300):
        cfg, N = random_interleaved_config(seed, 1 + seed % 25)
        rows.append(([str(x) for x in cfg.a], [str(x) for x in cfg.b], N))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "8246e70e516eefa1"


def test_feasible_matrices_are_pinned():
    # sample_feasible_matrix draws its cell and its mass fraction from one
    # uniform stream; a change of draw arithmetic must not move an entry.
    h = hashlib.sha256()
    for seed in range(60):
        cfg, N = random_interleaved_config(seed, 1 + seed % 6)
        pi = sample_feasible_matrix(cfg, N, seed=seed)
        h.update(repr(sorted(pi.entries.items())).encode())
    assert h.hexdigest()[:16] == "9dc94c7419bc70b2"
