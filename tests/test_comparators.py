from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedPath

from shiftlab.comparators import (COMPARATOR_KINDS, Comparator,
                                  apply_comparator, check_matching,
                                  extract_slots, fifo_matching, lifo_matching,
                                  matching_cost, random_rematch)
from shiftlab.embedding import (Excursion, compute_t_star, excursion_mass)
from shiftlab.errors import ConfigError, HorizonExceededError, InvariantError
from shiftlab.gauges import default_gauges, eval_gauge, power
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.walk import WalkConfig, build_ledger, sample_walk


def delta01():
    return split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1))


def completed_excursions(pair, seed, n, hf=1 << 13):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=hf, horizon_bwd=4, seed=seed,
                     start_law=pair.mu)
    out = []
    rep = 0
    while len(out) < n and rep < 10 * n:
        led = build_ledger(sample_walk(cfg, rep), pair)
        rep += 1
        try:
            res = compute_t_star(led, pair)
        except HorizonExceededError:
            continue
        out.append((led, Excursion(0, res.t_star,
                                   excursion_mass(led, 0, res.t_star))))
    assert len(out) == n
    return out


def test_comparator_kind_validation():
    with pytest.raises(ConfigError):
        Comparator(kind="nope")
    for kind in COMPARATOR_KINDS:
        Comparator(kind=kind)


def test_slots_hand_fixture():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1]), pair)
    exc = Excursion(0, 3, excursion_mass(led, 0, 3))
    sources, targets = slots = extract_slots(led, exc)
    assert sources == [0, 2] and targets == [1, 3]
    assert lifo_matching(led, exc) == [(0, 1), (2, 3)]
    assert fifo_matching(slots) == [(0, 1), (2, 3)]


def test_fifo_differs_on_nested_fixture():
    # Path 0,1,2,1,2,1: sources at steps 0 (lifo target 5) nest under the
    # returns; fifo hands the oldest source to the first target.
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1, 0, 1]), pair)
    exc = Excursion(0, 5, excursion_mass(led, 0, 5))
    slots = extract_slots(led, exc)
    lifo = lifo_matching(led, exc)
    fifo = fifo_matching(slots)
    assert sorted(s for s, _ in lifo) == sorted(s for s, _ in fifo)
    check_matching(slots, lifo)
    check_matching(slots, fifo)


def test_all_comparators_are_feasible_and_dominated():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    comps = [Comparator("fifo_rematch"),
             Comparator("random_feasible_rematch", seed=3),
             Comparator("random_feasible_rematch", seed=9, n_swaps=32)]
    dominated = 0
    for led, exc in completed_excursions(pair, seed=6, n=12):
        unit = Fraction(1, led.q)
        dt = led.path.cfg.dt
        slots = extract_slots(led, exc)
        stable_pairs = lifo_matching(led, exc)
        check_matching(slots, stable_pairs)
        for comp in comps:
            pairs = apply_comparator(comp, exc, slots, stable_pairs)
            check_matching(slots, pairs)
            for g in default_gauges():
                base = matching_cost(stable_pairs, g, dt, unit)
                alt = matching_cost(pairs, g, dt, unit)
                assert alt >= base - 1e-10
                dominated += alt > base + 1e-10
    assert dominated > 0    # the comparison class is not vacuous


def test_random_rematch_deterministic_in_seed():
    pair = delta01()
    led, exc = completed_excursions(pair, seed=4, n=1)[0]
    a = random_rematch(lifo_matching(led, exc), exc, seed=5, n_swaps=16)
    b = random_rematch(lifo_matching(led, exc), exc, seed=5, n_swaps=16)
    assert a == b


def test_rematch_from_given_stable_pairs_is_unchanged():
    # The rematch permutes a copy: the caller's stable pairs stay as they are
    # and still serve the "stable" comparator.
    comp = Comparator("random_feasible_rematch", seed=5, n_swaps=16)
    for led, exc in completed_excursions(delta01(), seed=4, n=4):
        slots, stable = extract_slots(led, exc), lifo_matching(led, exc)
        kept = list(stable)
        assert (apply_comparator(comp, exc, slots, stable)
                == random_rematch(kept, exc, 5, 16))
        assert apply_comparator(Comparator("stable"), exc, slots, stable) is stable
        assert stable == kept


def test_matching_cost_hand_value():
    pairs = [(0, 1), (2, 5)]
    got = matching_cost(pairs, power(Fraction(1, 2)), Fraction(1, 4),
                        Fraction(1, 2))
    assert got == pytest.approx(0.5 * (0.25 ** 0.5) + 0.5 * (0.75 ** 0.5))


def test_matching_cost_sums_left_to_right_on_every_python():
    # 1e16 + 1 rounds back to 1e16, twice; a compensated sum (the builtin
    # sum() from Python 3.12 on) would give 1e16 + 2.
    pairs = [(0, 10**16), (0, 1), (1, 2)]
    assert matching_cost(pairs, power(1), 1, 1) == 1e16


def test_check_matching_rejects_bad_pairs():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1]), pair)
    exc = Excursion(0, 3, excursion_mass(led, 0, 3))
    slots = extract_slots(led, exc)
    with pytest.raises(InvariantError):
        check_matching(slots, [(0, 1)])                 # misses a slot
    with pytest.raises(InvariantError):
        check_matching(slots, [(1, 0), (2, 3)])         # backward pair
    with pytest.raises(InvariantError, match="nu-slots"):
        check_matching(slots, [(0, 1), (2, 5)])         # step 5 is no nu-slot
    with pytest.raises(InvariantError, match="forward"):
        check_matching(slots, [(2, 1), (0, 3)])         # all slots, one backward


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 5000)),
                max_size=60),
       st.sampled_from(default_gauges()), st.sampled_from((1, 2, 3, 7)),
       st.fractions(Fraction(1, 64), 4))
@settings(max_examples=200, deadline=None)
def test_matching_cost_is_the_left_to_right_sum(raw, g, q, dx):
    # One psi evaluation per distinct gap, the same floats summed in pair
    # order: bit-identical to the per-pair sum.
    pairs = [(s, s + gap) for s, gap in raw]
    u, d = 1 / q, float(dx * dx)
    want = sum(u * eval_gauge(g, (t - s) * d) for s, t in pairs)
    assert matching_cost(pairs, g, dx * dx, Fraction(1, q)) == want
    assert matching_cost(pairs, g, d, u) == want
