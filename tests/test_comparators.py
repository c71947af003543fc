from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedPath, cohort_of

from shiftlab.comparators import (COMPARATOR_KINDS, Comparator,
                                  apply_comparator, check_matching,
                                  extract_slots, matching_cost, random_rematch)
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


def pairs_of(matching):
    return list(zip(*(a.tolist() for a in matching)))


def test_slots_hand_fixture():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1]), pair)
    exc = Excursion(0, 3, excursion_mass(led, 0, 3))
    sources, targets = extract_slots(led, exc)
    assert sources == [0, 2] and targets == [1, 3]
    cohort = cohort_of([(led, exc)], pair)
    stable = cohort.stable()
    assert pairs_of(stable) == [(0, 1), (2, 3)]
    fifo = apply_comparator(Comparator("fifo_rematch"), cohort, stable)
    assert pairs_of(fifo) == [(0, 1), (2, 3)]


def test_fifo_differs_on_nested_fixture():
    # Path 0,1,2,1,2,1: sources at steps 0 (lifo target 5) nest under the
    # returns; fifo hands the oldest source to the first target.
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1, 0, 1]), pair)
    exc = Excursion(0, 5, excursion_mass(led, 0, 5))
    cohort = cohort_of([(led, exc)], pair)
    lifo = cohort.stable()
    fifo = apply_comparator(Comparator("fifo_rematch"), cohort, lifo)
    assert sorted(lifo[0].tolist()) == sorted(fifo[0].tolist())
    check_matching(cohort, lifo)
    check_matching(cohort, fifo)


def test_all_comparators_are_feasible_and_dominated():
    pair = split_measures(
        DiscreteMeasure.delta(0),
        DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    comps = [Comparator("fifo_rematch"),
             Comparator("random_feasible_rematch", seed=3),
             Comparator("random_feasible_rematch", seed=9, n_swaps=32)]
    items = completed_excursions(pair, seed=6, n=12)
    cohort = cohort_of(items, pair)
    stable = cohort.stable()
    check_matching(cohort, stable)
    matchings = [apply_comparator(comp, cohort, stable) for comp in comps]
    for pairs in matchings:
        check_matching(cohort, pairs)
    base, *alts = matching_cost([stable] + matchings, cohort.counts,
                                default_gauges(), 1, Fraction(1, pair.denominator))
    assert base.shape == (len(default_gauges()), 12)
    for alt in alts:
        assert (alt >= base - 1e-10).all()
    assert (np.array(alts) > base + 1e-10).any()   # the class is not vacuous


def test_random_rematch_deterministic_in_seed():
    pair = delta01()
    led, exc = completed_excursions(pair, seed=4, n=1)[0]
    stable = pairs_of(cohort_of([(led, exc)], pair).stable())
    a = random_rematch(list(stable), exc.right, seed=5, n_swaps=16)
    b = random_rematch(list(stable), exc.right, seed=5, n_swaps=16)
    assert a == b


def test_rematch_from_given_stable_pairs_is_unchanged():
    # The rematch permutes copies: the caller's stable pairs stay as they
    # are and still serve the "stable" comparator.
    comp = Comparator("random_feasible_rematch", seed=5, n_swaps=16)
    items = completed_excursions(delta01(), seed=4, n=4)
    cohort = cohort_of(items, delta01())
    stable = cohort.stable()
    kept = [a.copy() for a in stable]
    want = []
    for (led, exc), n, end in zip(items, cohort.counts,
                                  np.cumsum(cohort.counts)):
        own = pairs_of(a[end - n:end] for a in kept)
        want += random_rematch(own, exc.right, 5, 16)
    assert pairs_of(apply_comparator(comp, cohort, stable)) == want
    assert apply_comparator(Comparator("stable"), cohort, stable) is stable
    assert all((a == b).all() for a, b in zip(stable, kept))


def as_matching(pairs):
    return tuple(np.array(x, dtype=np.int64).reshape(-1) for x in zip(*pairs))


def test_matching_cost_hand_value():
    got = matching_cost([as_matching([(0, 1), (2, 5)])], np.array([2]),
                        (power(Fraction(1, 2)),), Fraction(1, 4), Fraction(1, 2))
    assert got.shape == (1, 1, 1)
    assert got[0, 0, 0] == pytest.approx(0.5 * (0.25 ** 0.5) + 0.5 * (0.75 ** 0.5))


def test_matching_cost_sums_left_to_right_on_every_python():
    # 1e16 + 1 rounds back to 1e16, twice; a compensated sum (the builtin
    # sum() from Python 3.12 on) would give 1e16 + 2.  The cohort sums run
    # on paths of unequal length, the long one in the middle.
    pairs = [(0, 1)] + [(0, 10**16), (0, 1), (1, 2)] + [(3, 5), (0, 1)]
    got = matching_cost([as_matching(pairs)], np.array([1, 3, 2]),
                        (power(1),), 1, 1)
    assert got[0, 0].tolist() == [1.0, 1e16, 3.0]


def test_check_matching_rejects_bad_pairs():
    pair = delta01()
    led = build_ledger(ScriptedPath([0, 1, 0, 1]), pair)
    exc = Excursion(0, 3, excursion_mass(led, 0, 3))
    cohort = cohort_of([(led, exc)], pair)
    for bad, match in (([(0, 1)], "mu-slots"),             # misses a slot
                       ([(1, 0), (2, 3)], "mu-slots"),     # backward pair
                       ([(0, 1), (2, 5)], "nu-slots"),     # step 5 is no nu-slot
                       ([(2, 1), (0, 3)], "forward")):     # all slots, one backward
        with pytest.raises(InvariantError, match=match):
            check_matching(cohort, as_matching(bad))


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 5000)),
                min_size=1, max_size=60),
       st.sampled_from(default_gauges()), st.sampled_from((1, 2, 3, 7)),
       st.fractions(Fraction(1, 64), 4), st.data())
@settings(max_examples=200, deadline=None)
def test_matching_cost_is_the_left_to_right_sum(raw, g, q, dx, data):
    # One psi evaluation per distinct gap, the same floats summed in pair
    # order on each path of unequal length: bit-identical to the per-pair
    # sum of each path, for every matching.
    pairs = [(s, s + gap) for s, gap in raw]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=5)))
    counts = np.diff([0] + cuts + [len(pairs)])
    u, d = 1 / q, float(dx * dx)
    ends = np.cumsum(counts).tolist()

    def per_path(pairs):
        sums = []
        for a, b in zip([0] + ends, ends):
            total = 0.0
            for s, t in pairs[a:b]:
                total += u * eval_gauge(g, (t - s) * d)
            sums.append(total)
        return sums

    for dt, unit in ((dx * dx, Fraction(1, q)), (d, u)):
        got = matching_cost([as_matching(pairs), as_matching(pairs[::-1])],
                            counts, (g, g), dt, unit)
        assert got.shape == (2, 2, len(counts))
        assert got[0, 0].tolist() == got[0, 1].tolist() == per_path(pairs)
        assert got[1, 1].tolist() == per_path(pairs[::-1])
