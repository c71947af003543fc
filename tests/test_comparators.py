import random
import tracemalloc
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (Excursion, ScriptedPath, cohort_of, excursion_mass,
                     path_visits, random_rematch)

from shiftlab import comparators
from shiftlab.comparators import (COMPARATOR_KINDS, Cohort, Comparator,
                                  apply_comparator, check_matching,
                                  extract_slots, matching_cost)
from shiftlab.embedding import compute_t_star
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
        out.append((led, Excursion(0, res["t_star"],
                                   excursion_mass(led, 0, res["t_star"]))))
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
    cohort = cohort_of(completed_excursions(pair, seed=4, n=3), pair)
    stable = cohort.stable()
    comp = Comparator("random_feasible_rematch", seed=5, n_swaps=16)
    a, b = (pairs_of(apply_comparator(comp, cohort, stable)) for _ in range(2))
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
        want += random_rematch(own, exc, 5, 16)
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


# One slot per mu-visit, and three (nu-visits at three sites).
_UNIT = delta01()
_TRIPLE = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
    [(-1, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 3))]))


@st.composite
def excursion_visits(draw, pair):
    """(steps, sites) of an excursion [0, T*]: a mu-visit at step 0, then
    mu- and nu-visits whose slots first balance at the last one."""
    width = pair.mu.weight(0) * pair.denominator
    nu_sites = [s for s, _ in pair.nu.atoms]
    steps, sites, open_slots = [0], [0], width
    while open_slots:
        opens = len(steps) < 20 and draw(st.booleans())
        open_slots += width if opens else -1
        steps.append(steps[-1] + draw(st.integers(1, 4)))
        sites.append(0 if opens else draw(st.sampled_from(nu_sites)))
    return np.array(steps), np.array(sites)


class BoundaryWords:
    """A stand-in stream whose words are the first of an index band: the
    smallest w with floor(w m / 2^64) = k, for random m in 1..64 and k < m.
    At such words floor(w n / 2^64) needs all 64 bits of w."""

    def __init__(self, seed, *ids):
        self.rng = random.Random(repr((seed, *ids)))

    def word(self) -> int:
        m = self.rng.randint(1, 64)
        return -(-(self.rng.randrange(m) << 64) // m)

    def take_words(self, n: int) -> np.ndarray:
        return np.array([self.word() for _ in range(n)], dtype=np.uint64)

    def uniform_index(self, n: int) -> int:
        return (self.word() * n) >> 64

    def release(self) -> None:
        pass


@given(st.sampled_from((_UNIT, _TRIPLE)).flatmap(lambda pair: st.tuples(
           st.just(pair), st.lists(excursion_visits(pair), min_size=1,
                                   max_size=8))),
       st.lists(st.integers(0, 7), max_size=3), st.sampled_from((0, 1, 8, 33)),
       st.integers(0, (1 << 53) - 1), st.sampled_from((None, 3, 40)),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_cohort_rematch_equals_the_per_excursion_oracle(paths, repeat, n_swaps,
                                                        seed, block, boundary):
    # Excursions of one pair (unit pairs: one-pair ones), some repeated so
    # that their T* and stream are shared, swap words held in blocks of any
    # size, and streams of Philox or of band-boundary words: the oracle's
    # swaps and sort, excursion by excursion.
    pair, visits = paths
    visits += [visits[i % len(visits)] for i in repeat]
    cohort = Cohort(*path_visits(visits), pair)
    stable = cohort.stable()
    comp = Comparator("random_feasible_rematch", seed=seed, n_swaps=n_swaps)
    with ExitStack() as patches:
        if block:
            patches.enter_context(mock.patch.object(comparators, "_SWAP_WORDS", block))
        if boundary:
            for module in (comparators, helpers):
                patches.enter_context(mock.patch.object(module, "BitStream",
                                                        BoundaryWords))
        got = pairs_of(apply_comparator(comp, cohort, stable))
        want = []
        for (steps, _), n, end in zip(visits, cohort.counts,
                                      np.cumsum(cohort.counts)):
            own = pairs_of(a[end - n:end] for a in stable)
            want += random_rematch(own, Excursion(0, int(steps[-1]), 0), seed,
                                   n_swaps)
    assert got == want


def test_rematch_draw_memory_is_bounded():
    # 2^13 swaps on 40 excursions: their words at once would be 40 x 2^14
    # words (5 MiB, 20 MiB peak); the rematch holds blocks of 2^14 words
    # (128 KiB, 0.7 MiB peak with numpy 2.4).
    pair = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.from_atoms(
        [(-1, Fraction(1, 2)), (1, Fraction(1, 2))]))
    cohort = cohort_of(completed_excursions(pair, seed=8, n=40), pair)
    stable = cohort.stable()
    comp = Comparator("random_feasible_rematch", seed=3, n_swaps=1 << 13)
    tracemalloc.start()
    try:
        got = apply_comparator(comp, cohort, stable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_matching(cohort, got)
    assert peak <= 2 << 20, f"peak {peak / 2**20:.2f} MiB"


_LENGTHS = st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 11).map(
    lambda e: 1 << e), st.integers(0, 3000))


@given(st.lists(_LENGTHS, min_size=1, max_size=30), st.sampled_from(default_gauges()),
       st.sampled_from((1, 3)), st.integers(0, 1 << 32))
@settings(max_examples=100, deadline=None)
def test_banded_sums_equal_the_running_totals(counts, g, q, seed):
    # Heavy-tailed path lengths, 0 and 1 among them, and heavy-tailed gaps.
    rng = np.random.default_rng(seed)
    n = sum(counts)
    src = rng.integers(0, 1000, n)
    tgt = src + 1 + np.minimum(rng.pareto(0.5, n), 1e6).astype(np.int64)
    got = matching_cost([(src, tgt)], np.array(counts), (g,), 1, Fraction(1, q))
    want, start = [], 0
    for k in counts:
        total = 0.0
        for s, t in zip(src[start:start + k].tolist(), tgt[start:start + k].tolist()):
            total += 1 / q * eval_gauge(g, (t - s) * 1.0)
        want.append(total)
        start += k
    assert got[0, 0].tolist() == want
