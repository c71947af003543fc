import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import fraction_draw_start, fraction_draw_u_flag, uniform_fraction
from shiftlab.embedding import draw_u_flag
from shiftlab.errors import InvariantError
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.rng import (BitStream, STREAM_BWD, STREAM_FWD, STREAM_START,
                          _mix)
from shiftlab.walk import draw_start


def test_chunking_invariance():
    one_shot = BitStream(11, 0, STREAM_FWD).take_steps(1000)
    chunked = BitStream(11, 0, STREAM_FWD)
    parts = [chunked.take_steps(n) for n in (1, 2, 61, 64, 500, 372)]
    assert sum(len(p) for p in parts) == 1000
    assert np.array_equal(np.concatenate(parts), one_shot)


def test_take_words_is_the_bit_stream_packed():
    bits = BitStream(11, 0, STREAM_FWD).take_bits(64 * 50)
    chunked = BitStream(11, 0, STREAM_FWD)
    words = np.concatenate([chunked.take_words(n) for n in (1, 0, 17, 32)])
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.packbits(bits).view(">u8").astype(np.uint64))


_DRAWS = {
    "bits": lambda st: st.take_bits(3),
    "steps": lambda st: st.take_steps(3),
    "words": lambda st: st.take_words(3),
    "fraction": lambda st: st.uniform_index(1 << 64),   # the word over 2^64
    "index": lambda st: st.uniform_index(3),
}


@pytest.mark.parametrize("first, second", [
    ("bits", "words"), ("steps", "index"), ("words", "fraction"),
    ("index", "bits"), ("fraction", "words")])
def test_one_consumer_kind_per_stream(first, second):
    st = BitStream(4, 1, STREAM_FWD)
    _DRAWS[first](st)
    _DRAWS[first](st)
    with pytest.raises(InvariantError):
        _DRAWS[second](st)


def test_streams_are_deterministic():
    a = BitStream(5, 3, STREAM_BWD).take_bits(256)
    b = BitStream(5, 3, STREAM_BWD).take_bits(256)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids():
    base = BitStream(5, 0, STREAM_FWD).take_bits(256)
    for ids in ((5, 1, STREAM_FWD), (5, 0, STREAM_BWD), (6, 0, STREAM_FWD)):
        other = BitStream(*ids).take_bits(256)
        assert not np.array_equal(base, other), ids


def test_steps_are_plus_minus_one():
    st = BitStream(1, 2, STREAM_FWD).take_steps(4096)
    assert set(np.unique(st)) <= {-1, 1}
    # Unbiasedness sanity at 5 sigma.
    assert abs(int(st.sum())) < 5 * 64


def test_uniform_fraction_range_and_determinism():
    u1 = uniform_fraction(BitStream(9, 4, STREAM_START))
    u2 = uniform_fraction(BitStream(9, 4, STREAM_START))
    assert u1 == u2
    assert 0 <= u1 < 1
    assert u1.denominator <= 1 << 64


@given(hst.integers(0, 2**64 - 1), hst.integers(0, 2**20),
       hst.lists(hst.integers(1, 2**80), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_uniform_index_is_the_floor_of_uniform_fraction(seed, rep, sizes):
    st_index, twin = BitStream(seed, rep, 0x5EAC), BitStream(seed, rep, 0x5EAC)
    for n in sizes:
        assert st_index.uniform_index(n) == int(uniform_fraction(twin) * n)


@hst.composite
def laws(draw, sites):
    """A probability law on 2..4 of ``sites`` with a random denominator."""
    k = draw(hst.integers(2, 4))
    q = draw(hst.integers(k, 2**70))
    cuts = sorted(draw(hst.lists(hst.integers(1, q - 1), min_size=k - 1,
                                 max_size=k - 1, unique=True)))
    chosen = sorted(draw(hst.lists(hst.sampled_from(sites), min_size=k,
                                   max_size=k, unique=True)))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return DiscreteMeasure.from_atoms(
        [(s, Fraction(n, q)) for s, n in zip(chosen, nums)], q)


@given(laws(range(-3, 4)), laws(range(-3, 4)), hst.integers(0, 2**63 - 1),
       hst.integers(0, 2**20))
@settings(max_examples=200, deadline=None)
def test_integer_draws_match_the_fraction_oracle(mu, nu, seed, rep):
    # Sites -3..3 make most pairs share a site, so p = mu~(s)/mu(s) is
    # often strictly between 0 and 1 and the U-flag stream is read.
    assert draw_start(mu, BitStream(seed, rep, STREAM_START)) == \
        fraction_draw_start(mu, BitStream(seed, rep, STREAM_START))
    pair = split_measures(mu, nu)
    for start in mu.support:
        assert draw_u_flag(pair, seed, rep, start) == \
            fraction_draw_u_flag(pair, seed, rep, start)


def test_uniform_index_claims_the_uniform_kind():
    draws = BitStream(7, 0, STREAM_START)
    draws.uniform_index(3)
    draws.uniform_index(1 << 64)
    with pytest.raises(InvariantError):
        draws.take_words(1)


def test_lazy_stream_gives_the_eager_words():
    # The generator is built on the first draw, from the same key.
    for seed, ids in ((11, (0, STREAM_FWD)), (2**64 + 5, (3, 0x5EAC, -1))):
        eager = np.random.Philox(key=[seed & (2**64 - 1), _mix(ids)])
        lazy = BitStream(seed, *ids)
        assert lazy._bg is None
        assert np.array_equal(lazy.take_words(40), eager.random_raw(40))
        assert lazy.take_words(3).tolist() == eager.random_raw(3).tolist()


def test_one_atom_start_reads_no_stream():
    start = BitStream(3, 0, STREAM_START)
    assert draw_start(DiscreteMeasure.delta(4), start) == 4
    assert start._bg is None and start._kind is None


def _implicit_key_words(seed, ids, n):
    """Words of the Philox stream numpy keys from the list [seed, _mix(ids)]."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.random.Philox(key=[seed, _mix(ids)]).random_raw(n)


@pytest.mark.parametrize("seed, ids", [
    (2**63 + 1, (4, 1)),    # high seed, low mixed ids: a float64 key
    (5, (4, 0)),            # low seed, high mixed ids
    (2**63 - 1, (4, 0)),    # rounds up to 2^63 in float64
    (2**63 + 1, (4, 0)),    # both high: an exact uint64 key
    (2**64 - 1, (4, 1)),    # rounds to 2^64, which numpy casts to 0
])
def test_stream_key_is_numpys_implicit_key(seed, ids):
    assert np.array_equal(BitStream(seed, *ids).take_words(8),
                          _implicit_key_words(seed, ids, 8))


@given(hst.integers(0, 2**64 - 1), hst.integers(0, 2**20), hst.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_stream_key_matches_numpy_on_any_seed(seed, rep, role):
    assert np.array_equal(BitStream(seed, rep, role).take_words(2),
                          _implicit_key_words(seed, (rep, role), 2))
