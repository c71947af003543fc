import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from shiftlab.errors import InvariantError
from shiftlab.measures import DiscreteMeasure
from shiftlab.rng import (BitStream, STREAM_BWD, STREAM_FWD, STREAM_START,
                          _mix, stream)
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
    "fraction": lambda st: st.uniform_fraction(),
    "floats": lambda st: st.uniform_floats(3),
}


@pytest.mark.parametrize("first, second", [
    ("bits", "words"), ("steps", "floats"), ("words", "fraction"),
    ("floats", "bits"), ("fraction", "words")])
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
    u1 = BitStream(9, 4, STREAM_START).uniform_fraction()
    u2 = BitStream(9, 4, STREAM_START).uniform_fraction()
    assert u1 == u2
    assert 0 <= u1 < 1
    assert u1.denominator <= 1 << 64


def test_uniform_floats():
    xs = BitStream(2, 0, 7).uniform_floats(1000)
    assert xs.shape == (1000,)
    assert ((0 <= xs) & (xs < 1)).all()
    assert 0.4 < xs.mean() < 0.6


def test_stream_helper():
    a = stream(3, 1, STREAM_FWD).take_bits(64)
    b = BitStream(3, 1, STREAM_FWD).take_bits(64)
    assert np.array_equal(a, b)


@given(hst.integers(0, 2**64 - 1), hst.integers(0, 2**20),
       hst.lists(hst.integers(1, 2**80), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_uniform_index_is_the_floor_of_uniform_fraction(seed, rep, sizes):
    st_index, twin = BitStream(seed, rep, 0x5EAC), BitStream(seed, rep, 0x5EAC)
    for n in sizes:
        assert st_index.uniform_index(n) == int(twin.uniform_fraction() * n)



def test_uniform_index_claims_the_uniform_kind():
    draws = BitStream(7, 0, STREAM_START)
    draws.uniform_index(3)
    draws.uniform_fraction()
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
