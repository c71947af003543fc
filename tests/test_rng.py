import numpy as np
import pytest

from shiftlab.errors import InvariantError
from shiftlab.rng import (BitStream, STREAM_BWD, STREAM_FWD, STREAM_START,
                          stream)


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
