"""Counter-based deterministic random streams.

Every stream is a Philox4x64 generator keyed by (seed, derived stream id).
The raw word stream is consumed sequentially, so a stream yields identical
output no matter how requests are chunked.  Replicas, directions, and
auxiliary draws all get their own stream id and can therefore run in any
order, or in parallel, without coordination.

One stream serves one consumer kind: bits (``take_bits``/``take_steps``),
raw words (``take_words``, and ``skip_words`` to seek) or uniforms
(``uniform_index``).  The bit kind buffers unread bits and the others read
the raw words directly, so mixing kinds would make the output depend on
how requests are chunked; asking a stream for a second kind raises.
Generators are re-keyed: a released stream's generator serves the next
stream to draw, at a fifth of the cost of building one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

# Stream roles within one (seed, replica).
STREAM_START = 0
STREAM_FWD = 1
STREAM_BWD = 2
STREAM_UFLAG = 3

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FREE: list[np.random.Philox] = []     # generators of released streams
# Counter 0 and an empty buffer; each claim sets its key and loads it.  Plain
# ints: the state setter converts each of its 14 values, and numpy scalars
# cost more to convert.
_FRESH = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
          "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _mix(ids: tuple[int, ...]) -> int:
    h = 0x243F6A8885A308D3
    for x in ids:
        h = ((h ^ (int(x) & _MASK64)) * _GOLDEN) & _MASK64
        h ^= h >> 29
    return h


class BitStream:
    """A reproducible stream of bits / signed steps / uniform words.

    The stream is a pure function of (seed, *ids); chunk boundaries do not
    affect the output.  The Philox generator is claimed at the first draw,
    so a stream that is never read costs nothing, and ``release`` frees it.
    """

    def __init__(self, seed: int, *ids: int):
        self.seed = int(seed) & _MASK64
        self.ids = tuple(int(i) for i in ids)
        self._bg: np.random.Philox | None = None
        self._kind: str | None = None

    def _claim(self, kind: str) -> None:
        """First draw: bind the stream to ``kind`` and key its generator."""
        if self._kind is not None:
            raise InvariantError(
                f"stream {(self.seed, *self.ids)} serves {self._kind} draws; "
                f"it cannot also serve {kind} draws")
        self._kind = kind
        # numpy's key for this list: float64 if one value is >= 2^63, 2^64 -> 0.
        key = [self.seed, _mix(self.ids)]
        if (key[0] >> 63) != (key[1] >> 63):
            key = [int(float(x)) & _MASK64 for x in key]
        # Seed 0, not None, spares a new generator an OS entropy draw.
        self._bg = _FREE.pop() if _FREE else np.random.Philox(0)
        _FRESH["state"]["key"] = key
        self._bg.state = _FRESH                # the setter copies it

    def release(self) -> None:
        """Hand the generator back for reuse; the stream is read no more."""
        if self._bg is not None:
            _FREE.append(self._bg)
        self._bg, self._kind = None, "no more"

    def take_bits(self, n: int) -> np.ndarray:
        """Return the next n bits as a uint8 array of 0/1."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self._kind != "bits":
            self._claim("bits")
            self._bits = np.empty(0, dtype=np.uint8)
        while self._bits.size < n:
            need_words = max(64, -(-(n - self._bits.size) // 64))
            words = self._bg.random_raw(need_words)
            fresh = np.unpackbits(words.astype(">u8").view(np.uint8))
            self._bits = np.concatenate([self._bits, fresh])
        out, self._bits = self._bits[:n], self._bits[n:]
        return out

    def take_steps(self, n: int) -> np.ndarray:
        """Return n iid +-1 increments as int8."""
        bits = self.take_bits(n)
        return (2 * bits.astype(np.int8) - 1)

    def take_words(self, n: int) -> np.ndarray:
        """Return the next 64 n bits as n uint64 words.

        Bit i of the stream is bit 63 - (i mod 64) of word i // 64, the
        order in which ``take_bits`` unpacks them.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self._kind != "words":
            self._claim("words")
        return self._bg.random_raw(n)

    def skip_words(self, n: int) -> None:
        """Move on as ``take_words(n)`` would, by a jump of the counter."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self._kind != "words":
            self._claim("words")
        # ``advance`` drops the buffered rest of a 4-word block: read it.
        rest = min(n, 4 - self._bg.state["buffer_pos"])
        self._bg.random_raw(rest)
        if n - rest >= 4:
            self._bg.advance((n - rest) // 4)
        self._bg.random_raw((n - rest) % 4)

    def uniform_index(self, n: int, count: int | None = None):
        """floor(u * n) for one uniform u = word / 2^64 on [0, 1), exactly;
        with ``count``, a list of the next ``count`` of them."""
        if self._kind != "uniforms":
            self._claim("uniforms")
        if count is None:
            return (int(self._bg.random_raw(1)[0]) * n) >> 64
        return [(w * n) >> 64 for w in self._bg.random_raw(count).tolist()]
