"""Counter-based deterministic random number generation.

Every random draw in this library comes from one fixed generator so that any
reimplementation (in any language) can reproduce the exact streams.  The
generator maps a triple (seed, stream, counter) to a 64-bit word:

    key(seed, stream) = mix64(mix64(seed) XOR (stream * 0xD2B74407B1CE6E93 mod 2^64))
    word(seed, stream, counter) = mix64(key + counter * 0x9E3779B97F4A7C15 mod 2^64)

where mix64 is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2^64)
    z ^= z >> 31

All arithmetic is modulo 2^64.  The word stream is the portable contract;
derived floating-point draws use the fixed conversions below:

* uniform in [0, 1):   (word >> 11) * 2^-53
* standard normal:     Box-Muller on word pairs; for a batch of n normals,
  2*ceil(n/2) words are consumed: the first half give u1 = ((w >> 11)+1)*2^-53
  in (0, 1], the second half give u2 = (w >> 11)*2^-53 in [0, 1), and the
  output is [r*cos(2*pi*u2) for all pairs] followed by [r*sin(2*pi*u2)],
  r = sqrt(-2 ln u1), truncated to n values.  normal() is normal_pairs() read
  in chunks, so one routine makes every normal.
* sign flip (+1/-1):   +1.0 if bit 0 of the word is set, else -1.0
* integer in [lo, hi): lo + word mod (hi - lo)   (modulo bias is negligible
  for the ranges used here, all far below 2^32)
* permutation of n:    Fisher-Yates from the top, j = word mod (i + 1),
  consuming n - 1 words.

`CounterRng` is a thin stateful cursor over the stream; equal (seed, stream)
always replays the same sequence regardless of how draws are batched into
words()/uniform()/normal() calls of the same sizes.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ParameterError, ShapeError, expect_finite, expect_int, expect_shape

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD2B74407B1CE6E93
_DERIVE_SALT = 0xA24BAED4963EE407

_U64_GOLDEN = np.uint64(_GOLDEN)
_INV_2_53 = 2.0 ** -53
# Entries per chunk of every draw, and pairs per chi(n) worker: output plus O(_CHUNK) memory.
_CHUNK = 2 ** 15


def _chunks(out: np.ndarray):
    """(start, out[..., start : start + _CHUNK]) for each chunk of `out`'s last axis, in order."""
    if out.shape[-1] <= _CHUNK:  # `out` itself, without a generator's cost: most draws are small
        return ((0, out),)
    return ((start, out[..., start : start + _CHUNK]) for start in range(0, out.shape[-1], _CHUNK))


def _expect_out(out, shape: tuple, dtype: type, context: str) -> np.ndarray:
    """`out` if it is a writable `dtype` ndarray of `shape`; else ShapeError."""
    if not isinstance(out, np.ndarray) or out.dtype != dtype or not out.flags.writeable:
        raise ShapeError(f"{context} must be a writable {np.dtype(dtype)} array, got {out!r:.60}")
    return expect_shape(out, shape, context)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    z = expect_int(z, "word", ParameterError) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    return mix64(mix64(seed & _MASK64) ^ ((stream * _STREAM_SALT) & _MASK64))


def word_at(seed: int, stream: int, counter: int) -> int:
    """Reference (scalar) form of the generator; words() must match it."""
    seed, stream, counter = (expect_int(value, name, ParameterError) for value, name in
                             ((seed, "seed"), (stream, "stream"), (counter, "counter")))
    return mix64((stream_key(seed, stream) + counter * _GOLDEN) & _MASK64)


def derive_seed(seed: int, label: int) -> int:
    """Child seed for component `label` of a composite sampler (e.g. block i)."""
    seed = expect_int(seed, "seed", ParameterError)
    label = expect_int(label, "label", ParameterError)
    return mix64(mix64(seed & _MASK64) ^ ((label * _DERIVE_SALT) & _MASK64) ^ _GOLDEN)


class CounterRng:
    """Sequential cursor over the (seed, stream) word stream."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = expect_int(seed, "seed", ParameterError)
        self.stream = expect_int(stream, "stream", ParameterError)
        self._key = stream_key(self.seed, self.stream)
        self._counter = 0

    def words(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next `count` 64-bit words as a uint64 array: `out`, a uint64 (count,) array, if given."""
        count = expect_int(count, "word count", ParameterError, 0)
        out = np.empty(count, np.uint64) if out is None else _expect_out(
            out, (count,), np.uint64, "words out")  # refused before the cursor moves
        first, self._counter = self._key + self._counter * _GOLDEN, self._counter + count
        for start, z in _chunks(out):
            shifted = np.arange(z.size, dtype=np.uint64)  # chunk offsets, then mix64's scratch
            np.multiply(shifted, _U64_GOLDEN, out=z)
            z += np.uint64((first + start * _GOLDEN) & _MASK64)
            z ^= np.right_shift(z, np.uint64(30), out=shifted)  # mix64, in place
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= np.right_shift(z, np.uint64(27), out=shifted)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return out

    def uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """low + (high - low) * u of `count` uniforms u in [0, 1), scaled in place."""
        low, high = expect_finite(low, "low"), expect_finite(high, "high")
        out = np.empty(expect_int(count, "word count", ParameterError, 0))
        for _, part in _chunks(out):
            words = self.words(part.size)
            np.copyto(part, np.right_shift(words, np.uint64(11), out=words))  # exact: < 2^53
            part *= _INV_2_53
            part *= high - low
            part += low
        return out

    def normal(self, count: int) -> np.ndarray:
        count = expect_int(count, "normal count", ParameterError, 0)  # before any draw
        draw, out = self.normal_pairs(count), np.empty((2, (count + 1) // 2))
        for start, part in _chunks(out):
            draw(start, part.shape[1], out=part)
        return out.reshape(-1)[:count]

    def normal_pairs(self, count: int) -> Callable[..., np.ndarray]:
        """Move past the words of normal(count); return draw(start, size, out=None) of its pairs.

        draw gives the (2, size) cos parts and sin parts of Box-Muller pairs [start, start +
        size), in `out` (a writable float64 array) if given: a pure function of this cursor's
        position, count, start and size.  normal(count) is all cos parts, then all sin parts,
        truncated to count.
        """
        half = (expect_int(count, "normal count", ParameterError, 0) + 1) // 2
        base, self._counter = self._counter, self._counter + 2 * half

        def draw(start: int, size: int, out: np.ndarray | None = None) -> np.ndarray:
            if not 0 <= start <= start + size <= half:
                raise ValueError(f"pairs [{start}, {start + size}) outside [0, {half})")
            out = np.empty((2, size)) if out is None else _expect_out(
                out, (2, size), np.float64, "draw out")
            cursor, (w1, w2) = CounterRng(self.seed, self.stream), out.view(np.uint64)
            for row, cursor._counter in ((w1, base + start), (w2, base + half + start)):
                cursor.words(size, out=row)
            # Box-Muller, writing only into `out` and r.  theta is (w2 >> 11) * (2*pi*2^-53),
            # bit for bit 2*pi*u2: the product of the constants is exact.
            r = np.right_shift(w1, np.uint64(11), out=w1).astype(np.float64)
            np.multiply(np.add(r, 1.0, out=r), _INV_2_53, out=r)
            np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
            theta = out[0]
            np.copyto(theta, np.right_shift(w2, np.uint64(11), out=w2))
            theta *= 2.0 * math.pi * _INV_2_53
            np.sin(theta, out=out[1])
            np.cos(theta, out=theta)
            out *= r
            return out

        return draw

    def rademacher(self, count: int) -> np.ndarray:
        out = np.empty(expect_int(count, "word count", ParameterError, 0))
        for _, part in _chunks(out):  # 2b - 1 of each word's bit 0, b: exactly +1.0 or -1.0
            np.multiply(np.bitwise_and(self.words(part.size), np.uint64(1)), 2.0, out=part)
            part -= 1.0
        return out

    def integers(self, count: int, low: int, high: int) -> np.ndarray:
        """Integers in [low, high), via modulo (bias negligible for high - low << 2^64)."""
        low = expect_int(low, "low", ParameterError)
        span = np.uint64(expect_int(high, "high", ParameterError, low + 1) - low)  # low < high
        out = np.empty(expect_int(count, "word count", ParameterError, 0), np.int64)
        for _, part in _chunks(out):
            np.copyto(part, np.remainder(words := self.words(part.size), span, out=words))
            part += low
        return out

    def permutation(self, n: int) -> np.ndarray:
        n = expect_int(n, "permutation length", ParameterError, 0)
        perm = list(range(n))
        if n > 1:
            # One array operation takes every modulus (i + 1); the swaps run on
            # Python ints, since a swap in a list is far cheaper than in NumPy.
            js = self.words(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
            for i, j in zip(range(n - 1, 0, -1), js.tolist()):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
