"""The word stream is a portability contract: freeze it hard."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosswise.rng import _CHUNK, CounterRng, derive_seed, mix64, word_at

from oracles import box_muller_normals, counter_words, fisher_yates, uniform_draws

# Frozen outputs of the documented (seed, stream, counter) -> word mapping.
# If any of these move, every seeded artifact in the project silently changes.
FROZEN_WORDS = [
    (0, 0, 0, 0),
    (0, 0, 1, 16294208416658607535),
    (0, 0, 2, 7960286522194355700),
    (42, 7, 0, 14200399311917174091),
    (42, 7, 100, 18094538594804987395),
]


def test_frozen_word_values():
    for seed, stream, counter, expected in FROZEN_WORDS:
        assert word_at(seed, stream, counter) == expected


def test_mix64_fixed_points():
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789


def test_derive_seed_frozen_and_distinct():
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 16223508463858081279
    assert derive_seed(12345, 3) == 2682606075263885858
    seen = {derive_seed(99, label) for label in range(200)}
    assert len(seen) == 200


def test_words_match_scalar_reference():
    for seed in (0, 1, 987654321):
        for stream in (0, 1, 5):
            rng = CounterRng(seed, stream=stream)
            got = rng.words(64)
            expected = [word_at(seed, stream, c) for c in range(64)]
            assert [int(w) for w in got] == expected


def test_words_batching_is_invariant():
    a = CounterRng(11, stream=2)
    first = np.concatenate([a.words(3), a.words(5), a.words(1)])
    b = CounterRng(11, stream=2)
    np.testing.assert_array_equal(first, b.words(9))


def test_streams_do_not_collide():
    base = CounterRng(5, stream=0).words(32)
    other = CounterRng(5, stream=1).words(32)
    assert not np.array_equal(base, other)


def test_uniform_unit_interval():
    u = CounterRng(3).uniform(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_bounds_mapping():
    u = CounterRng(4).uniform(1000, -2.0, 6.0)
    assert u.min() >= -2.0
    assert u.max() < 6.0
    v = CounterRng(4).uniform(1000)
    np.testing.assert_allclose(u, -2.0 + 8.0 * v, rtol=0, atol=1e-15)


def test_normal_moments():
    z = CounterRng(8).normal(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_deterministic_and_finite():
    a = CounterRng(21).normal(101)  # odd count exercises the truncated pair
    b = CounterRng(21).normal(101)
    np.testing.assert_array_equal(a, b)
    assert np.isfinite(a).all()


def test_rademacher_values_only():
    r = CounterRng(6).rademacher(500)
    assert set(np.unique(r)) == {-1.0, 1.0}


def test_integers_range():
    k = CounterRng(7).integers(1000, 3, 9)
    assert k.min() >= 3
    assert k.max() < 9
    assert set(np.unique(k)) == {3, 4, 5, 6, 7, 8}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 97, 256])
def test_permutation_is_bijection(n):
    perm = CounterRng(13).permutation(n)
    assert sorted(int(i) for i in perm) == list(range(n))


def test_permutation_deterministic():
    np.testing.assert_array_equal(
        CounterRng(14).permutation(50), CounterRng(14).permutation(50)
    )
    assert not np.array_equal(
        CounterRng(14).permutation(50), CounterRng(15).permutation(50)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 97, 256, 1024])
def test_permutation_matches_scalar_fisher_yates(n):
    for seed, stream in ((13, 0), (2 ** 64 - 1, 4)):
        assert CounterRng(seed, stream).permutation(n).tolist() == fisher_yates(seed, stream, n)


def _ranged_normal(draw, count, cuts):
    """normal(count) assembled from the draws of the pair ranges between `cuts`,
    drawn last range first."""
    half = (count + 1) // 2
    bounds = sorted({0, half, *(c for c in cuts if c <= half)})
    ranges = list(zip(bounds, bounds[1:]))
    parts = {start: draw(start, stop - start) for start, stop in reversed(ranges)}
    cos_parts = [parts[start][0] for start, _ in ranges]
    sin_parts = [parts[start][1] for start, _ in ranges]
    return np.concatenate(cos_parts + sin_parts)[:count] if count else np.empty(0)


@pytest.mark.parametrize("count", [0, 1, 2, 5, 8, 101, 4096])
@pytest.mark.parametrize("chunk", [1, 3, 64, 1 << 15])
def test_normal_pairs_stream_normal(count, chunk):
    """Cos parts then sin parts of `chunk`-pair ranges, drawn in any order, are
    normal(count), and the cursor continues after the draw exactly where
    normal(count) leaves it."""
    ranged = CounterRng(21, stream=3)
    direct = CounterRng(21, stream=3)
    ranged.words(7)
    direct.words(7)
    draw = ranged.normal_pairs(count)
    got = _ranged_normal(draw, count, range(0, (count + 1) // 2, chunk))
    np.testing.assert_array_equal(got, direct.normal(count))
    np.testing.assert_array_equal(ranged.words(5), direct.words(5))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.lists(st.integers(0, 150), max_size=8))
def test_normal_pairs_any_split(count, cuts):
    """Ranges of any split, drawn after the cursor has moved on, are normal(count)."""
    rng = CounterRng(5, stream=1)
    draw = rng.normal_pairs(count)
    rng.normal(9)
    np.testing.assert_array_equal(_ranged_normal(draw, count, cuts), CounterRng(5, 1).normal(count))


def test_normal_pairs_moves_cursor_before_iteration():
    """The cursor moves past 2*ceil(count/2) words when the draw is made, before
    any range is drawn; a range outside the pairs is refused."""
    rng = CounterRng(4)
    draw = rng.normal_pairs(11)
    after = rng.words(3)
    expected = CounterRng(4)
    assert expected.words(2 * 6 + 3)[-3:].tolist() == after.tolist()
    cos_part, sin_part = draw(0, 6)
    np.testing.assert_array_equal(np.concatenate([cos_part, sin_part])[:11],
                                  CounterRng(4).normal(11))
    for start, size in ((0, 7), (6, 1), (-1, 1), (2, -1)):
        with pytest.raises(ValueError):
            draw(start, size)


@pytest.mark.parametrize("count", [*range(70), 4097])
def test_normal_matches_box_muller_oracle(count):
    """normal(count) is the docstring's Box-Muller, bit for bit, from any cursor position."""
    for seed, stream, skip in ((0, 0, 0), (21, 3, 7), (2 ** 64 - 1, 5, 1)):
        rng = CounterRng(seed, stream)
        rng.words(skip)
        np.testing.assert_array_equal(rng.normal(count),
                                      box_muller_normals(seed, stream, skip, count))


# Frozen normal(count) entries [0, 1, count // 2, count - 1]; as with the frozen
# c_diag, the tolerance only absorbs the last bits of the platform's cos/sin/log.
FROZEN_NORMALS = [
    (0, 0, 7, [8.428617911692298, 0.39102045903839555, 1.2408277760854276, 1.1464429393440558]),
    (42, 7, 5, [0.361501766724999, -0.906110804073886, 0.5004446279304962, 0.8058300940401852]),
    (2 ** 64 - 1, 3, 4097,
     [-0.731720857753342, -0.11190430083379459, 0.18531420041355348, -1.251345695055768]),
]


@pytest.mark.parametrize("seed, stream, count, expected", FROZEN_NORMALS)
def test_frozen_normal_values(seed, stream, count, expected):
    z = CounterRng(seed, stream).normal(count)
    np.testing.assert_allclose(z[[0, 1, count // 2, count - 1]], expected, rtol=1e-13, atol=0)


# (method, count, further arguments): fractions, negatives, bools, strings, and counts
# larger than NumPy can index, which NumPy itself would refuse without naming them.
BAD_COUNTS = [
    ("words", 2.5, ()), ("words", -1, ()), ("words", True, ()),
    ("permutation", -2, ()), ("permutation", 2.0, ()),
    ("normal", -3, ()), ("normal", 3.0, ()), ("normal_pairs", -1, ()),
    ("rademacher", True, ()), ("uniform", "4", ()), ("integers", np.bool_(False), (0, 3)),
    *((method, 2 ** 63, args) for method, args in (
        ("words", ()), ("uniform", ()), ("normal", ()), ("normal_pairs", ()),
        ("rademacher", ()), ("integers", (0, 3)), ("permutation", ()))),
    # An odd count whose 2 * ceil(count / 2) 8-byte entries are one past what NumPy can index.
    ("normal", np.iinfo(np.intp).max // 8, ()),
]


@pytest.mark.parametrize("method, count, args", BAD_COUNTS)
def test_bad_count_refused_before_the_cursor_moves(method, count, args):
    """A count that is not a non-negative integer, or is larger than NumPy can index,
    raises ValueError naming it, and the next draw is the one a fresh cursor makes."""
    rng = CounterRng(9, stream=2)
    with pytest.raises(ValueError, match=re.escape(repr(count))):
        getattr(rng, method)(count, *args)
    np.testing.assert_array_equal(rng.words(4), CounterRng(9, stream=2).words(4))


def test_numpy_integer_counts_accepted():
    for count in (np.int64(5), np.uint8(5)):
        np.testing.assert_array_equal(CounterRng(3).normal(count), CounterRng(3).normal(5))
        np.testing.assert_array_equal(CounterRng(3).permutation(count),
                                      CounterRng(3).permutation(5))
        np.testing.assert_array_equal(CounterRng(3).words(count), CounterRng(3).words(5))
    # (count + 1) // 2 would wrap in uint8 arithmetic; the count is taken as a Python int.
    np.testing.assert_array_equal(CounterRng(3).normal(np.uint8(255)), CounterRng(3).normal(255))


def test_words_and_draw_fill_out():
    """words(count, out=) and draw(start, size, out=) write into and return `out`."""
    buffer = np.empty(6, dtype=np.uint64)
    assert CounterRng(4).words(6, out=buffer) is buffer
    np.testing.assert_array_equal(buffer, CounterRng(4).words(6))
    pairs = np.empty((2, 5))
    assert CounterRng(4).normal_pairs(10)(0, 5, out=pairs) is pairs
    np.testing.assert_array_equal(pairs.reshape(-1), CounterRng(4).normal(10))


def _near_chunks(values_per_chunk):
    """Draw counts where a chunked draw starts, ends or splits: 0, 1 and other small
    counts, odd ones included, and one or two chunks' worth, give or take a few."""
    return st.one_of(st.integers(0, 9), st.builds(lambda m, d: m * values_per_chunk + d,
                                                   st.integers(1, 2), st.integers(-3, 2)))


SEEDS = st.integers(0, 2 ** 64 - 1)
BOUNDS = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, skip=st.integers(0, 9), count=_near_chunks(2 * _CHUNK))
@example(seed=1, skip=0, count=0).via("no pairs")
@example(seed=1, skip=3, count=1).via("one pair, its sin part dropped")
@example(seed=1, skip=0, count=2 * _CHUNK - 2).via("a chunk less one pair")
@example(seed=1, skip=0, count=4 * _CHUNK + 1).via("two chunks and one pair, odd")
def test_normal_is_the_out_of_place_draw(seed, skip, count):
    """normal(count), written chunk by chunk into its output, has the bytes of the whole
    Box-Muller draw, and the cursor ends past its 2*ceil(count/2) words."""
    rng = CounterRng(seed, stream=2)
    rng.words(skip)
    assert rng.normal(count).tobytes() == box_muller_normals(seed, 2, skip, count).tobytes()
    after = skip + 2 * ((count + 1) // 2)
    assert rng.words(2).tobytes() == counter_words(seed, 2, after, 2).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, skip=st.integers(0, 9), count=_near_chunks(_CHUNK),
       low=BOUNDS, high=BOUNDS)
@example(seed=1, skip=0, count=0, low=-1.0, high=1.0).via("no words")
@example(seed=1, skip=5, count=_CHUNK - 1, low=-1.0, high=1.0).via("a chunk less one")
@example(seed=1, skip=0, count=2 * _CHUNK + 1, low=2.5, high=-7.0).via("two chunks and one")
def test_uniform_is_the_out_of_place_draw(seed, skip, count, low, high):
    """uniform(count, low, high), scaled in place chunk by chunk, has the bytes of
    low + (high - low) * u computed whole, and the cursor ends past its count words."""
    rng = CounterRng(seed, stream=2)
    rng.words(skip)
    got = rng.uniform(count, low, high)
    assert got.tobytes() == uniform_draws(seed, 2, skip, count, low, high).tobytes()
    assert rng.words(2).tobytes() == counter_words(seed, 2, skip + count, 2).tobytes()


# Each word draw and its out-of-place form over the oracle's words w.
WORD_DRAWS = {
    "words": (lambda rng, count: rng.words(count), lambda w: w),
    "rademacher": (lambda rng, count: rng.rademacher(count),
                   lambda w: np.where(w & np.uint64(1), 1.0, -1.0)),
    "integers": (lambda rng, count: rng.integers(count, -7, 2 ** 40),
                 lambda w: (w % np.uint64(2 ** 40 + 7)).astype(np.int64) - 7),
}


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, skip=st.integers(0, 9), count=_near_chunks(_CHUNK),
       draw=st.sampled_from(sorted(WORD_DRAWS)))
@example(seed=1, skip=5, count=_CHUNK + 1, draw="words").via("a chunk and one")
@example(seed=1, skip=0, count=2 * _CHUNK - 1, draw="rademacher").via("two chunks less one")
@example(seed=1, skip=3, count=2 * _CHUNK + 2, draw="integers").via("two chunks and two")
def test_word_draws_are_the_out_of_place_draw(seed, skip, count, draw):
    """words, rademacher and integers, drawn chunk by chunk into their output, have the
    bytes of the same draw made whole from the oracle's words, and the cursor ends past
    their count words."""
    chunked, whole = WORD_DRAWS[draw]
    rng = CounterRng(seed, stream=3)
    rng.words(skip)
    assert chunked(rng, count).tobytes() == whole(counter_words(seed, 3, skip, count)).tobytes()
    assert rng.words(2).tobytes() == counter_words(seed, 3, skip + count, 2).tobytes()


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("draw", [lambda: CounterRng(1).normal(2 ** 22),
                                  lambda: CounterRng(1).uniform(2 ** 22, -1.0, 1.0),
                                  lambda: CounterRng(1).words(2 ** 22),
                                  lambda: CounterRng(1).rademacher(2 ** 22),
                                  lambda: CounterRng(1).integers(2 ** 22, -5, 7)],
                         ids=["normal", "uniform", "words", "rademacher", "integers"])
def test_large_draws_peak_at_their_output(draw):
    """2^22 draws (a 32 MB output) peak within 1 MB of it: the words, their counter
    ramp and the Box-Muller pairs are made one chunk at a time.  Drawn whole, they
    peaked at 48 MB (normal) and 64 MB (the others)."""
    assert _peak_bytes(draw) <= 33 * 2 ** 20
