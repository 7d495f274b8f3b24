import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswise import features
from crosswise.errors import ParameterError, ShapeError
from crosswise.features import (
    FeatureMap,
    apply_zhat,
    feature_map_apply,
    fwht,
    kernel_exact,
    next_power_of_two,
    sample_block,
    sample_feature_map,
)
from crosswise.rng import CounterRng

from oracles import dense_gaussian_features, dense_sample_block, naive_fwht, zhat_dense


def test_next_power_of_two():
    assert [next_power_of_two(d) for d in (1, 2, 3, 5, 8, 9, 1000)] == [
        1, 2, 4, 8, 8, 16, 1024,
    ]


def test_fwht_base_cases():
    np.testing.assert_array_equal(fwht(np.array([1.0, 0.0])), [1.0, 1.0])
    np.testing.assert_array_equal(fwht(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(fwht(np.array([3.0, 5.0])), [8.0, -2.0])


def test_fwht_matches_naive_up_to_1024():
    n = 2
    while n <= 1024:
        v = CounterRng(n).uniform(n, -1, 1)
        np.testing.assert_allclose(fwht(v), naive_fwht(v), atol=1e-10)
        n *= 2


def test_fwht_involution():
    for n in (2, 8, 64, 1024):
        v = CounterRng(n + 1).normal(n)
        np.testing.assert_allclose(fwht(fwht(v)) / n, v, atol=1e-10)


def test_fwht_rejects_non_power_of_two():
    for bad in (3, 5, 6, 7, 12):
        with pytest.raises(ShapeError):
            fwht(np.zeros(bad))


def test_fwht_rejects_scalar():
    for scalar in (np.float64(3.0), np.array(3.0)):
        with pytest.raises(ShapeError):
            fwht(scalar)


def test_fwht_does_not_mutate_input():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    kept = v.copy()
    fwht(v)
    np.testing.assert_array_equal(v, kept)


def test_sample_block_basics():
    block = sample_block(0, 5, 1.0)
    assert block.n == 8
    assert sorted(int(i) for i in block.perm) == list(range(8))
    assert set(np.unique(block.b_signs)) <= {-1.0, 1.0}
    assert np.all(block.c_diag > 0)
    twin = sample_block(0, 5, 1.0)
    np.testing.assert_array_equal(block.g_diag, twin.g_diag)
    np.testing.assert_array_equal(block.perm, twin.perm)


@pytest.mark.parametrize("n", [2 ** e for e in range(12)])
def test_sample_block_matches_dense_oracle(n):
    """The streamed chi(n) draw gives the n x n matrix's factors bit for bit."""
    for seed in (0, 1, 12345, 2 ** 64 - 1):
        for d in sorted({n, max(n - 1, 1)}):
            block = sample_block(seed, d, 1.5)
            expected = dense_sample_block(seed, d)
            assert block.n == expected[1].shape[0]
            for got, want in zip((block.b_signs, block.perm, block.g_diag, block.c_diag),
                                 expected):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def _assert_block_is_oracle(seed, d, workers, chunk_pairs):
    """sample_block with `workers` CPUs and a `chunk_pairs` budget equals the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_sample_workers", lambda: workers)
        mp.setattr(features, "_CHI_CHUNK_PAIRS", chunk_pairs)
        block = sample_block(seed, d, 1.0)
    for got, want in zip((block.b_signs, block.perm, block.g_diag, block.c_diag),
                         dense_sample_block(seed, d)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# (n, chunk budget): n = 1 and n = 2; a draw of exactly one chunk (n*n/2 pairs
# = 2^15); a row larger than a worker's share (64 pairs against 100 / workers,
# and against the whole budget); an uneven split of many chunks.
POOL_CASES = [(1, 2 ** 15), (2, 2 ** 15), (256, 2 ** 15), (64, 100), (128, 100),
              (1024, 2 ** 15), (16, 70)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n, chunk_pairs", POOL_CASES)
def test_sample_block_pool_matches_dense_oracle(n, chunk_pairs, workers):
    """The chi(n) scales are the oracle's bit for bit, whatever the worker count."""
    for seed in (0, 2 ** 64 - 1):
        _assert_block_is_oracle(seed, n, workers, chunk_pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(1, 3), st.integers(1, 2 ** 13), st.integers(0, 2 ** 64 - 1))
def test_sample_block_pool_property(log_n, workers, chunk_pairs, seed):
    _assert_block_is_oracle(seed, 2 ** log_n, workers, chunk_pairs)


def test_sample_block_pool_under_fast_thread_switches():
    """More workers than cores, many small chunks and a GIL switch every
    microsecond: the workers' writes to their own rows still give the oracle."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            _assert_block_is_oracle(seed, 256, 4 * features._sample_workers(), 256)
    finally:
        sys.setswitchinterval(interval)


def test_sample_block_one_chunk_starts_no_thread(monkeypatch):
    """A draw that fits in one chunk runs inline; a larger one starts the pool."""
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(features, "_sample_workers", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for d in (1, 2, 100, 256):  # n*n/2 <= 2^15 pairs
        sample_block(0, d, 1.0)
    with pytest.raises(AssertionError, match="thread was started"):
        sample_block(0, 512, 1.0)


# Frozen c_diag entries [0, 1, n/2, n-1].  The tolerance only absorbs the last
# bits of the platform's cos/sin/log; any change to which words feed which
# normals moves them by far more.
FROZEN_C_DIAG = [
    (0, 8, [1.0004782650598836, 1.3156316520957345, 1.1607324796582712, 1.607674045368207]),
    (2 ** 64 - 1, 8,
     [0.37277996551589276, 0.9424276180950876, 0.7502560169411281, 1.3827664052414894]),
    (7, 1024, [0.9862345555082895, 0.9564780260458292, 0.9545611603537931, 0.9772804917832358]),
]


@pytest.mark.parametrize("seed, n, expected", FROZEN_C_DIAG)
def test_sample_block_frozen_c_diag(seed, n, expected):
    c_diag = sample_block(seed, n, 1.0).c_diag
    np.testing.assert_allclose(c_diag[[0, 1, n // 2, n - 1]], expected, rtol=1e-13, atol=0)


def test_sample_block_memory_is_bounded():
    """The n*n normals of an n=4096 block (128 MB as one matrix) are streamed."""
    tracemalloc.start()
    try:
        sample_block(0, 4096, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_sample_block_validation():
    with pytest.raises(ParameterError):
        sample_block(0, 0, 1.0)
    with pytest.raises(ParameterError):
        sample_block(0, 4, 0.0)
    with pytest.raises(ParameterError):
        sample_block(0, 4, -2.0)


def test_apply_zhat_matches_dense_assembly():
    for seed in range(20):
        d = int(CounterRng(seed, stream=4).integers(1, 2, 65)[0])
        block = sample_block(seed, d, 1.5)
        assert block.n <= 128
        x = CounterRng(seed, stream=5).uniform(d, -1, 1)
        padded = np.zeros(block.n)
        padded[:d] = x
        expected = zhat_dense(block) @ padded
        np.testing.assert_allclose(apply_zhat(block, x), expected, atol=1e-10)


def test_apply_zhat_linearity_and_zero():
    block = sample_block(3, 4, 1.0)
    x = CounterRng(6).uniform(4, -1, 1)
    np.testing.assert_allclose(
        apply_zhat(block, 2.5 * x), 2.5 * apply_zhat(block, x), atol=1e-12
    )
    np.testing.assert_array_equal(apply_zhat(block, np.zeros(4)), np.zeros(block.n))


def test_apply_zhat_rejects_long_input():
    block = sample_block(3, 4, 1.0)
    with pytest.raises(ShapeError):
        apply_zhat(block, np.zeros(block.n + 1))


def test_apply_zhat_shape_error_reports_last_axis():
    block = sample_block(3, 4, 1.0)
    # A batch with fewer rows than n but a too-long last axis.
    with pytest.raises(ShapeError, match=r"got shape \(2, 5\)"):
        apply_zhat(block, np.zeros((2, block.n + 1)))


def test_feature_map_shapes_and_unit_norm():
    fm = sample_feature_map(1, 8, 1.0, 3)
    assert fm.n == 8 and fm.total_features == 48
    for seed in range(5):
        x = CounterRng(seed, stream=6).normal(8)
        phi = feature_map_apply(fm, x)
        assert phi.shape == (48,)
        assert abs(float(phi @ phi) - 1.0) < 1e-12


def test_feature_map_zero_input():
    fm = sample_feature_map(2, 4, 1.0, 2)
    phi = feature_map_apply(fm, np.zeros(4))
    scale = 1.0 / np.sqrt(fm.n * 2)
    cos_first = phi[: fm.n]
    sin_first = phi[fm.n : 2 * fm.n]
    np.testing.assert_allclose(cos_first, scale, atol=1e-15)
    np.testing.assert_array_equal(sin_first, np.zeros(fm.n))


def test_feature_map_inner_products_bounded_symmetric():
    fm = sample_feature_map(4, 6, 2.0, 2)
    rng = CounterRng(7)
    for _ in range(10):
        x = rng.normal(6)
        y = rng.normal(6)
        fx, fy = feature_map_apply(fm, x), feature_map_apply(fm, y)
        ip = float(fx @ fy)
        assert -1.0 - 1e-12 <= ip <= 1.0 + 1e-12
        assert abs(ip - float(fy @ fx)) < 1e-15


def test_feature_map_validation():
    with pytest.raises(ParameterError):
        sample_feature_map(0, 8, 1.0, 0)
    fm = sample_feature_map(0, 8, 1.0, 1)
    with pytest.raises(ShapeError):
        feature_map_apply(fm, np.zeros(7))
    with pytest.raises(ParameterError):
        FeatureMap(blocks=(), input_dim=4)
    mixed = (sample_block(0, 8, 1.0), sample_block(1, 8, 2.0))
    with pytest.raises(ParameterError):
        FeatureMap(blocks=mixed, input_dim=8)


def test_feature_map_shape_error_reports_last_axis():
    fm = sample_feature_map(0, 8, 1.0, 2)
    with pytest.raises(ShapeError, match=r"got shape \(3, 7\)"):
        feature_map_apply(fm, np.zeros((3, 7)))


def test_feature_map_rejects_empty_input_dim():
    with pytest.raises(ParameterError):
        FeatureMap(blocks=(sample_block(0, 4, 1.0),), input_dim=0)


def test_kernel_exact():
    x = CounterRng(8).normal(5)
    assert kernel_exact(x, x, 1.3) == 1.0
    sigma = 0.7
    assert abs(kernel_exact(np.array([0.0]), np.array([sigma * np.sqrt(2.0)]), sigma)
               - np.exp(-1.0)) < 1e-15
    y = CounterRng(9).normal(5)
    assert kernel_exact(x, y, 2.0) == kernel_exact(y, x, 2.0)
    with pytest.raises(ShapeError):
        kernel_exact(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ParameterError):
        kernel_exact(x, y, 0.0)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [1.0, 0.0]),
    ((0.5,), np.array([0.5])),
])
def test_kernel_exact_takes_array_likes(x, y):
    assert kernel_exact(x, y, 1.0) == kernel_exact(np.array(x), np.array(y), 1.0)


@pytest.mark.parametrize("x, y", [
    (np.float64(1.0), np.zeros(3)),              # a scalar against a vector
    (np.zeros(3), 2.0),
    (np.float64(1.0), np.float64(1.0)),          # two scalars
    (np.zeros((2, 3)), np.zeros((2, 3))),        # equal 2-D arrays
    ([[0.0, 1.0]], [[0.0, 1.0]]),
    (np.zeros(3), np.zeros(4)),
    ([0.0, 1.0], [0.0, 1.0, 2.0]),
])
def test_kernel_exact_refuses_all_but_two_vectors_of_one_length(x, y):
    with pytest.raises(ShapeError, match=re.escape(f"{np.shape(x)} and {np.shape(y)}")):
        kernel_exact(x, y, 1.0)


def test_pair_error_at_4096_features():
    # 256 blocks of 2*8 features each = 4096; tolerance cross-checked against
    # a plain dense Gaussian random-features oracle of the same width.
    d, sigma = 8, 1.0
    rng = CounterRng(10)
    x = rng.normal(d)
    y = rng.normal(d)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    exact = kernel_exact(x, y, sigma)

    fm = sample_feature_map(11, d, sigma, 256)
    assert fm.total_features == 4096
    structured = float(feature_map_apply(fm, x) @ feature_map_apply(fm, y))
    assert abs(structured - exact) <= 0.08

    phi = dense_gaussian_features(12, 2048, d, sigma)
    dense = float(phi(x) @ phi(y))
    assert abs(dense - exact) <= 0.08


def test_feature_maps_bitwise_deterministic():
    a = sample_feature_map(21, 6, 1.0, 3)
    b = sample_feature_map(21, 6, 1.0, 3)
    for ba, bb in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(ba.b_signs, bb.b_signs)
        np.testing.assert_array_equal(ba.perm, bb.perm)
        np.testing.assert_array_equal(ba.g_diag, bb.g_diag)
        np.testing.assert_array_equal(ba.c_diag, bb.c_diag)
