import numpy as np
import pytest

from crosswise.errors import ShapeError, SingularMatrixError
from crosswise.linalg import invert, pinv_full_rank
from crosswise.rng import CounterRng


def test_invert_examples():
    np.testing.assert_allclose(
        invert(np.array([[2, 0], [0, 4]], dtype=float)), [[0.5, 0.0], [0.0, 0.25]], atol=1e-15
    )
    np.testing.assert_allclose(invert(np.eye(4)), np.eye(4), atol=1e-15)
    with pytest.raises(SingularMatrixError):
        invert(np.array([[1, 1], [1, 1]], dtype=float))


def test_invert_requires_square():
    with pytest.raises(ShapeError):
        invert(np.array([[1, 2, 3], [4, 5, 6]], dtype=float))


def test_invert_well_conditioned_random():
    rng = CounterRng(102)
    for _ in range(20):
        n = int(rng.integers(1, 2, 9)[0])
        m = rng.uniform(n * n, -1, 1).reshape(n, n) + 2.0 * np.eye(n)
        residual = invert(m) @ m - np.eye(n)
        assert np.max(np.abs(residual)) < 1e-8


def test_pinv_examples():
    np.testing.assert_allclose(
        pinv_full_rank(np.array([[1], [1]], dtype=float)), [[0.5, 0.5]], atol=1e-15
    )
    np.testing.assert_allclose(pinv_full_rank(np.eye(3)), np.eye(3), atol=1e-12)
    with pytest.raises(SingularMatrixError):
        pinv_full_rank(np.array([[1, 1], [1, 1]], dtype=float))


def test_pinv_rejects_wide():
    with pytest.raises(ShapeError):
        pinv_full_rank(np.array([[1, 2, 3], [4, 5, 6]], dtype=float))


def test_pinv_left_inverse_property():
    rng = CounterRng(103)
    for _ in range(20):
        cols = int(rng.integers(1, 2, 9)[0])
        rows = cols + int(rng.integers(1, 0, 5)[0])
        m = rng.uniform(rows * cols, -1, 1).reshape(rows, cols)
        m[:cols] += 2.0 * np.eye(cols)
        residual = pinv_full_rank(m) @ m - np.eye(cols)
        assert np.max(np.abs(residual)) < 1e-8


def test_pinv_matches_lstsq():
    rng = CounterRng(104)
    m = rng.uniform(6 * 3, -1, 1).reshape(6, 3)
    m[:3] += 2.0 * np.eye(3)
    y = rng.uniform(6, -1, 1)
    np.testing.assert_allclose(
        pinv_full_rank(m) @ y, np.linalg.lstsq(m, y, rcond=None)[0], atol=1e-10
    )
