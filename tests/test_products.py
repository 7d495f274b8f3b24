import numpy as np
import pytest

from crosswise.errors import ParameterError, ShapeError
from crosswise.linalg import pinv_full_rank
from crosswise.products import (
    IDENTITY_THRESHOLDS,
    hadamard,
    khatri_rao,
    kronecker,
    verify_identities,
)
from crosswise.rng import CounterRng

from oracles import khatri_rao_definition, kron_definition


def test_kronecker_examples():
    np.testing.assert_array_equal(
        kronecker(np.array([[1, 2]], dtype=float), np.array([[0, 1]], dtype=float)),
        [[0.0, 1.0, 0.0, 2.0]],
    )
    b = np.array([[1, 2], [3, 4]], dtype=float)
    np.testing.assert_array_equal(kronecker(np.array([[1]], dtype=float), b), b)
    z = kronecker(np.array([[0, 0], [0, 0]], dtype=float), b)
    assert z.shape == (4, 4)
    assert np.all(z == 0.0)


def test_kronecker_matches_definition_oracle():
    rng = CounterRng(200)
    for _ in range(30):
        p, q, r, s = (int(v) for v in rng.integers(4, 1, 5))
        a = rng.uniform(p * q, -1, 1).reshape(p, q)
        b = rng.uniform(r * s, -1, 1).reshape(r, s)
        np.testing.assert_array_equal(kronecker(a, b), kron_definition(a, b))


def test_khatri_rao_examples():
    np.testing.assert_array_equal(
        khatri_rao(np.array([[1], [2]], dtype=float), np.array([[3], [4]], dtype=float)),
        [[3.0], [4.0], [6.0], [8.0]],
    )
    a = np.array([[1, 2, 3], [4, 5, 6]], dtype=float)
    np.testing.assert_array_equal(khatri_rao(a, np.array([[1, 1, 1]], dtype=float)), a)
    with pytest.raises(ShapeError):
        khatri_rao(a, np.array([[1, 2], [3, 4]], dtype=float))


def test_khatri_rao_matches_columnwise_oracle():
    rng = CounterRng(201)
    for _ in range(30):
        p, r, k = (int(v) for v in rng.integers(3, 1, 5))
        a = rng.uniform(p * k, -1, 1).reshape(p, k)
        b = rng.uniform(r * k, -1, 1).reshape(r, k)
        np.testing.assert_array_equal(khatri_rao(a, b), khatri_rao_definition(a, b))


def test_hadamard_examples():
    np.testing.assert_array_equal(
        hadamard(np.array([[1, 2], [3, 4]], dtype=float), np.full((2, 2), 2.0)),
        [[2.0, 4.0], [6.0, 8.0]],
    )
    a = np.array([[5, -1], [0, 2]], dtype=float)
    np.testing.assert_array_equal(hadamard(a, np.ones((2, 2))), a)
    with pytest.raises(ShapeError):
        hadamard(np.array([[1, 2], [3, 4]], dtype=float),
                 np.array([[1, 2, 3], [4, 5, 6]], dtype=float))


def test_identities_hold_for_identity_factors():
    i2 = np.eye(2)
    np.testing.assert_array_equal(
        kronecker(i2, i2) @ kronecker(i2, i2),
        kronecker(i2 @ i2, i2 @ i2),
    )
    kr = khatri_rao(i2, i2)
    np.testing.assert_array_equal(
        kr.T @ kr, hadamard(i2.T @ i2, i2.T @ i2)
    )
    np.testing.assert_array_equal(
        khatri_rao(khatri_rao(i2, i2), i2), khatri_rao(i2, khatri_rao(i2, i2))
    )
    np.testing.assert_allclose(
        pinv_full_rank(kronecker(i2, i2)),
        kronecker(pinv_full_rank(i2), pinv_full_rank(i2)),
        atol=1e-15,
    )


def test_verify_identities_seed7():
    report = verify_identities(7, 4)
    assert report.passed
    assert len(report.checks) == 5
    assert report.failing_ids() == []
    ids = [c.identity_id for c in report.checks]
    assert ids == [
        "kron_mixed_product",
        "kron_pinv_factor",
        "khatri_rao_assoc",
        "khatri_rao_gram",
        "khatri_rao_pinv",
    ]
    for check in report.checks:
        assert check.residual < check.threshold
        assert check.threshold == IDENTITY_THRESHOLDS[check.identity_id]


def test_verify_identities_full_sweep():
    # The acceptance-level run: 100 draws with factor dims up to 6.
    report = verify_identities(0, 6, draws=100)
    assert report.passed
    for check in report.checks:
        if check.identity_id == "khatri_rao_assoc":
            assert check.residual < 1e-12
        elif check.identity_id in ("kron_pinv_factor", "khatri_rao_pinv"):
            assert check.residual < 1e-6
        else:
            assert check.residual < 1e-8


def test_verify_identities_deterministic():
    a = verify_identities(3, 5, draws=10)
    b = verify_identities(3, 5, draws=10)
    assert [(c.identity_id, c.residual) for c in a.checks] == [
        (c.identity_id, c.residual) for c in b.checks
    ]


@pytest.mark.parametrize("bad_dim", [1, 0, 9, -3])
def test_verify_identities_rejects_bad_max_dim(bad_dim):
    with pytest.raises(ParameterError):
        verify_identities(0, bad_dim)
