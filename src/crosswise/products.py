"""Kronecker, Khatri-Rao, and Hadamard matrix products.

`verify_identities` exercises five classical interplay identities between the
three products and the Moore-Penrose pseudo-inverse on seeded random draws
and reports the worst residual per identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingError, SingularMatrixError, expect_int, expect_shape
from .linalg import pinv_full_rank
from .rng import CounterRng

MAX_RESAMPLE_ATTEMPTS = 16

# identity_id -> pass threshold on the max-abs residual
IDENTITY_THRESHOLDS = {
    "kron_mixed_product": 1e-8,   # (A kron B)(C kron D) == AC kron BD
    "kron_pinv_factor": 1e-6,     # pinv(A kron B) == pinv(A) kron pinv(B)
    "khatri_rao_assoc": 1e-12,    # (A kr B) kr C == A kr (B kr C)
    "khatri_rao_gram": 1e-8,      # (A kr B)^T (A kr B) == (A^T A) * (B^T B)
    "khatri_rao_pinv": 1e-6,      # pinv(A kr B) == pinv((A^T A)*(B^T B)) (A kr B)^T
}


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    return np.kron(a, b)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product of two matrices (arrays or lists) of equal column counts."""
    a = expect_shape(a, (None, None), "khatri_rao a")
    b = expect_shape(b, (None, a.shape[1]), "khatri_rao b")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two same-shape matrices (arrays or nested lists)."""
    a = expect_shape(a, (None, None), "hadamard a")
    return a * expect_shape(b, a.shape, "hadamard b")


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    seed: int
    max_dim: int
    draws: int
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing_ids(self) -> list[str]:
        return [c.identity_id for c in self.checks if not c.passed]


def _boosted(rng: CounterRng, rows: int, cols: int) -> np.ndarray:
    # Diagonal boost keeps the draw far from rank deficiency for pinv checks.
    return rng.uniform(rows * cols, -1.0, 1.0).reshape(rows, cols) + 2.0 * np.eye(rows, cols)


def _plain(rng: CounterRng, rows: int, cols: int) -> np.ndarray:
    return rng.uniform(rows * cols, -1.0, 1.0).reshape(rows, cols)


def _max_abs(residual: np.ndarray) -> float:
    return float(np.max(np.abs(residual)))


def _with_resampling(draw_and_check) -> float:
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        try:
            return draw_and_check()
        except SingularMatrixError:
            continue
    raise SamplingError(
        f"no full-rank draw within {MAX_RESAMPLE_ATTEMPTS} attempts"
    )


def verify_identities(seed: int, max_dim: int, draws: int = 100) -> IdentityReport:
    """Check the five product identities on seeded random conformable matrices.

    Reports the max-abs residual per identity over `draws` draws.  Pseudo-
    inverse identities use diagonally boosted full-column-rank draws;
    rank-deficient draws are re-sampled with a bounded retry budget.
    """
    if not 2 <= expect_int(max_dim, "max_dim", ParameterError) <= 8:
        raise ParameterError(f"max_dim must be in [2, 8], got {max_dim}")
    expect_int(draws, "draws", ParameterError, 1)

    rng = CounterRng(seed, stream=0)

    def dim(high: int = max_dim) -> int:
        return int(rng.integers(1, 2, high + 1)[0])

    worst = {name: 0.0 for name in IDENTITY_THRESHOLDS}

    for _ in range(draws):
        # (A kron B)(C kron D) == AC kron BD
        m, n, p, q, r, s = (dim() for _ in range(6))
        a, b = _plain(rng, m, n), _plain(rng, p, q)
        c, d = _plain(rng, n, r), _plain(rng, q, s)
        res = kronecker(a, b) @ kronecker(c, d) - kronecker(a @ c, b @ d)
        worst["kron_mixed_product"] = max(worst["kron_mixed_product"], _max_abs(res))

        # pinv(A kron B) == pinv(A) kron pinv(B), full-column-rank draws
        def kron_pinv_residual() -> float:
            am, bm = dim(), dim()
            an, bn = dim(am), dim(bm)
            a2, b2 = _boosted(rng, am, an), _boosted(rng, bm, bn)
            lhs = pinv_full_rank(kronecker(a2, b2))
            rhs = kronecker(pinv_full_rank(a2), pinv_full_rank(b2))
            return _max_abs(lhs - rhs)

        worst["kron_pinv_factor"] = max(
            worst["kron_pinv_factor"], _with_resampling(kron_pinv_residual)
        )

        # (A kr B) kr C == A kr (B kr C)
        k = dim()
        a3, b3, c3 = (_plain(rng, dim(), k) for _ in range(3))
        res = khatri_rao(khatri_rao(a3, b3), c3) - khatri_rao(a3, khatri_rao(b3, c3))
        worst["khatri_rao_assoc"] = max(worst["khatri_rao_assoc"], _max_abs(res))

        # (A kr B)^T (A kr B) == (A^T A) * (B^T B)
        k = dim()
        a4, b4 = _plain(rng, dim(), k), _plain(rng, dim(), k)
        kr = khatri_rao(a4, b4)
        res = kr.T @ kr - hadamard(a4.T @ a4, b4.T @ b4)
        worst["khatri_rao_gram"] = max(worst["khatri_rao_gram"], _max_abs(res))

        # pinv(A kr B) == pinv((A^T A) * (B^T B)) (A kr B)^T, full-column-rank draws
        def kr_pinv_residual() -> float:
            am, bm = dim(), dim()
            k2 = dim(min(am, bm))
            a5, b5 = _boosted(rng, am, k2), _boosted(rng, bm, k2)
            kr5 = khatri_rao(a5, b5)
            lhs = pinv_full_rank(kr5)
            rhs = pinv_full_rank(hadamard(a5.T @ a5, b5.T @ b5)) @ kr5.T
            return _max_abs(lhs - rhs)

        worst["khatri_rao_pinv"] = max(
            worst["khatri_rao_pinv"], _with_resampling(kr_pinv_residual)
        )

    checks = tuple(
        IdentityCheck(name, worst[name], IDENTITY_THRESHOLDS[name], worst[name] < IDENTITY_THRESHOLDS[name])
        for name in IDENTITY_THRESHOLDS
    )
    return IdentityReport(seed=seed, max_dim=max_dim, draws=draws, checks=checks)
