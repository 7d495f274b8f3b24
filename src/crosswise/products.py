"""Kronecker, Khatri-Rao, and Hadamard matrix products.

`verify_identities` checks five classical identities between the three products and the
Moore-Penrose pseudo-inverse, the rows of `IDENTITIES`, on seeded random draws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingError, SingularMatrixError, expect_int, expect_shape
from .linalg import pinv_full_rank
from .rng import CounterRng

MAX_RESAMPLE_ATTEMPTS = 16


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


def _kron_mixed_product(rng: CounterRng, dim) -> np.ndarray:
    # (A kron B)(C kron D) == AC kron BD
    m, n, p, q, r, s = (dim() for _ in range(6))
    a, b = _plain(rng, m, n), _plain(rng, p, q)
    c, d = _plain(rng, n, r), _plain(rng, q, s)
    return kronecker(a, b) @ kronecker(c, d) - kronecker(a @ c, b @ d)


def _kron_pinv_factor(rng: CounterRng, dim) -> np.ndarray:
    # pinv(A kron B) == pinv(A) kron pinv(B), full-column-rank draws
    am, bm = dim(), dim()
    an, bn = dim(am), dim(bm)
    a, b = _boosted(rng, am, an), _boosted(rng, bm, bn)
    return pinv_full_rank(kronecker(a, b)) - kronecker(pinv_full_rank(a), pinv_full_rank(b))


def _khatri_rao_assoc(rng: CounterRng, dim) -> np.ndarray:
    # (A kr B) kr C == A kr (B kr C)
    k = dim()
    a, b, c = (_plain(rng, dim(), k) for _ in range(3))
    return khatri_rao(khatri_rao(a, b), c) - khatri_rao(a, khatri_rao(b, c))


def _khatri_rao_gram(rng: CounterRng, dim) -> np.ndarray:
    # (A kr B)^T (A kr B) == (A^T A) * (B^T B)
    k = dim()
    a, b = _plain(rng, dim(), k), _plain(rng, dim(), k)
    kr = khatri_rao(a, b)
    return kr.T @ kr - hadamard(a.T @ a, b.T @ b)


def _khatri_rao_pinv(rng: CounterRng, dim) -> np.ndarray:
    # pinv(A kr B) == pinv((A^T A) * (B^T B)) (A kr B)^T, full-column-rank draws
    am, bm = dim(), dim()
    k = dim(min(am, bm))
    a, b = _boosted(rng, am, k), _boosted(rng, bm, k)
    kr = khatri_rao(a, b)
    return pinv_full_rank(kr) - pinv_full_rank(hadamard(a.T @ a, b.T @ b)) @ kr.T


# identity_id -> (pass threshold on the max-abs residual, residual(rng, dim): one draw's left
# minus right side, `dim(high)` drawing a factor dimension in 2..high), in draw order
IDENTITIES = {
    "kron_mixed_product": (1e-8, _kron_mixed_product),
    "kron_pinv_factor": (1e-6, _kron_pinv_factor),
    "khatri_rao_assoc": (1e-12, _khatri_rao_assoc),
    "khatri_rao_gram": (1e-8, _khatri_rao_gram),
    "khatri_rao_pinv": (1e-6, _khatri_rao_pinv),
}
IDENTITY_THRESHOLDS = {name: threshold for name, (threshold, _) in IDENTITIES.items()}


def verify_identities(seed: int, max_dim: int, draws: int = 100) -> IdentityReport:
    """Check the five product identities on seeded random conformable matrices.

    Reports the max-abs residual per identity over `draws` rounds, each drawing every
    identity in table order from one stream.  A pinv identity's draw is diagonally boosted
    to full column rank; a singular one is re-drawn, up to MAX_RESAMPLE_ATTEMPTS times."""
    if not 2 <= expect_int(max_dim, "max_dim", ParameterError) <= 8:
        raise ParameterError(f"max_dim must be in [2, 8], got {max_dim}")
    expect_int(draws, "draws", ParameterError, 1)
    rng = CounterRng(seed, stream=0)

    def dim(high: int = max_dim) -> int:
        return int(rng.integers(1, 2, high + 1)[0])

    worst = dict.fromkeys(IDENTITIES, 0.0)
    for _ in range(draws):
        for name, (_, residual) in IDENTITIES.items():
            for _ in range(MAX_RESAMPLE_ATTEMPTS):
                try:
                    worst[name] = max(worst[name], float(np.max(np.abs(residual(rng, dim)))))
                    break
                except SingularMatrixError:
                    continue
            else:
                raise SamplingError(f"no full-rank draw within {MAX_RESAMPLE_ATTEMPTS} attempts")

    checks = tuple(IdentityCheck(name, worst[name], threshold, worst[name] < threshold)
                   for name, (threshold, _) in IDENTITIES.items())
    return IdentityReport(seed=seed, max_dim=max_dim, draws=draws, checks=checks)
