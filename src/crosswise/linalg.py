"""Dense inverse and full-rank pseudo-inverse for the product-algebra identities.

Gauss-Jordan elimination keeps the singular-pivot contract explicit
(`SingularMatrixError` below PIVOT_TOLERANCE); clarity beats speed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError

PIVOT_TOLERANCE = 1e-12


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    A pivot of magnitude below PIVOT_TOLERANCE is treated as singular.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"invert needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    aug = np.hstack([np.array(m, dtype=np.float64), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < PIVOT_TOLERANCE:
            raise SingularMatrixError(
                f"singular matrix: pivot magnitude {abs(aug[pivot, col]):.3e} "
                f"below {PIVOT_TOLERANCE:g} at column {col}"
            )
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col])
    return aug[:, n:]


def pinv_full_rank(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse (m^T m)^-1 m^T for full-column-rank m."""
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ShapeError(
            f"pinv_full_rank needs rows >= cols, got {m.shape[0]}x{m.shape[1]}"
        )
    gram = m.T @ m
    return invert(gram) @ m.T
