"""Dense inverse and full-rank pseudo-inverse for the product-algebra identities.

Gauss-Jordan elimination keeps the singular-pivot contract explicit
(`SingularMatrixError` below PIVOT_TOLERANCE); clarity beats speed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError, expect_shape

PIVOT_TOLERANCE = 1e-12


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix (an array or a nested list) by Gauss-Jordan elimination with
    partial pivoting.  A pivot of magnitude below PIVOT_TOLERANCE is treated as singular."""
    m = expect_shape(m, (None, None), "invert matrix")
    n = len(expect_shape(m, (len(m), len(m)), "invert matrix"))
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
    """Moore-Penrose pseudo-inverse (m^T m)^-1 m^T of a full-column-rank m, array or list."""
    m = expect_shape(m, (None, None), "pinv_full_rank matrix")
    if m.shape[0] < m.shape[1]:
        raise ShapeError(f"pinv_full_rank needs rows >= cols, got {m.shape[0]}x{m.shape[1]}")
    gram = m.T @ m
    return invert(gram) @ m.T
