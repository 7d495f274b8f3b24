"""Structured random features for Gaussian RBF kernel approximation.

One `McKernelBlock` holds a sampled structured operator

    zhat = (1 / (sigma * sqrt(n))) * C H G P H B

where B, G, C are diagonal (sign flips, Gaussian draws, chi-scaled norms),
P is a random permutation, and H is the n x n Walsh-Hadamard matrix applied
via the O(n log n) in-place butterfly.  The operator's rows behave like rows
of a Gaussian matrix with covariance I/sigma^2, so paired cos/sin features of
zhat(x) give an estimate of exp(-||x - x'||^2 / (2 sigma^2)).  Stacking
independently sampled blocks grows the feature count and shrinks the
approximation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, ShapeError
from .rng import CounterRng, derive_seed


def next_power_of_two(d: int) -> int:
    n = 1
    while n < d:
        n *= 2
    return n


def fwht(v: np.ndarray) -> np.ndarray:
    """Apply the unnormalized Walsh-Hadamard matrix along the last axis in O(n log n).

    H_2 = [[1, 1], [1, -1]] and H_{2n} = H_2 kron H_n; the last axis must have
    power-of-two length.  A `(B, n)` input transforms each row exactly as the
    row alone would be transformed.  The input is not modified.

    Radix-4, in place on one copy of the input: each pass applies the
    butterfly levels h and 2h, and an odd level count ends with one radix-2
    level.  These are the butterflies of the radix-2 recursion h = 1, 2, 4, ...
    on the same pairs in the same order, so the result is bit-identical to it.
    """
    # C order, so that every reshape below is a view of this one copy.
    a = np.array(v, dtype=np.float64, order="C")
    if a.ndim == 0:
        raise ShapeError("fwht needs an array with a last axis, got a scalar")
    n = a.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError(f"fwht length must be a power of two, got {n}")
    h = 1
    while 4 * h <= n:
        m = n // (4 * h)
        # Slot views of shape (m, h, rows).  Level h pairs (a0, a1) and
        # (a2, a3), then level 2h pairs (a0, a2) and (a1, a3); level h's a2/a3
        # results go to the freed a0/a1 slots.  NumPy's default order loops
        # innermost over runs of h values; for h < m, order "F" loops over m.
        a0, a1, a2, a3 = a.reshape(-1, m, 4, h).transpose(2, 1, 3, 0)
        order = "F" if h < m else "K"
        s, d = np.add(a0, a1, order=order), np.subtract(a0, a1, order=order)
        np.add(a2, a3, out=a0, order=order)
        np.subtract(a2, a3, out=a1, order=order)
        np.subtract(s, a0, out=a2, order=order)
        np.add(s, a0, out=a0, order=order)
        np.subtract(d, a1, out=a3, order=order)
        np.add(d, a1, out=a1, order=order)
        h *= 4
    if h < n:
        a0, a1 = a.reshape(-1, 2, h).transpose(1, 0, 2)
        s = a0 + a1
        np.subtract(a0, a1, out=a1)
        a0[...] = s
    return a


@dataclass
class McKernelBlock:
    """One sampled instance of the structured operator's factors."""

    n: int
    sigma: float
    b_signs: np.ndarray
    perm: np.ndarray
    g_diag: np.ndarray
    c_diag: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n < 1 or (self.n & (self.n - 1)) != 0:
            raise ParameterError(f"n must be a power of two, got {self.n}")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        self.b_signs = np.asarray(self.b_signs, dtype=np.float64)
        self.perm = np.asarray(self.perm, dtype=np.int64)
        self.g_diag = np.asarray(self.g_diag, dtype=np.float64)
        self.c_diag = np.asarray(self.c_diag, dtype=np.float64)
        for name, arr in (("b_signs", self.b_signs), ("perm", self.perm),
                          ("g_diag", self.g_diag), ("c_diag", self.c_diag)):
            if arr.shape != (self.n,):
                raise ShapeError(f"{name} must have length n = {self.n}, got {arr.shape}")
        if not np.all(np.abs(self.b_signs) == 1.0):
            raise ParameterError("b_signs entries must be +1 or -1")
        if not np.array_equal(np.sort(self.perm), np.arange(self.n)):
            raise ParameterError("perm must be a permutation of 0..n-1")


# Box-Muller pairs per chunk of the streamed chi(n) draw (rounded to whole rows).
_CHI_CHUNK_PAIRS = 2 ** 15


def sample_block(seed: int, d: int, sigma: float) -> McKernelBlock:
    """Draw one block for input dimension d (padded to the next power of two).

    Draw order on (seed, stream 0): n sign flips, the permutation, n Gaussian
    scalings, then n*n normals whose row norms, as an n x n matrix, give the
    chi(n)-distributed scale factors; the scale factors are divided by the
    norm of the Gaussian scaling vector.  The n*n normals are streamed in
    chunks of whole rows, so memory stays O(n + chunk), not O(n^2).
    """
    if d < 1:
        raise ParameterError(f"input dimension must be >= 1, got {d}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    n = next_power_of_two(d)
    rng = CounterRng(seed, stream=0)
    b_signs = rng.rademacher(n)
    perm = rng.permutation(n)
    g_diag = rng.normal(n)
    # Row i < n/2 of the matrix is the cos branch of pairs [i*n, (i+1)*n) and
    # row n/2 + i the sin branch of the same pairs.  At n = 1 the one row is
    # the cos branch of the one pair; its sin branch lands in norms[1], unused.
    pairs = (n * n + 1) // 2
    norms = np.empty(2 * pairs // n)
    for start, cos_part, sin_part in rng.normal_pairs(n * n, max(n, _CHI_CHUNK_PAIRS // n * n)):
        for offset, part in ((start, cos_part), (pairs + start, sin_part)):
            norms[offset // n : (offset + part.size) // n] = np.linalg.norm(
                part.reshape(-1, n), axis=1
            )
    c_diag = norms[:n] / np.linalg.norm(g_diag)
    return McKernelBlock(n=n, sigma=sigma, b_signs=b_signs, perm=perm,
                         g_diag=g_diag, c_diag=c_diag, seed=seed)


def apply_zhat(block: McKernelBlock, x: np.ndarray) -> np.ndarray:
    """Apply the structured operator along the last axis of x, zero-padded to length n.

    `x` is one input `(d,)` or a `(B, d)` batch.  `block` is one block, or the
    blocks of a map stacked by `feature_map_apply` into `(blocks, n)` factors,
    which adds a blocks axis to the output: `(..., blocks, n)`.  A stack's
    `perm` indexes the flattened `blocks*n` axis: block i's row is offset by i*n.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] > block.n:
        raise ShapeError(
            f"input must have a last axis of length <= {block.n}, got shape {x.shape}"
        )
    padded = np.zeros(x.shape[:-1] + (block.n,))
    padded[..., : x.shape[-1]] = x
    # A stack's factors are (blocks, n): each input row meets every block.
    padded = padded.reshape(x.shape[:-1] + (1,) * (block.b_signs.ndim - 1) + (block.n,))
    v = fwht(block.b_signs * padded)
    flat = v.reshape(v.shape[: v.ndim - block.perm.ndim] + (block.perm.size,))
    # In place on fresh arrays: each (B, blocks, n) temporary saved is a large
    # allocation saved.
    v = flat[..., block.perm.reshape(-1)].reshape(v.shape)
    v *= block.g_diag
    v = fwht(v)
    v *= block.c_diag
    v /= block.sigma * math.sqrt(block.n)
    return v


@dataclass
class FeatureMap:
    """Independently sampled blocks sharing n and sigma; 2*n features per block."""

    blocks: tuple[McKernelBlock, ...]
    input_dim: int

    def __post_init__(self):
        if not self.blocks:
            raise ParameterError("feature map needs at least one block")
        n0, sigma0 = self.blocks[0].n, self.blocks[0].sigma
        if any(b.n != n0 or b.sigma != sigma0 for b in self.blocks):
            raise ParameterError("all blocks must share n and sigma")
        if self.input_dim < 1:
            raise ParameterError(f"input dimension must be >= 1, got {self.input_dim}")
        if self.input_dim > n0:
            raise ShapeError(
                f"input dimension {self.input_dim} exceeds block dimension {n0}"
            )

    @property
    def n(self) -> int:
        return self.blocks[0].n

    @property
    def sigma(self) -> float:
        return self.blocks[0].sigma

    @property
    def total_features(self) -> int:
        return 2 * self.n * len(self.blocks)


def sample_feature_map(seed: int, d: int, sigma: float, block_count: int) -> FeatureMap:
    """Draw `block_count` i.i.d. blocks; block i uses the child seed derive_seed(seed, i)."""
    if block_count < 1:
        raise ParameterError(f"block_count must be >= 1, got {block_count}")
    blocks = tuple(
        sample_block(derive_seed(seed, i), d, sigma) for i in range(block_count)
    )
    return FeatureMap(blocks=blocks, input_dim=d)


def feature_map_apply(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Paired cos/sin features, unit self-inner-product by construction.

    `x` is one input `(d,)` or a `(B, d)` batch; the output is `(2*n*blocks,)`
    or `(B, 2*n*blocks)`: per block, the n cosines then the n sines.  All
    blocks go through one `apply_zhat` call on their stacked factors.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != fm.input_dim:
        raise ShapeError(
            f"feature map input must have last axis {fm.input_dim}, got shape {x.shape}"
        )
    b_signs, g_diag, c_diag = np.array(
        [[getattr(b, name) for b in fm.blocks] for name in ("b_signs", "g_diag", "c_diag")]
    )
    perm = np.array([b.perm for b in fm.blocks])
    perm += fm.n * np.arange(len(fm.blocks))[:, None]
    stack = SimpleNamespace(n=fm.n, sigma=fm.sigma, b_signs=b_signs, perm=perm,
                            g_diag=g_diag, c_diag=c_diag)
    z = apply_zhat(stack, x)
    paired = np.empty(z.shape[:-1] + (2, fm.n))
    np.cos(z, out=paired[..., 0, :])
    np.sin(z, out=paired[..., 1, :])
    paired *= 1.0 / math.sqrt(fm.n * len(fm.blocks))
    return paired.reshape(*x.shape[:-1], fm.total_features)


def kernel_exact(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Gaussian RBF kernel exp(-||x - y||^2 / (2 sigma^2))."""
    if x.shape != y.shape:
        raise ShapeError(f"kernel inputs differ in length ({x.shape[0]} vs {y.shape[0]})")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / (2.0 * sigma * sigma)))


def rbf_expansion_eval(centers, amplitudes, x: np.ndarray, sigma: float,
                       fm: FeatureMap | None = None) -> float:
    """Weighted sum of kernel evaluations against a set of centers.

    With fm=None the kernel is evaluated exactly; otherwise each term uses the
    feature-space inner product <phi(x), phi(center)>.
    """
    centers = [np.asarray(c, dtype=np.float64) for c in centers]
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if len(centers) != amplitudes.shape[0]:
        raise ParameterError(
            f"{len(centers)} centers but {amplitudes.shape[0]} amplitudes"
        )
    for c in centers:
        if c.shape != x.shape:
            raise ShapeError(
                f"center length {c.shape[0]} does not match input length {x.shape[0]}"
            )
    if fm is None:
        return float(sum(a * kernel_exact(x, c, sigma) for a, c in zip(amplitudes, centers)))
    phi_x = feature_map_apply(fm, x)
    phi_centers = feature_map_apply(fm, np.reshape(centers, (len(centers), x.shape[0])))
    return float(sum(a * float(phi_x @ phi_c) for a, phi_c in zip(amplitudes, phi_centers)))
