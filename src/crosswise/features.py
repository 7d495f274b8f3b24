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
import os
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


def fwht(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the unnormalized Walsh-Hadamard matrix along the last axis in O(n log n).

    H_2 = [[1, 1], [1, -1]] and H_{2n} = H_2 kron H_n; the last axis must have
    power-of-two length.  A `(B, n)` input transforms each row exactly as the
    row alone would be transformed.  The input is not modified unless it is `out`.

    Bit-rotating (Pease's fixed-geometry form): each of the log2 n levels reads
    the pairs (2j, 2j+1) of the flat C-ordered `(..., n)` data as two stride-2
    views and writes their sums to the first half of the other buffer and their
    differences to the second half.  The level's butterfly bit moves to the top
    of the index, so level h = 1, 2, 4, ... pairs the same values as the
    radix-2 recursion's level h, in the same order, and the result is
    bit-identical to it.  The first level reads `v` in whatever layout it has.
    The two halves and the two stride-2 views of each buffer's flat data are
    made once per call, so a level is one add and one subtract on ready views.

    After the last level the data is laid out `(n, *lead)` in C order.  The
    result is a view of it with the transform axis moved back to the end: a
    `(B, n)` input comes back as the transpose of a C-ordered `(n, B)` array
    (Fortran order), and a 1-D input as a contiguous vector.

    `out`, if given, is a C-contiguous float64 array of the input's shape, or
    else ShapeError, and its contents are lost: it and one new buffer are the
    two buffers the levels alternate between.  The result is a view of `out`,
    except when `out` is `v` itself and log2 n is odd: then it is a view of the
    new buffer.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        raise ShapeError("fwht needs an array with a last axis, got a scalar")
    n = v.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError(f"fwht length must be a power of two, got {n}")
    if out is None:
        out = np.empty(v.shape)
    elif (getattr(out, "shape", None) != v.shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ShapeError(f"fwht out must be a C-contiguous float64 array of shape {v.shape}")
    levels, half = n.bit_length() - 1, v.size // 2
    # The last level writes `out`, unless the first must not (it reads `out`).
    spare = np.empty(v.shape) if levels > 1 or out is v else None
    pair = (out, spare) if levels % 2 and out is not v else (spare, out)
    if levels == 0 and out is not v:
        np.copyto(out, v)
    views = [(f[:half], f[half:], f[0::2], f[1::2]) for f in (b.reshape(-1) for b in pair[:levels])]
    evens, odds = v[..., 0::2], v[..., 1::2]
    for level in range(levels):
        sums, diffs, next_evens, next_odds = views[level % 2]
        if not level:  # the first level reads `v` in its own layout
            sums, diffs = sums.reshape(evens.shape), diffs.reshape(evens.shape)
        np.add(evens, odds, out=sums)
        np.subtract(evens, odds, out=diffs)
        evens, odds = next_evens, next_odds
    return pair[(levels - 1) % 2].reshape(n, *v.shape[:-1]).transpose(*range(1, v.ndim), 0)


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


# Box-Muller pairs in flight in the chi(n) draw, split in whole rows across its workers.
_CHI_CHUNK_PAIRS = 2 ** 15


def _sample_workers() -> int:
    """The CPUs this process may run on: the chi(n) draw's pool size, before capping."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def sample_block(seed: int, d: int, sigma: float) -> McKernelBlock:
    """Draw one block for input dimension d (padded to the next power of two).

    Draw order on (seed, stream 0): n sign flips, the permutation, n Gaussian
    scalings, then n*n normals whose row norms, as an n x n matrix, give the
    chi(n)-distributed scale factors; the scale factors are divided by the
    norm of the Gaussian scaling vector.  The n*n normals are drawn in chunks of
    whole rows on a thread pool: O(n + chunk) memory, and no bit depends on the pool.
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
    draw, rows = rng.normal_pairs(n * n), max(1, _CHI_CHUNK_PAIRS // n)
    workers = min(_sample_workers(), -(-pairs // (rows * n)))
    size, norms = max(1, rows // workers) * n, np.empty(2 * pairs // n)

    def fill_norms(first):  # the chunks first, first + workers, ...
        for start in range(first * size, pairs, workers * size):
            for offset, part in zip((start, pairs + start), draw(start, min(size, pairs - start))):
                norms[offset // n : (offset + part.size) // n] = np.linalg.norm(
                    part.reshape(-1, n), axis=1)

    # This thread and workers - 1 helpers (none for one) run in parallel: ufuncs release the GIL.
    from concurrent.futures import ThreadPoolExecutor  # not paid by `import crosswise`
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = pool.map(fill_norms, range(1, workers))
        fill_norms(0)
        list(helpers)
    c_diag = norms[:n] / np.linalg.norm(g_diag)
    return McKernelBlock(n=n, sigma=sigma, b_signs=b_signs, perm=perm,
                         g_diag=g_diag, c_diag=c_diag, seed=seed)


def apply_zhat(block: McKernelBlock, x: np.ndarray) -> np.ndarray:
    """Apply the structured operator along the last axis of x, zero-padded to length n.

    `x` is one input `(d,)` or a `(B, d)` batch.  `block` is one block, or the
    blocks of a map stacked by `feature_map_apply` into `(blocks, n)` factors,
    which adds a leading blocks axis to the output: `(blocks, ..., n)`.  The
    output is C-ordered.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] > block.n:
        raise ShapeError(
            f"input must have a last axis of length <= {block.n}, got shape {x.shape}"
        )
    n = block.n
    padded = np.zeros(x.shape[:-1] + (n,))
    padded[..., : x.shape[-1]] = x
    # A stack's factors are (blocks, n): every input row meets every block.
    per_row = block.b_signs.shape[:-1] + (1,) * (x.ndim - 1) + (n,)
    v = block.b_signs.reshape(per_row) * padded
    v = fwht(v, out=v)
    # P gathers whole rows of the FWHT's (n, blocks, rows) result, each a
    # contiguous run over the input rows: row p*blocks + i holds entry p of
    # block i.  G is applied as the gathered (blocks, n, rows) runs are turned
    # into the next FWHT's C-ordered (blocks, rows, n) input.
    blocks = block.perm.size // n
    u = v.transpose(-1, *range(v.ndim - 1)).reshape(n * blocks, -1)
    index = block.perm * blocks + np.arange(blocks).reshape(block.perm.shape[:-1] + (1,))
    u = np.take(u, index, axis=0).swapaxes(-1, -2)
    w = np.multiply(u, block.g_diag[..., None, :], order="C").reshape(v.shape)
    v = np.multiply(fwht(w, out=w), block.c_diag.reshape(per_row), order="C")
    v /= block.sigma * math.sqrt(n)
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
    stack = SimpleNamespace(n=fm.n, sigma=fm.sigma, b_signs=b_signs, perm=perm,
                            g_diag=g_diag, c_diag=c_diag)
    z = np.moveaxis(apply_zhat(stack, x), 0, -2)
    paired = np.empty(z.shape[:-1] + (2, fm.n))
    np.cos(z, out=paired[..., 0, :])
    np.sin(z, out=paired[..., 1, :])
    paired *= 1.0 / math.sqrt(fm.n * len(fm.blocks))
    return paired.reshape(*x.shape[:-1], fm.total_features)


def kernel_exact(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Gaussian RBF kernel exp(-||x - y||^2 / (2 sigma^2)) of two vectors of equal length."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"kernel inputs must be 1-D of equal length, got {x.shape} and {y.shape}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / (2.0 * sigma * sigma)))
