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

`mix` is the P H B half, the sign flip, zero pad, FWHT and permutation that
the `crosswise_mixed` layer's fixed stage also runs: `apply_zhat` calls it and
then applies G, H and C / (sigma * sqrt(n)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, expect_int, expect_positive
from .rng import CounterRng, derive_seed


def next_power_of_two(d: int) -> int:
    return 1 << (expect_int(d, "dimension", ParameterError, 1) - 1).bit_length()


def fwht(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the unnormalized Walsh-Hadamard matrix along the last axis in O(n log n).

    H_2 = [[1, 1], [1, -1]] and H_{2n} = H_2 kron H_n; the last axis must have
    power-of-two length.  A `(B, n)` input transforms each row exactly as the
    row alone would be transformed.

    Bit-rotating (Pease's fixed-geometry form): each of the log2 n levels reads
    the pairs (2j, 2j+1) of the flat C-ordered `(..., n)` data as two stride-2
    views and writes their sums to the first half of the other buffer and their
    differences to the second half.  The level's butterfly bit moves to the top
    of the index, so level h = 1, 2, 4, ... pairs the same values as the
    radix-2 recursion's level h, in the same order, and the result is
    bit-identical to it.  The two halves and the two stride-2 views of each
    buffer's flat data are made once per call, so a level is one add and one
    subtract on ready views.

    After the last level the data is laid out `(n, *lead)` in C order.  The
    result is a view of it with the transform axis moved back to the end: a
    `(B, n)` input comes back as the transpose of a C-ordered `(n, B)` array
    (Fortran order), and a 1-D input as a contiguous vector.

    Without `out`, the levels run on a C-ordered copy and `v` is left unchanged.  With
    `out=v`, `v` is the caller's C-contiguous float64 scratch: it and one new buffer are
    the two the levels alternate between, and the result is a view of `v` when log2 n is
    even, else of the new buffer.  Any other `out` raises ShapeError.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        raise ShapeError("fwht needs an array with a last axis, got a scalar")
    n = v.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ShapeError(f"fwht length must be a power of two, got {n}")
    if out is None:
        v = v.copy(order="C")
    elif out is not v or not v.flags.c_contiguous:
        raise ShapeError("fwht out must be the input itself, a C-contiguous float64 array")
    levels, half = n.bit_length() - 1, v.size // 2
    pair = (np.empty(v.shape), v)  # level i writes pair[i % 2]; the first reads `v`
    views = [(f[:half], f[half:], f[0::2], f[1::2]) for f in (b.reshape(-1) for b in pair)]
    evens, odds = views[1][2:]
    for level in range(levels):
        sums, diffs, next_evens, next_odds = views[level % 2]
        np.add(evens, odds, out=sums)
        np.subtract(evens, odds, out=diffs)
        evens, odds = next_evens, next_odds
    return pair[(levels - 1) % 2].reshape(n, *v.shape[:-1]).transpose(*range(1, v.ndim), 0)


def mixing_factors(signs, perm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`signs` and `perm` as float64 and int64 arrays, if `signs` is n entries of +1 or -1
    (else ShapeError or ParameterError) and `perm` a permutation of 0..n-1 (else ParameterError)."""
    signs, perm = np.asarray(signs, dtype=np.float64), np.asarray(perm, dtype=np.int64)
    if signs.shape != (n,):
        raise ShapeError(f"signs must have length {n}, got {signs.shape}")
    if not np.all(np.abs(signs) == 1.0):
        raise ParameterError("signs entries must be +1 or -1")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ParameterError(f"perm must be a permutation of 0..{n - 1}")
    return signs, perm


def mix(x: np.ndarray, signs: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Entries `perm` of H B x, with each row of `x` zero-padded to n = len(signs).

    `signs` and `perm` are one block's `(n,)` factors, or a stack's `(blocks, n)`, which
    every row meets; one block's `perm` may be any index array into 0..n-1.  The pad is
    `signs * 0.0`, signed zeros.  The sign flip and pad fill `fwht`'s C-ordered `(blocks,
    *rows, n)` scratch, and one take gathers whole rows of its `(n, blocks, *rows)`
    result: the output is C-ordered `perm.shape + x.shape[:-1]`.
    """
    d, n = x.shape[-1], signs.shape[-1]
    v = np.empty(signs.shape[:-1] + x.shape[:-1] + (n,))
    if signs.ndim > 1:  # (blocks, 1, ..., n): every row meets every block
        signs = signs.reshape(signs.shape[:-1] + (1,) * (x.ndim - 1) + (n,))
    np.multiply(signs[..., :d], x, out=v[..., :d])
    if d < n:
        np.multiply(signs[..., d:], 0.0, out=v[..., d:])
    rows = fwht(v, out=v)  # up to two axes, `.T` is the same view as the transpose, and cheaper
    rows = rows.T if v.ndim < 3 else rows.transpose(-1, *range(v.ndim - 1))
    if perm.ndim == 1:
        return rows.take(perm, axis=0)
    # Row p * blocks + i of the (n * blocks, *rows) result holds entry p of block i.
    blocks = perm.shape[0]
    index = perm * blocks + np.arange(blocks)[:, None]
    return rows.reshape(n * blocks, *x.shape[:-1]).take(index, axis=0)


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
        if next_power_of_two(self.n) != self.n:
            raise ParameterError(f"n must be a power of two, got {self.n}")
        expect_positive(self.sigma, "sigma")
        self.b_signs, self.perm = mixing_factors(self.b_signs, self.perm, self.n)
        self.g_diag = np.asarray(self.g_diag, dtype=np.float64)
        self.c_diag = np.asarray(self.c_diag, dtype=np.float64)
        for name, arr in (("g_diag", self.g_diag), ("c_diag", self.c_diag)):
            if arr.shape != (self.n,):
                raise ShapeError(f"{name} must have length n = {self.n}, got {arr.shape}")


# Box-Muller pairs in flight in the chi(n) draw, split in whole rows across its workers.
_CHI_CHUNK_PAIRS = 2 ** 16


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
    n = next_power_of_two(d)
    expect_positive(sigma, "sigma")
    rng = CounterRng(seed, stream=0)
    b_signs = rng.rademacher(n)
    perm = rng.permutation(n)
    g_diag = rng.normal(n)
    # Row i < n/2 of the matrix (its sum of squares: sums[0, i]) is the cos branch of pairs
    # [i*n, (i+1)*n) and row n/2 + i (sums[1, i]) the sin branch of the same pairs.  At n = 1
    # the one row is the cos branch of the one pair; its sin branch lands in sums[1, 0], unused.
    pairs = (n * n + 1) // 2
    draw, rows = rng.normal_pairs(n * n), max(1, _CHI_CHUNK_PAIRS // n)
    workers = min(_sample_workers(), -(-pairs // (rows * n)))
    size, sums = max(1, rows // workers) * n, np.empty((2, pairs // n))

    def fill_sums(first):  # the chunks first, first + workers, ...
        buffer = np.empty((2, size))  # this worker's only buffer: every chunk is drawn into it
        for start in range(first * size, pairs, workers * size):
            part = buffer[:, : pairs - start]  # all of it, but for a short last chunk
            np.square(draw(start, part.shape[1], out=part), out=part)
            np.add.reduce(part.reshape(2, -1, n), axis=2,
                          out=sums[:, start // n : (start + part.shape[1]) // n])

    # This thread and workers - 1 helpers (none for one) run in parallel: ufuncs release the GIL.
    from concurrent.futures import ThreadPoolExecutor  # not paid by `import crosswise`
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = pool.map(fill_sums, range(1, workers))
        fill_sums(0)
        list(helpers)
    c_diag = np.sqrt(sums.reshape(-1)[:n]) / np.linalg.norm(g_diag)
    return McKernelBlock(n=n, sigma=sigma, b_signs=b_signs, perm=perm,
                         g_diag=g_diag, c_diag=c_diag, seed=seed)


def apply_zhat(block: McKernelBlock, x: np.ndarray) -> np.ndarray:
    """Apply the structured operator along the last axis of x, zero-padded to length n.

    `x` is one input `(d,)` or a `(B, d)` batch.  `block` is one block, or a
    `FeatureMap`, whose factors are its blocks' stacked into `(blocks, n)` arrays:
    that adds a leading blocks axis to the output, `(blocks, ..., n)`.  The
    output is C-ordered.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] > block.n:
        raise ShapeError(
            f"input must have a last axis of length <= {block.n}, got shape {x.shape}"
        )
    n = block.n
    # G is applied as mix's ([blocks,] n, *rows) result is turned into the
    # next FWHT's C-ordered ([blocks,] *rows, n) input.
    u = np.moveaxis(mix(x, block.b_signs, block.perm), block.perm.ndim - 1, -1)
    per_row = block.g_diag.shape[:-1] + (1,) * (x.ndim - 1) + (n,)
    w = np.multiply(u, block.g_diag.reshape(per_row), order="C")
    v = np.multiply(fwht(w, out=w), block.c_diag.reshape(per_row), order="C")
    v /= block.sigma * math.sqrt(n)
    return v


@dataclass(frozen=True)
class FeatureMap:
    """Independently sampled blocks sharing n and sigma; 2*n features per block.

    When the map is built, it keeps its blocks' shared `n` and `sigma` and stacks their
    factors once into the `(blocks, n)` attributes `b_signs`, `perm`, `g_diag` and `c_diag`:
    the map is the stacked operand that `apply_zhat` takes.  A block array changed in
    place later does not reach them.
    """

    blocks: tuple[McKernelBlock, ...]
    input_dim: int

    def __post_init__(self):
        if not isinstance(self.blocks, (list, tuple)) or not all(
                isinstance(block, McKernelBlock) for block in self.blocks):
            raise ParameterError("feature map blocks must be a list or tuple of McKernelBlock")
        self.__dict__["blocks"] = tuple(self.blocks)  # frozen; a list given stays the caller's
        if not self.blocks:
            raise ParameterError("feature map needs at least one block")
        n, sigma = self.blocks[0].n, self.blocks[0].sigma
        if any(b.n != n or b.sigma != sigma for b in self.blocks):
            raise ParameterError("all blocks must share n and sigma")
        if expect_int(self.input_dim, "input dimension", ParameterError, 1) > n:
            raise ShapeError(
                f"input dimension {self.input_dim} exceeds block dimension {n}"
            )
        # The float factors in one (3, blocks, n) array: a separate array each left the
        # features-apply set-up's peak RSS at 112 MB, not 104 (glibc's heap layout).
        b_signs, g_diag, c_diag = np.array([[getattr(b, name) for b in self.blocks]
                                            for name in ("b_signs", "g_diag", "c_diag")])
        self.__dict__.update(n=n, sigma=sigma, b_signs=b_signs, g_diag=g_diag, c_diag=c_diag,
                             perm=np.array([b.perm for b in self.blocks]))

    @property
    def total_features(self) -> int:
        return 2 * self.n * len(self.blocks)


def sample_feature_map(seed: int, d: int, sigma: float, block_count: int) -> FeatureMap:
    """Draw `block_count` i.i.d. blocks; block i uses the child seed derive_seed(seed, i)."""
    expect_int(block_count, "block_count", ParameterError, 1)
    blocks = tuple(
        sample_block(derive_seed(seed, i), d, sigma) for i in range(block_count)
    )
    return FeatureMap(blocks=blocks, input_dim=d)


def feature_map_apply(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Paired cos/sin features, unit self-inner-product by construction.

    `x` is one input `(d,)` or a `(B, d)` batch; the output is `(2*n*blocks,)`
    or `(B, 2*n*blocks)`: per block, the n cosines then the n sines.  All
    blocks go through one `apply_zhat` call on the map's stacked factors.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != fm.input_dim:
        raise ShapeError(
            f"feature map input must have last axis {fm.input_dim}, got shape {x.shape}"
        )
    z = np.moveaxis(apply_zhat(fm, x), 0, -2)
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
    expect_positive(sigma, "sigma")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / (2.0 * sigma * sigma)))
