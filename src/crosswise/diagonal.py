"""Diagonal-weight layer math: the crosswise map and its dense embedding.

A crosswise map sends an input of length N to M outputs using only k*N
learned coefficients, k = ceil(M/N): the coefficients are the stacked
diagonals of k diagonal N x N blocks, and the block stack is truncated to
exactly M rows.  The paper's componentwise operand is the `x * c` product in
`_pre_activation`; `expand_to_dense` materializes the equivalent M x N dense
matrix so the structured path can be checked against an explicit product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, expect_choice, expect_int, expect_shape
from .rng import CounterRng

# softmax_output is an identity here: the cross-entropy loss applies the softmax.
ACTIVATIONS = ("relu", "identity", "softmax_output")


def block_count(in_dim: int, out_dim: int) -> int:
    """Number of stacked diagonal blocks: the smallest k with k*N >= M (N, M >= 1)."""
    return -(-expect_int(out_dim, "M", ParameterError, 1)
             // expect_int(in_dim, "N", ParameterError, 1))


@dataclass
class CrosswiseWeights:
    """Learned diagonal coefficients (length k*N) plus an M-vector bias."""

    in_dim: int
    out_dim: int
    k: int
    c: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if expect_int(self.k, "k", ParameterError) != block_count(self.in_dim, self.out_dim):
            raise ParameterError(
                f"k must be ceil(M/N) = {block_count(self.in_dim, self.out_dim)}, got {self.k}"
            )
        self.c = np.asarray(expect_shape(self.c, (self.k * self.in_dim,), "coefficients"),
                            dtype=np.float64)
        self.b = np.asarray(expect_shape(self.b, (self.out_dim,), "bias"), dtype=np.float64)
        self._blocks_of = None  # the `c` whose live `(k, min(N, M))` view is `_blocks`

    def __getstate__(self):  # a copy makes its view of its own `c`
        return {**self.__dict__, "_blocks_of": None, "_blocks": None}


def _pre_activation(w: CrosswiseWeights, x) -> np.ndarray:
    x = expect_shape(x, (..., w.in_dim), "crosswise input")
    if w._blocks_of is not w.c:  # only the first min(N, M) columns reach an output
        w._blocks_of, w._blocks = w.c, w.c.reshape(w.k, w.in_dim)[:, : min(w.in_dim, w.out_dim)]
    z = x[..., None, : w._blocks.shape[1]] * w._blocks
    return z.reshape(*x.shape[:-1], w._blocks.size)[..., : w.out_dim] + w.b


def crosswise_forward(w: CrosswiseWeights, x: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Blockwise diagonal map, truncated to M outputs, plus bias and activation.

    `x` is one input of length N or a `(B, N)` batch of rows, an array or a nested list.
    """
    expect_choice(activation, ACTIVATIONS, "activation")
    pre = _pre_activation(w, x)
    if activation == "relu":
        np.maximum(pre, 0.0, out=pre)  # `pre` is a fresh array
    return pre


def expand_to_dense(w: CrosswiseWeights) -> np.ndarray:
    """The M x N dense matrix D with D @ x equal to the pre-activation map minus bias."""
    dense = np.zeros((w.out_dim, w.in_dim))
    rows = np.arange(w.out_dim)
    dense[rows, rows % w.in_dim] = w.c[: w.out_dim]
    return dense


def crosswise_backward(
    w: CrosswiseWeights, x: np.ndarray, upstream: np.ndarray, activation: str = "relu",
    input_grad: bool = True, out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (grad_c, grad_b, grad_x) of the forward map.

    `x`, `upstream` and `out` may be arrays or nested lists.
    For a `(B, N)` batch `x` with `(B, M)` upstream gradients, grad_c and
    grad_b are summed over the rows and grad_x has one row per input row;
    with input_grad=False, grad_x is not computed and comes back as None.
    The ReLU derivative at a pre-activation of exactly 0 is taken as 0.
    `out`, if given, must be what `crosswise_forward` returned for this `x`:
    the ReLU mask is then read from it instead of recomputing the product.
    """
    expect_choice(activation, ACTIVATIONS, "activation")
    x = expect_shape(x, (..., w.in_dim), "crosswise input")
    out = _pre_activation(w, x) if out is None else expect_shape(out, (..., w.out_dim),
                                                                  "crosswise output")
    upstream = expect_shape(upstream, out.shape, "upstream")
    if activation == "relu":
        # relu(pre) > 0 exactly where pre > 0, NaN included.
        g = np.where(out > 0.0, upstream, 0.0)
    else:
        g = np.asarray(upstream, dtype=np.float64)
    if w.out_dim == w.k * w.in_dim:
        # C order, as the zero-filled copy had: the row sums below round
        # differently if the rows are not the outer axis.
        g_ext = np.ascontiguousarray(g)
    else:
        g_ext = np.zeros((*g.shape[:-1], w.k * w.in_dim))
        g_ext[..., : w.out_dim] = g
    g_blocks = g_ext.reshape(*g.shape[:-1], w.k, w.in_dim)
    grad_c = np.add.reduce((g_blocks * x[..., None, :]).reshape(-1, w.k * w.in_dim), axis=0)
    if w.out_dim < w.k * w.in_dim:  # past the truncated stack, read by no output (0 * inf is NaN)
        grad_c[w.out_dim :] = 0.0
    grad_b = np.add.reduce(g.reshape(-1, w.out_dim), axis=0)
    if not input_grad:
        return grad_c, grad_b, None
    grad_x = np.add.reduce(w.c.reshape(w.k, w.in_dim) * g_blocks, axis=-2)
    return grad_c, grad_b, grad_x


def init_crosswise(seed: int, in_dim: int, out_dim: int) -> CrosswiseWeights:
    """Seeded weights: uniform [-1, 1]/sqrt(N) coefficients, zero bias."""
    k = block_count(in_dim, out_dim)
    c = CounterRng(seed, stream=0).uniform(k * in_dim, -1.0, 1.0)
    c /= math.sqrt(in_dim)
    return CrosswiseWeights(in_dim, out_dim, k, c, np.zeros(out_dim))
