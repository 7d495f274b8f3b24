"""A `(B, d)` batch gives, row by row, what each row gives alone.

Every layer kind, loss, the FWHT and the feature map accept a batch with one
sample per row.
These properties pin that batch path to the single-row one (parameter
gradients summed over rows, input gradients per row) and to the naive
oracles, across dims that are and are not powers of two, M<N, M=N, M>N
and batch sizes 1..8.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosswise.diagonal as diagonal
from crosswise.diagonal import crosswise_backward, crosswise_forward, init_crosswise
from crosswise.errors import ShapeError
from crosswise.features import (
    apply_zhat,
    feature_map_apply,
    fwht,
    next_power_of_two,
    sample_feature_map,
)
from crosswise.network import (
    LAYER_KINDS,
    LayerSpec,
    NetworkSpec,
    build_network,
    loss_eval,
    network_backward,
    network_forward,
    softmax,
)
from crosswise.rng import CounterRng

from oracles import (
    butterfly_fwht,
    dense_embedding,
    hadamard_matrix,
    mixing_stage,
    naive_fwht,
    zero_padded_block_grads,
    zhat_butterfly,
    zhat_dense,
)

DIMS = (1, 2, 3, 4, 5, 8, 13, 16)
RELATIONS = ("M<N", "M=N", "M>N")
PROPERTY = settings(max_examples=25, deadline=None)


def _close(actual, expected, rel=1e-12):
    """Equal within `rel` of the larger of 1 and the expected array's scale."""
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=rel * scale)


def _normals(seed, stream, *shape):
    return CounterRng(seed, stream=stream).normal(math.prod(shape)).reshape(shape)


@st.composite
def _layer_case(draw, relation):
    n = draw(st.sampled_from(DIMS[1:] if relation == "M<N" else DIMS))
    if relation == "M<N":
        m = draw(st.integers(1, n - 1))
    elif relation == "M=N":
        m = n
    else:
        m = draw(st.integers(n + 1, 3 * n + 1))
    activation = draw(st.sampled_from(("relu", "identity", "softmax_output")))
    return n, m, activation, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


def _layer(kind, n, m, activation, seed):
    spec = LayerSpec(kind=kind, in_dim=n, out_dim=m, activation=activation)
    layer = build_network(NetworkSpec(layers=(spec,), seed=seed)).layers[0]
    layer.params()["b"][:] = _normals(seed, 7, m)
    return layer


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_batch_equals_rows(kind, relation):
    @PROPERTY
    @given(_layer_case(relation))
    def check(case):
        n, m, activation, batch, seed = case
        layer = _layer(kind, n, m, activation, seed)
        x = _normals(seed, 8, batch, n)
        g_out = _normals(seed, 9, batch, m)

        out, cache = layer.forward(x)
        grads, g_x = layer.backward(cache, g_out)
        assert out.shape == (batch, m) and g_x.shape == (batch, n)

        summed = {name: np.zeros_like(p) for name, p in layer.params().items()}
        for i in range(batch):
            out_i, cache_i = layer.forward(x[i])
            grads_i, g_x_i = layer.backward(cache_i, g_out[i])
            _close(out[i], out_i)
            _close(g_x[i], g_x_i)
            for name in summed:
                summed[name] += grads_i[name]
        for name, total in summed.items():
            assert grads[name].shape == total.shape
            _close(grads[name], total)

    check()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_fwht_batch_equals_rows_and_naive(log_n, batch, seed):
    x = _normals(seed, 0, batch, 2**log_n)
    kept = x.copy()
    out = fwht(x)
    np.testing.assert_array_equal(x, kept)
    assert out.shape == x.shape
    # The result is the transposed view of the C-ordered (n, B) array the last level writes.
    assert out.T.flags.c_contiguous
    for i in range(batch):
        np.testing.assert_array_equal(out[i], fwht(x[i]))
        np.testing.assert_allclose(out[i], naive_fwht(x[i]), rtol=0.0, atol=1e-9)


def _bits(a):
    """The float64 bit patterns of `a`: unlike `assert_array_equal`, these tell
    -0.0 from 0.0 and one NaN from another."""
    return np.ascontiguousarray(a).view(np.uint64)


def _edge_values(gen, shape, zeros, infs):
    """Normals over 1e-200..1e200; a `zeros` share of them becomes a signed
    zero and an `infs` share a signed infinity, each with a random sign."""
    x = gen.standard_normal(shape) * 10.0 ** gen.integers(-200, 201, shape)
    u = gen.random(shape)
    x[u < zeros] *= 0.0
    x[u >= 1.0 - infs] = np.copysign(np.inf, x[u >= 1.0 - infs])
    return x


_EDGE_SHARES = (st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((0.0, 0.01)))


@st.composite
def _fwht_input(draw):
    """Power-of-two last axis up to 4096, lead shape (), (B,) or (B, k), any
    layout, with signed zeros and infinities seeded in."""
    n = 2 ** draw(st.integers(0, 12))
    lead = draw(st.sampled_from(((), (draw(st.integers(1, 3)),),
                                 (draw(st.integers(1, 3)), draw(st.integers(1, 3))))))
    layout = draw(st.sampled_from(("contiguous", "strided", "fortran")))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Sums of magnitudes 1e-200 to 1e200 round differently in another order.
    base = _edge_values(gen, lead + (2 * n,), draw(_EDGE_SHARES[0]), draw(_EDGE_SHARES[1]))
    if layout == "strided":
        return base[..., ::2]
    base = base[..., :n]
    return np.asfortranarray(base) if layout == "fortran" else np.ascontiguousarray(base)


@settings(max_examples=60, deadline=None)
@given(_fwht_input())
def test_fwht_equals_radix2_butterflies_exactly(x):
    kept = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out = fwht(x)
        expected = butterfly_fwht(x)
    np.testing.assert_array_equal(_bits(x), _bits(kept))
    assert out.shape == x.shape
    np.testing.assert_array_equal(_bits(out), _bits(expected))


# n = 1 (no level), odd and even level counts, and the wide rows of the feature map.
@pytest.mark.parametrize("n", (1, 2, 8, 512, 1024))
@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 2**32 - 1), *_EDGE_SHARES)
def test_fwht_out_is_scratch_bit_for_bit(n, batch, rank, seed, zeros, infs):
    lead = ((), (batch,), (2, 3))[rank]
    x = _edge_values(np.random.default_rng(seed), lead + (n,), zeros, infs)
    kept = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _bits(butterfly_fwht(x))
        np.testing.assert_array_equal(_bits(fwht(x)), expected)
        # `out` is the input itself, which the levels consume: an even level
        # count ends in it, an odd one in the one new buffer.
        v = x.copy()
        result = fwht(v, out=v)
        np.testing.assert_array_equal(_bits(result), expected)
        assert np.shares_memory(result, v) == (n.bit_length() % 2 == 1)
    # The result is a view of a C-ordered (n, *lead) array.
    assert result.transpose(-1, *range(rank)).flags.c_contiguous
    np.testing.assert_array_equal(_bits(x), _bits(kept))

    # Any `out` but the input itself is refused, even one of its shape, dtype and layout.
    wrong = [np.empty(lead + (n,)), np.empty(lead + (2 * n,)), np.empty(lead + (n,), np.float32),
             x.tolist()]
    if x.size > 1:
        # Every other float64 of a buffer: never contiguous, whatever the shape.
        wrong.append(np.empty(lead + (n, 2))[..., 0])
    if n > 1 and x.size > n:
        # The result's own layout, (n, *lead) in C order: not C-ordered as (*lead, n).
        wrong.append(np.empty((n, *lead)).transpose(*range(1, rank + 1), 0))
        # Nor is such an input its own scratch: the levels read its flat data.
        with pytest.raises(ShapeError):
            fwht(wrong[-1], out=wrong[-1])
    for bad in wrong:
        with pytest.raises(ShapeError):
            fwht(x, out=bad)
    np.testing.assert_array_equal(_bits(x), _bits(kept))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((1, 2, 3, 5, 8, 13, 16, 33)), st.sampled_from((1, 2, 5)),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_feature_map_batch_equals_rows_and_blocks(d, blocks, batch, seed):
    fm = sample_feature_map(seed, d, 0.5 + seed % 3, blocks)
    x = _normals(seed, 12, batch, d)
    phi = feature_map_apply(fm, x)
    assert phi.shape == (batch, fm.total_features)
    scale = 1.0 / math.sqrt(fm.n * blocks)
    for i in range(batch):
        np.testing.assert_array_equal(phi[i], feature_map_apply(fm, x[i]))
        zs = [apply_zhat(block, x[i]) for block in fm.blocks]
        per_block = scale * np.concatenate([f(z) for z in zs for f in (np.cos, np.sin)])
        np.testing.assert_array_equal(phi[i], per_block)
        for block, z in zip(fm.blocks, zs):
            np.testing.assert_array_equal(apply_zhat(block, x)[i], z)
            np.testing.assert_array_equal(_bits(z), _bits(zhat_butterfly(block, x[i])))
            if fm.n <= 16:
                padded = np.zeros(fm.n)
                padded[:d] = x[i]
                _close(z, zhat_dense(block) @ padded, rel=1e-10)


@pytest.mark.parametrize("relation", RELATIONS)
def test_mixed_layer_batch_equals_dense_oracle(relation):
    @PROPERTY
    @given(_layer_case(relation))
    def check(case):
        n, m, activation, batch, seed = case
        layer = _layer("crosswise_mixed", n, m, activation, seed)
        pad = next_power_of_two(n)
        mix = hadamard_matrix(pad)[layer.perm, :] * layer.signs[None, :] / math.sqrt(pad)
        dense = dense_embedding(layer.weights.c, pad, m) @ mix[:, :n]
        x = _normals(seed, 8, batch, n)
        expected = x @ dense.T + layer.weights.b
        if activation == "relu":
            expected = np.maximum(expected, 0.0)
        _close(layer.forward(x)[0], expected)

    check()


@pytest.mark.parametrize("loss_kind", ("mse", "cross_entropy"))
@PROPERTY
@given(st.sampled_from(LAYER_KINDS), st.sampled_from(DIMS), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_network_loss_and_gradients_batch_equal_rows(loss_kind, kind, n, batch, seed):
    classes = 3
    spec = NetworkSpec(layers=(
        LayerSpec(kind=kind, in_dim=n, out_dim=5, activation="relu"),
        LayerSpec(kind=kind, in_dim=5, out_dim=classes,
                  activation="softmax_output" if loss_kind == "cross_entropy" else "identity"),
    ), seed=seed)
    net = build_network(spec)
    x = _normals(seed, 10, batch, n)
    if loss_kind == "cross_entropy":
        target = np.eye(classes)[CounterRng(seed, stream=11).integers(batch, 0, classes)]
    else:
        target = _normals(seed, 11, batch, classes)

    rows_out = [network_forward(net, x[i]) for i in range(batch)]
    _close(network_forward(net, x), np.array(rows_out))
    if loss_kind == "cross_entropy":
        _close(softmax(network_forward(net, x)), np.array([softmax(o) for o in rows_out]))
    row_losses = [loss_eval(loss_kind, rows_out[i], target[i]) for i in range(batch)]
    _close(loss_eval(loss_kind, network_forward(net, x), target), np.mean(row_losses))

    grads = network_backward(net, x, target, loss_kind)
    row_grads = [network_backward(net, x[i], target[i], loss_kind) for i in range(batch)]
    for li, layer_grads in enumerate(grads):
        for name, g in layer_grads.items():
            _close(g, sum(rg[li][name] for rg in row_grads))


def _layout(a, order):
    """`a` as given, Fortran-ordered, or as a strided view; values unchanged."""
    if order == "fortran":
        return np.asfortranarray(a)
    if order == "strided":
        wide = np.zeros((*a.shape[:-1], 2 * a.shape[-1]))
        wide[..., ::2] = a
        return wide[..., ::2]
    return a


LAYOUTS = ("c", "fortran", "strided")


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_backward_with_out_equals_recompute(kind, relation):
    """Reading the ReLU mask from the forward output changes no bit."""

    @PROPERTY
    @given(_layer_case(relation), st.booleans(), st.booleans())
    def check(case, one_row, kinks):
        n, m, activation, batch, seed = case
        layer = _layer(kind, n, m, activation, seed)
        x = _normals(seed, 8, batch, n)
        g_out = _normals(seed, 9, batch, m)
        if kinks:  # zero inputs and bias put pre-activations exactly on the kink
            x[:, ::2] = 0.0
            layer.params()["b"][:] = 0.0
        if one_row:
            x, g_out = x[0], g_out[0]
        out, cache = layer.forward(x)
        grads, g_x = layer.backward(cache, g_out)
        grads_out, g_x_out = layer.backward(cache, g_out, out=out)
        for name in grads:
            np.testing.assert_array_equal(grads_out[name], grads[name])
        np.testing.assert_array_equal(g_x_out, g_x)
        assert layer.backward(cache, g_out, input_grad=False, out=out)[1] is None

    check()


@pytest.mark.parametrize("x_order", LAYOUTS)
@pytest.mark.parametrize("g_order", LAYOUTS)
@PROPERTY
@given(st.sampled_from(DIMS), st.sampled_from(RELATIONS), st.sampled_from(("relu", "identity")),
       st.integers(0, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_crosswise_backward_with_out_equals_recompute(x_order, g_order, n, relation, activation,
                                                       batch, nan, seed):
    """Batch 0 stands for one 1-D input.  Every layout sums the rows in the
    zero-padded order; from 8 rows on, another order rounds differently."""
    # M>N: full blocks (M = 2N or 3N) or a partial last block.
    m = {"M<N": max(1, n // 2), "M=N": n, "M>N": (2 + seed % 2) * n + seed // 2 % 2}[relation]
    w = init_crosswise(seed, n, m)
    w.b[:] = _normals(seed, 7, m)
    shape = (batch,) if batch else ()
    x = _normals(seed, 8, *shape, n)
    x.reshape(-1)[::3] = 0.0
    if nan:
        x.reshape(-1)[-1] = np.nan
    x = _layout(x, x_order)
    upstream = _layout(_normals(seed, 9, *shape, m), g_order)
    out = crosswise_forward(w, x, activation)
    expected = crosswise_backward(w, x, upstream, activation)
    given_out = crosswise_backward(w, x, upstream, activation, out=out)
    for a, b in zip(given_out, expected):
        np.testing.assert_array_equal(a, b)
    g = np.where(out > 0.0, upstream, 0.0) if activation == "relu" else upstream
    grad_c, grad_x = zero_padded_block_grads(w.c, m, x, g)
    np.testing.assert_array_equal(given_out[0], grad_c)
    np.testing.assert_array_equal(given_out[2], grad_x)


def test_network_backward_computes_each_diagonal_product_once(monkeypatch):
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise", in_dim=6, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise_mixed", in_dim=8, out_dim=5, activation="relu"),
        LayerSpec(kind="dense", in_dim=5, out_dim=7, activation="relu"),
        LayerSpec(kind="crosswise_mixed", in_dim=7, out_dim=3, activation="softmax_output"),
    ), seed=41)
    net = build_network(spec)
    calls = []
    real = diagonal._pre_activation

    def counted(w, x):
        calls.append(x.shape)
        return real(w, x)

    monkeypatch.setattr(diagonal, "_pre_activation", counted)
    x = _normals(41, 1, 4, 6)
    network_backward(net, x, np.eye(3)[[0, 2, 1, 2]], "cross_entropy")
    assert len(calls) == 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIMS + (33, 64)), st.integers(1, 80), st.integers(0, 5),
       st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
def test_mixing_stage_bits_and_layout_match_reference(n, m, batch, x_order, seed):
    """Batch 0 stands for one 1-D input.  The mixed layer's cached stage output
    has the reference's values and memory layout, so a following layer sees
    the same array whether or not the input needed padding.  Strides are
    compared on the axes longer than 1; NumPy never steps along the others."""
    layer = _layer("crosswise_mixed", n, m, "relu", seed)
    x = _normals(seed, 8, *((batch,) if batch else ()), n)
    out, u = layer.forward(_layout(x, x_order))
    expected = mixing_stage(x, layer.signs, layer.perm)
    np.testing.assert_array_equal(u, expected)

    def steps(a):
        return [stride for stride, extent in zip(a.strides, a.shape) if extent > 1]

    assert steps(u) == steps(expected)
    np.testing.assert_array_equal(out, crosswise_forward(layer.weights, expected))
