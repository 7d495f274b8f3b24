"""The diagonal-weight layer against its dense-embedded twin and finite differences."""

import copy
import pickle

import numpy as np
import pytest

from crosswise.diagonal import (
    CrosswiseWeights,
    block_count,
    crosswise_backward,
    crosswise_forward,
    expand_to_dense,
    init_crosswise,
)
from crosswise.errors import ParameterError, ShapeError
from crosswise.rng import CounterRng

from oracles import central_difference, dense_embedding, relative_error


def test_block_count():
    assert block_count(4, 8) == 2
    assert block_count(2, 5) == 3
    assert block_count(3, 7) == 3
    assert block_count(6, 6) == 1
    assert block_count(10, 3) == 1


def test_weights_invariants():
    w = init_crosswise(0, 4, 10)
    assert w.k == 3
    assert w.c.shape == (12,)
    assert w.b.shape == (10,)
    assert w.out_dim <= w.k * w.in_dim < w.out_dim + w.in_dim
    with pytest.raises(ParameterError):
        CrosswiseWeights(in_dim=4, out_dim=10, k=2, c=np.zeros(8), b=np.zeros(10))
    with pytest.raises(ShapeError):
        CrosswiseWeights(in_dim=4, out_dim=10, k=3, c=np.zeros(11), b=np.zeros(10))


def test_forward_unit_coefficients_replicate():
    w = CrosswiseWeights(in_dim=2, out_dim=4, k=2, c=np.ones(4), b=np.zeros(4))
    x = np.array([3.5, -2.0])
    np.testing.assert_array_equal(
        crosswise_forward(w, x, "identity"), [3.5, -2.0, 3.5, -2.0]
    )


def test_forward_truncates_final_block():
    # in 2 -> out 5 needs three stacked blocks with the last one cut short.
    w = init_crosswise(4, 2, 5)
    x = CounterRng(5).uniform(2, -1, 1)
    dense = dense_embedding(w.c, 2, 5)
    expected = dense @ x + w.b
    np.testing.assert_allclose(crosswise_forward(w, x, "identity"), expected, atol=1e-12)


def test_forward_matches_dense_twin_many_seeds():
    for seed in range(20):
        dims = CounterRng(seed, stream=9).integers(2, 1, 65)
        n, m = int(dims[0]), int(dims[1])
        w = init_crosswise(seed, n, m)
        x = CounterRng(seed, stream=8).uniform(n, -1, 1)
        dense = expand_to_dense(w)
        np.testing.assert_array_equal(dense, dense_embedding(w.c, n, m))
        pre = dense @ x + w.b
        np.testing.assert_allclose(
            crosswise_forward(w, x, "relu"), np.maximum(pre, 0.0), atol=1e-12
        )
        np.testing.assert_allclose(
            crosswise_forward(w, x, "identity"), pre, atol=1e-12
        )


@pytest.mark.parametrize("m", (3, 5, 8))
def test_forward_reads_the_coefficients_it_is_given(m):
    """The forward keeps a view of `c`.  A rebound `c`, an in-place step and
    the coefficients of a copy or an unpickled object are all read as given,
    bit for bit as by weights built afresh from them (M < N, M > N with a cut
    block, M = kN)."""
    w = init_crosswise(1, 4, m)
    x = CounterRng(2).uniform(4, -1, 1)

    def assert_reads_its_own(w):
        fresh = CrosswiseWeights(4, m, w.k, w.c.copy(), w.b.copy())
        assert crosswise_forward(w, x, "identity").tobytes() == \
            crosswise_forward(fresh, x, "identity").tobytes()

    assert_reads_its_own(w)
    w.c = CounterRng(3).uniform(w.c.size, -1, 1)
    assert_reads_its_own(w)
    w.c -= 0.25
    assert_reads_its_own(w)
    shallow = copy.copy(w)
    shallow.c = shallow.c * 2.0  # it shared `w`'s array
    for twin in (shallow, copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        twin.c *= 3.0
        assert_reads_its_own(twin)
    assert_reads_its_own(w)


def test_forward_shape_and_activation_errors():
    w = init_crosswise(0, 3, 5)
    with pytest.raises(ShapeError):
        crosswise_forward(w, np.zeros(4))
    with pytest.raises(ParameterError):
        crosswise_forward(w, np.zeros(3), "tanh")


def test_expand_to_dense_examples():
    c = np.array([1.5, 2.5, 3.5, 4.5])
    w = CrosswiseWeights(in_dim=2, out_dim=4, k=2, c=c, b=np.zeros(4))
    np.testing.assert_array_equal(
        expand_to_dense(w),
        [[1.5, 0.0], [0.0, 2.5], [3.5, 0.0], [0.0, 4.5]],
    )
    w = CrosswiseWeights(in_dim=3, out_dim=3, k=1, c=np.ones(3), b=np.zeros(3))
    np.testing.assert_array_equal(expand_to_dense(w), np.eye(3))
    w = CrosswiseWeights(
        in_dim=2, out_dim=3, k=2, c=np.array([7.0, 8.0, 9.0, 10.0]), b=np.zeros(3)
    )
    np.testing.assert_array_equal(
        expand_to_dense(w), [[7.0, 0.0], [0.0, 8.0], [9.0, 0.0]]
    )


def test_backward_zero_upstream():
    w = init_crosswise(1, 3, 7)
    x = CounterRng(2).uniform(3, -1, 1)
    grad_c, grad_b, grad_x = crosswise_backward(w, x, np.zeros(7), "relu")
    assert np.all(grad_c == 0.0) and np.all(grad_b == 0.0) and np.all(grad_x == 0.0)


def test_backward_identity_square_case():
    n = 5
    w = init_crosswise(3, n, n)
    rng = CounterRng(4)
    x = rng.uniform(n, -1, 1)
    upstream = rng.uniform(n, -1, 1)
    grad_c, grad_b, grad_x = crosswise_backward(w, x, upstream, "identity")
    np.testing.assert_allclose(grad_c, upstream * x, atol=1e-15)
    np.testing.assert_array_equal(grad_b, upstream)
    np.testing.assert_allclose(grad_x, w.c * upstream, atol=1e-15)


def test_backward_relu_dead_at_exact_zero():
    # Pre-activation exactly 0 must contribute exactly 0 gradient.
    w = CrosswiseWeights(in_dim=2, out_dim=2, k=1, c=np.array([1.0, 1.0]),
                         b=np.array([0.0, -3.0]))
    x = np.array([0.0, 3.0])  # pre-activation = [0, 0]
    grad_c, grad_b, grad_x = crosswise_backward(w, x, np.array([5.0, 5.0]), "relu")
    assert np.all(grad_c == 0.0) and np.all(grad_b == 0.0) and np.all(grad_x == 0.0)


@pytest.mark.parametrize("activation", ("relu", "identity"))
def test_backward_without_input_grad(activation):
    w = init_crosswise(6, 4, 10)
    rng = CounterRng(6, stream=1)
    x = rng.uniform(3 * 4, -1, 1).reshape(3, 4)
    upstream = rng.uniform(3 * 10, -1, 1).reshape(3, 10)
    full = crosswise_backward(w, x, upstream, activation)
    grad_c, grad_b, grad_x = crosswise_backward(w, x, upstream, activation, input_grad=False)
    assert grad_x is None
    np.testing.assert_array_equal(grad_c, full[0])
    np.testing.assert_array_equal(grad_b, full[1])


def test_backward_against_finite_differences():
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        rng = CounterRng(seed, stream=3)
        n, m = (int(v) for v in rng.integers(2, 2, 9))
        w = init_crosswise(seed, n, m)
        x = rng.uniform(n, -1, 1)
        upstream = rng.uniform(m, -1, 1)
        activation = "relu" if seed % 2 else "identity"
        pre = expand_to_dense(w) @ x + w.b
        if activation == "relu" and np.min(np.abs(pre)) < 1e-4:
            continue  # reject draws near the kink; finite differences lie there
        checked += 1
        grad_c, grad_b, grad_x = crosswise_backward(w, x, upstream, activation)

        def scalar_loss(pre_vec):
            out = np.maximum(pre_vec, 0.0) if activation == "relu" else pre_vec
            return float(upstream @ out)

        num_c = central_difference(
            lambda c: scalar_loss(dense_embedding(c, n, m) @ x + w.b), w.c
        )
        num_b = central_difference(lambda b: scalar_loss(expand_to_dense(w) @ x + b), w.b)
        num_x = central_difference(lambda v: scalar_loss(expand_to_dense(w) @ v + w.b), x)
        for analytic, numeric in (
            (grad_c, num_c), (grad_b, num_b), (grad_x, num_x)
        ):
            for a, nmr in zip(analytic, numeric):
                assert relative_error(a, nmr) <= 1e-5


def test_init_crosswise():
    a = init_crosswise(9, 4, 8)
    b = init_crosswise(9, 4, 8)
    np.testing.assert_array_equal(a.c, b.c)
    assert a.c.shape == (8,)
    assert np.all(a.b == 0.0)
    assert np.max(np.abs(a.c)) <= 1.0 / np.sqrt(4)
    with pytest.raises(ParameterError):
        init_crosswise(9, 0, 8)


def test_multiplication_count_dominates_dense():
    for n in range(2, 33):
        for m in range(2, 33):
            kn = block_count(n, m) * n
            assert m <= kn <= m + n - 1
            assert kn < m * n
