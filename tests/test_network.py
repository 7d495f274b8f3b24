"""Network composition, losses, backprop, SGD, counters, and serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswise import features, network
from crosswise.datasets import Dataset, gen_blobs
from crosswise.diagonal import expand_to_dense, init_crosswise
from crosswise.errors import DivergenceError, ParameterError, ShapeError
from crosswise.features import fwht
from crosswise.network import (
    DenseLayer,
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    build_network,
    count_mults,
    count_weights,
    loss_eval,
    model_from_json,
    model_to_json,
    network_backward,
    network_forward,
    sgd_step,
    train,
    train_network,
)
from crosswise.rng import CounterRng

from oracles import central_difference, relative_error


def _single_dense(w, b, activation="identity"):
    w = np.asarray(w, dtype=float)
    spec = LayerSpec(kind="dense", in_dim=w.shape[1], out_dim=w.shape[0],
                     activation=activation)
    return Network([DenseLayer(spec, w, np.asarray(b, dtype=float))])


def test_spec_validation():
    with pytest.raises(ParameterError):
        LayerSpec(kind="conv", in_dim=3, out_dim=3)
    with pytest.raises(ParameterError):
        LayerSpec(kind="dense", in_dim=0, out_dim=3)
    with pytest.raises(ShapeError):
        NetworkSpec(layers=(
            LayerSpec(kind="dense", in_dim=2, out_dim=3),
            LayerSpec(kind="dense", in_dim=4, out_dim=1),
        ), seed=0)
    with pytest.raises(ParameterError):
        NetworkSpec(layers=(
            LayerSpec(kind="dense", in_dim=2, out_dim=3, activation="softmax_output"),
            LayerSpec(kind="dense", in_dim=3, out_dim=2),
        ), seed=0)


def test_network_reads_its_spec_from_its_layers():
    net = build_network(NetworkSpec(layers=(LayerSpec("dense", 3, 5),
                                            LayerSpec("crosswise_mixed", 5, 2)), seed=7))
    rebuilt = Network(net.layers, seed=7)
    assert rebuilt.spec == net.spec and (rebuilt.in_dim, rebuilt.out_dim) == (3, 2)
    assert Network(net.layers[1:]).spec == NetworkSpec(layers=(net.spec.layers[1],), seed=0)
    with pytest.raises(ShapeError, match="layer 0 out_dim 2 does not chain into layer 1 in_dim 3"):
        Network([net.layers[1], net.layers[0]])
    with pytest.raises(ParameterError, match="softmax_output"):
        Network([_single_dense(np.eye(3), np.zeros(3), "softmax_output").layers[0],
                 net.layers[0]])
    with pytest.raises(ParameterError, match="at least one layer"):
        Network([])


def test_dense_draw_peaks_at_its_weights():
    """A 2048 x 2048 dense layer's weights (32 MB) are drawn and divided by sqrt(N) in
    place: the build peaks under 33 MB, where a divided copy took 64 MB."""
    tracemalloc.start()
    try:
        build_network(NetworkSpec((LayerSpec("dense", 2048, 2048),), seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33 * 2 ** 20


def test_identity_dense_layer_is_identity():
    net = _single_dense(np.eye(4), np.zeros(4))
    x = CounterRng(0).uniform(4, -1, 1)
    np.testing.assert_array_equal(network_forward(net, x), x)


def test_zero_weights_relu_network_is_zero():
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=3, out_dim=5, activation="relu"),
        LayerSpec(kind="dense", in_dim=5, out_dim=2, activation="relu"),
    ), seed=0)
    net = build_network(spec)
    for layer in net.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    np.testing.assert_array_equal(
        network_forward(net, np.array([1.0, -2.0, 3.0])), np.zeros(2)
    )


def test_crosswise_network_equals_dense_twin():
    # An all-crosswise net must match the net built from its dense embeddings,
    # in output and in loss, across 20 seeded two-layer specs.
    for seed in range(20):
        dims = CounterRng(seed, stream=11).integers(3, 2, 33)
        d0, d1, d2 = (int(v) for v in dims)
        spec = NetworkSpec(layers=(
            LayerSpec(kind="crosswise", in_dim=d0, out_dim=d1, activation="relu"),
            LayerSpec(kind="crosswise", in_dim=d1, out_dim=d2, activation="identity"),
        ), seed=seed)
        net = build_network(spec)
        x = CounterRng(seed, stream=12).uniform(d0, -1, 1)
        out = network_forward(net, x)

        h = x
        for layer in net.layers:
            pre = expand_to_dense(layer.weights) @ h + layer.weights.b
            h = np.maximum(pre, 0.0) if layer.spec.activation == "relu" else pre
        np.testing.assert_allclose(out, h, atol=1e-12)

        target = np.zeros(d2)
        assert abs(loss_eval("mse", out, target) - loss_eval("mse", h, target)) <= 1e-12


def test_forward_shape_error_names_layer():
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=3, out_dim=4),
        LayerSpec(kind="dense", in_dim=4, out_dim=2),
    ), seed=1)
    net = build_network(spec)
    with pytest.raises(ShapeError) as err:
        network_forward(net, np.zeros(5))
    assert "layer 0" in str(err.value)


def test_loss_eval_examples():
    p = np.array([0.3, -1.2, 4.0])
    assert loss_eval("mse", p, p) == 0.0
    assert loss_eval("mse", np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5
    for c in (2, 5):
        logits = np.full(c, 0.7)
        one_hot = np.zeros(c)
        one_hot[c - 1] = 1.0
        assert abs(loss_eval("cross_entropy", logits, one_hot) - math.log(c)) < 1e-12
    # Any leading shape is a batch of rows: the loss is their mean.
    rng = np.random.default_rng(0)
    for shape in ((3, 1, 4), (3, 2, 4)):
        logits = rng.standard_normal(shape)
        one_hot = np.eye(4)[rng.integers(0, 4, shape[:-1])]
        for kind in ("mse", "cross_entropy"):
            rows = [loss_eval(kind, p, t)
                    for p, t in zip(logits.reshape(-1, 4), one_hot.reshape(-1, 4))]
            assert abs(loss_eval(kind, logits, one_hot) - np.mean(rows)) < 1e-12


@pytest.mark.parametrize("loss, head", [("mse", "identity"), ("cross_entropy", "softmax_output")])
def test_gradient_bits_do_not_depend_on_the_target_layout(loss, head):
    """The loss gradient is taken against a C-ordered target: a Fortran-ordered one made
    it Fortran-ordered too, and the diagonal layers' row sums then ran pairwise."""
    net = build_network(NetworkSpec((LayerSpec("crosswise_mixed", 64, 256),
                                     LayerSpec("crosswise_mixed", 256, 4, head)), seed=5))
    x = CounterRng(6).normal(32 * 64).reshape(32, 64)
    target = np.eye(4)[CounterRng(7).integers(32, 0, 4)]
    expected = network_backward(net, x, target, loss)
    for laid_out in (np.asfortranarray(target), target.T.copy().T, target.tolist()):
        grads = network_backward(net, x, laid_out, loss)
        for got, want in zip(grads, expected):
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
def test_the_head_gradient_is_c_ordered_whatever_the_logits_layout(loss, order):
    """The loss step hands the head a C-ordered gradient for Fortran-ordered logits too,
    so the diagonal layers' row sums never run pairwise.  Unlike the trained-bytes pins,
    which would also see a Fortran-ordered one, this runs on every CPU."""
    logits = np.asarray(CounterRng(8).normal(5 * 4).reshape(5, 4), order=order)
    target, labels = network._checked_target(loss, np.eye(4)[[0, 3, 1, 1, 2]], logits.shape)
    assert network._loss_and_gradient(loss, logits, target, labels)[1].flags.c_contiguous


def test_loss_eval_errors():
    with pytest.raises(ShapeError):
        loss_eval("mse", np.zeros(3), np.zeros(4))
    with pytest.raises(ParameterError):
        loss_eval("cross_entropy", np.zeros(3), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ParameterError):
        loss_eval("cross_entropy", np.zeros(3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ParameterError):
        loss_eval("huber", np.zeros(3), np.zeros(3))


def test_cross_entropy_is_stable_at_huge_logits():
    loss = loss_eval("cross_entropy", np.array([1e4, 0.0]), np.array([1.0, 0.0]))
    assert math.isfinite(loss) and loss < 1e-12


def test_backward_zero_when_prediction_hits_target():
    net = _single_dense([[0.5, -0.5], [1.0, 2.0]], [0.1, -0.2])
    x = np.array([1.0, 2.0])
    target = network_forward(net, x)
    grads = network_backward(net, x, target, "mse")
    for g in grads:
        for arr in g.values():
            assert np.all(arr == 0.0)


def test_gradients_match_finite_differences_all_kinds():
    checked = 0
    seed = 100
    while checked < 12:
        seed += 1
        kind = ("dense", "crosswise", "crosswise_mixed")[seed % 3]
        loss_kind = "cross_entropy" if seed % 2 else "mse"
        spec = NetworkSpec(layers=(
            LayerSpec(kind=kind, in_dim=5, out_dim=6, activation="relu"),
            LayerSpec(kind=kind, in_dim=6, out_dim=3,
                      activation="softmax_output" if loss_kind == "cross_entropy"
                      else "identity"),
        ), seed=seed)
        net = build_network(spec)
        x = CounterRng(seed, stream=13).uniform(5, -1, 1)
        if loss_kind == "cross_entropy":
            target = np.zeros(3)
            target[seed % 3] = 1.0
        else:
            target = CounterRng(seed, stream=14).uniform(3, -1, 1)
        if _near_kink(net, x):
            continue
        checked += 1
        grads = network_backward(net, x, target, loss_kind)
        for li, layer in enumerate(net.layers):
            for name, param in layer.params().items():
                flat = param.reshape(-1)
                analytic = grads[li][name].reshape(-1)

                def loss_of(values):
                    saved = flat.copy()
                    flat[:] = values
                    out = loss_eval(loss_kind, network_forward(net, x), target)
                    flat[:] = saved
                    return out

                numeric = central_difference(loss_of, flat.copy())
                for a, n in zip(analytic, numeric):
                    assert relative_error(a, n) <= 1e-5


def _near_kink(net, x, margin=1e-4):
    h = np.asarray(x, dtype=float)
    for layer in net.layers:
        out, cache = layer.forward(h)
        if layer.spec.activation == "relu":
            if layer.kind == "dense":
                pre = cache[1]
            else:
                from crosswise.diagonal import _pre_activation
                pre = _pre_activation(layer.weights, cache)
            if np.min(np.abs(pre)) < margin:
                return True
        h = out
    return False


def _count_fwhts(monkeypatch, calls):
    """Record the shape of every FWHT input, under both names it is called by: a
    mixed layer's forward transforms through `features.mix`, its backward directly."""
    def counted(v, **kw):
        calls.append(v.shape)
        return fwht(v, **kw)

    monkeypatch.setattr(network, "fwht", counted)
    monkeypatch.setattr(features, "fwht", counted)


@pytest.mark.parametrize("kind", ("dense", "crosswise", "crosswise_mixed"))
def test_backward_skips_first_layer_input_gradient(kind, monkeypatch):
    spec = NetworkSpec(layers=(
        LayerSpec(kind=kind, in_dim=6, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise_mixed", in_dim=8, out_dim=3, activation="softmax_output"),
    ), seed=31)
    net = build_network(spec)
    x = CounterRng(31, stream=1).normal(4 * 6).reshape(4, 6)
    target = np.eye(3)[[0, 2, 1, 2]]

    # Reference: the plain chain rule, every layer's input gradient computed.
    prediction = x
    caches = []
    for layer in net.layers:
        prediction, cache = layer.forward(prediction)
        caches.append(cache)
    g = network.softmax(prediction) - target
    expected = [None, None]
    for i in (1, 0):
        expected[i], g = net.layers[i].backward(caches[i], g)
    assert g.shape == x.shape

    calls = []
    _count_fwhts(monkeypatch, calls)
    grads = network_backward(net, x, target, "cross_entropy")
    # One FWHT per mixed layer forward, and one for the second layer's input
    # gradient; none for the first layer's, which nothing reads.
    assert len(calls) == (3 if kind == "crosswise_mixed" else 2)
    for layer_grads, layer_expected in zip(grads, expected):
        assert layer_grads.keys() == layer_expected.keys()
        for name in layer_grads:
            np.testing.assert_array_equal(layer_grads[name], layer_expected[name])
    _, g_x = net.layers[0].backward(caches[0], np.ones((4, 8)), input_grad=False)
    assert g_x is None


def test_first_crosswise_layer_skips_input_gradient_product(monkeypatch):
    """The first layer's grad_x is never formed, not just dropped.

    test_backward_skips_first_layer_input_gradient checks the gradients.
    """
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise", in_dim=6, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise", in_dim=8, out_dim=3, activation="softmax_output"),
    ), seed=32)
    net = build_network(spec)
    x = CounterRng(32, stream=1).normal(4 * 6).reshape(4, 6)
    original = network.crosswise_backward
    returned = []

    def recording(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(network, "crosswise_backward", recording)
    network_backward(net, x, np.eye(3)[[0, 2, 1, 2]], "cross_entropy")
    # Backprop runs from the last layer: the second call is the first layer's.
    assert returned[0][2] is not None and returned[1][2] is None


@pytest.mark.parametrize("second, epochs, batch", [
    ("crosswise_mixed", 3, 7), ("crosswise_mixed", 1, 15), ("dense", 2, 4),
    ("crosswise_mixed", 0, 7), ("dense", 0, 4),
])
def test_train_stages_first_mixed_layer_once_per_call(second, epochs, batch, monkeypatch):
    """The first layer's stage runs on the whole dataset once per call.

    Per mini-batch, only a second mixed layer transforms: once forward and
    once for its input gradient.  Each epoch's accuracy pass runs on the
    staged rows, so only a second mixed layer transforms there too.
    """
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise_mixed", in_dim=6, out_dim=8, activation="relu"),
        LayerSpec(kind=second, in_dim=8, out_dim=3, activation="softmax_output"),
    ), seed=33)
    data = gen_blobs(seed=5, samples_per_class=10, dims=6, class_count=3, spread=0.3)
    calls = []
    _count_fwhts(monkeypatch, calls)
    train_network(build_network(spec), TrainConfig(0.1, epochs, batch, "cross_entropy", 2), data)
    batches = -(-30 // batch)
    if epochs == 0:
        assert calls == []
    elif second == "crosswise_mixed":
        assert len(calls) == 1 + epochs * (2 * batches + 1)
    else:
        assert len(calls) == 1
    if calls:
        assert calls[0] == (30, 8)


def test_train_steps_only_the_live_units(monkeypatch):
    """A plain 64->256->4 net reads only 4 of its hidden units, and those read
    only 4 inputs: no diagonal product in the mini-batches or the accuracy
    pass is wider than 4 columns, and the dead parameters keep their bits.
    """
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise", in_dim=64, out_dim=256, activation="relu"),
        LayerSpec(kind="crosswise", in_dim=256, out_dim=4, activation="softmax_output"),
    ), seed=34)
    net = build_network(spec)
    before = [{name: p.copy() for name, p in layer.params().items()} for layer in net.layers]
    widths = []
    for name in ("crosswise_forward", "crosswise_backward"):
        def recording(w, x, *args, original=getattr(network, name), **kwargs):
            widths.append((w.c.size, x.shape[-1]))
            return original(w, x, *args, **kwargs)
        monkeypatch.setattr(network, name, recording)
    data = gen_blobs(seed=6, samples_per_class=25, dims=64, class_count=4, spread=0.5)
    train_network(net, TrainConfig(0.5, 1, 32, "cross_entropy", 3), data)
    # 4 batches, forward and backward through 2 layers, and the accuracy pass.
    assert len(widths) == 4 * 2 * 2 + 2
    assert max(max(pair) for pair in widths) <= 4
    first, second = net.layers
    assert first.weights.c[4:].tobytes() == before[0]["c"][4:].tobytes()
    assert first.weights.b[4:].tobytes() == before[0]["b"][4:].tobytes()
    assert second.weights.c[4:].tobytes() == before[1]["c"][4:].tobytes()
    # The live ones were stepped, in the model's own arrays.
    assert not np.array_equal(first.weights.c[:4], before[0]["c"][:4])
    assert not np.array_equal(second.weights.c[:4], before[1]["c"][:4])


def test_crosswise_grad_equals_dense_twin_diagonal():
    seed = 5
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise", in_dim=4, out_dim=8, activation="identity"),
    ), seed=seed)
    net = build_network(spec)
    w = net.layers[0].weights
    x = CounterRng(seed, stream=15).uniform(4, -1, 1)
    target = np.zeros(8)
    grad_c = network_backward(net, x, target, "mse")[0]["c"]

    dense_twin = _single_dense(expand_to_dense(w), w.b)
    grad_w = network_backward(dense_twin, x, target, "mse")[0]["w"]
    for r in range(8):
        assert grad_c[r] == grad_w[r, r % 4]


def test_plain_64_256_4_stack_reads_inputs_0_to_3_only():
    """The paper counts 512 weights for this stack; its head reads 4 of 256 outputs,
    and those read inputs 0-3.  Of the head's 256 coefficients, 252 are dead."""
    net = build_network(NetworkSpec((LayerSpec("crosswise", 64, 256, "identity"),
                                     LayerSpec("crosswise", 256, 4, "identity")), seed=11))
    x = CounterRng(11, stream=3).normal(8 * 64).reshape(8, 64)
    y, z = x.copy(), x.copy()
    y[:, 4:] = CounterRng(12, stream=3).normal(8 * 60).reshape(8, 60)
    z[:, :4] += 1.0
    assert network_forward(net, y).tobytes() == network_forward(net, x).tobytes()
    assert (network_forward(net, z) != network_forward(net, x)).all()
    head = network_backward(net, x, np.zeros((8, 4)), "mse")[1]["c"]
    assert head.shape == (256,) and head[:4].all() and not head[4:].any()


@st.composite
def _stack(draw, kinds):
    """Layer specs whose narrowest output width is below the input width, and that width."""
    in_dim = draw(st.integers(2, 16))
    outs = draw(st.lists(st.integers(1, 24), min_size=0, max_size=3))
    outs.insert(draw(st.integers(0, len(outs))), draw(st.integers(1, in_dim - 1)))
    widths = [in_dim, *outs]
    return tuple(LayerSpec(draw(st.sampled_from(kinds)), n, m,
                           draw(st.sampled_from(("relu", "identity"))))
                 for n, m in zip(widths, outs)), min(outs)


@settings(max_examples=40, deadline=None)
@given(_stack(("crosswise",)), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_plain_stack_output_ignores_inputs_from_its_narrowest_width(stack, rows, seed):
    layers, narrowest = stack
    net = build_network(NetworkSpec(layers, seed=seed))
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((rows, layers[0].in_dim))
    y = x.copy()
    y[:, narrowest:] = gen.standard_normal((rows, layers[0].in_dim - narrowest))
    assert network_forward(net, y).tobytes() == network_forward(net, x).tobytes()


@settings(max_examples=40, deadline=None)
@given(_stack(("crosswise", "crosswise_mixed")), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_coefficients_that_no_output_reads_get_zero_gradient(stack, rows, seed):
    """Output j reads coefficient j only: the last k*N - M of a layer's k*N are dead."""
    layers, _ = stack
    net = build_network(NetworkSpec(layers, seed=seed))
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((rows, layers[0].in_dim))
    grads = network_backward(net, x, gen.standard_normal((rows, layers[-1].out_dim)), "mse")
    for layer, grad in zip(net.layers, grads):
        w = layer.weights
        assert grad["c"].shape == (w.k * w.in_dim,)
        assert not grad["c"][w.out_dim:].any()


def test_sgd_step_examples():
    net = _single_dense([[1.0]], [0.0])
    grads = [{"w": np.array([[2.0]]), "b": np.array([0.0])}]
    sgd_step(net, grads, 0.1)
    assert net.layers[0].w[0, 0] == pytest.approx(0.8)

    frozen = _single_dense([[1.0, 2.0]], [3.0])
    before_w = frozen.layers[0].w.copy()
    sgd_step(frozen, [{"w": np.zeros((1, 2)), "b": np.zeros(1)}], 0.0)
    np.testing.assert_array_equal(frozen.layers[0].w, before_w)

    with pytest.raises(ShapeError):
        sgd_step(net, [{"w": np.zeros((2, 2)), "b": np.zeros(1)}], 0.1)


def test_sgd_step_determinism():
    outs = []
    for _ in range(2):
        spec = NetworkSpec(layers=(LayerSpec(kind="dense", in_dim=3, out_dim=2),), seed=4)
        net = build_network(spec)
        grads = network_backward(net, np.ones(3), np.zeros(2), "mse")
        sgd_step(net, grads, 0.05)
        outs.append((net.layers[0].w.copy(), net.layers[0].b.copy()))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    np.testing.assert_array_equal(outs[0][1], outs[1][1])


def test_single_parameter_quadratic_step_reduces_loss():
    # loss(w) = w^2 / 2 has gradient w; one step at lr=0.5 from w=1.
    net = _single_dense([[1.0]], [0.0])
    before = 0.5 * net.layers[0].w[0, 0] ** 2
    sgd_step(net, [{"w": np.array([[net.layers[0].w[0, 0]]]), "b": np.zeros(1)}], 0.5)
    after = 0.5 * net.layers[0].w[0, 0] ** 2
    assert after < before


def test_train_zero_epochs():
    data = gen_blobs(seed=2, samples_per_class=10, dims=3, class_count=2, spread=0.2)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=3, out_dim=2, activation="softmax_output"),
    ), seed=0)
    net = build_network(spec)
    w_before = net.layers[0].w.copy()
    cfg = TrainConfig(learning_rate=0.1, epochs=0, batch_size=4,
                      loss="cross_entropy", seed=0)
    history = train_network(net, cfg, data)
    assert history == []
    np.testing.assert_array_equal(net.layers[0].w, w_before)


def test_train_deterministic_histories():
    data = gen_blobs(seed=3, samples_per_class=20, dims=4, class_count=2, spread=0.3)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=6, activation="relu"),
        LayerSpec(kind="dense", in_dim=6, out_dim=2, activation="softmax_output"),
    ), seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=8,
                      loss="cross_entropy", seed=2)
    a = train(spec, cfg, data)
    b = train(spec, cfg, data)
    assert [(r.epoch, r.train_loss, r.train_accuracy) for r in a] == [
        (r.epoch, r.train_loss, r.train_accuracy) for r in b
    ]
    assert [r.epoch for r in a] == [1, 2, 3, 4, 5]
    assert all(math.isfinite(r.train_loss) for r in a)


def test_train_threads_match_single_thread():
    data = gen_blobs(seed=4, samples_per_class=15, dims=4, class_count=2, spread=0.3)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="crosswise_mixed", in_dim=4, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise_mixed", in_dim=8, out_dim=2, activation="softmax_output"),
    ), seed=1)
    cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=10,
                      loss="cross_entropy", seed=5)
    net_a = build_network(spec)
    hist_a = train_network(net_a, cfg, data, threads=1)
    net_b = build_network(spec)
    hist_b = train_network(net_b, cfg, data, threads=4)
    assert [(r.train_loss, r.train_accuracy) for r in hist_a] == [
        (r.train_loss, r.train_accuracy) for r in hist_b
    ]
    for la, lb in zip(net_a.layers, net_b.layers):
        np.testing.assert_array_equal(la.weights.c, lb.weights.c)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_divergence_names_epoch():
    data = gen_blobs(seed=1, samples_per_class=100, dims=4, class_count=2, spread=0.3)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=8, activation="relu"),
        LayerSpec(kind="dense", in_dim=8, out_dim=2, activation="identity"),
    ), seed=0)
    cfg = TrainConfig(learning_rate=100.0, epochs=50, batch_size=16, loss="mse", seed=0)
    with pytest.raises(DivergenceError) as err:
        train(spec, cfg, data)
    assert "epoch 1" in str(err.value)


def test_a_batch_whose_running_loss_overflows_is_not_stepped():
    """Each one-row batch's own loss, near 1.7e308, is finite, but the epoch's running
    total overflows at the second.  The divergence is raised before that batch's step,
    so the network holds what the first batch's step left, as a one-row epoch leaves it."""
    cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=1, loss="mse", seed=0)
    rows = [Dataset(features=np.ones((n, 1)), labels=np.zeros(n), class_count=0) for n in (1, 2)]
    first = _single_dense([[1.3e154]], [0.0])
    train_network(first, cfg, rows[0])
    assert math.isfinite(loss_eval("mse", network_forward(first, np.ones(1)), np.zeros(1)))
    net = _single_dense([[1.3e154]], [0.0])
    with pytest.raises(DivergenceError, match="epoch 1"):
        train_network(net, cfg, rows[1])
    for old, new in zip(first.layers[0].params().values(), net.layers[0].params().values()):
        assert old.tobytes() == new.tobytes()


def test_train_validates_dimensions():
    data = gen_blobs(seed=2, samples_per_class=5, dims=3, class_count=2, spread=0.2)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=2, activation="softmax_output"),
    ), seed=0)
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=2,
                      loss="cross_entropy", seed=0)
    with pytest.raises(ShapeError):
        train(spec, cfg, data)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.1, epochs=1, batch_size=0,
                    loss="cross_entropy", seed=0)
    small = gen_blobs(seed=2, samples_per_class=2, dims=4, class_count=2, spread=0.2)
    ok_spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=2, activation="softmax_output"),
    ), seed=0)
    big_batch = TrainConfig(learning_rate=0.1, epochs=1, batch_size=10,
                            loss="cross_entropy", seed=0)
    with pytest.raises(ParameterError):
        train(ok_spec, big_batch, small)



@pytest.mark.parametrize("labels, epochs", [
    ("varied", 1), ("varied", 0), ("all ones", 1), ("all ones", 0),
])
def test_train_refuses_cross_entropy_without_classes(labels, epochs):
    """Refused before any work: with no epochs to run, and with labels of 1.0
    that a one-output softmax would fit with a loss of 0."""
    features = CounterRng(19).uniform(12, -1, 1).reshape(6, 2)
    values = np.linspace(0.0, 1.0, 6) if labels == "varied" else np.ones(6)
    data = Dataset(features=features, labels=values, class_count=0)
    net = build_network(NetworkSpec(layers=(
        LayerSpec(kind="crosswise_mixed", in_dim=2, out_dim=1, activation="softmax_output"),
    ), seed=0))
    c_before = net.layers[0].weights.c.copy()
    cfg = TrainConfig(learning_rate=0.1, epochs=epochs, batch_size=2,
                      loss="cross_entropy", seed=0)
    with pytest.raises(ParameterError, match="cross_entropy needs a dataset with classes"):
        train_network(net, cfg, data)
    np.testing.assert_array_equal(net.layers[0].weights.c, c_before)

def test_regression_training_with_mse():
    rng = CounterRng(17)
    features = rng.uniform(40, -1, 1).reshape(20, 2)
    labels = features @ np.array([0.5, -0.25])
    data = Dataset(features=features, labels=labels, class_count=0)
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=2, out_dim=1, activation="identity"),
    ), seed=3)
    cfg = TrainConfig(learning_rate=0.2, epochs=40, batch_size=5, loss="mse", seed=1)
    history = train(spec, cfg, data)
    assert history[-1].train_loss < 1e-3
    assert history[-1].train_accuracy == 0.0  # accuracy is a classification notion


def _spec_of(kind, n, m):
    return NetworkSpec(layers=(LayerSpec(kind=kind, in_dim=n, out_dim=m),), seed=0)


def test_count_weights_examples():
    assert count_weights(_spec_of("dense", 4, 8)).total_weights == 32
    assert count_weights(_spec_of("crosswise", 4, 8)).total_weights == 8
    for n in (2, 3, 17, 1024):
        assert count_weights(_spec_of("crosswise", n, n)).total_weights == n
    counts = count_weights(_spec_of("crosswise", 4, 8))
    assert counts.biases == [8]
    two = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=8),
        LayerSpec(kind="crosswise", in_dim=8, out_dim=3),
    ), seed=0)
    assert count_weights(two).weights == [32, 8]
    assert count_weights(two).total_biases == 11


def test_count_mults_examples():
    assert count_mults(_spec_of("dense", 4, 8)).total_mults == 32
    assert count_mults(_spec_of("crosswise", 4, 8)).total_mults == 8
    assert count_mults(_spec_of("crosswise", 3, 7)).total_mults == 9
    mixed = count_mults(_spec_of("crosswise_mixed", 5, 9))
    # pad = 8: 8 sign flips + ceil(9/8)*8 = 16 diagonal products; 8*log2(8) butterflies.
    assert mixed.mults == [24]
    assert mixed.fwht_ops == [24]
    assert count_mults(_spec_of("dense", 4, 8)).fwht_ops == [0]


def test_count_weights_and_count_mults_are_one_record():
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=4, out_dim=8),
        LayerSpec(kind="crosswise_mixed", in_dim=8, out_dim=3),
    ), seed=0)
    counts = count_weights(spec)
    assert counts == count_mults(spec)
    # pad = 8: 8 sign flips + 8 diagonal products; 8*log2(8) butterflies.
    assert (counts.weights, counts.biases) == ([32, 8], [8, 3])
    assert (counts.mults, counts.fwht_ops) == ([32, 16], [0, 24])
    assert (counts.total_biases, counts.total_fwht_ops) == (11, 24)


def test_mixed_layer_is_the_crosswise_layer_on_the_padded_width():
    assert issubclass(network.CrosswiseMixedLayer, network.CrosswiseLayer)
    mixed = LayerSpec(kind="crosswise_mixed", in_dim=5, out_dim=3)
    signs, perm = np.ones(8), np.arange(8)
    assert network.CrosswiseMixedLayer(mixed, init_crosswise(0, 8, 3), signs, perm).pad == 8
    with pytest.raises(ShapeError, match="expected 8->3"):
        network.CrosswiseMixedLayer(mixed, init_crosswise(0, 5, 3), signs, perm)
    plain = LayerSpec(kind="crosswise", in_dim=5, out_dim=3)
    assert network.CrosswiseLayer(plain, init_crosswise(0, 5, 3)).pad == 5
    with pytest.raises(ShapeError, match="expected 5->3"):
        network.CrosswiseLayer(plain, init_crosswise(0, 8, 3))


@st.composite
def _any_stack(draw):
    """1-4 layer specs of any kinds, widths 1-40 (powers of two or not) and activations; each
    layer's output width is drawn equal to its input width or from 1-40, above or below it."""
    widths = [draw(st.integers(1, 40))]
    for _ in range(draw(st.integers(1, 4))):
        widths.append(draw(st.just(widths[-1]) | st.integers(1, 40)))
    last = len(widths) - 2
    return tuple(
        LayerSpec(draw(st.sampled_from(network.LAYER_KINDS)), n, m,
                  draw(st.sampled_from(("relu", "identity", "softmax_output")[: 2 + (i == last)])))
        for i, (n, m) in enumerate(zip(widths, widths[1:])))


@settings(max_examples=40, deadline=None)
@given(_any_stack(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_model_json_roundtrip(layers, rows, seed):
    """A saved model reloads to the same text and the same forward bits on a C-ordered batch."""
    net = build_network(NetworkSpec(layers, seed=seed))
    text = json.dumps(model_to_json(net), indent=1)
    doc = json.loads(text)
    assert doc["version"] == 1
    assert [entry["type"] for entry in doc["layers"]] == [layer.kind for layer in layers]
    restored = model_from_json(doc, seed=seed)
    assert json.dumps(model_to_json(restored), indent=1) == text
    x = np.random.default_rng(seed).standard_normal((rows, layers[0].in_dim))
    assert network_forward(restored, x).tobytes() == network_forward(net, x).tobytes()


# json.dumps(model_to_json(net), indent=1) of _tiny_net(), frozen when the
# version-1 format was pinned: key order, number formatting and layout.
MODEL_V1_TEXT = """\
{
 "version": 1,
 "layers": [
  {
   "type": "dense",
   "n": 2,
   "m": 3,
   "w": [
    0.6310854139109899,
    0.4727431936777073,
    0.7024474056412028,
    -0.3266423048129344,
    -0.6587033110574716,
    0.3297675925517577
   ],
   "b": [
    0.0,
    0.0,
    0.0
   ],
   "activation": "relu"
  },
  {
   "type": "crosswise",
   "n": 3,
   "m": 5,
   "k": 2,
   "c": [
    0.43093265309190154,
    -0.5214271476751188,
    0.039886646301751386,
    -0.4345468855120881,
    0.13099207308115446,
    -0.3610788529842941
   ],
   "b": [
    0.0,
    0.0,
    0.0,
    0.0,
    0.0
   ],
   "activation": "relu"
  },
  {
   "type": "crosswise_mixed",
   "n": 5,
   "m": 2,
   "pad": 8,
   "k": 1,
   "c": [
    0.1290760458275977,
    0.270549136943027,
    -0.2625814122016806,
    -0.0791032102851627,
    -0.3100200464996521,
    0.3487171170950237,
    -0.08230764851197173,
    -0.3453600739791745
   ],
   "b": [
    0.0,
    0.0
   ],
   "signs": [
    1,
    1,
    1,
    1,
    -1,
    -1,
    1,
    1
   ],
   "perm": [
    1,
    2,
    6,
    3,
    5,
    7,
    4,
    0
   ],
   "activation": "softmax_output"
  }
 ]
}"""


def _tiny_net():
    return build_network(NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=2, out_dim=3),
        LayerSpec(kind="crosswise", in_dim=3, out_dim=5),
        LayerSpec(kind="crosswise_mixed", in_dim=5, out_dim=2, activation="softmax_output"),
    ), seed=7))


def test_model_json_version1_bytes_are_frozen():
    assert json.dumps(model_to_json(_tiny_net()), indent=1) == MODEL_V1_TEXT


def test_model_json_reload_writes_the_same_document():
    doc = json.loads(MODEL_V1_TEXT)
    assert [entry["type"] for entry in doc["layers"]] == ["dense", "crosswise", "crosswise_mixed"]
    again = model_to_json(model_from_json(doc))
    assert again == doc
    assert json.dumps(again, indent=1) == MODEL_V1_TEXT


def test_model_json_rejects_unknown():
    for version in (2, True, 1.0, "1"):
        with pytest.raises(ParameterError):
            model_from_json({"version": version, "layers": []})
    for kind in ("conv", ["dense"], {"dense": 1}, None):
        with pytest.raises(ParameterError, match="unknown layer type"):
            model_from_json({"version": 1, "layers": [{"type": kind, "n": 1, "m": 1}]})


def _model_doc():
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=3, out_dim=5, activation="relu"),
        LayerSpec(kind="crosswise", in_dim=5, out_dim=4, activation="identity"),
        LayerSpec(kind="crosswise_mixed", in_dim=4, out_dim=2, activation="softmax_output"),
    ), seed=11)
    return json.loads(json.dumps(model_to_json(build_network(spec))))


def _set(layer, key, value):
    def fault(doc):
        doc["layers"][layer][key] = value
    return fault


def _drop(layer, key):
    def fault(doc):
        del doc["layers"][layer][key]
    return fault


def _poke(layer, key, value):
    def fault(doc):
        doc["layers"][layer][key][1] = value
    return fault


def _perm_bools(doc):
    perm = doc["layers"][2]["perm"]
    perm[perm.index(0)], perm[perm.index(1)] = False, True


MODEL_FAULTS = {
    "mixed-without-pad": _drop(2, "pad"),
    "dense-nan-w": _poke(0, "w", math.nan),
    "dense-inf-b": _poke(0, "b", -math.inf),
    "crosswise-nan-c": _poke(1, "c", math.nan),
    "mixed-nan-signs": _poke(2, "signs", math.nan),
    "crosswise-without-k": _drop(1, "k"),
    "dense-without-b": _drop(0, "b"),
    "unknown-key": _set(1, "scale", 2.0),
    "n-not-an-integer": _set(0, "n", "3"),
    "w-not-a-list": _set(0, "w", 1.0),
    "w-ragged": _set(0, "w", [[1.0], [2.0, 3.0]]),
    "c-strings": _set(1, "c", ["1"] * 5),
    "perm-floats": _set(2, "perm", [0.0, 1.0, 2.0, 3.0]),
    "layer-not-an-object": lambda doc: doc["layers"].__setitem__(0, []),
    "layers-missing": lambda doc: doc.pop("layers"),
    # A bool is not a number, not even in a list of numbers.
    "perm-bools": _perm_bools,
    "signs-true": _poke(2, "signs", True),
    "crosswise-true-c": _poke(1, "c", True),
    "dense-true-w": _poke(0, "w", True),
    "dense-true-b": _poke(0, "b", True),
    # Numbers beyond the array's dtype, and a null.
    "perm-beyond-int64": _poke(2, "perm", 2**63),
    "c-beyond-float64": _poke(1, "c", 10**400),
    "dense-null-b": _poke(0, "b", None),
    # Refusals of the layer constructors, which the loader prefixes with the layer.
    "n-zero": _set(0, "n", 0),
    "unknown-activation": _set(0, "activation", "tanh"),
    "crosswise-wrong-k": _set(1, "k", 2),
    "mixed-wrong-pad": _set(2, "pad", 16),
    "perm-repeated": _set(2, "perm", [0, 0, 1, 2]),
}
# The rows refused with ShapeError; every other row is refused with ParameterError.
MODEL_SHAPE_FAULTS = {"mixed-wrong-pad"}


@pytest.mark.parametrize("name", MODEL_FAULTS)
def test_model_json_refuses_malformed_models(name):
    doc = _model_doc()
    model_from_json(doc)
    MODEL_FAULTS[name](doc)
    error = ShapeError if name in MODEL_SHAPE_FAULTS else ParameterError
    with pytest.raises(error, match=r"^model"):
        model_from_json(doc)


def test_model_json_refuses_wrong_dense_size():
    doc = _model_doc()
    doc["layers"][0]["w"].pop()
    with pytest.raises(ShapeError):
        model_from_json(doc)


def test_each_layer_call_passes_one_tracer_wrapper(monkeypatch):
    """The benchmark tracer wraps `forward` and `backward` from the `__dict__` of each
    layer class, and `crosswise_forward`/`crosswise_backward` in `network`.  Wrapped
    the same way here, every layer call is counted once, and the diagonal layers'
    calls equal the diagonal products' calls: no call passes through two wrappers."""
    spec = NetworkSpec(layers=(
        LayerSpec(kind="dense", in_dim=6, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise", in_dim=8, out_dim=8, activation="relu"),
        LayerSpec(kind="crosswise_mixed", in_dim=8, out_dim=3, activation="softmax_output"),
    ), seed=35)
    net = build_network(spec)
    data = gen_blobs(seed=7, samples_per_class=10, dims=6, class_count=3, spread=0.3)
    counts = {}

    def wrapped(owner, attr, key):
        def counted(*args, original=owner.__dict__[attr], **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    for owner, kind in ((DenseLayer, "dense"), (network.CrosswiseLayer, "diagonal"),
                        (network.CrosswiseMixedLayer, "diagonal")):
        for attr in ("forward", "backward"):
            wrapped(owner, attr, (kind, attr))
    for attr in ("forward", "backward"):
        wrapped(network, f"crosswise_{attr}", ("product", attr))

    def assert_passes(forward, backward):
        """One dense and two diagonal layer calls per pass, each one diagonal product."""
        expected = {("dense", "forward"): forward, ("dense", "backward"): backward}
        for kind in ("diagonal", "product"):
            expected.update({(kind, "forward"): 2 * forward, (kind, "backward"): 2 * backward})
        assert counts == {key: n for key, n in expected.items() if n}
        counts.clear()

    network_forward(net, data.features[:4])
    assert_passes(1, 0)
    network_backward(net, data.features[:4], np.eye(3)[data.labels[:4]], "cross_entropy")
    assert_passes(1, 1)
    # 30 rows in batches of 7: 5 mini-batches, then one accuracy pass.
    train_network(net, TrainConfig(0.1, 1, 7, "cross_entropy", 2), data)
    assert_passes(6, 5)
