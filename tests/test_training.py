"""The fused loss step against scalar oracles, and `train_network` against a
reference loop written from public calls.

`train_network` checks its targets once per call, computes each mini-batch's
loss and head gradient in one fused step, stages a first mixed layer once and
skips the units that nothing reads; none of that may change a bit of what the
plain loop below computes with `network_backward`, the batch mean, `sgd_step`
and `network_forward`.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosswise.datasets import Dataset, gen_blobs
from crosswise.network import (
    LAYER_KINDS,
    DenseLayer,
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    build_network,
    loss_eval,
    model_to_json,
    network_backward,
    network_forward,
    sgd_step,
    train_network,
)
from crosswise.rng import CounterRng

from oracles import softmax_cross_entropy, squared_error

# Loss and gradient entries agree with the oracles within REL of the larger of
# 1 and the oracle value's magnitude (np.exp and math.exp may differ by an ulp,
# and the row sums and the batch mean add in different orders).
REL = 1e-12
DIMS = (1, 2, 3, 4, 5, 8, 13, 16)
RELATIONS = ("M<N", "M=N", "M>N")


def _assert_close(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=REL * scale)


@st.composite
def _loss_case(draw):
    kind = draw(st.sampled_from(("cross_entropy", "mse")))
    batch = draw(st.sampled_from((1, 7, 32)))
    classes = draw(st.integers(1, 8))
    values = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    logits = draw(arrays(np.float64, (batch, classes), elements=values))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=batch, max_size=batch))
    if kind == "cross_entropy":
        target = np.eye(classes)[labels]
    else:
        target = draw(arrays(np.float64, (batch, classes), elements=values))
    return kind, logits, labels, target


@settings(max_examples=80, deadline=None)
@given(_loss_case())
def test_loss_and_head_gradient_match_scalar_oracles(case):
    kind, logits, labels, target = case
    batch, classes = logits.shape
    rows = [softmax_cross_entropy(z, label) if kind == "cross_entropy" else squared_error(z, t)
            for z, label, t in zip(logits, labels, target)]
    expected_loss = math.fsum(loss for loss, _ in rows) / batch
    _assert_close(loss_eval(kind, logits, target), expected_loss)
    _assert_close(loss_eval(kind, logits[0], target[0]), rows[0][0])

    # One identity dense layer with w = logits.T on the rows of the identity
    # predicts the logits exactly, and its weight gradient is the transposed
    # head gradient, one row per sample.
    spec = LayerSpec(kind="dense", in_dim=batch, out_dim=classes, activation="identity")
    net = Network(NetworkSpec(layers=(spec,), seed=0),
                  [DenseLayer(spec, logits.T.copy(), np.zeros(classes))])
    x = np.eye(batch)
    np.testing.assert_array_equal(network_forward(net, x), logits)
    head = network_backward(net, x, target, kind)[0]["w"].T
    _assert_close(head, [grad for _, grad in rows])


def _width(draw, n, relation):
    if relation == "M<N":
        return draw(st.integers(1, n - 1)) if n > 1 else 1
    if relation == "M=N":
        return n
    return draw(st.sampled_from([d for d in DIMS if d > n] or [n + 1]))


@st.composite
def _training_case(draw):
    loss = draw(st.sampled_from(("cross_entropy", "mse")))
    classes = 0 if loss == "mse" and draw(st.booleans()) else draw(st.integers(1, 4))
    depth = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(LAYER_KINDS), min_size=depth, max_size=depth))
    if draw(st.booleans()):
        kinds[0] = "crosswise_mixed"
    out = max(classes, 1)
    widths = [draw(st.sampled_from(DIMS))]
    for _ in range(depth - 1):
        widths.append(_width(draw, widths[-1], draw(st.sampled_from(RELATIONS))))
    # Half the time the last layer is plain with M < N, so that training
    # skips the units behind its unread inputs.
    if draw(st.booleans()):
        kinds[-1] = "crosswise"
        if widths[-1] <= out:
            widths[-1] = draw(st.sampled_from([d for d in DIMS if d > out]))
    widths.append(out)
    seed = draw(st.integers(0, 2**32 - 1))
    batch = draw(st.sampled_from((7, 1, "all")))
    # 8 to 64 rows, a whole number per class; with batches of 7, the last
    # batch is a partial one.
    rows = draw(st.sampled_from([r for r in range(8, 65)
                                 if r % max(classes, 1) == 0 and (batch != 7 or r % 7)]))
    if classes:
        data = gen_blobs(seed % 1000, rows // classes, widths[0], classes, 0.5)
    else:
        rng = CounterRng(seed, stream=7)
        data = Dataset(features=rng.uniform(rows * widths[0], -1, 1).reshape(rows, widths[0]),
                       labels=rng.uniform(rows, -1, 1), class_count=0)
    batch = rows if batch == "all" else batch
    layers = tuple(
        LayerSpec(kind, widths[i], widths[i + 1],
                  "relu" if i < depth - 1 else
                  "softmax_output" if loss == "cross_entropy" else "identity")
        for i, kind in enumerate(kinds)
    )
    cfg = TrainConfig(learning_rate=0.05, epochs=draw(st.integers(1, 2)), batch_size=batch,
                      loss=loss, seed=seed)
    return NetworkSpec(layers=layers, seed=seed), cfg, data


def _reference_train(net, cfg, data):
    """The training loop from public calls: (loss, accuracy) per epoch."""
    if data.class_count:
        targets = np.eye(net.out_dim)[data.labels]
    else:
        targets = data.labels.reshape(-1, 1)
    n = data.features.shape[0]
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = CounterRng(cfg.seed, stream=epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x, target = data.features[batch], targets[batch]
            loss = loss_eval(cfg.loss, network_forward(net, x), target)
            grads = network_backward(net, x, target, cfg.loss)
            for layer_grads in grads:
                for g in layer_grads.values():
                    g *= 1.0 / len(batch)  # the batch mean
            sgd_step(net, grads, cfg.learning_rate)
            loss_sum += loss * len(batch)
        accuracy = 0.0
        if data.class_count:
            predicted = np.argmax(network_forward(net, data.features), axis=-1)
            accuracy = float(np.mean(predicted == data.labels))
        history.append((loss_sum / n, accuracy))
    return history


def _assert_equals_reference_loop(spec, cfg, data):
    net = build_network(spec)
    history = train_network(net, cfg, data)
    reference = build_network(spec)
    expected = _reference_train(reference, cfg, data)
    assert [(r.train_loss, r.train_accuracy) for r in history] == expected
    assert json.dumps(model_to_json(net)) == json.dumps(model_to_json(reference))


@settings(max_examples=100, deadline=None)
@given(_training_case())
def test_train_network_equals_reference_loop(case):
    _assert_equals_reference_loop(*case)


def test_train_network_equals_reference_loop_with_one_live_unit():
    """A plain 8->3->1 regression net reads one hidden unit and one input.
    NumPy sums a one-column operand's rows pairwise, so a single live column
    over 40 rows would round differently from the same column of the full net.
    """
    spec = NetworkSpec(layers=(LayerSpec("crosswise", 8, 3),
                               LayerSpec("crosswise", 3, 1, "identity")), seed=13)
    rng = CounterRng(13, stream=7)
    data = Dataset(features=rng.uniform(40 * 8, -1, 1).reshape(40, 8),
                   labels=rng.uniform(40, -1, 1), class_count=0)
    _assert_equals_reference_loop(spec, TrainConfig(0.05, 2, 40, "mse", 13), data)


def test_train_network_equals_reference_loop_behind_a_wide_producer():
    """The plain 16->4 head reads 4 of the mixed 1->16 layer's outputs, whose
    input gradient a dense layer reads.  That gradient sums the mixed layer's
    16 blocks, and NumPy sums 8 or more terms pairwise, so a 4-block layer
    would round differently: the producer keeps its blocks."""
    spec = NetworkSpec(layers=(LayerSpec("dense", 1, 1), LayerSpec("crosswise_mixed", 1, 16),
                               LayerSpec("crosswise", 16, 4, "softmax_output")), seed=3)
    features = np.array([[-2.53464189], [-3.90830664], [-3.07489267], [-3.37620497],
                         [3.71995688], [2.62811715], [-2.85281874], [-3.62497634]])
    data = Dataset(features=features, labels=np.array([0, 0, 1, 1, 2, 2, 3, 3]), class_count=4)
    _assert_equals_reference_loop(spec, TrainConfig(0.05, 1, 7, "cross_entropy", 3), data)


# Stacks whose first layer reads the feature matrix in each of the ways
# training does: a dense product, the leading columns of a narrowing plain
# layer, and the fixed stage of a mixed layer, whose rows are then gathered.
LAYOUT_STACKS = {
    "dense-first": (("dense", 32, 32), ("crosswise", 32, 4)),
    "plain-first": (("crosswise", 32, 64), ("crosswise", 64, 4)),
    "mixed-first": (("crosswise_mixed", 30, 32), ("dense", 32, 4)),
}


@pytest.mark.parametrize("batch", (32, 7))
@pytest.mark.parametrize("stack", sorted(LAYOUT_STACKS))
def test_training_does_not_depend_on_the_feature_layout(stack, batch):
    """A C-ordered feature matrix, its Fortran-ordered copy and a column-sliced
    view train to the same model bytes and history (120 rows: batches of 7
    end with a one-row batch)."""
    *hidden, last = LAYOUT_STACKS[stack]
    spec = NetworkSpec(layers=(*(LayerSpec(*layer) for layer in hidden),
                               LayerSpec(*last, "softmax_output")), seed=2)
    dims = spec.layers[0].in_dim
    data = gen_blobs(seed=6, samples_per_class=30, dims=dims, class_count=4, spread=0.5)
    wide = np.zeros((120, dims + 3))
    wide[:, 2 : dims + 2] = data.features
    layouts = (np.ascontiguousarray(data.features), np.asfortranarray(data.features),
               wide[:, 2 : dims + 2])
    runs = set()
    for features in layouts:
        net = build_network(spec)
        history = train_network(net, TrainConfig(0.5, 2, batch, "cross_entropy", 9),
                                Dataset(features, data.labels, 4))
        runs.add((json.dumps(model_to_json(net)),
                  tuple((r.train_loss, r.train_accuracy) for r in history)))
    assert len(runs) == 1
