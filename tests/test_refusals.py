"""Bad values are refused with ParameterError by the call that receives them,
naming the value, instead of failing later as a raw error, a wrong result or a
divergence.  Integers go through `errors.expect_int` (a bool or a fraction is
not an integer) and real-valued knobs through `errors.expect_positive`.
"""

import math

import numpy as np
import pytest

from crosswise.datasets import Dataset, gen_blobs, gen_xor
from crosswise.diagonal import CrosswiseWeights, block_count, init_crosswise
from crosswise.errors import ParameterError, ShapeError, expect_int, expect_positive
from crosswise.features import (
    FeatureMap,
    McKernelBlock,
    kernel_exact,
    next_power_of_two,
    sample_block,
)
from crosswise.network import (
    CrosswiseLayer,
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    build_network,
    network_backward,
    sgd_step,
)
from crosswise.products import verify_identities
from crosswise.rng import CounterRng, derive_seed

# (call, a word its message must hold).
REFUSED = {
    "layer-fractional-in": (lambda: LayerSpec("dense", 2.5, 3), "in_dim"),
    "layer-bool-in": (lambda: LayerSpec("crosswise", True, 3), "in_dim"),
    "layer-fractional-out": (lambda: LayerSpec("crosswise_mixed", 3, 2.0), "out_dim"),
    "train-fractional-epochs": (lambda: TrainConfig(0.1, 2.5, 4, "mse", 0), "epochs"),
    "train-fractional-batch": (lambda: TrainConfig(0.1, 2, 2.5, "mse", 0), "batch_size"),
    "train-infinite-rate": (lambda: TrainConfig(math.inf, 1, 4, "mse", 0), "learning_rate"),
    "train-fractional-seed": (lambda: TrainConfig(0.1, 1, 4, "mse", 2.5), "seed"),
    "network-fractional-seed": (
        lambda: NetworkSpec((LayerSpec("dense", 2, 1, "identity"),), seed=1.5), "seed"),
    "weights-fractional-k": (
        lambda: CrosswiseWeights(4, 8, 2.0, np.zeros(8), np.zeros(8)), "k"),
    "block-count-zero-inputs": (lambda: block_count(0, 3), "N"),
    "block-count-zero-outputs": (lambda: block_count(3, 0), "M"),
    "power-of-two-zero": (lambda: next_power_of_two(0), "dimension"),
    "power-of-two-negative": (lambda: next_power_of_two(-3), "dimension"),
    "feature-map-fractional-dim": (
        lambda: FeatureMap(blocks=(sample_block(0, 4, 1.0),), input_dim=3.5), "input dimension"),
    "kernel-infinite-sigma": (lambda: kernel_exact(np.zeros(2), np.ones(2), math.inf), "sigma"),
    "blobs-fractional-dims": (lambda: gen_blobs(0, 5, 2.5, 2, 0.3), "dims"),
    "blobs-infinite-spread": (lambda: gen_blobs(0, 5, 2, 2, math.inf), "spread"),
    "xor-fractional-samples": (lambda: gen_xor(0, 8.5, 0.1), "samples"),
    "xor-nan-noise": (lambda: gen_xor(0, 8, math.nan), "noise"),
    "dataset-fractional-classes": (
        lambda: Dataset(np.zeros((2, 2)), np.array([0, 1]), 1.5), "class_count"),
    "identities-fractional-draws": (lambda: verify_identities(0, 4, 1.5), "draws"),
    "rng-fractional-seed": (lambda: CounterRng(2.5).words(2), "seed"),
    "rng-bool-seed": (lambda: CounterRng(True), "seed"),
    "rng-fractional-stream": (lambda: CounterRng(1, stream=1.5).words(1), "stream"),
    "rng-fractional-low": (lambda: CounterRng(1).integers(5, 0.5, 3), "low"),
    "rng-fractional-high": (lambda: CounterRng(1).integers(5, 0, 3.5), "high"),
    "derive-fractional-seed": (lambda: derive_seed(2.5, 1), "seed"),
    "derive-fractional-label": (lambda: derive_seed(1, 0.5), "label"),
    "plain-layer-given-a-stage": (
        lambda: CrosswiseLayer(LayerSpec("crosswise", 4, 3), init_crosswise(0, 4, 3),
                               np.ones(4), np.arange(4)), "crosswise_mixed"),
    "mixed-layer-without-a-stage": (
        lambda: CrosswiseLayer(LayerSpec("crosswise_mixed", 4, 3), init_crosswise(0, 4, 3)),
        "crosswise_mixed"),
    "mixed-layer-without-perm": (
        lambda: CrosswiseLayer(LayerSpec("crosswise_mixed", 4, 3), init_crosswise(0, 4, 3),
                               np.ones(4)), "crosswise_mixed"),
    "dense-spec-as-a-diagonal-layer": (
        lambda: CrosswiseLayer(LayerSpec("dense", 4, 3), init_crosswise(0, 4, 3)), "dense"),
}


@pytest.mark.parametrize("call, word", REFUSED.values(), ids=REFUSED.keys())
def test_bad_value_refused_where_it_arrives(call, word):
    with pytest.raises(ParameterError, match=word):
        call()


def test_sgd_step_refuses_a_non_finite_rate_before_any_write():
    net = build_network(NetworkSpec((LayerSpec("crosswise_mixed", 3, 5, "relu"),), seed=2))
    grads = network_backward(net, np.ones(3), np.zeros(5), "mse")
    before = [p.copy() for layer in net.layers for p in layer.params().values()]
    for rate in (math.nan, math.inf, -0.1):
        with pytest.raises(ParameterError, match="learning_rate"):
            sgd_step(net, grads, rate)
    after = [p for layer in net.layers for p in layer.params().values()]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)


def _dense_into_mixed():
    """A dense 3->4 layer into a 4->4 crosswise_mixed one, and one backward's gradients."""
    net = build_network(NetworkSpec((LayerSpec("dense", 3, 4), LayerSpec("crosswise_mixed", 4, 4)),
                                    seed=7))
    return net, network_backward(net, np.ones((2, 3)), np.zeros((2, 4)), "mse")


# A malformed step for the network of `_dense_into_mixed`, and a word of the refusal.
MALFORMED_STEPS = {
    "first-layer-missing-b": (lambda g: [{"w": g[0]["w"]}, g[1]], r"layer 0 .*'b'"),
    "first-layer-empty": (lambda g: [{}, g[1]], r"layer 0 .*'w'"),
    "short-c-after-a-good-layer": (
        lambda g: [g[0], {"c": np.zeros(3), "b": g[1]["b"]}], r"layer 1 grad 'c' has shape \(3,\)"),
    "gradient-for-the-fixed-stage": (
        lambda g: [g[0], {**g[1], "signs": np.zeros(4)}], r"layer 1 .*'signs'"),
}


@pytest.mark.parametrize("malformed, message", MALFORMED_STEPS.values(),
                         ids=MALFORMED_STEPS.keys())
def test_sgd_step_refuses_a_malformed_step_before_any_write(malformed, message):
    net, grads = _dense_into_mixed()
    before = [p.copy() for layer in net.layers for p in layer.params().values()]
    with pytest.raises(ShapeError, match=message):
        sgd_step(net, malformed(grads), 0.1)
    after = [p for layer in net.layers for p in layer.params().values()]
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()


def test_rng_takes_numpy_integers_as_their_values():
    assert CounterRng(np.int64(7), stream=np.uint8(2)).words(3).tolist() == \
        CounterRng(7, stream=2).words(3).tolist()
    assert derive_seed(np.uint64(12345), np.int32(3)) == derive_seed(12345, 3)
    assert CounterRng(1).integers(4, np.int64(2), np.int16(9)).tolist() == \
        CounterRng(1).integers(4, 2, 9).tolist()


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_expect_int_takes_numpy_integers(value):
    assert expect_int(value, "count", ParameterError, 1) == 3
    assert type(expect_int(value, "count", ParameterError, 1)) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "2", None, 0])
def test_expect_int_refuses_with_the_given_error_naming_the_value(value):
    with pytest.raises(ParameterError, match=repr(value)):
        expect_int(value, "count", ParameterError, 1)


@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, -math.inf, True, "1", None])
def test_expect_positive_refuses_all_but_finite_positive_numbers(value):
    with pytest.raises(ParameterError):
        expect_positive(value, "rate")


def test_expect_positive_takes_finite_positive_numbers_and_zero_only_when_asked():
    for value in (0.5, 2, np.float64(1e-300), np.int64(7)):
        expect_positive(value, "rate")
    expect_positive(0.0, "rate", zero=True)
    with pytest.raises(ParameterError, match=r"rate must be >= 0 and finite, got -0\.5"):
        expect_positive(-0.5, "rate", zero=True)


def test_mckernel_block_refuses_bad_factors_with_the_factor_check():
    block = sample_block(0, 4, 1.0)
    fields = dict(n=block.n, sigma=block.sigma, b_signs=block.b_signs, perm=block.perm,
                  g_diag=block.g_diag, c_diag=block.c_diag, seed=block.seed)
    with pytest.raises(ParameterError, match=r"perm must be a permutation of 0\.\.3"):
        McKernelBlock(**{**fields, "perm": block.perm[:3]})
    with pytest.raises(ParameterError, match=r"signs entries must be \+1 or -1"):
        McKernelBlock(**{**fields, "b_signs": np.array([1.0, -1.0, 0.5, 1.0])})
    with pytest.raises(ShapeError, match=r"signs must have length 4"):
        McKernelBlock(**{**fields, "b_signs": np.ones(3)})
