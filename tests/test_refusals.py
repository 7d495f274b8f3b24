"""Bad values are refused with ParameterError by the call that receives them,
naming the value, instead of failing later as a raw error, a wrong result or a
divergence.  Integers go through `errors.expect_int` (a bool or a fraction is
not an integer), real-valued knobs through `errors.expect_positive` or
`errors.expect_finite` and names through `errors.expect_choice`.
"""

import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crosswise.datasets import Dataset, gen_blobs, gen_xor
from crosswise.diagonal import CrosswiseWeights, block_count, init_crosswise
from crosswise.errors import ParameterError, ShapeError, expect_int, expect_positive
from crosswise.features import (
    FeatureMap,
    McKernelBlock,
    kernel_exact,
    next_power_of_two,
    sample_block,
    sample_feature_map,
)
from crosswise.network import (
    LAYER_KINDS,
    LOSS_KINDS,
    NETWORK_ACTIVATIONS,
    CrosswiseLayer,
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    build_network,
    network_backward,
    sgd_step,
)
from crosswise.products import verify_identities
from crosswise.rng import CounterRng, derive_seed, word_at

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
    "word-fractional-seed": (lambda: word_at(2.5, 0, 0), "seed"),
    "word-fractional-stream": (lambda: word_at(1, 0.5, 0), "stream"),
    "word-fractional-counter": (lambda: word_at(1, 0, 0.5), "counter"),
    "word-bool-counter": (lambda: word_at(1, 0, True), "counter"),
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


# Bad values, drawn by hypothesis.  Not numbers at all: bools, strings, None and
# arrays of any rank (a NumPy bool is not an integer either).
NOT_NUMBERS = st.one_of(st.booleans(), st.just(np.True_), st.text(max_size=3), st.none(),
                        arrays(st.sampled_from((np.float64, np.int64)),
                               array_shapes(min_dims=0, max_dims=2, max_side=2)))
# Fractions, whole floats, NaN and +-inf, as Python and as NumPy floats.
NOT_INTEGERS = st.one_of(st.floats(), st.floats().map(np.float64), NOT_NUMBERS)
NOT_FINITE = st.one_of(st.sampled_from((math.nan, math.inf, -math.inf)), NOT_NUMBERS)
NOT_POSITIVE = st.one_of(NOT_FINITE, st.floats(max_value=0.0, allow_nan=False),
                         st.integers(max_value=0))
NEGATIVE = st.one_of(NOT_FINITE, st.floats(max_value=-math.ulp(0.0), allow_nan=False),
                     st.integers(max_value=-1))


def below(low):
    """Not an integer, or an integer < low."""
    return st.one_of(NOT_INTEGERS, st.integers(max_value=low - 1))


def not_one_of(choices):
    return st.one_of(NOT_INTEGERS, st.integers()).filter(lambda v: not isinstance(v, str) or
                                                         v not in choices)


def not_a_list_of(*wrong_items):
    """Not a list or tuple (a string is neither), or a list holding something else."""
    items = st.one_of(st.integers(), st.floats(), st.none(), st.sampled_from(wrong_items))
    return st.one_of(NOT_INTEGERS, st.lists(items, min_size=1, max_size=3),
                     st.lists(items, min_size=1, max_size=3).map(tuple))


def rank_other_than(rank):
    return arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=3)).filter(
        lambda a: a.ndim != rank)


BLOCK = sample_block(0, 4, 1.0)
STEP_NET = build_network(NetworkSpec((LayerSpec("dense", 3, 2),), seed=0))
STEP_GRADS = network_backward(STEP_NET, np.ones(3), np.zeros(2), "mse")
CURSOR = CounterRng(5, stream=6)  # each draw from it below refuses its value

# Argument: (the call with the bad value in its place, the name its refusal
# starts with, the documented error, the bad values).
ARGUMENTS = {
    "LayerSpec kind": (lambda v: LayerSpec(v, 3, 3), "layer kind", ParameterError,
                       not_one_of(LAYER_KINDS)),
    "LayerSpec in_dim": (lambda v: LayerSpec("dense", v, 3), "layer in_dim", ParameterError,
                         below(1)),
    "LayerSpec out_dim": (lambda v: LayerSpec("dense", 3, v), "layer out_dim", ParameterError,
                          below(1)),
    "LayerSpec activation": (lambda v: LayerSpec("dense", 3, 3, v), "activation",
                             ParameterError, not_one_of(NETWORK_ACTIVATIONS)),
    "NetworkSpec layers": (lambda v: NetworkSpec(v, 0), "network layers", ParameterError,
                           not_a_list_of(*STEP_NET.layers, BLOCK)),
    "NetworkSpec seed": (lambda v: NetworkSpec(STEP_NET.spec.layers, v), "network seed",
                         ParameterError, NOT_INTEGERS),
    "Network layers": (lambda v: Network(v), "network layers", ParameterError,
                       not_a_list_of(*STEP_NET.spec.layers, BLOCK)),
    "Network seed": (lambda v: Network(STEP_NET.layers, v), "network seed", ParameterError,
                     NOT_INTEGERS),
    "TrainConfig learning_rate": (lambda v: TrainConfig(v, 1, 4, "mse", 0), "learning_rate",
                                  ParameterError, NOT_POSITIVE),
    "TrainConfig epochs": (lambda v: TrainConfig(0.1, v, 4, "mse", 0), "epochs",
                           ParameterError, below(0)),
    "TrainConfig batch_size": (lambda v: TrainConfig(0.1, 1, v, "mse", 0), "batch_size",
                               ParameterError, below(1)),
    "TrainConfig loss": (lambda v: TrainConfig(0.1, 1, 4, v, 0), "loss", ParameterError,
                         not_one_of(LOSS_KINDS)),
    "TrainConfig seed": (lambda v: TrainConfig(0.1, 1, 4, "mse", v), "seed", ParameterError,
                         NOT_INTEGERS),
    "CrosswiseWeights in_dim": (lambda v: CrosswiseWeights(v, 4, 1, np.zeros(4), np.zeros(4)),
                                "N", ParameterError, below(1)),
    "CrosswiseWeights out_dim": (lambda v: CrosswiseWeights(4, v, 1, np.zeros(4), np.zeros(4)),
                                 "M", ParameterError, below(1)),
    "CrosswiseWeights k": (lambda v: CrosswiseWeights(4, 4, v, np.zeros(4), np.zeros(4)), "k",
                           ParameterError, st.one_of(NOT_INTEGERS, st.integers().filter(
                               lambda k: k != 1))),
    "CrosswiseWeights c": (lambda v: CrosswiseWeights(4, 4, 1, v, np.zeros(4)), "coefficients",
                           ShapeError, rank_other_than(1)),
    "CrosswiseWeights b": (lambda v: CrosswiseWeights(4, 4, 1, np.zeros(4), v), "bias",
                           ShapeError, rank_other_than(1)),
    "FeatureMap blocks": (lambda v: FeatureMap(v, 4), "feature map blocks", ParameterError,
                          not_a_list_of(*STEP_NET.layers, *STEP_NET.spec.layers)),
    "FeatureMap input_dim": (lambda v: FeatureMap((BLOCK,), v), "input dimension",
                             ParameterError, below(1)),
    "Dataset features": (lambda v: Dataset(v, np.zeros(2), 0), "features", ShapeError,
                         rank_other_than(2)),
    "Dataset labels": (lambda v: Dataset(np.zeros((2, 2)), v, 0), "labels", ShapeError,
                       rank_other_than(1)),
    "Dataset class_count": (lambda v: Dataset(np.zeros((2, 2)), np.array([0, 1]), v),
                            "class_count", ParameterError, below(0)),
    "block_count in_dim": (lambda v: block_count(v, 3), "N", ParameterError, below(1)),
    "block_count out_dim": (lambda v: block_count(3, v), "M", ParameterError, below(1)),
    "next_power_of_two d": (next_power_of_two, "dimension", ParameterError, below(1)),
    "gen_blobs seed": (lambda v: gen_blobs(v, 2, 2, 2, 0.5), "seed", ParameterError,
                       NOT_INTEGERS),
    "gen_blobs samples_per_class": (lambda v: gen_blobs(0, v, 2, 2, 0.5), "samples_per_class",
                                    ParameterError, below(1)),
    "gen_blobs dims": (lambda v: gen_blobs(0, 2, v, 2, 0.5), "dims", ParameterError, below(1)),
    "gen_blobs class_count": (lambda v: gen_blobs(0, 2, 2, v, 0.5), "class_count",
                              ParameterError, below(1)),
    "gen_blobs spread": (lambda v: gen_blobs(0, 2, 2, 2, v), "spread", ParameterError, NEGATIVE),
    "gen_xor seed": (lambda v: gen_xor(v, 8, 0.1), "seed", ParameterError, NOT_INTEGERS),
    "gen_xor samples": (lambda v: gen_xor(0, v, 0.1), "samples", ParameterError, below(4)),
    "gen_xor noise": (lambda v: gen_xor(0, 8, v), "noise", ParameterError, NEGATIVE),
    "verify_identities seed": (lambda v: verify_identities(v, 3, 1), "seed", ParameterError,
                               NOT_INTEGERS),
    "verify_identities max_dim": (lambda v: verify_identities(0, v, 1), "max_dim",
                                  ParameterError, st.one_of(NOT_INTEGERS, st.integers().filter(
                                      lambda d: not 2 <= d <= 8))),
    "verify_identities draws": (lambda v: verify_identities(0, 3, v), "draws", ParameterError,
                                below(1)),
    "kernel_exact x": (lambda v: kernel_exact(v, np.ones(2), 1.0), "kernel inputs", ShapeError,
                       rank_other_than(1)),
    "kernel_exact sigma": (lambda v: kernel_exact(np.zeros(2), np.ones(2), v), "sigma",
                           ParameterError, NOT_POSITIVE),
    "sample_block seed": (lambda v: sample_block(v, 4, 1.0), "seed", ParameterError,
                          NOT_INTEGERS),
    "sample_block d": (lambda v: sample_block(0, v, 1.0), "dimension", ParameterError, below(1)),
    "sample_block sigma": (lambda v: sample_block(0, 4, v), "sigma", ParameterError,
                           NOT_POSITIVE),
    "sample_feature_map seed": (lambda v: sample_feature_map(v, 4, 1.0, 2), "seed",
                                ParameterError, NOT_INTEGERS),
    "sample_feature_map d": (lambda v: sample_feature_map(0, v, 1.0, 2), "dimension",
                             ParameterError, below(1)),
    "sample_feature_map sigma": (lambda v: sample_feature_map(0, 4, v, 2), "sigma",
                                 ParameterError, NOT_POSITIVE),
    "sample_feature_map block_count": (lambda v: sample_feature_map(0, 4, 1.0, v), "block_count",
                                       ParameterError, below(1)),
    "init_crosswise seed": (lambda v: init_crosswise(v, 4, 4), "seed", ParameterError,
                            NOT_INTEGERS),
    "init_crosswise in_dim": (lambda v: init_crosswise(0, v, 4), "N", ParameterError, below(1)),
    "init_crosswise out_dim": (lambda v: init_crosswise(0, 4, v), "M", ParameterError, below(1)),
    "sgd_step learning_rate": (lambda v: sgd_step(STEP_NET, STEP_GRADS, v), "learning_rate",
                               ParameterError, NEGATIVE),
    "CounterRng seed": (CounterRng, "seed", ParameterError, NOT_INTEGERS),
    "CounterRng stream": (lambda v: CounterRng(1, v), "stream", ParameterError, NOT_INTEGERS),
    "CounterRng.words count": (CURSOR.words, "word count", ParameterError, below(0)),
    "CounterRng.uniform count": (CURSOR.uniform, "word count", ParameterError, below(0)),
    "CounterRng.uniform low": (lambda v: CURSOR.uniform(3, v, 1.0), "low", ParameterError,
                               NOT_FINITE),
    "CounterRng.uniform high": (lambda v: CURSOR.uniform(3, 0.0, v), "high", ParameterError,
                                NOT_FINITE),
    "CounterRng.normal count": (CURSOR.normal, "normal count", ParameterError, below(0)),
    "CounterRng.normal_pairs count": (CURSOR.normal_pairs, "normal count", ParameterError,
                                      below(0)),
    "CounterRng.rademacher count": (CURSOR.rademacher, "word count", ParameterError, below(0)),
    "CounterRng.integers count": (lambda v: CURSOR.integers(v, 0, 3), "word count",
                                  ParameterError, below(0)),
    "CounterRng.integers low": (lambda v: CURSOR.integers(3, v, 3), "low", ParameterError,
                                NOT_INTEGERS),
    "CounterRng.integers high": (lambda v: CURSOR.integers(3, 0, v), "high", ParameterError,
                                 st.one_of(NOT_INTEGERS, st.integers(max_value=0))),
    "CounterRng.permutation n": (CURSOR.permutation, "permutation length", ParameterError,
                                 below(0)),
    "derive_seed seed": (lambda v: derive_seed(v, 1), "seed", ParameterError, NOT_INTEGERS),
    "derive_seed label": (lambda v: derive_seed(1, v), "label", ParameterError, NOT_INTEGERS),
    "word_at seed": (lambda v: word_at(v, 0, 0), "seed", ParameterError, NOT_INTEGERS),
    "word_at stream": (lambda v: word_at(0, v, 0), "stream", ParameterError, NOT_INTEGERS),
    "word_at counter": (lambda v: word_at(0, 0, v), "counter", ParameterError, NOT_INTEGERS),
}


@contextmanager
def _recorded_draws():
    """The words that any `CounterRng` draws while the block runs."""
    drawn, words = [], CounterRng.words

    def recorded(rng, count, out=None):
        drawn.append(words(rng, count, out))  # a refused count draws nothing
        return drawn[-1]

    CounterRng.words = recorded
    try:
        yield drawn
    finally:
        CounterRng.words = words


@pytest.mark.parametrize("argument", ARGUMENTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_argument_refuses_its_bad_values_before_any_draw(argument, data):
    """The call that receives a bad value raises the documented error, whose
    message starts with the argument's name, before any generator draws a word."""
    call, name, error, bad = ARGUMENTS[argument]
    value, position = data.draw(bad, label=argument), CURSOR._counter
    with _recorded_draws() as drawn, pytest.raises(error, match=rf"^{re.escape(name)} must "):
        call(value)
    assert drawn == [] and CURSOR._counter == position


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
    "none-for-a-layer": (lambda g: [None, g[1]], r"layer 0 gradients must be a dict"),
    "nested-list-for-an-array": (
        lambda g: [{**g[0], "w": g[0]["w"].tolist()}, g[1]], r"layer 0 grad 'w' has type list"),
    "list-after-a-good-layer": (
        lambda g: [g[0], {**g[1], "c": g[1]["c"].tolist()}], r"layer 1 grad 'c' has type list"),
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


def test_word_at_takes_numpy_integers_as_their_values():
    """They were a raw OverflowError: a 64-bit constant times a NumPy integer."""
    assert word_at(np.uint64(12345), np.int8(-3), np.int64(9)) == word_at(12345, -3, 9)


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
