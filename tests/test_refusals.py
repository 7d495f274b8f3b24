"""Bad values are refused with ParameterError or ShapeError by the call that receives
them, naming the value, instead of failing later as a raw error, a wrong result or a
divergence.  Integers go through `errors.expect_int` (a bool or a fraction is
not an integer), real-valued knobs through `errors.expect_positive` or
`errors.expect_finite`, names through `errors.expect_choice` and array shapes
through `errors.expect_shape`.
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
from crosswise.diagonal import (
    ACTIVATIONS,
    CrosswiseWeights,
    block_count,
    crosswise_backward,
    crosswise_forward,
    init_crosswise,
)
from crosswise.errors import ParameterError, ShapeError, expect_int, expect_positive, expect_shape
from crosswise.features import (
    FeatureMap,
    McKernelBlock,
    apply_zhat,
    feature_map_apply,
    fwht,
    kernel_exact,
    mixing_factors,
    next_power_of_two,
    sample_block,
    sample_feature_map,
)
from crosswise.linalg import invert, pinv_full_rank
from crosswise.network import (
    LAYER_KINDS,
    LOSS_KINDS,
    CrosswiseLayer,
    DenseLayer,
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    build_network,
    loss_eval,
    network_backward,
    network_forward,
    sgd_step,
    train_network,
)
from crosswise.products import hadamard, khatri_rao, verify_identities
from crosswise.rng import CounterRng, derive_seed, mix64, word_at

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
    "mixed-layer-fractional-perm": (
        lambda: CrosswiseLayer(LayerSpec("crosswise_mixed", 4, 3), init_crosswise(0, 4, 3),
                               np.ones(4), [0.9, 1.9, 2.9, 3.9]), "perm"),
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


def matches(shape, pattern):
    """The shape rules as a regular expression over the lengths, written apart from
    `expect_shape`'s matcher: a leading ... is any number of axes, None any length."""
    axes = "".join(r"(\d+,)*" if p is ... else r"\d+," if p is None else f"{p}," for p in pattern)
    return re.fullmatch(axes, "".join(f"{n}," for n in shape)) is not None


SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
# Nestings that NumPy cannot give a shape: rows of unequal length.
RAGGED = st.lists(st.lists(st.floats(-2, 2), max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(row) for row in rows}) > 1)


def shape_other_than(*patterns):
    """Arrays, and the same values as nested lists (a 0-d one is a float), whose shape
    matches none of `patterns`, and ragged nestings.  A list drops the axes after a
    zero-length one, so each list's own shape is checked too."""
    def wrong(value):
        return not any(matches(np.shape(value), p) for p in patterns)

    values = SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=st.floats(-2, 2)))
    return st.one_of(values.filter(wrong), values.map(np.ndarray.tolist).filter(wrong), RAGGED)


BLOCK = sample_block(0, 4, 1.0)
BLOCK_FIELDS = {name: getattr(BLOCK, name) for name in
                ("n", "sigma", "b_signs", "perm", "g_diag", "c_diag", "seed")}
STEP_NET = build_network(NetworkSpec((LayerSpec("dense", 3, 2),), seed=0))
STEP_GRADS = network_backward(STEP_NET, np.ones(3), np.zeros(2), "mse")
MIXED = build_network(NetworkSpec((LayerSpec("crosswise_mixed", 3, 5),), seed=2)).layers[0]
WEIGHTS = init_crosswise(0, 4, 3)  # 4 inputs, 3 outputs
FEATURE_MAP = FeatureMap((BLOCK,), 4)
CURSOR = CounterRng(5, stream=6)  # each draw from it below refuses its value
STEP_DATA = Dataset(np.zeros((1, 3)), np.zeros(1), 0)
# Permutations of 0..3 written with other than integers, each of which NumPy would cast
# to one: fractions, float arrays, strings, and bools for 0 and 1.
NOT_INTEGER_PERMS = st.permutations(range(4)).flatmap(lambda p: st.sampled_from((
    [v + 0.5 for v in p], np.array(p, dtype=np.float64), [str(v) for v in p],
    [v == 1 if v < 2 else v for v in p], np.array(p) < 2)))
# 2-D features whose width is not STEP_NET's 3 inputs, in datasets that are otherwise fine.
NARROW_OR_WIDE = st.tuples(st.integers(1, 3), st.integers(0, 5).filter(lambda w: w != 3)).map(
    lambda shape: Dataset(np.zeros(shape), np.zeros(shape[0]), 0))

# Argument: (the call with the bad value in its place, the name its refusal
# starts with, the documented error, the bad values).
ARGUMENTS = {
    "LayerSpec kind": (lambda v: LayerSpec(v, 3, 3), "kind", ParameterError,
                       not_one_of(LAYER_KINDS)),
    "LayerSpec in_dim": (lambda v: LayerSpec("dense", v, 3), "in_dim", ParameterError,
                         below(1)),
    "LayerSpec out_dim": (lambda v: LayerSpec("dense", 3, v), "out_dim", ParameterError,
                          below(1)),
    "LayerSpec activation": (lambda v: LayerSpec("dense", 3, 3, v), "activation",
                             ParameterError, not_one_of(ACTIVATIONS)),
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
                           ShapeError, shape_other_than((4,))),
    "CrosswiseWeights b": (lambda v: CrosswiseWeights(4, 4, 1, np.zeros(4), v), "bias",
                           ShapeError, shape_other_than((4,))),
    "crosswise_forward x": (lambda v: crosswise_forward(WEIGHTS, v), "crosswise input",
                            ShapeError, shape_other_than((..., 4))),
    "crosswise_backward x": (lambda v: crosswise_backward(WEIGHTS, v, np.zeros(3)),
                             "crosswise input", ShapeError, shape_other_than((..., 4))),
    "crosswise_backward upstream": (lambda v: crosswise_backward(WEIGHTS, np.zeros(4), v),
                                    "upstream", ShapeError, shape_other_than((3,))),
    "crosswise_backward out": (
        lambda v: crosswise_backward(WEIGHTS, np.zeros(4), np.zeros(3), out=v),
        "crosswise output", ShapeError, shape_other_than((..., 3))),
    "DenseLayer w": (lambda v: DenseLayer(LayerSpec("dense", 3, 2), v, np.zeros(2)),
                     "dense weights", ShapeError, shape_other_than((2, 3))),
    "DenseLayer b": (lambda v: DenseLayer(LayerSpec("dense", 3, 2), np.zeros((2, 3)), v),
                     "dense bias", ShapeError, shape_other_than((2,))),
    "DenseLayer.forward x": (lambda v: STEP_NET.layers[0].forward(v), "dense input",
                             ShapeError, shape_other_than((..., 3))),
    "CrosswiseLayer.stage x": (MIXED.stage, "stage input", ShapeError,
                               shape_other_than((..., 3))),
    "network_forward x": (lambda v: network_forward(STEP_NET, v), "layer 0 input", ShapeError,
                          shape_other_than((..., 3))),
    "network_backward x": (lambda v: network_backward(STEP_NET, v, np.zeros(2), "mse"),
                           "layer 0 input", ShapeError, shape_other_than((..., 3))),
    "network_backward target": (lambda v: network_backward(STEP_NET, np.ones(3), v, "mse"),
                                "target", ShapeError, shape_other_than((2,))),
    "loss_eval prediction": (lambda v: loss_eval("mse", v, v), "prediction", ShapeError,
                             shape_other_than((..., None))),
    "loss_eval target": (lambda v: loss_eval("mse", np.zeros(2), v), "target", ShapeError,
                         shape_other_than((2,))),
    "train_network threads": (
        lambda v: train_network(STEP_NET, TrainConfig(0.1, 0, 1, "mse", 0), STEP_DATA, v),
        "threads", ParameterError, below(1)),
    "train_network data": (lambda v: train_network(STEP_NET, TrainConfig(0.1, 1, 1, "mse", 0), v),
                           "dataset features", ShapeError, NARROW_OR_WIDE),
    "khatri_rao a": (lambda v: khatri_rao(v, np.zeros((2, 3))), "khatri_rao a", ShapeError,
                     shape_other_than((None, None))),
    "khatri_rao b": (lambda v: khatri_rao(np.zeros((2, 3)), v), "khatri_rao b", ShapeError,
                     shape_other_than((None, 3))),
    "hadamard a": (lambda v: hadamard(v, np.zeros((2, 3))), "hadamard a", ShapeError,
                   shape_other_than((None, None))),
    "hadamard b": (lambda v: hadamard(np.zeros((2, 3)), v), "hadamard b", ShapeError,
                   shape_other_than((2, 3))),
    "invert m": (invert, "invert matrix", ShapeError,
                 shape_other_than(*((n, n) for n in range(5)))),
    "pinv_full_rank m": (pinv_full_rank, "pinv_full_rank matrix", ShapeError,
                         shape_other_than((None, None))),
    "FeatureMap blocks": (lambda v: FeatureMap(v, 4), "feature map blocks", ParameterError,
                          not_a_list_of(*STEP_NET.layers, *STEP_NET.spec.layers)),
    "FeatureMap input_dim": (lambda v: FeatureMap((BLOCK,), v), "input dimension",
                             ParameterError, below(1)),
    "Dataset features": (lambda v: Dataset(v, np.zeros(2), 0), "features", ShapeError,
                         shape_other_than((None, None))),
    "Dataset labels": (lambda v: Dataset(np.zeros((2, 2)), v, 0), "labels", ShapeError,
                       shape_other_than((2,))),
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
    "kernel_exact x": (lambda v: kernel_exact(v, np.ones(2), 1.0), "kernel input x", ShapeError,
                       shape_other_than((None,))),
    "kernel_exact y": (lambda v: kernel_exact(np.ones(2), v, 1.0), "kernel input y", ShapeError,
                       shape_other_than((2,))),
    "fwht v": (fwht, "fwht input", ShapeError, shape_other_than((..., None))),
    "mixing_factors signs": (lambda v: mixing_factors(v, np.arange(4), 4), "signs", ShapeError,
                             shape_other_than((4,))),
    "mixing_factors perm": (lambda v: mixing_factors(np.ones(4), v, 4), "perm", ShapeError,
                            shape_other_than((None,))),
    "mixing_factors perm entries": (lambda v: mixing_factors(np.ones(4), v, 4), "perm",
                                    ParameterError, NOT_INTEGER_PERMS),
    "McKernelBlock b_signs": (lambda v: McKernelBlock(**{**BLOCK_FIELDS, "b_signs": v}), "signs",
                              ShapeError, shape_other_than((4,))),
    "McKernelBlock g_diag": (lambda v: McKernelBlock(**{**BLOCK_FIELDS, "g_diag": v}), "g_diag",
                             ShapeError, shape_other_than((4,))),
    "McKernelBlock c_diag": (lambda v: McKernelBlock(**{**BLOCK_FIELDS, "c_diag": v}), "c_diag",
                             ShapeError, shape_other_than((4,))),
    "apply_zhat x": (lambda v: apply_zhat(BLOCK, v), "zhat input", ShapeError,
                     shape_other_than((..., None))),
    "feature_map_apply x": (lambda v: feature_map_apply(FEATURE_MAP, v), "feature map input",
                            ShapeError, shape_other_than((..., 4))),
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
    "mix64 z": (mix64, "word", ParameterError, NOT_INTEGERS),
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


# A refused `out`: (the call, the name its refusal starts with).
BAD_OUTS = {
    "words float64 out": (lambda: CURSOR.words(3, out=np.empty(3)), "words out"),
    "words short out": (lambda: CURSOR.words(3, out=np.empty(2, np.uint64)), "words out"),
    "words long out": (lambda: CURSOR.words(3, out=np.empty(4, np.uint64)), "words out"),
    "words 2-D out": (lambda: CURSOR.words(3, out=np.empty((1, 3), np.uint64)), "words out"),
    "words list out": (lambda: CURSOR.words(1, out=[0]), "words out"),
    "words read-only out": (lambda: CURSOR.words(3, out=_read_only(3)), "words out"),
    "draw float32 out": (lambda: CounterRng(2).normal_pairs(10)(
        0, 3, out=np.empty((2, 3), np.float32)), "draw out"),
    "draw short out": (lambda: CounterRng(2).normal_pairs(10)(0, 3, out=np.empty((2, 2))),
                       "draw out"),
    "draw uint64 out": (lambda: CounterRng(2).normal_pairs(10)(
        0, 3, out=np.empty((2, 3), np.uint64)), "draw out"),
}


def _read_only(size):
    out = np.empty(size, np.uint64)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("case", BAD_OUTS)
def test_a_refused_out_draws_no_word(case):
    """A wrong `out` for words or a normal_pairs draw is a ShapeError, raised before any
    word is drawn: the cursor has not moved."""
    call, name = BAD_OUTS[case]
    position = CURSOR._counter
    with _recorded_draws() as drawn, pytest.raises(ShapeError, match=rf"^{re.escape(name)} must "):
        call()
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
    with pytest.raises(ParameterError, match=r"perm must be a permutation of 0\.\.3"):
        McKernelBlock(**{**BLOCK_FIELDS, "perm": BLOCK.perm[:3]})
    with pytest.raises(ParameterError, match=r"signs entries must be \+1 or -1"):
        McKernelBlock(**{**BLOCK_FIELDS, "b_signs": np.array([1.0, -1.0, 0.5, 1.0])})
    with pytest.raises(ShapeError, match=r"signs must have shape \(4,\), got shape \(3,\)"):
        McKernelBlock(**{**BLOCK_FIELDS, "b_signs": np.ones(3)})


PATTERNS = st.tuples(st.booleans(), st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=3))


@settings(max_examples=300, deadline=None)
@given(shape=array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
       lead_and_entries=PATTERNS, as_list=st.booleans())
def test_expect_shape_follows_the_pattern_rules(shape, lead_and_entries, as_list):
    """A leading ... matches any number of leading axes, None any length and an integer
    that length only.  A match returns the array itself (a list converted), else ShapeError."""
    lead, entries = lead_and_entries
    pattern = (...,) * lead + tuple(entries)
    array = np.zeros(shape)
    value = array.tolist() if as_list else array
    if matches(np.shape(value), pattern):
        got = expect_shape(value, pattern, "v")
        assert got.shape == np.shape(value) and (as_list or got is array)
    else:
        with pytest.raises(ShapeError, match=rf"^v must have shape \(.*\), got shape "
                                             rf"{re.escape(str(np.shape(value)))}$"):
            expect_shape(value, pattern, "v")


@pytest.mark.parametrize("value, pattern, message", [
    (np.zeros((2, 3)), (..., 4), "(..., 4), got shape (2, 3)"),
    (np.zeros(3), (None, 3), "(None, 3), got shape (3,)"),
    (1.5, (1,), "(1,), got shape ()"),
    ([[0.0], [0.0, 1.0]], (None, None), "(None, None), got a ragged nesting"),
    ([[0.0, [1.0]]], (..., None), "(..., None), got a ragged nesting"),
])
def test_expect_shape_names_the_pattern_and_what_it_got(value, pattern, message):
    with pytest.raises(ShapeError) as refused:
        expect_shape(value, pattern, "the input")
    assert str(refused.value) == f"the input must have shape {message}"


def _bytes(result):
    return [np.asarray(r).tobytes() for r in (result if isinstance(result, tuple) else (result,))]


_NORMALS = CounterRng(12, stream=3)
_A, _B, _X, _UP = (_NORMALS.normal(rows * cols).reshape(rows, cols)
                   for rows, cols in ((4, 3), (2, 3), (5, 4), (5, 3)))
_SQUARE = _NORMALS.normal(9).reshape(3, 3) + 3.0 * np.eye(3)


def _dense_layer(w, b, x):
    layer = DenseLayer(LayerSpec("dense", 4, 3), w, b)
    return layer.w, layer.b, layer.forward(x)[0]


# Function: (a call, the arrays it is given).  These raised AttributeError on nested lists.
NESTED = {
    "khatri_rao": (khatri_rao, (_A, _B)),
    "hadamard": (hadamard, (_B, _B[::-1])),
    "invert": (invert, (_SQUARE,)),
    "pinv_full_rank": (pinv_full_rank, (_A,)),
    "DenseLayer": (_dense_layer, (_X[:3], _A[0], _X)),
    "CrosswiseLayer.stage": (MIXED.stage, (_X[:, :3],)),
    "crosswise_forward": (lambda x: crosswise_forward(WEIGHTS, x), (_X,)),
    "crosswise_backward": (lambda x, up, out: crosswise_backward(WEIGHTS, x, up, out=out),
                           (_X, _UP, crosswise_forward(WEIGHTS, _X))),
}


@pytest.mark.parametrize("function", NESTED)
def test_a_right_shaped_nested_list_gives_the_bytes_of_the_array(function):
    call, given_arrays = NESTED[function]
    assert _bytes(call(*(a.tolist() for a in given_arrays))) == _bytes(call(*given_arrays))
