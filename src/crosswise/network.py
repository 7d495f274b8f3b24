"""Networks of dense and diagonal-weight layers: forward, backprop, SGD.

Layer kinds:

* ``dense`` — full weight matrix, ``out = act(W x + b)``.
* ``crosswise`` — learned diagonal coefficients only (see `diagonal`).
* ``crosswise_mixed`` — the crosswise layer behind a fixed, non-learned mixing
  stage (sign-flip diagonal, Walsh-Hadamard transform, seeded permutation,
  scaled by 1/sqrt(pad) so the stage is an isometry).  Both diagonal kinds are
  one class, `CrosswiseLayer`, whose stage is absent or `(signs, perm)`: it
  runs `features.mix`, which the feature map runs too, then the scale.  Only
  the diagonal coefficients and biases are learned, so the parameter count
  matches the plain crosswise layer on the padded dimension.

Activations are `diagonal.ACTIVATIONS`.  ``softmax_output`` is an identity at
forward time: the layer emits logits and the cross-entropy loss applies a
stabilized softmax internally, which yields the usual fused gradient
(softmax(logits) - target).  `count_weights` (also named `count_mults`) gives
the paper's counts of each layer as one `Counts` record.

Every layer op, `network_forward`, `network_backward` and `loss_eval` take
one sample as a vector or a `(B, d)` batch with one sample per row; a vector
is the B=1 case of the same code.  Parameter gradients come back summed over
the rows, input gradients stay per row, and `loss_eval` is the mean over rows.
Backprop calls the first layer's ``backward(..., input_grad=False)``, since
nothing reads that layer's input gradient: it comes back as None, and no
layer computes it.  It also hands each layer its forward output as
``backward(..., out=...)``, so that no diagonal product is computed twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .diagonal import (
    ACTIVATIONS,
    CrosswiseWeights,
    block_count,
    crosswise_backward,
    crosswise_forward,
    init_crosswise,
)
from .errors import (DivergenceError, ParameterError, ShapeError, expect_choice, expect_int,
                     expect_keys, expect_positive, expect_shape)
from .features import fwht, mix, mixing_factors, next_power_of_two
from .rng import CounterRng, derive_seed

LAYER_KINDS = ("dense", "crosswise", "crosswise_mixed")
LOSS_KINDS = ("mse", "cross_entropy")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        expect_choice(self.kind, LAYER_KINDS, "kind")  # a parameter's name, for cli._named_call
        expect_int(self.in_dim, "in_dim", ParameterError, 1)
        expect_int(self.out_dim, "out_dim", ParameterError, 1)
        expect_choice(self.activation, ACTIVATIONS, "activation")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    seed: int

    def __post_init__(self):
        if not isinstance(self.layers, (list, tuple)) or not all(
                isinstance(layer, LayerSpec) for layer in self.layers):
            raise ParameterError(f"network layers must be a list of LayerSpec, got "
                                 f"{self.layers!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        expect_int(self.seed, "network seed", ParameterError)
        if not self.layers:
            raise ParameterError("network needs at least one layer")
        for i in range(len(self.layers) - 1):
            if self.layers[i].out_dim != self.layers[i + 1].in_dim:
                raise ShapeError(
                    f"layer {i} out_dim {self.layers[i].out_dim} does not chain "
                    f"into layer {i + 1} in_dim {self.layers[i + 1].in_dim}"
                )
            if self.layers[i].activation == "softmax_output":
                raise ParameterError(
                    f"softmax_output is only allowed on the final layer (found on layer {i})"
                )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    loss: str
    seed: int

    def __post_init__(self):
        expect_positive(self.learning_rate, "learning_rate")
        expect_int(self.epochs, "epochs", ParameterError, 0)
        expect_int(self.batch_size, "batch_size", ParameterError, 1)
        expect_int(self.seed, "seed", ParameterError)
        expect_choice(self.loss, LOSS_KINDS, "loss")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    wall_ms: float


class DenseLayer:
    """Full `(out, in)` weights `w` and bias `b`; they and `forward`'s input: arrays or lists."""

    kind = "dense"

    def __init__(self, spec: LayerSpec, w: np.ndarray, b: np.ndarray):
        self.spec = spec
        w = expect_shape(w, (spec.out_dim, spec.in_dim), "dense weights")
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(expect_shape(b, (spec.out_dim,), "dense bias"), dtype=np.float64)

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        x = expect_shape(x, (..., self.spec.in_dim), "dense input")
        pre = x @ self.w.T + self.b
        out = np.maximum(pre, 0.0) if self.spec.activation == "relu" else pre
        return out, (x, pre)

    def backward(self, cache, g_out: np.ndarray, input_grad: bool = True, out=None):
        x, pre = cache  # `out` is not needed: the cache holds `pre`
        if self.spec.activation == "relu":
            g_pre = np.where(pre > 0.0, g_out, 0.0)
        else:
            g_pre = g_out
        rows = g_pre.reshape(-1, self.spec.out_dim)
        grads = {"w": rows.T @ x.reshape(-1, self.spec.in_dim), "b": np.add.reduce(rows, axis=0)}
        return grads, (g_pre @ self.w if input_grad else None)


def _padded_width(spec: LayerSpec) -> int:
    """The input width of a diagonal layer's weights: a stage pads it to a power of two."""
    return next_power_of_two(spec.in_dim) if spec.kind == "crosswise_mixed" else spec.in_dim


class CrosswiseLayer:
    """Learned diagonal map (see `diagonal`) on inputs of length `pad`, behind an optional
    fixed isometric mixing stage.  A ``crosswise`` layer has none (`signs` and `perm` are
    None) and reads its input as given, so `pad` is `in_dim`.  A ``crosswise_mixed`` layer
    zero-pads its input to a power of two `pad`, then sign-flips it by `signs`,
    Walsh-Hadamard transforms, permutes by `perm` and scales it by 1/sqrt(pad)."""

    def __init__(self, spec: LayerSpec, weights: CrosswiseWeights,
                 signs: np.ndarray | None = None, perm: np.ndarray | None = None):
        plain = spec.kind == "crosswise"
        if spec.kind == "dense" or (signs is None, perm is None) != (plain, plain):
            raise ParameterError(f"a crosswise layer takes no signs or perm and a crosswise_mixed "
                                 f"layer both, got a {spec.kind} spec")
        self.pad = _padded_width(spec)
        if weights.in_dim != self.pad or weights.out_dim != spec.out_dim:
            raise ShapeError(
                f"{spec.kind} weights are {weights.in_dim}->{weights.out_dim}, "
                f"expected {self.pad}->{spec.out_dim}"
            )
        self.spec = spec
        self.weights = weights
        if not plain:
            signs, perm = mixing_factors(signs, perm, self.pad)
            self._scale, self._in_signs = 1.0 / math.sqrt(self.pad), signs[: spec.in_dim]
        self.signs, self.perm = signs, perm

    kind = property(lambda self: self.spec.kind)

    def params(self) -> dict:
        return {"c": self.weights.c, "b": self.weights.b}

    def stage(self, x: np.ndarray) -> np.ndarray:
        """The stage columns that the diagonal reads (`perm[: weights.in_dim]`) of each row
        of `x`, an array or a nested list.  A batch comes back as the transpose of a C-ordered
        `(columns, B)` array (F order), and a following dense layer's product bits depend on
        that."""
        x = expect_shape(x, (..., self.spec.in_dim), "stage input")
        u = mix(x, self.signs, self.perm[: self.weights.in_dim])  # C-ordered (columns, B)
        u *= self._scale
        return u.T if u.ndim < 3 else u.transpose(*range(1, u.ndim), 0)  # `.T`: cheaper

    # forward and backward call no other method that the benchmark tracer wraps (each
    # layer class's own forward and backward), so that each layer call counts once.
    def forward(self, x: np.ndarray):
        u = x if self.perm is None else self.stage(x)
        return crosswise_forward(self.weights, u, self.spec.activation), u

    def backward(self, cache, g_out: np.ndarray, input_grad: bool = True, out=None):
        grad_c, grad_b, g_x = crosswise_backward(
            self.weights, cache, g_out, self.spec.activation, input_grad, out
        )
        if input_grad and self.perm is not None:
            # Transpose of the mixing stage: unscale, unpermute (the unread slots
            # are zero), FWHT (symmetric), then sign-flip only the coordinates that
            # are kept.  The scatter fills a zeroed C-ordered `(B, pad)` buffer, the
            # FWHT's scratch; the result is C-ordered, since a Fortran-ordered
            # gradient makes the previous layer's row sums pairwise.
            g_v = np.zeros((*g_x.shape[:-1], self.pad))
            g_v[..., self.perm[: self.weights.in_dim]] = g_x * self._scale
            g_x = np.multiply(self._in_signs, fwht(g_v, out=g_v)[..., : self.spec.in_dim],
                              order="C")
        return {"c": grad_c, "b": grad_b}, g_x

    def narrowed(self, n: int, need: int, keep_stage: bool = True) -> "CrosswiseLayer":
        """A copy on prefix views of the same parameters: its diagonal reads the first n
        inputs (of a mixed layer, stage columns) and emits the first `need` outputs.
        Without `keep_stage`, the copy has no stage and its inputs are stage columns."""
        layer, k = object.__new__(type(self)), block_count(n, need)
        layer.__dict__.update(self.__dict__)  # a shallow copy, as `copy.copy` makes, but cheaper
        layer.weights = CrosswiseWeights(n, need, k, self.weights.c[: k * n], self.weights.b[:need])
        if not keep_stage:
            layer.signs = layer.perm = None
        kind, in_dim = ("crosswise", n) if layer.perm is None else (self.kind, self.spec.in_dim)
        layer.spec = LayerSpec(kind, in_dim, need, self.spec.activation)  # a stage keeps its input
        layer.pad = _padded_width(layer.spec)
        return layer


class CrosswiseMixedLayer(CrosswiseLayer):
    """Kept only for `bench/spans.py`, which wraps this class's own `forward` and `backward`
    (lines 46, 49), read from its `__dict__` (line 130).  Nothing in the library builds one."""

    forward, backward = CrosswiseLayer.forward, CrosswiseLayer.backward


def build_network(spec: NetworkSpec) -> "Network":
    """Instantiate seeded parameters; layer i draws from derive_seed(spec.seed, i)."""
    layers = []
    for i, lspec in enumerate(spec.layers):
        lseed = derive_seed(spec.seed, i)
        if lspec.kind == "dense":
            rng = CounterRng(lseed, stream=0)
            w = rng.uniform(lspec.out_dim * lspec.in_dim, -1.0, 1.0).reshape(lspec.out_dim, -1)
            w /= math.sqrt(lspec.in_dim)
            layers.append(DenseLayer(lspec, w, np.zeros(lspec.out_dim)))
            continue
        pad, stage = _padded_width(lspec), ()
        if lspec.kind == "crosswise_mixed":
            fixed = CounterRng(lseed, stream=1)
            stage = (fixed.rademacher(pad), fixed.permutation(pad))
        layers.append(CrosswiseLayer(lspec, init_crosswise(lseed, pad, lspec.out_dim), *stage))
    return Network(layers, spec.seed)


class Network:
    """Layers applied in order.  Its spec is read from the layers when it is built, so the
    spec's checks run on every network and the spec always describes the layers it holds."""

    def __init__(self, layers: list, seed: int = 0):
        if not isinstance(layers, (list, tuple)) or not all(
                isinstance(getattr(layer, "spec", None), LayerSpec) for layer in layers):
            raise ParameterError(f"network layers must be a list of layers, got {layers!r}")
        self.spec, self.layers = NetworkSpec(tuple(layer.spec for layer in layers), seed), layers

    @property
    def in_dim(self) -> int:
        return self.spec.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.spec.layers[-1].out_dim


def network_forward(net: Network, x: np.ndarray) -> np.ndarray:
    return _forward_with_caches(net, x)[0]


def _forward_with_caches(net: Network, x: np.ndarray):
    # The layers chain (NetworkSpec checks it), so only the input can have a wrong width.
    out = np.asarray(expect_shape(x, (..., net.in_dim), "layer 0 input"), dtype=np.float64)
    caches = []
    for layer in net.layers:
        out, cache = layer.forward(out)
        caches.append((cache, out))
    return out, caches


def _shifted_exp(z: np.ndarray):
    """(z minus its row max, the exp of that, and its row sums as a column)."""
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Stabilized softmax of each row (of the vector, for 1-D input)."""
    _, e, total = _shifted_exp(np.asarray(z))
    return e / total


def _checked_target(kind: str, target, shape: tuple):
    """`target` as float64 and, for cross_entropy, each row's hot index; refuses an
    unknown loss, a shape other than `shape` and cross_entropy rows not one-hot."""
    expect_choice(kind, LOSS_KINDS, "loss")
    target = np.asarray(expect_shape(target, shape, "target"), dtype=np.float64, order="C")
    if kind == "mse":
        return target, None
    if not (((target == 0.0) | (target == 1.0)).all() and (target.sum(axis=-1) == 1.0).all()):
        raise ParameterError("cross_entropy target must be one-hot")
    return target, target.argmax(axis=-1)


def _loss_and_gradient(kind: str, prediction: np.ndarray, target: np.ndarray, labels):
    """(mean loss over the rows, gradient of each row's own loss) for a checked
    target; for cross_entropy, `labels` holds the hot index of each target row."""
    if kind == "mse":
        diff = prediction - target
        loss = np.add.reduce(diff * diff, axis=None) / diff.size
        return float(loss), 2.0 * diff / prediction.shape[-1]
    # -log softmax(prediction)[hot] with log-sum-exp stabilization, and its
    # gradient softmax(prediction) - target, from one shift, exp and row sum.
    shifted, e, total = _shifted_exp(prediction)
    hot = shifted.ravel()[labels.reshape(-1) + np.arange(0, shifted.size, shifted.shape[-1])]
    return float(np.add.reduce(np.log(total).ravel() - hot) / hot.size), e / total - target


def loss_eval(kind: str, prediction: np.ndarray, target: np.ndarray) -> float:
    """Loss of one prediction vector, or the mean loss over the rows of a batch."""
    prediction = np.asarray(expect_shape(prediction, (..., None), "prediction"), dtype=np.float64)
    target, labels = _checked_target(kind, target, prediction.shape)
    return _loss_and_gradient(kind, prediction, target, labels)[0]


def network_backward(net: Network, x: np.ndarray, target: np.ndarray, loss_kind: str) -> list:
    """Per-layer gradient dicts (same keys/shapes as each layer's params()).

    For a `(B, d)` batch the gradients are those of the sum of the rows' losses.
    """
    x = np.asarray(expect_shape(x, (..., net.in_dim), "layer 0 input"), dtype=np.float64)
    target, labels = _checked_target(loss_kind, target, (*x.shape[:-1], net.out_dim))
    return _backward_with_loss(net, x, target, labels, loss_kind)[0]


def _backward_with_loss(net: Network, x, target, labels, loss_kind):
    prediction, caches = _forward_with_caches(net, x)
    loss, g = _loss_and_gradient(loss_kind, prediction, target, labels)
    grads: list = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        cache, out = caches[i]
        grads[i], g = net.layers[i].backward(cache, g, input_grad=i > 0, out=out)
    return grads, loss


def sgd_step(net: Network, grads: list, learning_rate: float) -> Network:
    """Every layer's gradient keys and shapes are checked before any parameter is written."""
    expect_positive(learning_rate, "learning_rate", zero=True)
    if len(grads) != len(net.layers):
        raise ShapeError(f"{len(grads)} gradient sets for {len(net.layers)} layers")
    steps = []
    for i, layer in enumerate(net.layers):
        params = layer.params()
        if not isinstance(grads[i], dict):
            raise ShapeError(f"layer {i} gradients must be a dict, got {type(grads[i]).__name__}")
        if grads[i].keys() != params.keys():
            raise ShapeError(f"layer {i} grad keys {sorted(grads[i])} != its {sorted(params)}")
        for name, p in params.items():
            g = grads[i][name]
            if not isinstance(g, np.ndarray) or g.shape != p.shape:
                got = f"shape {g.shape}" if isinstance(g, np.ndarray) else f"type {type(g).__name__}"
                raise ShapeError(f"layer {i} grad {name!r} has {got}, parameter is {p.shape}")
            steps.append((p, g))
    for p, g in steps:
        p -= learning_rate * g
    return net


def _targets_for(data, out_dim: int, loss: str) -> np.ndarray:
    if data.class_count > 0:
        if data.class_count != out_dim:
            raise ShapeError(
                f"dataset has {data.class_count} classes but the network emits {out_dim}"
            )
        return np.eye(out_dim)[data.labels]
    if loss == "cross_entropy":
        raise ParameterError("cross_entropy needs a dataset with classes; "
                             "this one has real-valued labels")
    if out_dim != 1:
        raise ShapeError(
            f"regression targets are scalar but the network emits {out_dim}"
        )
    return data.labels.reshape(-1, 1)


# Rows per forward pass of the accuracy pass: its memory does not grow with the dataset.
_ACCURACY_ROWS = 1024


def _accuracy(net: Network, x: np.ndarray, data) -> float:
    if data.class_count == 0:
        return 0.0
    hits = 0
    for start in range(0, data.labels.size, _ACCURACY_ROWS):
        rows = slice(start, start + _ACCURACY_ROWS)
        predicted = np.argmax(network_forward(net, x[rows]), axis=-1)
        hits += np.count_nonzero(predicted == data.labels[rows])
    return hits / data.labels.size


def _stepped_network(net: Network, features: np.ndarray):
    """(network, rows, staged): what `train_network` steps, and on which rows.

    Walking back from the output, each diagonal layer keeps the outputs its
    consumer reads, and its diagonal only the inputs those need.  Dense layers,
    stage inputs and a plain layer fed by a dense one keep their width.
    """
    layers, need = list(net.layers), net.out_dim
    staged = layers[0].kind == "crosswise_mixed"
    if staged:
        features = layers[0].stage(features)
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.kind != "dense":
            # Two columns at least: NumPy sums a one-column operand's rows pairwise, not
            # one after another.  A plain layer's inputs are its producer's outputs: a
            # dense producer keeps them all, and one whose input gradient is read its k
            # blocks (NumPy sums 8 or more of them pairwise, so fewer round differently).
            n = min(layer.pad, max(need, 2))
            if layer.kind == "crosswise" and i > 0 and (layers[i - 1].kind == "dense" or (
                    i > 1 and block_count(layers[i - 1].pad, n) != layers[i - 1].weights.k)):
                n = layer.pad
            layer = layer.narrowed(n, need, keep_stage=i > 0)
        layers[i], need = layer, layer.spec.in_dim
    return Network(layers, net.spec.seed), features[:, :need], staged


def train_network(net: Network, cfg: TrainConfig, data, threads: int = 1) -> list:
    """Mutates net in place; returns the per-epoch history.

    Targets are built and checked once per call (cross_entropy needs classes).
    Each epoch gathers its shuffled rows, targets and labels into one copy,
    freed before its accuracy pass, and slices each mini-batch from it: one
    `(B, d)` forward pass, fused loss-and-gradient step and backward pass,
    stepped by its rows' mean gradient.  `threads` has no effect (must be >= 1).

    A first `crosswise_mixed` layer's stage is fixed and nothing reads its
    input gradient, so the stage runs once per call on all rows, and the same
    layer, narrowed without its stage, steps on the staged rows.  An N->M
    diagonal with M < N reads only its first M inputs (of a mixed layer, stage
    columns), so the units behind the other N - M are dead: their coefficients
    get zero gradients only.  The mini-batches and accuracy passes compute only
    the live units, on prefix views of the same parameters; the bits are unchanged.
    """
    expect_int(threads, "threads", ParameterError, 1)
    n = data.features.shape[0]
    if cfg.batch_size > n:
        raise ParameterError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    expect_shape(data.features, (n, net.in_dim), "dataset features")
    targets = _targets_for(data, net.out_dim, cfg.loss)
    if cfg.epochs == 0:
        return []
    stepped, rows, staged = _stepped_network(net, data.features)
    history: list = []
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = CounterRng(cfg.seed, stream=epoch).permutation(n)
        xs = np.take(rows.T, order, axis=1).T if staged else rows[order]
        ts, labels = targets[order], data.labels[order]
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            grads, batch_loss = _backward_with_loss(stepped, xs[batch], ts[batch],
                                                    labels[batch], cfg.loss)
            size = min(n - start, cfg.batch_size)
            loss_sum += batch_loss * size
            if not math.isfinite(loss_sum):  # before the step: a diverged batch writes nothing
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for layer_grads in grads:
                for g in layer_grads.values():
                    g *= 1.0 / size
            sgd_step(stepped, grads, cfg.learning_rate)
        del xs, ts, labels  # one gathered copy at a time, none in the accuracy pass
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_accuracy=_accuracy(stepped, rows, data),
                wall_ms=(time.perf_counter() - started) * 1e3,
            )
        )
    return history


def train(spec: NetworkSpec, cfg: TrainConfig, data) -> list:
    """Build a fresh network from spec and train it; returns the history."""
    net = build_network(spec)
    return train_network(net, cfg, data)


@dataclass
class Counts:
    """The paper's counts, one list entry per layer: learned multiplicative weights, biases,
    multiplications per forward pass and FWHT add/subtract pairs, each in its own column."""

    weights: list
    biases: list
    mults: list
    fwht_ops: list

    total_weights = property(lambda self: sum(self.weights))
    total_biases = property(lambda self: sum(self.biases))
    total_mults = property(lambda self: sum(self.mults))
    total_fwht_ops = property(lambda self: sum(self.fwht_ops))


def _layer_counts(lspec: LayerSpec) -> tuple[int, int, int, int]:
    """(learned weights, biases, multiplications per forward, FWHT butterfly ops) of a layer."""
    if lspec.kind == "dense":
        return lspec.in_dim * lspec.out_dim, lspec.out_dim, lspec.in_dim * lspec.out_dim, 0
    pad = _padded_width(lspec)
    weights = block_count(pad, lspec.out_dim) * pad
    if lspec.kind == "crosswise":
        return weights, lspec.out_dim, weights, 0
    # The fixed sign diagonal costs pad multiplications on top of the learned
    # diagonal products; butterfly ops are counted separately.
    return weights, lspec.out_dim, pad + weights, pad * int(math.log2(pad))


def count_weights(spec: NetworkSpec) -> Counts:
    """The counts of every layer of `spec`; `count_mults` is this function too."""
    return Counts(*map(list, zip(*map(_layer_counts, spec.layers))))


count_mults = count_weights


# Each layer kind's keys in a version-1 model file, in file order, between its "type", "n"
# and "m" and its "activation".
_MODEL_KEYS = {
    "dense": ("w", "b"),
    "crosswise": ("k", "c", "b"),
    "crosswise_mixed": ("pad", "k", "c", "b", "signs", "perm"),
}


def model_to_json(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        values = {name: p.ravel().tolist() for name, p in layer.params().items()}
        if layer.kind != "dense":
            values.update(pad=layer.pad, k=layer.weights.k)
        if layer.kind == "crosswise_mixed":
            values.update(signs=layer.signs.astype(np.int64).tolist(), perm=layer.perm.tolist())
        layers.append({"type": layer.kind, "n": layer.spec.in_dim, "m": layer.spec.out_dim,
                       **{key: values[key] for key in _MODEL_KEYS[layer.kind]},
                       "activation": layer.spec.activation})
    return {"version": 1, "layers": layers}


def _model_value(entry: dict, key: str, context: str):
    """A size as an int; else a list of finite numbers (of integers for `perm`) as a flat
    array.  A bool is not a number, and a number beyond int64 or float64 is refused."""
    if key in ("n", "m", "k", "pad"):
        return expect_int(entry[key], f"{context}.{key}", ParameterError)
    value, ints = entry[key], key == "perm"
    if type(value) is list and set(map(type, value)) <= ({int} if ints else {int, float}):
        try:
            arr = np.array(value, dtype=np.int64 if ints else np.float64)
            if np.isfinite(arr).all():
                return arr
        except OverflowError:
            pass
    what = "integers within int64" if ints else "finite numbers"
    raise ParameterError(f"{context}.{key} must be a flat list of {what}")


def model_from_json(doc: dict, seed: int = 0) -> Network:
    """Rebuild a network from `model_to_json` output; malformed models raise ParameterError
    (a list of the wrong length ShapeError), naming the layer."""
    expect_keys(doc, {"version", "layers"}, "model", error=ParameterError)
    if expect_int(doc["version"], "model.version", ParameterError) != 1:
        raise ParameterError(f"unsupported model version {doc['version']!r}")
    if not isinstance(doc["layers"], list):
        raise ParameterError("model.layers must be a list")
    layers = []
    for i, entry in enumerate(doc["layers"]):
        context = f"model.layers[{i}]"
        kind = entry.get("type") if isinstance(entry, dict) else None
        if not isinstance(kind, str) or kind not in _MODEL_KEYS:
            raise ParameterError(f"{context}: unknown layer type {kind!r}")
        keys = ("n", "m", *_MODEL_KEYS[kind])
        expect_keys(entry, {"type", *keys}, context, {"activation"}, ParameterError)
        v = {key: _model_value(entry, key, context) for key in keys}
        try:
            lspec = LayerSpec(kind, v["n"], v["m"], entry.get("activation", "relu"))
            if kind == "dense":
                w = expect_shape(v["w"], (v["m"] * v["n"],), "w").reshape(v["m"], v["n"])
                layers.append(DenseLayer(lspec, w, v["b"]))
            else:
                weights = CrosswiseWeights(v.get("pad", v["n"]), v["m"], v["k"], v["c"], v["b"])
                layers.append(CrosswiseLayer(lspec, weights, v.get("signs"), v.get("perm")))
        except (ParameterError, ShapeError) as error:
            raise type(error)(f"{context}: {error}") from None
    return Network(layers, seed)
