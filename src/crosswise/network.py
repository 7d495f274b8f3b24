"""Networks of dense and diagonal-weight layers: forward, backprop, SGD.

Layer kinds:

* ``dense`` — full weight matrix, ``out = act(W x + b)``.
* ``crosswise`` — learned diagonal coefficients only (see `diagonal`).
* ``crosswise_mixed`` — the crosswise layer behind a fixed, non-learned mixing
  stage (sign-flip diagonal, Walsh-Hadamard transform, seeded permutation,
  scaled by 1/sqrt(pad) so the stage is an isometry): `CrosswiseMixedLayer`
  subclasses `CrosswiseLayer` and adds only that stage.  Only the diagonal
  coefficients and biases are learned, so the parameter count matches the
  plain crosswise layer on the padded dimension.

``softmax_output`` is an identity at forward time: the layer emits logits and
the cross-entropy loss applies a stabilized softmax internally, which yields
the usual fused gradient (softmax(logits) - target).

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
    CrosswiseWeights,
    block_count,
    crosswise_backward,
    crosswise_forward,
    init_crosswise,
)
from .errors import DivergenceError, ParameterError, ShapeError, expect_int, expect_keys
from .features import fwht, next_power_of_two
from .rng import CounterRng, derive_seed

LAYER_KINDS = ("dense", "crosswise", "crosswise_mixed")
NETWORK_ACTIVATIONS = ("relu", "identity", "softmax_output")
LOSS_KINDS = ("mse", "cross_entropy")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ParameterError(f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ParameterError(
                f"layer dims must be positive, got {self.in_dim}x{self.out_dim}"
            )
        if self.activation not in NETWORK_ACTIVATIONS:
            raise ParameterError(
                f"activation must be one of {NETWORK_ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
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
        if not self.learning_rate > 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be positive, got {self.batch_size}")
        if self.loss not in LOSS_KINDS:
            raise ParameterError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    wall_ms: float


class DenseLayer:
    kind = "dense"

    def __init__(self, spec: LayerSpec, w: np.ndarray, b: np.ndarray):
        if w.shape != (spec.out_dim, spec.in_dim):
            raise ShapeError(
                f"dense weights must be {spec.out_dim}x{spec.in_dim}, got {w.shape}"
            )
        if b.shape != (spec.out_dim,):
            raise ShapeError(f"dense bias must have length {spec.out_dim}, got {b.shape}")
        self.spec = spec
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        if x.shape[-1:] != (self.spec.in_dim,):
            raise ShapeError(
                f"expected input of length {self.spec.in_dim}, got shape {x.shape}"
            )
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
        grads = {"w": rows.T @ x.reshape(-1, self.spec.in_dim), "b": rows.sum(axis=0)}
        return grads, (g_pre @ self.w if input_grad else None)


class CrosswiseLayer:
    """Learned diagonal map (see `diagonal`) on inputs of length `pad`.

    Plain crosswise acts on the input as given, so `pad` is `in_dim`.
    """

    kind = "crosswise"

    @staticmethod
    def padded_width(in_dim: int) -> int:
        return in_dim

    def __init__(self, spec: LayerSpec, weights: CrosswiseWeights):
        self.pad = self.padded_width(spec.in_dim)
        if weights.in_dim != self.pad or weights.out_dim != spec.out_dim:
            raise ShapeError(
                f"{self.kind} weights are {weights.in_dim}->{weights.out_dim}, "
                f"expected {self.pad}->{spec.out_dim}"
            )
        self.spec = spec
        self.weights = weights
        # The softmax of softmax_output is applied inside the loss.
        self._activation = "identity" if spec.activation == "softmax_output" else spec.activation

    def params(self) -> dict:
        return {"c": self.weights.c, "b": self.weights.b}

    def forward(self, x: np.ndarray):
        return crosswise_forward(self.weights, x, self._activation), x

    def backward(self, cache, g_out: np.ndarray, input_grad: bool = True, out=None):
        grad_c, grad_b, grad_x = crosswise_backward(
            self.weights, cache, g_out, self._activation, input_grad, out
        )
        return {"c": grad_c, "b": grad_b}, grad_x


class CrosswiseMixedLayer(CrosswiseLayer):
    """The crosswise layer behind a fixed isometric mixing stage.

    The input is zero-padded to a power of two `pad`, then sign-flipped,
    Walsh-Hadamard transformed, permuted and scaled by 1/sqrt(pad).
    """

    kind = "crosswise_mixed"
    padded_width = staticmethod(next_power_of_two)

    def __init__(self, spec: LayerSpec, weights: CrosswiseWeights,
                 signs: np.ndarray, perm: np.ndarray):
        super().__init__(spec, weights)
        signs = np.asarray(signs, dtype=np.float64)
        perm = np.asarray(perm, dtype=np.int64)
        if signs.shape != (self.pad,):
            raise ShapeError(f"signs must have length {self.pad}, got {signs.shape}")
        if not np.array_equal(np.sort(perm), np.arange(self.pad)):
            raise ParameterError("perm must be a permutation of 0..pad-1")
        if not np.all(np.abs(signs) == 1.0):
            raise ParameterError("signs entries must be +1 or -1")
        self.signs = signs
        self.perm = perm
        self._scale = 1.0 / math.sqrt(self.pad)

    # forward and backward call crosswise_forward/crosswise_backward themselves,
    # not CrosswiseLayer's methods: the benchmark tracer wraps each class's own
    # methods, and a super() call would count one mixed-layer call twice.
    def forward(self, x: np.ndarray):
        if x.shape[-1:] != (self.spec.in_dim,):
            raise ShapeError(
                f"expected input of length {self.spec.in_dim}, got shape {x.shape}"
            )
        padded = x
        if self.spec.in_dim != self.pad:
            padded = np.zeros((*x.shape[:-1], self.pad))
            padded[..., : self.spec.in_dim] = x
        # Keep the fancy-index gather: for a batch it returns an F-ordered
        # array, and the bits of a following dense layer's product depend on it.
        u = fwht(self.signs * padded)[..., self.perm]
        u *= self._scale
        return crosswise_forward(self.weights, u, self._activation), u

    def backward(self, cache, g_out: np.ndarray, input_grad: bool = True, out=None):
        grad_c, grad_b, grad_u = crosswise_backward(
            self.weights, cache, g_out, self._activation, input_grad, out
        )
        g_x = None
        if input_grad:
            # Transpose of the mixing stage: unscale, unpermute (into every slot),
            # FWHT (symmetric), then sign-flip only the coordinates that are kept.
            # The scatter fills the transpose of an (n, rows) buffer, the FWHT's
            # own layout; the result is C-ordered, since a Fortran-ordered
            # gradient makes the previous layer's row sums pairwise.
            g_v = np.empty(grad_u.shape[::-1]).T
            g_v[..., self.perm] = grad_u * self._scale
            g_x = np.multiply(self.signs[: self.spec.in_dim],
                              fwht(g_v)[..., : self.spec.in_dim], order="C")
        return {"c": grad_c, "b": grad_b}, g_x


def build_network(spec: NetworkSpec) -> "Network":
    """Instantiate seeded parameters; layer i draws from derive_seed(spec.seed, i)."""
    layers = []
    for i, lspec in enumerate(spec.layers):
        lseed = derive_seed(spec.seed, i)
        if lspec.kind == "dense":
            rng = CounterRng(lseed, stream=0)
            w = rng.uniform(lspec.out_dim * lspec.in_dim, -1.0, 1.0)
            w = w.reshape(lspec.out_dim, lspec.in_dim) / math.sqrt(lspec.in_dim)
            layers.append(DenseLayer(lspec, w, np.zeros(lspec.out_dim)))
        elif lspec.kind == "crosswise":
            layers.append(CrosswiseLayer(lspec, init_crosswise(lseed, lspec.in_dim, lspec.out_dim)))
        else:
            pad = next_power_of_two(lspec.in_dim)
            weights = init_crosswise(lseed, pad, lspec.out_dim)
            fixed = CounterRng(lseed, stream=1)
            signs = fixed.rademacher(pad)
            perm = fixed.permutation(pad)
            layers.append(CrosswiseMixedLayer(lspec, weights, signs, perm))
    return Network(spec, layers)


class Network:
    def __init__(self, spec: NetworkSpec, layers: list):
        if len(layers) != len(spec.layers):
            raise ShapeError(
                f"spec has {len(spec.layers)} layers but {len(layers)} were built"
            )
        self.spec = spec
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.spec.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.spec.layers[-1].out_dim


def network_forward(net: Network, x: np.ndarray) -> np.ndarray:
    return _forward_with_caches(net, x)[0]


def _forward_with_caches(net: Network, x: np.ndarray):
    out = np.asarray(x, dtype=np.float64)
    caches = []
    for i, layer in enumerate(net.layers):
        try:
            out, cache = layer.forward(out)
        except ShapeError as exc:
            raise ShapeError(f"layer {i}: {exc}") from exc
        caches.append((cache, out))
    return out, caches


def softmax(z: np.ndarray) -> np.ndarray:
    """Stabilized softmax of each row (of the vector, for 1-D input)."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _check_one_hot(target: np.ndarray):
    if not (((target == 0.0) | (target == 1.0)).all() and (target.sum(axis=-1) == 1.0).all()):
        raise ParameterError("cross_entropy target must be one-hot")


def loss_eval(kind: str, prediction: np.ndarray, target: np.ndarray) -> float:
    """Loss of one prediction vector, or the mean loss over the rows of a batch."""
    if kind not in LOSS_KINDS:
        raise ParameterError(f"loss must be one of {LOSS_KINDS}, got {kind!r}")
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"prediction length {prediction.shape} != target length {target.shape}"
        )
    if kind == "mse":
        diff = prediction - target
        return float((diff * diff).mean())
    _check_one_hot(target)
    # -log softmax(prediction)[hot] with log-sum-exp stabilization.
    shifted = prediction - prediction.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    rows = shifted.reshape(-1, shifted.shape[-1])
    hot = rows[np.arange(rows.shape[0]), target.argmax(axis=-1).ravel()]
    return float((log_norm - hot.reshape(log_norm.shape)).mean())


def _loss_gradient(kind: str, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of each row's own loss with respect to that row's prediction.

    The caller has already checked `target` through `loss_eval`.
    """
    if kind == "mse":
        return 2.0 * (prediction - target) / prediction.shape[-1]
    return softmax(prediction) - target


def network_backward(net: Network, x: np.ndarray, target: np.ndarray, loss_kind: str) -> list:
    """Per-layer gradient dicts (same keys/shapes as each layer's params()).

    For a `(B, d)` batch the gradients are those of the sum of the rows' losses.
    """
    grads, _ = _backward_with_loss(net, x, target, loss_kind)
    return grads


def _backward_with_loss(net: Network, x, target, loss_kind):
    target = np.asarray(target, dtype=np.float64)
    prediction, caches = _forward_with_caches(net, x)
    loss = loss_eval(loss_kind, prediction, target)
    g = _loss_gradient(loss_kind, prediction, target)
    grads: list = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        cache, out = caches[i]
        grads[i], g = net.layers[i].backward(cache, g, input_grad=i > 0, out=out)
    return grads, loss


def sgd_step(net: Network, grads: list, learning_rate: float) -> Network:
    if len(grads) != len(net.layers):
        raise ShapeError(f"{len(grads)} gradient sets for {len(net.layers)} layers")
    for i, layer in enumerate(net.layers):
        params = layer.params()
        for name, p in params.items():
            g = grads[i][name]
            if g.shape != p.shape:
                raise ShapeError(
                    f"layer {i} grad {name!r} has shape {g.shape}, parameter is {p.shape}"
                )
            p -= learning_rate * g
    return net


def _targets_for(data, out_dim: int) -> np.ndarray:
    if data.class_count > 0:
        if data.class_count != out_dim:
            raise ShapeError(
                f"dataset has {data.class_count} classes but the network emits {out_dim}"
            )
        return np.eye(out_dim)[data.labels]
    if out_dim != 1:
        raise ShapeError(
            f"regression targets are scalar but the network emits {out_dim}"
        )
    return data.labels.reshape(-1, 1)


def _accuracy(net: Network, data) -> float:
    if data.class_count == 0:
        return 0.0
    predicted = np.argmax(network_forward(net, data.features), axis=-1)
    return float(np.mean(predicted == data.labels))


def train_network(net: Network, cfg: TrainConfig, data, threads: int = 1) -> list:
    """Mutates net in place; returns the per-epoch history.

    Each mini-batch is one `(B, d)` forward and backward pass, and the step
    uses the mean of its rows' gradients.  `threads` is accepted for
    compatibility and has no effect; it must be at least 1.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    n = data.features.shape[0]
    if cfg.batch_size > n:
        raise ParameterError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")
    if data.features.shape[1] != net.in_dim:
        raise ShapeError(
            f"dataset features have {data.features.shape[1]} columns, network expects {net.in_dim}"
        )
    targets = _targets_for(data, net.out_dim)
    history: list = []
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = CounterRng(cfg.seed, stream=epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads, batch_loss = _backward_with_loss(
                net, data.features[batch], targets[batch], cfg.loss
            )
            if not math.isfinite(batch_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            scale = 1.0 / len(batch)
            for layer_grads in grads:
                for g in layer_grads.values():
                    g *= scale
            sgd_step(net, grads, cfg.learning_rate)
            loss_sum += batch_loss * len(batch)
        epoch_loss = loss_sum / n
        if not math.isfinite(epoch_loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss,
                train_accuracy=_accuracy(net, data),
                wall_ms=(time.perf_counter() - started) * 1e3,
            )
        )
    return history


def train(spec: NetworkSpec, cfg: TrainConfig, data) -> list:
    """Build a fresh network from spec and train it; returns the history."""
    net = build_network(spec)
    return train_network(net, cfg, data)


@dataclass
class ParamCounts:
    weights: list
    biases: list

    @property
    def total_weights(self) -> int:
        return sum(self.weights)

    @property
    def total_biases(self) -> int:
        return sum(self.biases)


@dataclass
class MultCounts:
    mults: list
    fwht_ops: list

    @property
    def total_mults(self) -> int:
        return sum(self.mults)

    @property
    def total_fwht_ops(self) -> int:
        return sum(self.fwht_ops)


def _layer_counts(lspec: LayerSpec) -> tuple[int, int, int]:
    """(learned weights, multiplications per forward, FWHT butterfly ops) of one layer."""
    if lspec.kind == "dense":
        return lspec.in_dim * lspec.out_dim, lspec.in_dim * lspec.out_dim, 0
    if lspec.kind == "crosswise":
        weights = block_count(lspec.in_dim, lspec.out_dim) * lspec.in_dim
        return weights, weights, 0
    pad = next_power_of_two(lspec.in_dim)
    weights = block_count(pad, lspec.out_dim) * pad
    # The fixed sign diagonal costs pad multiplications on top of the learned
    # diagonal products; butterfly ops are counted separately.
    return weights, pad + weights, pad * int(math.log2(pad))


def count_weights(spec: NetworkSpec) -> ParamCounts:
    """Learned multiplicative weights per layer; biases reported separately."""
    return ParamCounts(
        weights=[_layer_counts(l)[0] for l in spec.layers],
        biases=[l.out_dim for l in spec.layers],
    )


def count_mults(spec: NetworkSpec) -> MultCounts:
    """Multiplications per forward pass; FWHT add/subtract pairs in their own column."""
    counts = [_layer_counts(l) for l in spec.layers]
    return MultCounts(mults=[c[1] for c in counts], fwht_ops=[c[2] for c in counts])


def model_to_json(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        entry = {"type": layer.kind, "n": layer.spec.in_dim, "m": layer.spec.out_dim}
        if layer.kind == "crosswise_mixed":
            entry["pad"] = layer.pad
        if layer.kind != "dense":
            entry["k"] = layer.weights.k
        entry.update((name, p.ravel().tolist()) for name, p in layer.params().items())
        if layer.kind == "crosswise_mixed":
            entry.update(signs=layer.signs.astype(np.int64).tolist(), perm=layer.perm.tolist())
        entry["activation"] = layer.spec.activation
        layers.append(entry)
    return {"version": 1, "layers": layers}


_MODEL_LAYER_KEYS = {
    "dense": {"type", "n", "m", "w", "b"},
    "crosswise": {"type", "n", "m", "k", "c", "b"},
    "crosswise_mixed": {"type", "n", "m", "pad", "k", "c", "b", "signs", "perm"},
}


def _model_array(entry: dict, key: str, context: str, kinds: str = "if") -> np.ndarray:
    """A flat list of finite numbers (of integers for kinds "i") as an array."""
    try:
        arr = np.array(entry[key]) if isinstance(entry[key], list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
        what = "integers" if kinds == "i" else "numbers"
        raise ParameterError(f"{context}.{key} must be a flat list of {what}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{context}.{key} holds non-finite values")
    return arr


def model_from_json(doc: dict, seed: int = 0) -> Network:
    """Rebuild a network from `model_to_json` output; malformed models raise ParameterError."""
    expect_keys(doc, {"version", "layers"}, "model", error=ParameterError)
    if doc["version"] != 1:
        raise ParameterError(f"unsupported model version {doc['version']!r}")
    if not isinstance(doc["layers"], list):
        raise ParameterError("model.layers must be a list")
    specs = []
    layers = []
    for i, entry in enumerate(doc["layers"]):
        context = f"model.layers[{i}]"
        kind = entry.get("type") if isinstance(entry, dict) else None
        if kind not in _MODEL_LAYER_KEYS:
            raise ParameterError(f"{context}: unknown layer type {kind!r}")
        expect_keys(entry, _MODEL_LAYER_KEYS[kind], context, {"activation"}, ParameterError)
        ints = {key: expect_int(entry[key], f"{context}.{key}", ParameterError)
                for key in ("n", "m", "k", "pad") if key in entry}
        lspec = LayerSpec(kind=kind, in_dim=ints["n"], out_dim=ints["m"],
                          activation=entry.get("activation", "relu"))
        b = _model_array(entry, "b", context)
        if kind == "dense":
            w = _model_array(entry, "w", context)
            if w.size != lspec.out_dim * lspec.in_dim:
                raise ShapeError(f"{context}.w must hold m*n = "
                                 f"{lspec.out_dim * lspec.in_dim} values, got {w.size}")
            layer = DenseLayer(lspec, w.reshape(lspec.out_dim, lspec.in_dim), b)
        else:
            weights = CrosswiseWeights(
                in_dim=ints.get("pad", lspec.in_dim), out_dim=lspec.out_dim, k=ints["k"],
                c=_model_array(entry, "c", context), b=b,
            )
            layer = (CrosswiseLayer(lspec, weights) if kind == "crosswise" else
                     CrosswiseMixedLayer(lspec, weights, _model_array(entry, "signs", context),
                                         _model_array(entry, "perm", context, kinds="i")))
        specs.append(lspec)
        layers.append(layer)
    return Network(NetworkSpec(layers=tuple(specs), seed=seed), layers)
