"""The benchmark's workloads.

Each workload makes its inputs from the run seed in `setup`, runs one timed
operation per `op` call (a closed loop: one caller, the next operation starts
when the last one returned), and checks outputs outside the timed region in
`check` and `finish`.  Library calls go through module attributes
(``crosswise.network.train_network``) so that a traced run sees them; the
calls a workload makes as a user of the results (``crosswise.network_forward``
on infer-wide, ``kernel_exact``) use the package-level names, which tracing
leaves alone.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import crosswise as cw


class Checks:
    """Operations and output checks attempted, and those that failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def _spec(kinds, widths, seed):
    """A chain of layers; the last one emits logits for cross-entropy."""
    last = len(kinds) - 1
    return cw.NetworkSpec(layers=tuple(
        cw.LayerSpec(kind, widths[i], widths[i + 1], "softmax_output" if i == last else "relu")
        for i, kind in enumerate(kinds)
    ), seed=seed)


def _paper_counts(spec) -> dict:
    weights = cw.count_weights(spec)
    mults = cw.count_mults(spec)
    return {
        "layers": [f"{l.kind} {l.in_dim}->{l.out_dim}" for l in spec.layers],
        "weights": weights.weights,
        "total_weights": weights.total_weights,
        "dense_equivalent_weights": sum(l.in_dim * l.out_dim for l in spec.layers),
        "mults": mults.mults,
        "total_mults": mults.total_mults,
        "total_fwht_ops": mults.total_fwht_ops,
    }


@dataclass
class _TrainState:
    data: object
    shards: list
    net: object
    ops: int = 0


class Train:
    """`train_network` for one epoch over one shard of the dataset per operation.

    The 2000 rows are split, in a seeded order, into shards of 250, so a run
    times dozens of short epochs instead of a handful of long ones; each epoch
    still pays its shuffle, its partial last batch and its accuracy pass.
    """

    item = "samples"

    def __init__(self, kind: str, seed: int, tiny: bool):
        self.seed = seed
        if tiny:
            dims, hidden, self.per_class, self.batch, self.shard_count = 8, 16, 10, 8, 2
        else:
            dims, hidden, self.per_class, self.batch, self.shard_count = 64, 256, 500, 32, 8
        self.dims = dims
        self.spec = _spec((kind, kind), (dims, hidden, 4), seed)
        # Enough passes over the data for the accuracy floor to be meaningful.
        self.min_ops = (30 if tiny else 5) * self.shard_count
        self.trace_ops = self.shard_count
        # Plain crosswise stays near chance on this task (ROADMAP item 5).
        self.accuracy_floor = None if kind == "crosswise" else 0.9
        self.prefix = "train_" + {"crosswise_mixed": "mixed"}.get(kind, kind)

    def setup(self):
        data = cw.datasets.gen_blobs(self.seed, self.per_class, self.dims, 4, 0.5)
        order = np.random.default_rng(self.seed).permutation(data.sample_count)
        shards = [cw.Dataset(data.features[rows], data.labels[rows], data.class_count)
                  for rows in np.array_split(order, self.shard_count)]
        return _TrainState(data, shards, cw.network.build_network(self.spec))

    def op(self, st):
        shard = st.shards[st.ops % self.shard_count]
        st.ops += 1
        cfg = cw.TrainConfig(learning_rate=0.5, epochs=1, batch_size=self.batch,
                             loss="cross_entropy", seed=(self.seed << 16) + st.ops)
        record = cw.network.train_network(st.net, cfg, shard, threads=1)[-1]
        return record, shard.sample_count

    def check(self, st, record, checks):
        checks.check(math.isfinite(record.train_loss),
                     f"epoch {st.ops}: loss {record.train_loss}")

    def finish(self, st, checks):
        if self.accuracy_floor is None:
            return
        hits = sum(int(np.argmax(cw.network_forward(st.net, x))) == int(label)
                   for x, label in zip(st.data.features, st.data.labels))
        accuracy = hits / st.data.sample_count
        checks.check(accuracy >= self.accuracy_floor,
                     f"accuracy {accuracy} after {st.ops} shard epochs < {self.accuracy_floor}")

    def facts(self) -> dict:
        return {"network": _paper_counts(self.spec)}


def _hadamard(n: int) -> np.ndarray:
    """Sylvester's construction, H_2n = [[H, H], [H, -H]], as an explicit matrix."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def dense_assembly(doc: dict) -> list:
    """(W, b, activation) per layer of a saved model, each as one dense matrix.

    The mixing stage of a ``crosswise_mixed`` layer is rebuilt from its saved
    signs and permutation with an explicit Hadamard matrix, not with `fwht`.
    """
    layers = []
    for entry in doc["layers"]:
        n, m, b = entry["n"], entry["m"], np.array(entry["b"])
        if entry["type"] == "dense":
            w = np.array(entry["w"]).reshape(m, n)
        else:
            in_dim = entry.get("pad", n)
            w = cw.expand_to_dense(cw.CrosswiseWeights(in_dim, m, entry["k"], entry["c"], b))
            if entry["type"] == "crosswise_mixed":
                signs, perm = np.array(entry["signs"]), np.array(entry["perm"])
                mix = _hadamard(in_dim)[perm, :] * signs[None, :] / math.sqrt(in_dim)
                w = w @ mix[:, :n]
        layers.append((w, b, entry["activation"]))
    return layers


def dense_forward(layers, x: np.ndarray) -> np.ndarray:
    for w, b, activation in layers:
        x = w @ x + b
        if activation == "relu":
            x = np.maximum(x, 0.0)
    return x


@dataclass
class _InferState:
    net: object
    model: object
    saved: str
    rows: np.ndarray
    next_row: int = 0
    kept: dict = field(default_factory=dict)


class InferWide:
    """Single-row `network_forward` on a wide model after a save and reload."""

    item = "rows"
    prefix = "infer"
    kept_every = 32

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        width, classes, self.row_count = (16, 4, 64) if tiny else (1024, 16, 2048)
        self.width = width
        self.spec = _spec(("crosswise_mixed", "crosswise", "dense"), (width, width, width, classes), seed)
        self.min_ops = self.row_count
        self.trace_ops = 64 if tiny else 500

    def setup(self):
        net = cw.network.build_network(self.spec)
        saved = json.dumps(cw.network.model_to_json(net))
        model = cw.network.model_from_json(json.loads(saved), seed=self.seed)
        rows = np.random.default_rng(self.seed).standard_normal((self.row_count, self.width))
        return _InferState(net, model, saved, rows)

    def op(self, st):
        i = st.next_row % self.row_count
        st.next_row += 1
        return (i, cw.network_forward(st.model, st.rows[i])), 1

    def check(self, st, result, checks):
        i, out = result
        checks.check(bool(np.all(np.isfinite(out))), f"row {i}: non-finite output")
        if i % self.kept_every == 0:
            st.kept.setdefault(i, out)

    def finish(self, st, checks):
        reference = dense_assembly(json.loads(st.saved))
        for i, out in st.kept.items():
            x = st.rows[i]
            checks.check(np.array_equal(out, cw.network_forward(st.net, x)),
                         f"row {i}: reloaded model differs from the in-memory one")
            expected = dense_forward(reference, x)
            err = float(np.max(np.abs(out - expected)))
            checks.check(err <= 1e-9 * max(1.0, float(np.max(np.abs(expected)))),
                         f"row {i}: dense assembly differs by {err}")

    def facts(self) -> dict:
        return {"network": _paper_counts(self.spec)}


@dataclass
class _FeatureState:
    fm: object
    points: np.ndarray
    next_row: int = 0
    previous: np.ndarray = None
    errors: list = field(default_factory=list)


class FeaturesApply:
    """Single-row `feature_map_apply` on seeded unit-sphere pairs."""

    item = "rows"
    prefix = "feature"
    sigma = 1.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.d, self.blocks, self.row_count = (16, 4, 64) if tiny else (1024, 16, 2048)
        self.min_ops = 2 * (16 if tiny else 128)
        self.trace_ops = 16 if tiny else 32
        # The estimate averages 2*n*blocks/2 cosines with variance <= 1/2 each,
        # so its standard deviation is at most 1/sqrt(2*n*blocks); the mean
        # absolute error over many pairs stays well inside three of those.
        self.error_bound = 3.0 / math.sqrt(2 * cw.next_power_of_two(self.d) * self.blocks)

    def setup(self):
        fm = cw.features.sample_feature_map(self.seed, self.d, self.sigma, self.blocks)
        return _FeatureState(fm, self._pairs())

    def _pairs(self) -> np.ndarray:
        """Rows 2i and 2i+1 are unit vectors at a seeded angle in [0, pi/2]."""
        gen = np.random.default_rng(self.seed)
        half = self.row_count // 2
        x = gen.standard_normal((half, self.d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z = gen.standard_normal((half, self.d))
        z -= np.sum(z * x, axis=1, keepdims=True) * x
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        theta = gen.uniform(0.0, math.pi / 2, size=(half, 1))
        points = np.empty((self.row_count, self.d))
        points[0::2] = x
        points[1::2] = np.cos(theta) * x + np.sin(theta) * z
        return points

    def op(self, st):
        i = st.next_row % self.row_count
        st.next_row += 1
        return (i, cw.features.feature_map_apply(st.fm, st.points[i])), 1

    def check(self, st, result, checks):
        i, phi = result
        norm = float(phi @ phi)
        checks.check(abs(norm - 1.0) <= 1e-9, f"row {i}: |phi|^2 = {norm}")
        if i % 2 == 1 and st.previous is not None:
            exact = cw.kernel_exact(st.points[i - 1], st.points[i], self.sigma)
            st.errors.append(abs(float(st.previous @ phi) - exact))
        st.previous = phi if i % 2 == 0 else None

    def finish(self, st, checks):
        mean = sum(st.errors) / len(st.errors) if st.errors else math.inf
        checks.check(mean <= self.error_bound,
                     f"mean |kernel error| {mean} over {len(st.errors)} pairs > {self.error_bound}")

    def facts(self) -> dict:
        n = cw.next_power_of_two(self.d)
        return {"feature_map": {
            "d": self.d, "n": n, "blocks": self.blocks, "sigma": self.sigma,
            "features": 2 * n * self.blocks,
            "fwht_ops_per_row": 2 * self.blocks * n * (n.bit_length() - 1),
            "kernel_error_bound": self.error_bound,
        }}


@dataclass
class _SampleState:
    drawn: int = 0
    first: object = None


class FeaturesSample:
    """One `sample_feature_map` call drawing a single block per operation."""

    item = "blocks"
    prefix = "sample"
    sigma = 1.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.d = 16 if tiny else 1024
        self.min_ops = 4
        self.trace_ops = 4
        n = cw.next_power_of_two(self.d)
        # c_diag * |g_diag| are n chi(n) draws (mean ~ sqrt(n - 1/2), sd ~ sqrt(1/2));
        # their mean must lie within six standard deviations of the expectation.
        self.chi_mean = math.sqrt(n - 0.5)
        self.chi_tolerance = 6.0 * math.sqrt(0.5 / n)

    def setup(self):
        return _SampleState()

    def _seed(self, index: int) -> int:
        return (self.seed << 20) + index

    def op(self, st):
        st.drawn += 1
        fm = cw.features.sample_feature_map(self._seed(st.drawn), self.d, self.sigma, 1)
        return (st.drawn, fm.blocks[0]), 1

    def check(self, st, result, checks):
        index, block = result
        chi = block.c_diag * np.linalg.norm(block.g_diag)
        mean = float(np.mean(chi))
        checks.check(bool(np.all(np.isfinite(chi))) and abs(mean - self.chi_mean) <= self.chi_tolerance,
                     f"block {index}: mean chi(n) scale {mean}, expected {self.chi_mean}")
        if index == 1:
            st.first = block

    def finish(self, st, checks):
        if st.first is None:
            checks.check(False, "block 1 was not drawn")
            return
        again = cw.sample_block(cw.derive_seed(self._seed(1), 0), self.d, self.sigma)
        checks.check(all(np.array_equal(getattr(again, f), getattr(st.first, f))
                         for f in ("b_signs", "perm", "g_diag", "c_diag")),
                     "re-drawing block 1 from its seed gave different factors")

    def facts(self) -> dict:
        n = cw.next_power_of_two(self.d)
        return {"block": {"d": self.d, "n": n, "normals_per_block": n * n + n}}


WORKLOADS = {
    "train-dense": lambda seed, tiny: Train("dense", seed, tiny),
    "train-crosswise": lambda seed, tiny: Train("crosswise", seed, tiny),
    "train-mixed": lambda seed, tiny: Train("crosswise_mixed", seed, tiny),
    "infer-wide": InferWide,
    "features-apply": FeaturesApply,
    "features-sample": FeaturesSample,
}
