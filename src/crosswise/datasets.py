"""Seeded synthetic datasets (Gaussian blobs, noisy XOR) and CSV round-trip.

Every generator draws exclusively from `CounterRng`, so datasets are bitwise
reproducible for a given seed on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingError, ShapeError
from .rng import CounterRng


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int  # 0 means real-valued regression targets

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={self.features.ndim}")
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got ndim={self.labels.ndim}")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ShapeError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} rows"
            )
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            row, col = bad[0]
            raise ParameterError(
                f"features must be finite, got {self.features[row, col]} at row {row}, column {col}"
            )
        if self.class_count < 0:
            raise ParameterError(f"class_count must be >= 0, got {self.class_count}")
        if self.class_count > 0:
            labels = self.labels.astype(np.int64)
            if self.labels.shape[0] and (labels.min() < 0 or labels.max() >= self.class_count):
                raise ParameterError(
                    f"class labels must lie in [0, {self.class_count}), "
                    f"got range [{labels.min()}, {labels.max()}]"
                )
            self.labels = labels
        else:
            self.labels = self.labels.astype(np.float64)
            if not np.all(np.isfinite(self.labels)):
                raise ParameterError("regression labels must be finite")

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def gen_blobs(seed: int, samples_per_class: int, dims: int, class_count: int,
              spread: float) -> Dataset:
    """Gaussian blobs around class centers drawn on a sphere of radius 3.

    Centers come from stream 1 (class_count*dims normals, rows normalized to
    radius 3); point noise comes from stream 0 as one batch of samples*dims
    normals.  spread=0 collapses every class onto its center.
    """
    if samples_per_class < 1 or dims < 1 or class_count < 1:
        raise ParameterError(
            "samples_per_class, dims and class_count must all be positive, got "
            f"{samples_per_class}, {dims}, {class_count}"
        )
    if spread < 0:
        raise ParameterError(f"spread must be >= 0, got {spread}")
    raw = CounterRng(seed, stream=1).normal(class_count * dims).reshape(class_count, dims)
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms < 1e-12):
        raise SamplingError("degenerate center draw; use a different seed")
    centers = 3.0 * raw / norms[:, None]
    total = samples_per_class * class_count
    noise = CounterRng(seed, stream=0).normal(total * dims).reshape(total, dims)
    features = np.repeat(centers, samples_per_class, axis=0) + spread * noise
    labels = np.repeat(np.arange(class_count), samples_per_class)
    return Dataset(features=features, labels=labels, class_count=class_count)


def gen_xor(seed: int, samples: int, noise: float) -> Dataset:
    """2-d XOR task: label 1 iff x*y > 0 on the clean coordinates."""
    if samples < 4:
        raise ParameterError(f"samples must be >= 4, got {samples}")
    if noise < 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    rng = CounterRng(seed, stream=0)
    points = rng.uniform(2 * samples, -1.0, 1.0).reshape(samples, 2)
    labels = (points[:, 0] * points[:, 1] > 0).astype(np.int64)
    points = points + noise * rng.normal(2 * samples).reshape(samples, 2)
    return Dataset(features=points, labels=labels, class_count=2)


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then slice: round(fraction*n) rows train, rest eval."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(
            f"train_fraction must lie strictly between 0 and 1, got {train_fraction}"
        )
    n = data.sample_count
    order = CounterRng(seed, stream=0).permutation(n)
    n_train = int(train_fraction * n + 0.5)
    head, tail = order[:n_train], order[n_train:]
    return (
        Dataset(data.features[head], data.labels[head], data.class_count),
        Dataset(data.features[tail], data.labels[tail], data.class_count),
    )


def save_csv(data: Dataset, path) -> None:
    """Header f0..f{d-1},label; floats via repr so files are byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(data.dim)] + ["label"]) + "\n")
        for row, label in zip(data.features, data.labels):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(label)) if data.class_count > 0 else repr(float(label)))
            fh.write(",".join(cells) + "\n")


def load_csv(path) -> Dataset:
    """Inverse of save_csv; integral labels mean classification (class_count = max+1)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ParameterError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[-1] != "label" or any(h != f"f{j}" for j, h in enumerate(header[:-1])):
        raise ParameterError(f"{path}: malformed header {lines[0]!r}")
    dim = len(header) - 1
    rows = []
    raw_labels = []
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParameterError(f"{path}:{ln}: expected {dim + 1} columns, got {len(cells)}")
        rows.append([float(c) for c in cells[:-1]])
        raw_labels.append(cells[-1])
    integral = all(_parses_as_int(s) for s in raw_labels)
    if integral:
        labels = np.array([int(s) for s in raw_labels], dtype=np.int64)
        class_count = int(labels.max()) + 1 if labels.min() >= 0 else 0
    else:
        class_count = 0
    if class_count == 0:
        labels = np.array([float(s) for s in raw_labels])
    return Dataset(features=np.array(rows), labels=labels, class_count=class_count)


def _parses_as_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
