"""Seeded synthetic datasets (Gaussian blobs, noisy XOR) and CSV round-trip.

Every generator draws exclusively from `CounterRng`, so datasets are bitwise
reproducible for a given seed on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingError, ShapeError, expect_int, expect_positive
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
        expect_int(self.class_count, "class_count", ParameterError, 0)
        if self.class_count > 0:
            whole = np.isfinite(self.labels) & (self.labels == np.trunc(self.labels))
            if not whole.all():
                row = int(np.argmin(whole))
                raise ParameterError(
                    f"class labels must be integers, got {self.labels[row]} at row {row}"
                )
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
    for name, value in (("samples_per_class", samples_per_class), ("dims", dims),
                        ("class_count", class_count)):
        expect_int(value, name, ParameterError, 1)
    expect_positive(spread, "spread", zero=True)
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
    expect_int(samples, "samples", ParameterError, 4)
    expect_positive(noise, "noise", zero=True)
    rng = CounterRng(seed, stream=0)
    points = rng.uniform(2 * samples, -1.0, 1.0).reshape(samples, 2)
    labels = (points[:, 0] * points[:, 1] > 0).astype(np.int64)
    points = points + noise * rng.normal(2 * samples).reshape(samples, 2)
    return Dataset(features=points, labels=labels, class_count=2)


def write_csv(path, header, rows) -> None:
    """UTF-8, LF line ends, floats via repr and other cells via str: byte-stable files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def save_csv(data: Dataset, path) -> None:
    """Header f0..f{d-1},label; integer labels for classes, float labels otherwise."""
    write_csv(path, [f"f{j}" for j in range(data.dim)] + ["label"],
              (row + [label] for row, label in zip(data.features.tolist(),
                                                   data.labels.tolist())))


def load_csv(path) -> Dataset:
    """Inverse of save_csv; integral labels mean classification (class_count = max+1).

    A header-only file, a cell that is not a number or an integral label that
    is negative or beyond int64 raises ParameterError naming ``path:line``
    (blank lines are skipped but counted); so does a file that is not UTF-8
    text, naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # (line number, text) of every non-blank line, numbered as in the file.
            lines = [(ln, line.rstrip("\n")) for ln, line in enumerate(fh, start=1)
                     if line.strip()]
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not lines:
        raise ParameterError(f"{path}: empty dataset file")
    header_ln, header_line = lines[0]
    header = header_line.split(",")
    if header[-1] != "label" or any(h != f"f{j}" for j, h in enumerate(header[:-1])):
        raise ParameterError(f"{path}: malformed header {header_line!r}")
    dim = len(header) - 1
    rows = []
    raw_labels = []
    for ln, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParameterError(f"{path}:{ln}: expected {dim + 1} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells][:-1])
        except ValueError as exc:
            raise ParameterError(f"{path}:{ln}: {exc}") from exc
        raw_labels.append(cells[-1])
    if not rows:
        raise ParameterError(f"{path}:{header_ln}: header but no data rows")
    try:
        ints = [int(s) for s in raw_labels]
    except ValueError:
        labels, class_count = np.array([float(s) for s in raw_labels]), 0
    else:
        for (ln, _), label in zip(lines[1:], ints):
            if not 0 <= label < 2**63:  # int64
                raise ParameterError(f"{path}:{ln}: class label {label} is outside [0, 2**63)")
        labels = np.array(ints, dtype=np.int64)
        class_count = int(labels.max()) + 1
    return Dataset(features=np.array(rows), labels=labels, class_count=class_count)
