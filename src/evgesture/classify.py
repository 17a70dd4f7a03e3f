"""Histogram signatures over end-layer events and k-NN classification.

A clip's signature counts end-layer prototype activations, optionally
pooled over a coarse spatial grid (the same cell tiling rule as the
background filter), then L1-normalized so clip length drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

import numpy as np

from .events import EventStream, SensorGeometry, grid_cells


@dataclass(frozen=True)
class PoolingConfig:
    grid_rows: int = 1
    grid_cols: int = 1  # 1x1 = global pooling

    def __post_init__(self):
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("pooling grid must be at least 1x1")

    @property
    def cells(self) -> int:
        return self.grid_rows * self.grid_cols


@dataclass
class Signature:
    values: np.ndarray


def accumulate(stream: EventStream, geometry: SensorGeometry,
               pooling: PoolingConfig, n_channels: int) -> Signature:
    """Count events per (spatial cell, channel) bin; returned unnormalized.

    Bin index = cell * n_channels + channel, cells in row-major order.
    """
    if len(stream) and int(stream.p.max()) >= n_channels:
        raise ValueError(
            f"channel {int(stream.p.max())} out of range for {n_channels} channels"
        )
    size = pooling.cells * n_channels
    cells = grid_cells(stream.x, stream.y, geometry, pooling.grid_rows,
                       pooling.grid_cols)
    bins = cells * n_channels + stream.p
    return Signature(np.bincount(bins, minlength=size).astype(float))


def normalize(signature: Signature) -> Signature:
    """L1-normalize globally; all-zero signatures pass through unchanged."""
    total = signature.values.sum()
    if total == 0:
        return Signature(signature.values.copy())
    return Signature(signature.values / total)


def check_unit(values: np.ndarray, name: str, column: str) -> None:
    """Raise ValueError at the first value of the matrix ``values``
    outside [0, 1], NaN included, naming it ``name`` with its row and its
    ``column``. A ``normalize`` output and a learned bank row, a convex
    combination of surfaces, have none, and the squared differences of
    k-NN and of matching cannot overflow on values in [0, 1]."""
    off = np.flatnonzero(~((values >= 0) & (values <= 1)))
    if len(off):
        row, col = divmod(int(off[0]), values.shape[1])
        raise ValueError(f"{name} value {values[row, col]} at row {row}, {column} {col} "
                         f"is outside [0, 1]")


@dataclass
class TrainedModel:
    signatures: np.ndarray  # (n, d)
    labels: list[str]
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k > len(self.labels):
            raise ValueError(f"k={self.k} out of range for {len(self.labels)} examples")


def knn_classify(model: TrainedModel, signature: Signature) -> tuple[str, np.ndarray]:
    """Majority label among the k nearest training signatures (Euclidean).

    Distance ties break by training-set order; vote ties break by the label
    of the single nearest neighbor among the tied labels.
    """
    if len(model.labels) == 0:
        raise ValueError("empty model")
    diff = model.signatures - signature.values
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    order = np.argsort(dist, kind="stable")  # stable: ties keep training order
    top = order[: model.k]
    votes = Counter(model.labels[i] for i in top)
    best = max(votes.values())
    tied = {label for label, v in votes.items() if v == best}
    for i in top:  # nearest first
        if model.labels[i] in tied:
            return model.labels[i], dist[top]
    raise AssertionError("unreachable")


@dataclass
class EvalResult:
    accuracy: float
    labels: list[str]  # row/col order of the confusion matrix
    confusion: np.ndarray  # rows = true label, cols = predicted


def evaluate(model: TrainedModel, test_signatures, test_labels) -> EvalResult:
    """Classify every test signature; confusion rows are true labels."""
    label_set = sorted(set(test_labels) | set(model.labels))
    index = {l: i for i, l in enumerate(label_set)}
    confusion = np.zeros((len(label_set), len(label_set)), dtype=int)
    correct = 0
    for sig, truth in zip(test_signatures, test_labels):
        pred, _ = knn_classify(model, sig)
        confusion[index[truth], index[pred]] += 1
        correct += pred == truth
    n = len(test_labels)
    return EvalResult(
        accuracy=correct / n if n else 0.0, labels=label_set, confusion=confusion
    )


def split_by_class(labels, train_per_class: int, rng: np.random.Generator):
    """Sample ``train_per_class`` indices per class; rest go to test.

    Deterministic given the generator state; per-class sampling without
    replacement.
    """
    labels = list(labels)
    by_class: dict[str, list[int]] = {}
    for i, l in enumerate(labels):
        by_class.setdefault(l, []).append(i)
    train_idx: list[int] = []
    for l in sorted(by_class):
        idx = by_class[l]
        if len(idx) < train_per_class:
            raise ValueError(f"class {l!r} has only {len(idx)} clips, "
                             f"need {train_per_class}")
        chosen = rng.permutation(len(idx))[:train_per_class]
        train_idx.extend(idx[int(c)] for c in chosen)
    train_set = set(train_idx)
    test_idx = [i for i in range(len(labels)) if i not in train_set]
    return sorted(train_idx), test_idx

