"""Segmentation metrics from an MxM pixel confusion matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError


def check_labels(labels, m: int, what: str) -> np.ndarray:
    """``labels`` as an array, checked to hold integers in [0, m): the one label
    rule of cross-entropy, the confusion matrix and the dataset reader.  A
    non-integer dtype (bool included) or an out-of-range value is a DataError
    whose message starts with ``what`` and names the first bad index."""
    arr = np.asarray(labels)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"{what} labels must be of integer dtype, found {arr.dtype}")
    bad = (arr < 0) | (arr >= m)
    if bad.any():
        index = tuple(int(v[0]) for v in np.nonzero(bad))
        raise DataError(f"{what} label {int(arr[index])} out of range [0,{m}) at {index}")
    return arr


@dataclass
class ConfusionMatrix:
    """counts[i][j] = pixels with ground truth i predicted as j."""

    counts: np.ndarray

    @classmethod
    def from_labels(cls, preds: np.ndarray, truth: np.ndarray, m: int) -> "ConfusionMatrix":
        preds = check_labels(preds, m, "from_labels: predicted")
        truth = check_labels(truth, m, "from_labels: ground-truth")
        if preds.shape != truth.shape:
            raise DimensionError(f"preds shape {preds.shape} != truth shape {truth.shape}")
        flat = m * truth.reshape(-1).astype(np.int64) + preds.reshape(-1)
        counts = np.bincount(flat, minlength=m * m).reshape(m, m)
        return cls(counts)

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

    @property
    def classes(self) -> int:
        return self.counts.shape[0]

    def pixel_accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0

    def per_class_iou(self) -> list[float | None]:
        """IoU per class; None where the class is absent from both prediction
        and ground truth (0/0 term, excluded from the mean)."""
        diag = np.diag(self.counts)
        gt = self.counts.sum(axis=1)
        pred = self.counts.sum(axis=0)
        union = gt + pred - diag
        return [float(diag[i] / union[i]) if union[i] else None
                for i in range(self.classes)]

    def mean_iou(self) -> float:
        ious = [v for v in self.per_class_iou() if v is not None]
        return float(np.mean(ious)) if ious else 0.0


def metrics(preds: np.ndarray, truth: np.ndarray, m: int,
            ) -> tuple[float, float, ConfusionMatrix]:
    cm = ConfusionMatrix.from_labels(preds, truth, m)
    return cm.pixel_accuracy(), cm.mean_iou(), cm
