"""Segmentation and road-class evaluation: confusion table, IoU, mIoU, accuracy."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import SegmentationMask

N_CLASSES = 3


def confusion(pred: SegmentationMask, gt: SegmentationMask) -> np.ndarray:
    """The int64 N_CLASSES x N_CLASSES table whose [g, p] entry counts the
    pixels of ground-truth class g predicted as class p."""
    if pred.data.shape != gt.data.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.data.shape} vs gt {gt.data.shape}"
        )
    return np.bincount(
        gt.data.ravel().astype(np.int64) * N_CLASSES + pred.data.ravel(),
        minlength=N_CLASSES * N_CLASSES,
    ).reshape(N_CLASSES, N_CLASSES)


def iou(table: np.ndarray, class_id: int) -> float | None:
    """TP / (FP + TP + FN); None when the class is absent (denominator 0)."""
    c = int(class_id)
    denom = int(table[c].sum() + table[:, c].sum() - table[c, c])
    return None if denom == 0 else int(table[c, c]) / denom


def miou(table: np.ndarray) -> float:
    """Unweighted mean IoU over the classes that are not absent."""
    values = [v for c in range(N_CLASSES) if (v := iou(table, c)) is not None]
    if not values:
        raise ValueError("mIoU undefined: every class is absent")
    return float(np.mean(values))


def accuracy(pred_classes: Sequence[int], gt_classes: Sequence[int]) -> float:
    """Fraction of exact road-class matches."""
    if len(pred_classes) != len(gt_classes):
        raise ValueError(
            f"length mismatch: {len(pred_classes)} pred vs {len(gt_classes)} gt"
        )
    if len(pred_classes) == 0:
        raise ValueError("accuracy of an empty batch")
    hits = sum(1 for p, g in zip(pred_classes, gt_classes) if int(p) == int(g))
    return hits / len(pred_classes)
