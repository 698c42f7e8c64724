"""Exact (non-private) group fairness and evaluation metrics.

These are the ground-truth counterparts of the private estimates: acceptance
rates are computed directly from predictions and group labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class PredictionSet:
    """Predictions, labels and group membership for one evaluation split."""

    y_true: np.ndarray
    y_pred: np.ndarray
    groups: np.ndarray
    k: int

    def __post_init__(self):
        y_true = np.asarray(self.y_true, dtype=int)
        y_pred = np.asarray(self.y_pred, dtype=int)
        groups = np.asarray(self.groups, dtype=int)
        if not (len(y_true) == len(y_pred) == len(groups)):
            raise MetricError("y_true, y_pred and groups must have equal length")
        if groups.size and (groups.min() < 0 or groups.max() >= self.k):
            raise MetricError(f"group indices must lie in [0, {self.k})")
        object.__setattr__(self, "y_true", y_true)
        object.__setattr__(self, "y_pred", y_pred)
        object.__setattr__(self, "groups", groups)


def acceptance_rates(preds: PredictionSet) -> np.ndarray:
    """Per-group favorable-prediction rates; every group must be nonempty."""
    sizes = np.bincount(preds.groups, minlength=preds.k).astype(float)
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0])
        raise MetricError(f"group {empty} is empty; acceptance rate undefined")
    favorable = np.bincount(preds.groups, weights=preds.y_pred, minlength=preds.k)
    return favorable / sizes


def sp_ratio_kary(preds: PredictionSet) -> float:
    """Statistical parity as min/max of the K acceptance rates, in [0, 1]."""
    rates = acceptance_rates(preds)
    top = float(rates.max())
    if top == 0.0:
        raise MetricError("all acceptance rates are zero; ratio degenerate")
    return float(rates.min()) / top


def aaspe(true_sps, est_sps) -> float:
    """Mean absolute difference between true and estimated parity values."""
    a = np.asarray(true_sps, dtype=float)
    b = np.asarray(est_sps, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise MetricError("true and estimated vectors must be nonempty and equal-length")
    return float(np.mean(np.abs(a - b)))


def decile_class(value: float) -> int:
    """First-decimal class of a parity value; 1.0 joins class 9.

    round() guards against float artifacts like 0.7*10 == 6.999...9 so that
    values stated to one decimal land in the intended class.
    """
    return min(9, int(math.floor(round(value * 10.0, 9))))


def uar(true_sps, est_sps) -> float:
    """Unweighted average recall over the decile classes present in the truth."""
    a = np.asarray(true_sps, dtype=float)
    b = np.asarray(est_sps, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise MetricError("true and estimated vectors must be nonempty and equal-length")
    tc = np.array([decile_class(v) for v in a])
    ec = np.array([decile_class(v) for v in b])
    recalls = []
    for c in sorted(set(tc.tolist())):
        mask = tc == c
        recalls.append(float(np.mean(ec[mask] == c)))
    return float(np.mean(recalls))


def uar_minus_aaspe(true_sps, est_sps) -> float:
    return uar(true_sps, est_sps) - aaspe(true_sps, est_sps)


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean of the per-class recalls of the binary labels."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    recalls = []
    for y in (0, 1):
        mask = y_true == y
        if not mask.any():
            raise MetricError(f"class {y} absent from y_true; balanced accuracy undefined")
        recalls.append(float(np.mean(y_pred[mask] == y)))
    return float(np.mean(recalls))
