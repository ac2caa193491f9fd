"""Losses and label handling for 7-way ordinal rating.

Ratings live on the half-point scale {1.0, 1.5, ..., 4.0}; class indices run
1..7 via j = 2r - 1.  The primary loss penalizes each wrong-class log term by
its ordinal distance from the true class, so probability mass far from the
truth costs more than mass nearby.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from . import tensor as T
from .errors import DataError, UsageError
from .tensor import Tensor

RATINGS: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
NUM_CLASSES = len(RATINGS)
LOG_FLOOR = 1e-12

COMPONENTS: tuple[str, ...] = ("nature", "questioning", "explanations")
COMPONENT_TITLES: dict[str, str] = {
    "nature": "Nature of Discourse",
    "questioning": "Questioning",
    "explanations": "Explanations",
}


def rating_to_index(rating: float) -> int:
    """Map a half-point rating to its class index 1..7 (j = 2r - 1)."""
    j = 2.0 * float(rating) - 1.0
    rounded = int(round(j))
    if abs(j - rounded) > 1e-9 or not 1 <= rounded <= NUM_CLASSES:
        raise DataError(f"rating {rating!r} is not one of {RATINGS}")
    return rounded


def index_to_rating(index: int) -> float:
    if not 1 <= index <= NUM_CLASSES:
        raise DataError(f"class index {index} out of range 1..{NUM_CLASSES}")
    return RATINGS[index - 1]


def round_to_rating(value: float) -> float:
    """Clamp to [1, 4] and snap to the nearest rating; midpoints round up."""
    clamped = min(max(float(value), RATINGS[0]), RATINGS[-1])
    index = int(np.floor(2.0 * clamped - 0.5))
    return index_to_rating(min(max(index, 1), NUM_CLASSES))


def class_weights(train_labels: Iterable[float]) -> np.ndarray:
    """Inverse-frequency weights over the 7 classes, mean 1 on present classes.

    Classes absent from the training set get the largest present weight so a
    stray validation/test sample is never under-penalized.
    """
    counts = np.zeros(NUM_CLASSES)
    labels = list(train_labels)
    if not labels:
        raise UsageError("class_weights needs a nonempty training label list")
    for rating in labels:
        counts[rating_to_index(rating) - 1] += 1
    present = counts > 0
    weights = np.zeros(NUM_CLASSES)
    weights[present] = 1.0 / counts[present]
    weights[present] /= weights[present].mean()
    weights[~present] = weights[present].max()
    return weights


def _check_probs(probs: Tensor, n_labels: int) -> int:
    """Validate a probability batch and return its class count."""
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise UsageError(f"probs must be [batch, classes], got {probs.shape}")
    if probs.shape[0] != n_labels:
        raise UsageError(f"{probs.shape[0]} probability rows for {n_labels} labels")
    sums = probs.data.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-5:
        raise UsageError("probability rows must sum to 1 within 1e-5")
    return probs.shape[1]


def _sample_weights(label_indices: Sequence[int], weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        return np.ones(len(label_indices))
    weights = np.asarray(weights, dtype=np.float64)
    return weights[np.asarray(label_indices) - 1]


def _clamped_log(x: Tensor) -> Tensor:
    return T.log(T.clamp_min(x, LOG_FLOOR))


def oll_loss(probs: Tensor, label_indices: Sequence[int],
             weights: np.ndarray | None = None) -> Tensor:
    """Ordinal log-loss: -(1/N) sum_i w_i sum_j log(1 - p_ij) |y_i - j|.

    Distances are measured in index space 1..7.  A one-hot correct prediction
    costs exactly zero: the true class has distance zero and every other class
    contributes log(1 - 0) = 0.
    """
    label_indices = [int(j) for j in label_indices]
    k = _check_probs(probs, len(label_indices))
    for j in label_indices:
        if not 1 <= j <= k:
            raise UsageError(f"label index {j} out of range 1..{k}")
    n = len(label_indices)
    classes = np.arange(1, k + 1)
    distances = np.abs(np.asarray(label_indices)[:, None] - classes[None, :])
    w = _sample_weights(label_indices, weights)
    coeff = Tensor(distances * w[:, None])
    log_terms = _clamped_log(1.0 - probs)
    return (log_terms * coeff).sum() * (-1.0 / n)


def weighted_ce_loss(probs: Tensor, label_indices: Sequence[int],
                     weights: np.ndarray | None = None) -> Tensor:
    """Class-weighted cross-entropy on probabilities: -(1/N) sum_i w_i log p_i,y_i."""
    label_indices = [int(j) for j in label_indices]
    k = _check_probs(probs, len(label_indices))
    n = len(label_indices)
    onehot = np.zeros((n, k))
    for row, j in enumerate(label_indices):
        if not 1 <= j <= k:
            raise UsageError(f"label index {j} out of range 1..{k}")
        onehot[row, j - 1] = 1.0
    true_probs = (probs * Tensor(onehot)).sum(axis=1)
    w = Tensor(_sample_weights(label_indices, weights))
    return (_clamped_log(true_probs) * w).sum() * (-1.0 / n)


def l1_loss(preds: Tensor, label_ratings: Sequence[float],
            weights: np.ndarray | None = None) -> Tensor:
    """Weighted mean absolute error in rating units (regression mode)."""
    if preds.ndim != 1:
        raise UsageError(f"preds must be a vector of scores, got shape {preds.shape}")
    ratings = [float(r) for r in label_ratings]
    if preds.shape[0] != len(ratings):
        raise UsageError(f"{preds.shape[0]} predictions for {len(ratings)} labels")
    indices = [rating_to_index(r) for r in ratings]
    w = Tensor(_sample_weights(indices, weights))
    diff = T.absolute(preds - Tensor(np.asarray(ratings)))
    return (diff * w).sum() * (1.0 / len(ratings))


def multitask_total(losses: Mapping[str, Tensor]) -> Tensor:
    """Sum of per-component losses; every task weighs 1."""
    if not losses:
        raise UsageError("multitask_total needs at least one component loss")
    total: Tensor | None = None
    for loss in losses.values():
        total = loss if total is None else total + loss
    return total
