"""Agreement metrics and evaluation summaries.

Quadratic weighted kappa (QWK) is the primary metric: chance-corrected
agreement with (i - j)^2 penalties, computed from a confusion matrix of class
indices.  Model-vs-label agreement uses the 7 half-point rating classes;
rater-vs-rater reliability uses the raw 4-point integer scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from .data import RATER_POINTS, RaterRecord, rater_pairs
from .errors import DataError, UsageError


def confusion_matrix(truth: Sequence[int], pred: Sequence[int], num_classes: int) -> np.ndarray:
    """Counts with true class on rows and predicted class on columns (1-based)."""
    truth = np.asarray(truth, dtype=int)
    pred = np.asarray(pred, dtype=int)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise UsageError(f"truth/pred must be equal-length vectors, got {truth.shape} vs {pred.shape}")
    if truth.size < 1:
        raise UsageError("need at least one scored item")
    for arr, label in ((truth, "truth"), (pred, "pred")):
        if arr.min() < 1 or arr.max() > num_classes:
            raise UsageError(f"{label} indices must lie in 1..{num_classes}")
    counts = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(counts, (truth - 1, pred - 1), 1)
    return counts


def qwk_from_confusion(counts: np.ndarray) -> float:
    """QWK = 1 - sum(w O) / sum(w E), w_ij = (i - j)^2, E from the marginals.

    When expected disagreement is zero the ratio is 0/0; by convention the
    result is 1.0 on perfect agreement and 0.0 otherwise.
    """
    counts = np.asarray(counts, dtype=np.float64)
    k = counts.shape[0]
    idx = np.arange(k, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    num = float((w * counts).sum())
    den = float((w * expected).sum())
    if den == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return 1.0 - num / den


def qwk(truth: Sequence[int], pred: Sequence[int], num_classes: int) -> float:
    """Quadratic weighted kappa between two class-index sequences."""
    return qwk_from_confusion(confusion_matrix(truth, pred, num_classes))


@dataclass
class IrrResult:
    per_rater: dict[str, float]
    mean: float
    standard_error: float


def irr_leave_one_rater_out(rater_records: Sequence[RaterRecord], component: str) -> IrrResult:
    """Leave-one-rater-out reliability on the raw integer scores.

    For each rater, their scores pair with the co-rater's score on every
    segment they rated; QWK is computed over those pairs and summarized as
    mean and standard error across raters.  Each rated segment must hold
    the two records ``data.rater_pairs`` requires.
    """
    by_segment = rater_pairs(rater_records, component)
    raters = dict.fromkeys(rec.rater_id for rec in rater_records if rec.component == component)
    if len(raters) < 2:
        raise DataError(f"need at least 2 raters for component {component!r}")

    per_rater: dict[str, float] = {}
    for rater in raters:
        own, others = [], []
        for records in by_segment.values():
            ids = [r.rater_id for r in records]
            if rater in ids:
                mine = records[ids.index(rater)]
                partner = records[1 - ids.index(rater)]
                own.append(int(mine.score))
                others.append(int(partner.score))
        per_rater[rater] = qwk(own, others, RATER_POINTS)

    values = list(per_rater.values())
    mean, se = fold_summary(values)
    return IrrResult(per_rater=per_rater, mean=mean, standard_error=se)


def fold_summary(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error (sample sd over sqrt(n)); SE is 0 for n = 1."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1:
        raise UsageError("fold_summary needs at least one value")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, se


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation with a two-tailed t-test p-value (n - 2 df)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError(f"x/y must be equal-length vectors, got {x.shape} vs {y.shape}")
    n = x.size
    if n < 3:
        raise UsageError(f"pearson_r needs at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DataError("correlation undefined: an input has zero variance")
    r = float((dx * dy).sum() / (sx * sy))
    r = min(max(r, -1.0), 1.0)
    if abs(r) == 1.0:
        return r, 0.0
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass
class ComponentSummary:
    per_fold: list[float]
    mean: float
    standard_error: float


@dataclass
class EvaluationReport:
    """Per-component fold scores plus confusion matrices and raw predictions."""

    components: dict[str, ComponentSummary]
    overall: ComponentSummary
    confusions: dict[str, np.ndarray] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "components": {name: asdict(summary) for name, summary in self.components.items()},
            "overall": asdict(self.overall),
            "confusion_matrices": {
                name: matrix.tolist() for name, matrix in self.confusions.items()
            },
        }


def summarize_folds(per_fold_by_component: Mapping[str, Sequence[float]]) -> EvaluationReport:
    """Build a report from fold-wise QWK values per component.

    The overall row averages the components within each fold first, then
    summarizes across folds.
    """
    fold_counts = {len(v) for v in per_fold_by_component.values()}
    if len(fold_counts) != 1:
        raise UsageError("components report different fold counts")
    components = {}
    for name, values in per_fold_by_component.items():
        mean, se = fold_summary(values)
        components[name] = ComponentSummary([float(v) for v in values], mean, se)
    stacked = np.asarray([list(v) for v in per_fold_by_component.values()])
    per_fold_overall = stacked.mean(axis=0)
    mean, se = fold_summary(per_fold_overall)
    return EvaluationReport(components,
                            ComponentSummary([float(v) for v in per_fold_overall], mean, se))
