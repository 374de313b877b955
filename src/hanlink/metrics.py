"""Ranking and probability metrics over grouped (mass-weighted) rankings.

A grouped ranking is a set of rows (score, positive mass, negative mass);
per-pair rankings are the special case of unit masses. AUROC/EAUROC merge
tied scores into single trapezoidal ROC segments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-12

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class GroupedRanking:
    scores: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.neg = np.asarray(self.neg, dtype=float)
        if not (self.scores.shape == self.pos.shape == self.neg.shape):
            raise ValueError("scores, pos, neg must have identical shapes")
        if np.any(self.pos < 0) or np.any(self.neg < 0):
            raise ValueError("masses must be non-negative")

    @classmethod
    def from_pairs(cls, scores, labels) -> "GroupedRanking":
        labels = np.asarray(labels, dtype=float)
        return cls(np.asarray(scores, dtype=float), labels, 1.0 - labels)

    def total_pos(self) -> float:
        return float(self.pos.sum())

    def total_neg(self) -> float:
        return float(self.neg.sum())


def _roc_points(r: GroupedRanking) -> tuple[np.ndarray, np.ndarray]:
    """ROC polyline (FPR, TPR) walking scores in descending order with tied
    scores merged into one segment."""
    P, N = r.total_pos(), r.total_neg()
    if P <= 0 or N <= 0:
        raise ValueError("both classes must carry positive mass")
    order = np.argsort(-r.scores, kind="stable")
    scores = r.scores[order]
    pos = r.pos[order]
    neg = r.neg[order]
    # group ties
    boundaries = np.nonzero(np.diff(scores))[0] + 1
    cum_pos = np.concatenate([[0.0], np.cumsum(pos)])
    cum_neg = np.concatenate([[0.0], np.cumsum(neg)])
    idx = np.concatenate([[0], boundaries, [len(scores)]])
    tpr = cum_pos[idx] / P
    fpr = cum_neg[idx] / N
    return fpr, tpr


def auroc(r: GroupedRanking) -> float:
    """Trapezoidal area under the ROC curve."""
    fpr, tpr = _roc_points(r)
    return float(_trapezoid(tpr, fpr))


def eauroc(r: GroupedRanking, q: float | None = None) -> float:
    """Partial AUROC on FPR in [0, q], normalized by q.

    Defaults q to the positive/negative mass odds (the early-recovery cap);
    eauroc(r, 1) equals auroc(r) exactly.
    """
    if q is None:
        q = min(r.total_pos() / r.total_neg(), 1.0)
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    return _partial_area(*_roc_points(r), q)


def auroc_eauroc(r: GroupedRanking) -> tuple[float, float]:
    """(auroc(r), eauroc(r)) from one ROC polyline, so one sort."""
    fpr, tpr = _roc_points(r)
    return (float(_trapezoid(tpr, fpr)),
            _partial_area(fpr, tpr, min(r.total_pos() / r.total_neg(), 1.0)))


def _partial_area(fpr: np.ndarray, tpr: np.ndarray, q: float) -> float:
    if q >= fpr[-1]:
        return float(_trapezoid(tpr, fpr)) / q
    cut = int(np.searchsorted(fpr, q, side="right"))
    # interpolate the segment crossing q
    f0, f1 = fpr[cut - 1], fpr[cut]
    t0, t1 = tpr[cut - 1], tpr[cut]
    t_q = t0 if f1 == f0 else t0 + (t1 - t0) * (q - f0) / (f1 - f0)
    fpr_part = np.concatenate([fpr[:cut], [q]])
    tpr_part = np.concatenate([tpr[:cut], [t_q]])
    return float(_trapezoid(tpr_part, fpr_part)) / q


def log_loss(probs, labels) -> float:
    """Total negative Bernoulli log-likelihood (nats) with probability
    clamping at 1e-12."""
    y = np.asarray(labels, dtype=float)
    return grouped_log_loss(probs, y, 1.0 - y)


def grouped_log_loss(probs, pos, neg) -> float:
    """log_loss where each row carries `pos` positive and `neg` negative pairs."""
    p = np.clip(np.asarray(probs, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    return float(-(pos * np.log(p) + neg * np.log(1.0 - p)).sum())


def confusion_at_proportion(r: GroupedRanking, proportion: float) -> tuple[float, float]:
    """(FN, FP) after accepting whole rows in descending-score order up to
    the prefix whose accepted fraction is closest to `proportion`
    (ties -> the smaller prefix).

    Rows with tied scores are indistinguishable and are accepted or
    rejected together, so the result is invariant to expanding a row into
    per-pair rows.
    """
    if not 0 < proportion < 1:
        raise ValueError("proportion must lie in (0, 1)")
    order = np.argsort(-r.scores, kind="stable")
    scores = r.scores[order]
    pos = r.pos[order]
    neg = r.neg[order]
    starts = np.concatenate([[0], np.nonzero(np.diff(scores))[0] + 1])
    pos = np.add.reduceat(pos, starts)
    neg = np.add.reduceat(neg, starts)
    total = r.pos.sum() + r.neg.sum()
    accepted = np.concatenate([[0.0], np.cumsum(pos + neg)]) / total
    gap = np.abs(accepted - proportion)
    best = int(np.argmin(gap))  # argmin takes the first (smallest prefix) on ties
    fp = float(np.cumsum(np.concatenate([[0.0], neg]))[best])
    fn = float(r.pos.sum() - np.cumsum(np.concatenate([[0.0], pos]))[best])
    return fn, fp
