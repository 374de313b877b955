"""Ranking and probability metrics over grouped (mass-weighted) rankings.

A grouped ranking is a set of rows (score, positive mass, negative mass);
per-pair rankings are the special case of unit masses. A `GroupedRanking`
walks its rows once, when built: one stable descending sort, tied scores
merged into one step. AUROC, EAUROC and the confusion counts at a
proportion all read those steps, so no metric sorts again. EAUROC's
default cut-off q lives on the ranking, `GroupedRanking.default_q`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_CLAMP = 1e-12


@dataclass
class GroupedRanking:
    """Rows (score, positive mass, negative mass), sorted once when built:
    `cum_pos` and `cum_neg` are the masses ranked above each boundary
    between tied-score groups, from 0 up to the class totals."""
    scores: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    cum_pos: np.ndarray = field(init=False, repr=False)
    cum_neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.neg = np.asarray(self.neg, dtype=float)
        if not (self.scores.shape == self.pos.shape == self.neg.shape):
            raise ValueError("scores, pos, neg must have identical shapes")
        if np.any(self.pos < 0) or np.any(self.neg < 0):
            raise ValueError("masses must be non-negative")
        order = np.argsort(-self.scores, kind="stable")
        scores = self.scores[order]
        steps = np.concatenate([[0], np.nonzero(np.diff(scores))[0] + 1, [len(scores)]])
        # summed row by row, then read at the boundaries: summing each tie
        # group first would round non-integer masses differently
        self.cum_pos = np.concatenate([[0.0], np.cumsum(self.pos[order])])[steps]
        self.cum_neg = np.concatenate([[0.0], np.cumsum(self.neg[order])])[steps]

    @classmethod
    def from_pairs(cls, scores, labels) -> "GroupedRanking":
        labels = np.asarray(labels, dtype=float)
        return cls(np.asarray(scores, dtype=float), labels, 1.0 - labels)

    def class_totals(self) -> tuple[float, float]:
        """(P, N), the positive and negative mass; both must be positive."""
        P, N = float(self.pos.sum()), float(self.neg.sum())
        if P <= 0 or N <= 0:
            raise ValueError("both classes must carry positive mass")
        return P, N

    def default_q(self) -> float:
        """EAUROC's default cut-off: the odds P/N capped at 1. Odds that
        underflow to 0, which only float masses reach, leave no cut-off: a
        ValueError naming P and N."""
        P, N = self.class_totals()
        odds = P / N
        if odds == 0:
            raise ValueError(f"the class odds P/N round to 0 (P = {P!r}, N = {N!r}); "
                             "give q explicitly")
        return min(odds, 1.0)


def _area(value) -> float:
    """An area in [0, 1]: float masses can round a trapezoid sum an ulp past
    either end."""
    return float(min(max(value, 0.0), 1.0))


def auroc(r: GroupedRanking) -> float:
    """Trapezoidal area under the ROC curve, one point per tie-group
    boundary, clamped to [0, 1]."""
    P, N = r.class_totals()
    return _area(np.trapezoid(r.cum_pos / P, r.cum_neg / N))


def eauroc(r: GroupedRanking, q: float | None = None) -> float:
    """Partial AUROC on FPR in [0, q], normalized by q; q defaults to
    `r.default_q()`. It reads the ranking's one sort, as `auroc` does.
    eauroc(r, 1) equals auroc(r) exactly for integer masses. With float
    masses the last FPR can land an ulp above 1 and the partial sum over
    [0, q] an ulp above q, so the result is clamped to [0, 1]."""
    if q is None:
        q = r.default_q()
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    P, N = r.class_totals()
    fpr, tpr = r.cum_neg / N, r.cum_pos / P
    if q >= fpr[-1]:
        return _area(np.trapezoid(tpr, fpr) / q)
    cut = int(np.searchsorted(fpr, q, side="right"))
    # interpolate the segment crossing q
    f0, f1 = fpr[cut - 1], fpr[cut]
    t0, t1 = tpr[cut - 1], tpr[cut]
    t_q = t0 if f1 == f0 else t0 + (t1 - t0) * (q - f0) / (f1 - f0)
    return _area(np.trapezoid(np.concatenate([tpr[:cut], [t_q]]),
                              np.concatenate([fpr[:cut], [q]])) / q)


def ranking_report(r: GroupedRanking, q: float | None = None) -> dict:
    """AUROC, EAUROC at q, q itself (`r.default_q()` if None) and the
    negative log-likelihood of the ranking's scores."""
    q = r.default_q() if q is None else q
    return {"auroc": auroc(r), "eauroc": eauroc(r, q), "q": q,
            "neg_log_lik": grouped_log_loss(r.scores, r.pos, r.neg)}


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
    """(FN, FP) after accepting rows in descending-score order up to the
    prefix whose accepted fraction is closest to `proportion` (ties -> the
    smaller prefix). Tied rows are accepted or rejected together, so the
    result is invariant to expanding a row into per-pair rows."""
    if not 0 < proportion < 1:
        raise ValueError("proportion must lie in (0, 1)")
    P = r.pos.sum()
    accepted = (r.cum_pos + r.cum_neg) / (P + r.neg.sum())
    best = int(np.argmin(np.abs(accepted - proportion)))  # first (smallest prefix) on ties
    return float(P - r.cum_pos[best]), float(r.cum_neg[best])
