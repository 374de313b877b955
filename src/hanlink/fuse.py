"""Incorporating name-score information into a fitted linkage model.

Three methods: tau1 picks the agreement threshold maximizing predicted F1
of name matching among name-disagreeing rows; tau2 picks the threshold
maximizing the predicted post-transfer ranking quality (AUROC) using the
donor/recipient transfer equations. Both predictions depend on tau only
through the tails (P(X>=tau|M), P(X>=tau|U)), so each selector evaluates
one grid point per run of equal tails and takes the first maximum over
the grid. Posterior adjustment re-estimates match probabilities
pair-by-pair with the monotone likelihood ratio of the observed name
score, skipping rows where no posterior above the floor is achievable.
All three act on one `CandidatePairs`: the name-scored pairs of whole
gamma_name=0 rows, each with its table row, score and truth label, checked
once when built. They become each method's ranking here: the threshold
moves give a new pattern table (`apply_threshold`), and the posterior
gives the ranking itself (`posterior_adjust`).
"""
from __future__ import annotations

import numpy as np

from .compare import index_type
from .linkage import InputError, LinkageModel, PatternTable, gamma_codes, zeta_for_gammas
from .matcher import ScoreDistribution
from .metrics import GroupedRanking, auroc


def _name_index(table: PatternTable) -> int:
    try:
        return table.fields.index("name")
    except ValueError as exc:
        raise ValueError("pattern table has no 'name' field") from exc


def _donor_rows(table: PatternTable) -> np.ndarray:
    return np.nonzero(table.gammas[:, _name_index(table)] == 0)[0]


def _recipients(table: PatternTable, donors: np.ndarray) -> np.ndarray:
    """The gammas of the gamma_name=0 rows `donors` with gamma_name set to 1:
    the rows their moved pairs go to."""
    gammas = table.gammas[donors].copy()
    gammas[:, _name_index(table)] = 1
    return gammas


def transfer_predictions(zeta1, n1, zeta2, n2, tail_m, tail_u):
    """Predicted (zeta1_hat, zeta2_hat, n1_hat, n2_hat) after moving pairs
    with name score >= tau from a donor row (gamma_name=0) to its
    recipient row (gamma_name=1).

    tail_m/tail_u are P(X>=tau|M), P(X>=tau|U). The four equations
    conserve both total counts and matched mass.
    """
    zeta1 = np.asarray(zeta1, dtype=float)
    n1 = np.asarray(n1, dtype=float)
    zeta2 = np.asarray(zeta2, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    tail_m = np.asarray(tail_m, dtype=float)
    tail_u = np.asarray(tail_u, dtype=float)
    stay_m = zeta1 * (1.0 - tail_m)
    stay_u = (1.0 - zeta1) * (1.0 - tail_u)
    stay = stay_m + stay_u
    move = zeta1 * tail_m + (1.0 - zeta1) * tail_u
    n1_hat = n1 * stay
    n2_hat = n2 + n1 * move
    with np.errstate(invalid="ignore", divide="ignore"):
        zeta1_hat = np.where(stay > 0, stay_m / np.where(stay > 0, stay, 1.0), zeta1)
        num2 = zeta2 * n2 + zeta1 * tail_m * n1
        zeta2_hat = np.where(n2_hat > 0, num2 / np.where(n2_hat > 0, n2_hat, 1.0), zeta2)
    return zeta1_hat, zeta2_hat, n1_hat, n2_hat


def _tail_steps(dist: ScoreDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices where (tail_m, tail_u) changes, the first point
    included, and each grid point's step: every point of a step predicts
    what its first point does."""
    step = np.concatenate([[True], (np.diff(dist.tail_m) != 0) | (np.diff(dist.tail_u) != 0)])
    return np.nonzero(step)[0], np.cumsum(step) - 1


def tau1_select(table: PatternTable, zetas: np.ndarray, dist: ScoreDistribution) -> float:
    """Threshold maximizing predicted F1 of name agreement among
    name-disagreeing rows, over the score grid (ties -> smallest tau)."""
    donors = _donor_rows(table)
    if len(donors) == 0:
        raise InputError("no rows with name disagreement; nothing to adjust")
    z = np.asarray(zetas, dtype=float)[donors]
    w = table.counts[donors].astype(float)
    w = w / w.sum() if w.sum() > 0 else np.full(len(donors), 1.0 / len(donors))
    starts, _ = _tail_steps(dist)
    recall = dist.tail_m[starts]
    zc = z[:, None]
    num = zc * recall[None, :]  # (donors, steps)
    den = num + (1.0 - zc) * dist.tail_u[starts][None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        prec_rows = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    precision = (w[:, None] * prec_rows).sum(axis=0)
    pr = precision + recall
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return float(dist.grid[starts[int(np.argmax(f1))]])  # first max -> smallest tau


def _tau2_curve(table: PatternTable, zetas: np.ndarray, dist: ScoreDistribution,
                model: LinkageModel) -> np.ndarray:
    """Predicted post-transfer AUROC at every grid point.

    Every donor row is paired with the recipient row sharing all other
    agreement values with gamma_name=1; absent recipients are created with
    N=0 and zeta from the model. Untouched rows enter the ranking with
    their prior zeta and count.
    """
    donors = _donor_rows(table)
    if len(donors) == 0:
        raise InputError("no rows with name disagreement; nothing to adjust")
    zetas = np.asarray(zetas, dtype=float)
    recipients = _recipients(table, donors)
    recip = table.rows_of(gamma_codes(recipients.T))
    have = recip >= 0
    z1 = zetas[donors]
    n1 = table.counts[donors].astype(float)
    z2 = np.empty(len(donors))
    n2 = np.zeros(len(donors))
    z2[have] = zetas[recip[have]]
    n2[have] = table.counts[recip[have]]
    z2[~have] = zeta_for_gammas(model, recipients[~have])

    untouched = np.ones(len(table.counts), dtype=bool)
    untouched[donors] = untouched[recip[have]] = False
    u_scores = zetas[untouched]
    u_n = table.counts[untouched].astype(float)

    starts, expand = _tail_steps(dist)
    pred = np.empty(len(starts))
    for k, g in enumerate(starts):
        zh1, zh2, nh1, nh2 = transfer_predictions(z1, n1, z2, n2,
                                                  dist.tail_m[g], dist.tail_u[g])
        scores = np.concatenate([u_scores, zh1, zh2])
        masses = np.concatenate([u_n, nh1, nh2])
        pred[k] = auroc(GroupedRanking(scores, scores * masses, (1.0 - scores) * masses))
    return pred[expand]


def tau2_select(table: PatternTable, zetas: np.ndarray, dist: ScoreDistribution,
                model: LinkageModel) -> float:
    """Threshold maximizing predicted post-transfer AUROC over the grid
    (ties -> smallest tau); see `_tau2_curve`."""
    return float(dist.grid[int(np.argmax(_tau2_curve(table, zetas, dist, model)))])


def _row_mask(table: PatternTable, rows: np.ndarray) -> np.ndarray:
    """One flag per row of `table`, set at each of `rows`."""
    mask = np.zeros(len(table.counts), dtype=bool)
    mask[rows] = True
    return mask


def _all_flagged(ids: np.ndarray, mask: np.ndarray) -> bool:
    """Whether every id indexes a set flag of `mask`; a negative id does not."""
    return bool(((ids >= 0) & (ids < len(mask))).all() and mask[ids].all())


class CandidatePairs:
    """The name-scored pairs of whole gamma_name=0 rows of a pattern table:
    `rows`, those rows sorted and each once, and per pair its table row
    (`pair_rows`, int32 below 2^31 rows), its name score and whether it is
    a true match (`labels`). A row without gamma_name=0 or with a pair left
    out, a pair outside `rows` and a score outside [0, 1] are each a
    ValueError; rows and pairs are checked against one flag per table row."""

    def __init__(self, table: PatternTable, rows, pair_rows, scores, labels):
        rows = np.sort(np.asarray(rows, dtype=np.int64))
        self.rows = rows[np.diff(rows, prepend=rows[:1] - 1) != 0]
        self.pair_rows = np.asarray(pair_rows, dtype=index_type(len(table.counts)))
        self.scores = np.asarray(scores, dtype=float)
        self.labels = np.asarray(labels, dtype=bool)
        if not _all_flagged(self.rows, table.gammas[:, _name_index(table)] == 0):
            raise ValueError("only gamma_name=0 rows can move pairs")
        if not _all_flagged(self.pair_rows, _row_mask(table, self.rows)):
            raise ValueError("a pair lies outside the candidate rows")
        supplied = np.bincount(self.pair_rows, minlength=len(table.counts))[self.rows]
        if len(short := np.nonzero(supplied != table.counts[self.rows])[0]):
            j = int(self.rows[short[0]])
            raise ValueError(f"row {j} has {int(table.counts[j])} pairs but "
                             f"{int(supplied[short[0]])} were supplied")
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):
            raise ValueError("name scores must lie in [0, 1] (the scorer broke its contract)")


def apply_threshold(tau: float, table: PatternTable, pos: np.ndarray,
                    pairs: CandidatePairs) -> tuple[PatternTable, np.ndarray]:
    """Move the candidate pairs with name score >= tau from their
    gamma_name=0 row to the row with gamma_name flipped to 1. Returns the
    new table, rows sorted by pattern code, and its true-match counts (pos
    gives the old table's)."""
    move = pairs.scores >= tau
    moved_n = np.bincount(pairs.pair_rows[move], minlength=len(table.counts))
    moved_p = np.bincount(pairs.pair_rows[move & pairs.labels], minlength=len(table.counts))
    gammas = np.concatenate([table.gammas, _recipients(table, pairs.rows)])
    _, first, at = np.unique(gamma_codes(gammas.T), return_index=True, return_inverse=True)
    # float sums of pair counts: exact below 2^53 pairs
    counts = np.bincount(at, np.concatenate([table.counts - moved_n, moved_n[pairs.rows]]))
    new_pos = np.bincount(at, np.concatenate([pos - moved_p, moved_p[pairs.rows]]))
    keep = counts > 0
    return (PatternTable(table.fields, gammas[first[keep]], counts[keep].astype(np.int64)),
            new_pos[keep].astype(np.int64))


def eligible_rows(table: PatternTable, zetas: np.ndarray, dist: ScoreDistribution,
                  floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Split gamma_name=0 rows into (eligible, skipped) by whether the best
    achievable posterior zeta*rmax/(zeta*rmax + 1 - zeta) reaches the floor."""
    donors = _donor_rows(table)
    z = np.asarray(zetas, dtype=float)[donors]
    rmax = dist.ratio_max
    best = z * rmax / (z * rmax + (1.0 - z))
    keep = best >= floor
    return donors[keep], donors[~keep]


def posterior_adjust(table: PatternTable, zetas: np.ndarray, dist: ScoreDistribution,
                     pos: np.ndarray, pairs: CandidatePairs, floor: float) -> tuple:
    """The ranking after the Bayesian per-pair update
    zeta_hat = zeta*r(X) / (zeta*r(X) + 1 - zeta) of the pairs in eligible
    rows, as ((scores, positive mass, negative mass, estimated match share),
    eligible rows, skipped rows).

    Each pair of an eligible row enters with its posterior and its label;
    every other row enters once with its prior zeta and its true and false
    match counts (pos gives the true ones). Every eligible row must be one
    of `pairs.rows`, checked against one flag per table row; pairs of other
    rows are left out.
    """
    zetas = np.asarray(zetas, dtype=float)
    eligible, skipped = eligible_rows(table, zetas, dist, floor)
    if len(missing := eligible[~_row_mask(table, pairs.rows)[eligible]]):
        raise ValueError(f"eligible row {missing[0]} is not a candidate row")
    keep = np.ones(len(table.counts), dtype=bool)
    keep[eligible] = False
    adjusted = ~keep[pairs.pair_rows]
    prior = zetas[pairs.pair_rows[adjusted]]
    num = prior * dist.ratio_at(pairs.scores[adjusted])
    posterior = num / (num + (1.0 - prior))
    labels = pairs.labels[adjusted].astype(float)
    counts, kept_pos = table.counts[keep], pos[keep]
    pi_est = float(((zetas[keep] * counts).sum() + posterior.sum()) / table.total)
    return ((np.concatenate([zetas[keep], posterior]),
             np.concatenate([kept_pos.astype(float), labels]),
             np.concatenate([(counts - kept_pos).astype(float), 1.0 - labels]),
             pi_est), eligible, skipped)
