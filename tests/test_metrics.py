import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hanlink.metrics import (
    GroupedRanking,
    auroc,
    confusion_at_proportion,
    eauroc,
    grouped_log_loss,
    log_loss,
)


def pairwise_auroc(scores, labels):
    """O(n^2) comparison oracle with half credit for ties."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for u in neg:
            if p > u:
                wins += 1
            elif p == u:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def roc_walk_partial_area(scores, pos, neg, q):
    """Independent grouped ROC walk, trapezoids, cut at FPR=q, normalized."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    pos = np.asarray(pos, float)[order]
    neg = np.asarray(neg, float)[order]
    scores = np.asarray(scores, float)[order]
    P, N = pos.sum(), neg.sum()
    points = [(0.0, 0.0)]
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and scores[j] == scores[i]:
            j += 1
        points.append((points[-1][0] + neg[i:j].sum() / N,
                       points[-1][1] + pos[i:j].sum() / P))
        i = j
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        if f1 <= q:
            area += (f1 - f0) * (t0 + t1) / 2
        else:
            if f0 < q:
                tq = t0 + (t1 - t0) * (q - f0) / (f1 - f0)
                area += (q - f0) * (t0 + tq) / 2
            break
    return area / q


def test_auroc_perfect_and_uninformative():
    r = GroupedRanking.from_pairs([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auroc(r) == 1.0
    r = GroupedRanking.from_pairs([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert auroc(r) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    scores = np.round(rng.uniform(size=500), 2)  # rounding forces ties
    labels = rng.integers(0, 2, size=500)
    r = GroupedRanking.from_pairs(scores, labels)
    assert abs(auroc(r) - pairwise_auroc(scores, labels)) <= 1e-12


def test_auroc_single_class_error():
    with pytest.raises(ValueError):
        auroc(GroupedRanking.from_pairs([0.5, 0.6], [1, 1]))


def test_eauroc_equals_auroc_at_q_one():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=300)
    labels = rng.integers(0, 2, size=300)
    r = GroupedRanking.from_pairs(scores, labels)
    assert eauroc(r, 1.0) == auroc(r)


def test_eauroc_perfect_is_one():
    r = GroupedRanking.from_pairs([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    for q in (0.01, 0.3, 1.0):
        assert eauroc(r, q) == pytest.approx(1.0)


def test_perfect_ranking_with_float_masses_stays_in_unit_interval():
    """One positive ranked above a dozen negatives of float mass: both areas
    are 1 in exact arithmetic, and the trapezoid sums over float FPRs land
    an ulp above it for some masses (seeds 11, 19, 26 for EAUROC, 46, 51
    for AUROC among these)."""
    scores = np.concatenate([[1.0], np.linspace(0.9, 0.1, 12)])
    pos = np.concatenate([[1.0], np.zeros(12)])
    for seed in range(60):
        rng = np.random.default_rng(seed)
        r = GroupedRanking(scores, pos, np.concatenate([[0.0], rng.uniform(0.1, 3.0, 12)]))
        fpr = r.cum_neg / r.cum_neg[-1]
        q = float(rng.uniform(fpr[2], fpr[-2]))  # inside the FPR range
        for area in (auroc(r), eauroc(r, q), eauroc(r)):
            assert 0.0 <= area <= 1.0 and area == pytest.approx(1.0)


def test_eauroc_diagonal_is_q_over_two():
    # single tied block -> diagonal ROC; partial area q^2/2 normalized by q
    r = GroupedRanking.from_pairs([0.5] * 1000, [1] * 500 + [0] * 500)
    for q in (0.25, 0.6, 1.0):
        assert eauroc(r, q) == pytest.approx(q / 2)


def test_eauroc_matches_independent_walk():
    rng = np.random.default_rng(2)
    scores = np.round(rng.uniform(size=40), 1)
    pos = rng.integers(0, 10, size=40)
    neg = rng.integers(0, 10, size=40)
    pos[0] += 1
    neg[1] += 1
    r = GroupedRanking(scores, pos, neg)
    for q in (0.05, 0.2, 0.77):
        assert eauroc(r, q) == pytest.approx(
            roc_walk_partial_area(scores, pos, neg, q), abs=1e-12)


def test_grouped_equals_expanded():
    rng = np.random.default_rng(3)
    scores = np.round(rng.uniform(size=20), 1)
    pos = rng.integers(0, 4, size=20)
    neg = rng.integers(0, 4, size=20)
    pos[0] += 1
    neg[1] += 1
    grouped = GroupedRanking(scores, pos, neg)
    flat_scores, flat_labels = [], []
    for s, p, n in zip(scores, pos, neg):
        flat_scores += [s] * int(p + n)
        flat_labels += [1] * int(p) + [0] * int(n)
    flat = GroupedRanking.from_pairs(flat_scores, flat_labels)
    assert auroc(grouped) == pytest.approx(auroc(flat), abs=1e-12)
    assert eauroc(grouped, 0.3) == pytest.approx(eauroc(flat, 0.3), abs=1e-12)
    assert confusion_at_proportion(grouped, 0.3) == \
        confusion_at_proportion(flat, 0.3)


def test_log_loss_values():
    assert log_loss([1.0, 0.0], [1, 0]) == pytest.approx(0.0, abs=1e-10)
    n = 7
    assert log_loss([0.5] * n, [1, 0, 1, 0, 1, 0, 1]) == pytest.approx(n * math.log(2))
    by_hand = -(math.log(0.8) + math.log(1 - 0.3) + math.log(0.6))
    assert log_loss([0.8, 0.3, 0.6], [1, 0, 1]) == pytest.approx(by_hand)


def test_log_loss_improves_toward_truth():
    base = log_loss([0.6, 0.4], [1, 0])
    better = log_loss([0.7, 0.4], [1, 0])
    assert better < base


def test_grouped_log_loss_matches_flat():
    probs = [0.9, 0.2, 0.5]
    pos = [3, 1, 0]
    neg = [1, 4, 2]
    flat_p, flat_y = [], []
    for p, np_, nn in zip(probs, pos, neg):
        flat_p += [p] * (np_ + nn)
        flat_y += [1] * np_ + [0] * nn
    assert grouped_log_loss(probs, pos, neg) == pytest.approx(log_loss(flat_p, flat_y))


def test_confusion_perfect_ranking():
    r = GroupedRanking.from_pairs([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    fn, fp = confusion_at_proportion(r, 0.5)
    assert (fn, fp) == (0.0, 0.0)


def test_confusion_accept_nothing():
    r = GroupedRanking([0.9, 0.1], [5, 0], [0, 95])
    fn, fp = confusion_at_proportion(r, 0.001)
    assert (fn, fp) == (5.0, 0.0)


def test_confusion_matches_prefix_scan():
    rng = np.random.default_rng(4)
    scores = rng.uniform(size=30)
    pos = rng.integers(0, 5, size=30).astype(float)
    neg = rng.integers(0, 20, size=30).astype(float)
    pos[2] += 1
    neg[3] += 1
    r = GroupedRanking(scores, pos, neg)
    for target in (0.01, 0.1, 0.42):
        fn, fp = confusion_at_proportion(r, target)
        order = np.argsort(-scores, kind="stable")
        sp, sn = pos[order], neg[order]
        total = (pos + neg).sum()
        best_gap, best_fn, best_fp = None, None, None
        for k in range(len(scores) + 1):
            accepted = (sp[:k] + sn[:k]).sum() / total
            gap = abs(accepted - target)
            if best_gap is None or gap < best_gap - 1e-15:
                best_gap = gap
                best_fn = pos.sum() - sp[:k].sum()
                best_fp = sn[:k].sum()
        assert (fn, fp) == (best_fn, best_fp)


def test_auroc_invariant_to_monotone_transform():
    rng = np.random.default_rng(5)
    scores = rng.uniform(size=200)
    labels = rng.integers(0, 2, size=200)
    r1 = GroupedRanking.from_pairs(scores, labels)
    r2 = GroupedRanking.from_pairs(np.exp(3 * scores), labels)
    assert auroc(r1) == pytest.approx(auroc(r2), abs=1e-12)
    assert eauroc(r1, 0.1) == pytest.approx(eauroc(r2, 0.1), abs=1e-12)


TIED_SCORES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])  # few values: many ties
MASSES = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def float_rankings(draw):
    """(scores, pos, neg): arbitrary non-negative float masses, or the
    tau2 form (s * m, (1 - s) * m) of a score s and a row count m."""
    n = draw(st.integers(1, 30))
    scores = np.array(draw(st.lists(TIED_SCORES | st.floats(0.0, 1.0), min_size=n,
                                    max_size=n)))
    if draw(st.booleans()):
        masses = np.array(draw(st.lists(MASSES, min_size=n, max_size=n)))
        return scores, scores * masses, (1.0 - scores) * masses
    return (scores, np.array(draw(st.lists(MASSES, min_size=n, max_size=n))),
            np.array(draw(st.lists(MASSES, min_size=n, max_size=n))))


def _outcome(fn, *args):
    """fn(*args) as float hex strings, or the ValueError message it raised."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    return [float(x).hex() for x in np.atleast_1d(out)]


@settings(max_examples=300, deadline=None)
@given(float_rankings(), st.floats(1e-6, 1.0))
@example(ranking=(np.array([0.0, 0.0, 7.6e-284]), np.array([0.0, 0.0, 9e-322]),
                  np.array([0.0, 364.0, 1.2e-38])), q=1.0)  # default q underflows to 0
def test_auroc_eauroc_match_sorted_reference(ranking, q):
    """auroc and eauroc read off the ranking's one sort equal, bitwise, a
    fresh sort and cumulative sum per call, errors included."""
    r = GroupedRanking(*ranking)
    assert _outcome(auroc, r) == _outcome(oracles.sorted_auroc, *ranking)
    assert _outcome(eauroc, r, q) == _outcome(oracles.sorted_eauroc, *ranking, q)
    P, N = ranking[1].sum(), ranking[2].sum()
    if P > 0 and N > 0 and P / N > 0:
        assert r.default_q() == min(P / N, 1.0)
        assert _outcome(eauroc, r) == _outcome(oracles.sorted_eauroc, *ranking,
                                               r.default_q())
    elif P > 0 and N > 0:
        assert _outcome(eauroc, r) == _outcome(r.default_q) != _outcome(
            oracles.sorted_eauroc, *ranking, 0.0)
    else:
        assert _outcome(eauroc, r) == "both classes must carry positive mass"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(TIED_SCORES, min_size=n, max_size=n),
    st.lists(st.integers(0, 50), min_size=n, max_size=n),
    st.lists(st.integers(0, 50), min_size=n, max_size=n))),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_confusion_matches_sorted_reference(ranking, proportion):
    """confusion_at_proportion equals, bitwise, per-group sums by reduceat
    after a fresh sort, for integer-valued masses with either class empty."""
    scores, pos, neg = (np.asarray(x, dtype=float) for x in ranking)
    if pos.sum() + neg.sum() == 0:
        neg[0] = 1.0
    got = confusion_at_proportion(GroupedRanking(scores, pos, neg), proportion)
    want = oracles.sorted_confusion(scores, pos, neg, proportion)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_default_q_rejects_odds_that_round_to_zero():
    """Positive mass 9e-322 against 364 negative: P/N underflows, and the
    error names P and N rather than a q the caller never gave."""
    r = GroupedRanking([0.0, 0.0, 7.6e-284], [0.0, 0.0, 9e-322], [0.0, 364.0, 1.2e-38])
    for call in (r.default_q, lambda: eauroc(r)):
        with pytest.raises(ValueError, match=r"P/N round to 0 \(P = 9e-322, N = 364\.0\)"):
            call()
    assert eauroc(r, 1.0) == auroc(r)


def test_default_q_needs_both_classes():
    """The default q is the mass odds capped at 1; a one-class ranking has none."""
    assert GroupedRanking([0.9, 0.8, 0.1], [1, 1, 0], [0, 0, 1]).default_q() == 1.0
    assert GroupedRanking([0.9, 0.1], [1, 0], [0, 4]).default_q() == 0.25
    for pos, neg in (([1, 1], [0, 0]), ([0, 0], [1, 1])):
        with pytest.raises(ValueError, match="both classes must carry positive mass"):
            eauroc(GroupedRanking([0.9, 0.1], pos, neg))
