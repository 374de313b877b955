import itertools

import numpy as np
import pytest

from hanlink.compare import FeatureSpec, HanCategory
from hanlink.matcher import (
    ConvergenceError,
    MatcherModel,
    TrainingError,
    backward_prune,
    fit_score_distributions,
    forward_select,
    pava,
    train_logistic,
    train_matcher,
)

SPEC_A = FeatureSpec("LV", "J", 1, "1:N")
SPEC_B = FeatureSpec("LV", "PY", 1, "1:N")
SPEC_C = FeatureSpec("COS", "WB", 2, "1:N")


def _data(X, y, cats=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if cats is None:
        cats = np.zeros(len(y), dtype=np.int8)
    return X, np.asarray(cats, dtype=np.int8), y


def test_separable_single_feature():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=400)
    X = y[:, None].astype(float)
    model = train_logistic(_data(X, y), (SPEC_A,), penalty=1e-3)
    scores = model.predict_matrix(X, np.zeros(400, dtype=np.int8))
    assert scores[y == 1].min() >= 0.99
    assert scores[y == 0].max() <= 0.01
    assert model.coefs[HanCategory.NEITHER][0] > 5


def test_all_zero_features_gives_prevalence():
    y = np.array([1] * 30 + [0] * 70, dtype=float)
    X = np.zeros((100, 1))
    model = train_logistic(_data(X, y), (SPEC_A,))
    score = model.predict_matrix(np.zeros((1, 1)), np.zeros(1, dtype=np.int8))[0]
    assert score == pytest.approx(0.3, abs=1e-6)


def test_single_class_is_error():
    with pytest.raises(TrainingError):
        train_logistic(_data(np.ones((10, 1)), np.ones(10)), (SPEC_A,))


def test_nonconvergence_carries_last_iterate():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=200)
    X = rng.normal(size=(200, 1)) + y[:, None]
    with pytest.raises(ConvergenceError) as excinfo:
        train_logistic(_data(X, y), (SPEC_A,), max_iter=1, tol=1e-14)
    assert isinstance(excinfo.value.model, MatcherModel)


def test_order_invariance():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=300).astype(float)
    X = rng.normal(size=(300, 2)) + y[:, None]
    m1 = train_logistic(_data(X, y), (SPEC_A, SPEC_B))
    perm = rng.permutation(300)
    m2 = train_logistic(_data(X[perm], y[perm]), (SPEC_A, SPEC_B))
    assert m1.coefs[HanCategory.NEITHER] == pytest.approx(
        m2.coefs[HanCategory.NEITHER], abs=1e-5)


def test_predict_table_shaped_intercepts():
    model = MatcherModel(
        kind="logistic", specs=(SPEC_A,),
        intercepts={HanCategory.BOTH: -21.14, HanCategory.NEITHER: -14.65,
                    HanCategory.DISAGREE: -14.65},
        coefs={cat: np.zeros(1) for cat in
               (HanCategory.BOTH, HanCategory.NEITHER, HanCategory.DISAGREE)})
    both, neither = model.predict_matrix(np.zeros((2, 1)), np.array([1, 0], dtype=np.int8))
    assert both == pytest.approx(6.6e-10, rel=0.01)
    assert neither == pytest.approx(4.3e-7, rel=0.01)


def test_predict_intercept_zero_gives_half():
    model = MatcherModel(
        kind="logistic", specs=(SPEC_A,),
        intercepts={cat: 0.0 for cat in HanCategory},
        coefs={cat: np.zeros(1) for cat in HanCategory})
    assert model.predict_matrix(np.zeros((1, 1)), np.zeros(1, dtype=np.int8))[0] == 0.5


def test_predict_spec_mismatch():
    """A matrix without one column per model feature is an error, for the
    single-feature kind too."""
    single = MatcherModel.single_feature(SPEC_A)
    logistic = MatcherModel(
        kind="logistic", specs=(SPEC_A, SPEC_B),
        intercepts={cat: 0.0 for cat in HanCategory},
        coefs={cat: np.zeros(2) for cat in HanCategory})
    for model, width in ((single, 3), (single, 0), (logistic, 1), (logistic, 3)):
        with pytest.raises(ValueError, match="one column per model feature"):
            model.predict_matrix(np.zeros((1, width)), np.zeros(1, dtype=np.int8))
    with pytest.raises(ValueError):
        single.predict_matrix(np.zeros(1), np.zeros(1, dtype=np.int8))


def test_single_feature_passthrough():
    model = MatcherModel.single_feature(SPEC_A)
    assert model.predict_matrix(np.array([[0.42]]), np.array([1], dtype=np.int8))[0] == 0.42


def test_predict_monotone_in_feature():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=500).astype(float)
    X = np.column_stack([rng.normal(size=500) + 2 * y,
                         rng.normal(size=500) - y])
    model = train_logistic(_data(X, y), (SPEC_A, SPEC_B))
    coefs = model.coefs[HanCategory.NEITHER]
    base = model.predict_matrix(np.array([[0.0, 0.0]]), np.zeros(1, dtype=np.int8))[0]
    up0 = model.predict_matrix(np.array([[1.0, 0.0]]), np.zeros(1, dtype=np.int8))[0]
    up1 = model.predict_matrix(np.array([[0.0, 1.0]]), np.zeros(1, dtype=np.int8))[0]
    assert (up0 > base) == (coefs[0] > 0)
    assert (up1 > base) == (coefs[1] > 0)


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, size=200).astype(float)
    X = rng.normal(size=(200, 2)) + y[:, None]
    cats = rng.integers(0, 3, size=200)
    model = train_logistic(_data(X, y, cats), (SPEC_A, SPEC_B), interactions=True)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = MatcherModel.load(path)
    scores_a = model.predict_matrix(X, cats)
    scores_b = loaded.predict_matrix(X, cats)
    assert scores_a == pytest.approx(scores_b, abs=1e-12)


def test_forward_select_perfect_plus_noise():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=600).astype(float)
    perfect = y + 0.0
    noise = rng.normal(size=600)
    X = np.column_stack([noise, perfect])
    bank = (SPEC_A, SPEC_B)
    train = _data(X[:300], y[:300])
    dev = _data(X[300:], y[300:])
    selected = forward_select([SPEC_A, SPEC_B], train, dev, bank)
    assert selected == [SPEC_B]


def test_forward_select_duplicates_pick_one():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, size=400).astype(float)
    feature = y + rng.normal(scale=0.2, size=400)
    X = np.column_stack([feature, feature, feature])
    specs = (SPEC_A, SPEC_B, SPEC_C)
    train = _data(X[:200], y[:200])
    dev = _data(X[200:], y[200:])
    selected = forward_select(list(specs), train, dev, specs)
    assert len(selected) == 1
    assert selected[0] == SPEC_A  # tie broken by candidate order


def test_forward_select_empty_candidates():
    with pytest.raises(ValueError):
        forward_select([], _data(np.zeros((4, 1)), [0, 1, 0, 1]),
                       _data(np.zeros((4, 1)), [0, 1, 0, 1]), (SPEC_A,))


def test_forward_select_deterministic():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 2, size=500).astype(float)
    X = rng.normal(size=(500, 4)) + y[:, None] * np.array([0.5, 1.0, 0.1, 0.0])
    specs = tuple(FeatureSpec("LV", enc, 1, "1:N") for enc in ("J", "PY", "FC", "WB"))
    train = _data(X[:250], y[:250])
    dev = _data(X[250:], y[250:])
    s1 = forward_select(list(specs), train, dev, specs)
    s2 = forward_select(list(specs), train, dev, specs)
    assert s1 == s2 and len(s1) >= 1


def test_backward_prune_drops_noise_interaction():
    rng = np.random.default_rng(8)
    n = 1200
    y = rng.integers(0, 2, size=n).astype(float)
    cats = rng.integers(0, 3, size=n)
    signal = y + rng.normal(scale=0.3, size=n)
    noise = rng.normal(size=n)
    X = np.column_stack([signal, noise])
    specs = (SPEC_A, SPEC_B)
    train = _data(X[:600], y[:600], cats[:600])
    dev = _data(X[600:], y[600:], cats[600:])
    full = train_logistic(train, specs, interactions=True)
    n_terms_before = len(full.trainer["terms"])
    pruned = backward_prune(full, dev, train)
    assert len(pruned.trainer["terms"]) < n_terms_before


def test_train_matcher_end_to_end():
    rng = np.random.default_rng(9)
    n = 800
    y = rng.integers(0, 2, size=n).astype(float)
    cats = rng.integers(0, 3, size=n)
    X = np.column_stack([y + rng.normal(scale=0.4, size=n),
                         rng.normal(size=n),
                         y + rng.normal(scale=0.8, size=n)])
    bank = (SPEC_A, SPEC_B, SPEC_C)
    model = train_matcher(_data(X[:400], y[:400], cats[:400]),
                          _data(X[400:], y[400:], cats[400:]), bank)
    assert model.kind == "logistic"
    scores = model.predict_matrix(X[400:][:, [bank.index(s) for s in model.specs]],
                                  cats[400:])
    from hanlink.metrics import GroupedRanking, auroc
    assert auroc(GroupedRanking.from_pairs(scores, y[400:])) > 0.8


# ---------------------------------------------------------------------------
# PAVA and score distributions


def brute_force_isotonic(values, weights):
    """Exact isotonic LSQ by enumerating contiguous partitions with
    non-decreasing block means."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(values)
    best, best_sse = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        blocks, start = [], 0
        for i, cut in enumerate(cuts):
            if cut:
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = []
        for lo, hi in blocks:
            w = weights[lo:hi].sum()
            means.append((weights[lo:hi] * values[lo:hi]).sum() / w if w > 0 else 0.0)
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        fit = np.concatenate([np.full(hi - lo, m) for (lo, hi), m in zip(blocks, means)])
        sse = (weights * (values - fit) ** 2).sum()
        if sse < best_sse - 1e-15:
            best_sse, best = sse, fit
    return best


def test_pava_matches_brute_force():
    rng = np.random.default_rng(10)
    for n in range(1, 7):
        for _ in range(40):
            values = rng.normal(size=n)
            weights = rng.uniform(0.5, 3.0, size=n)
            assert pava(values, weights) == pytest.approx(
                brute_force_isotonic(values, weights), abs=1e-10)


def test_pava_monotone_and_mean_preserving():
    rng = np.random.default_rng(11)
    values = rng.normal(size=50)
    weights = rng.uniform(0.1, 5.0, size=50)
    fit = pava(values, weights)
    assert np.all(np.diff(fit) >= -1e-12)
    assert (weights * fit).sum() == pytest.approx((weights * values).sum())


def test_fit_distributions_separated():
    scores = np.array([1.0] * 50 + [0.0] * 50)
    labels = np.array([1] * 50 + [0] * 50)
    dist = fit_score_distributions(scores, labels)
    g = dist.grid
    mid = np.searchsorted(g, 0.5)
    assert dist.tail_m[mid] == 1.0
    assert dist.tail_u[mid] == 0.0
    assert dist.ratio_at(np.array([0.999]))[0] > 10 * dist.ratio_at(np.array([0.001]))[0]
    assert dist.tail_m[0] == 1.0 and dist.tail_u[0] == 1.0


def test_fit_distributions_identical_classes():
    rng = np.random.default_rng(12)
    scores = np.tile(rng.uniform(size=200), 2)
    labels = np.array([1] * 200 + [0] * 200)
    dist = fit_score_distributions(scores, labels)
    occupied = (dist.counts_m + dist.counts_u) > 0
    assert dist.ratio[occupied] == pytest.approx(np.ones(occupied.sum()), abs=0.15)


def test_fit_distributions_single_class_error():
    with pytest.raises(ValueError):
        fit_score_distributions(np.array([0.5, 0.6]), np.array([1, 1]))


@pytest.mark.parametrize("bad", [1.5, -0.5, float("nan")])
def test_fit_distributions_rejects_scores_outside_unit_interval(bad):
    with pytest.raises(ValueError, match="outside"):
        fit_score_distributions(np.array([0.9, bad, 0.2, 0.1]), np.array([1, 1, 0, 0]))


def test_distribution_tails_monotone_and_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    scores = np.concatenate([rng.beta(6, 2, 300), rng.beta(2, 6, 700)])
    labels = np.array([1] * 300 + [0] * 700)
    dist = fit_score_distributions(scores, labels)
    assert np.all(np.diff(dist.tail_m) <= 1e-15)
    assert np.all(np.diff(dist.tail_u) <= 1e-15)
    assert np.all(np.diff(dist.ratio) >= -1e-12)
    path = tmp_path / "dist.json"
    dist.save(path)
    loaded = type(dist).load(path)
    assert loaded.ratio == pytest.approx(dist.ratio)
    assert loaded.tail_m == pytest.approx(dist.tail_m)
