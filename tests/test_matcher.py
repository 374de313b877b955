import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hanlink import matcher
from hanlink.compare import HAN_CATEGORIES, FeatureSpec
from hanlink.linkage import InputError
from hanlink.matcher import (
    ConvergenceError,
    MatcherModel,
    ScoreDistribution,
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


def test_separable_single_feature(monkeypatch):
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=400)
    X = y[:, None].astype(float)
    monkeypatch.setattr(matcher, "PENALTY", 1e-3)
    model = train_logistic(_data(X, y), (SPEC_A,))
    scores = model.predict_matrix(X, np.zeros(400, dtype=np.int8))
    assert scores[y == 1].min() >= 0.99
    assert scores[y == 0].max() <= 0.01
    assert model.coefs[0, 0] > 5  # NeitherHan, code 0


def test_all_zero_features_gives_prevalence():
    y = np.array([1] * 30 + [0] * 70, dtype=float)
    X = np.zeros((100, 1))
    model = train_logistic(_data(X, y), (SPEC_A,))
    score = model.predict_matrix(np.zeros((1, 1)), np.zeros(1, dtype=np.int8))[0]
    assert score == pytest.approx(0.3, abs=1e-6)


def test_single_class_is_error():
    with pytest.raises(TrainingError):
        train_logistic(_data(np.ones((10, 1)), np.ones(10)), (SPEC_A,))


def test_nonconvergence_carries_last_iterate(monkeypatch):
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=200)
    X = rng.normal(size=(200, 1)) + y[:, None]
    monkeypatch.setattr(matcher, "MAX_ITER", 1)
    monkeypatch.setattr(matcher, "TOL", 1e-14)
    with pytest.raises(ConvergenceError) as excinfo:
        train_logistic(_data(X, y), (SPEC_A,))
    assert isinstance(excinfo.value.model, MatcherModel)


def test_singular_hessian_falls_back_to_least_squares(monkeypatch):
    """Without a penalty, two identical columns make every Hessian singular:
    each Newton step solves its slice alone by least squares, and the fit
    predicts as the one-column fit does."""
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=300)
    x = rng.normal(size=300) + y
    solves, lstsq = [], np.linalg.lstsq
    solve = matcher._solve
    monkeypatch.setattr(matcher, "PENALTY", 0.0)
    with monkeypatch.context() as mp:
        mp.setattr(matcher, "_solve", lambda H, g: solves.append("solve") or solve(H, g))
        mp.setattr(np.linalg, "lstsq",
                   lambda *args, **kw: solves.append("lstsq") or lstsq(*args, **kw))
        twin = train_logistic(_data(np.column_stack([x, x]), y), (SPEC_A, SPEC_B))
    assert solves and solves == ["solve", "lstsq"] * (len(solves) // 2)
    one = train_logistic(_data(x[:, None], y), (SPEC_A,))
    cats = np.zeros(len(y), dtype=np.int8)
    assert np.abs(twin.predict_matrix(np.column_stack([x, x]), cats)
                  - one.predict_matrix(x[:, None], cats)).max() <= 1e-12


def test_order_invariance():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=300).astype(float)
    X = rng.normal(size=(300, 2)) + y[:, None]
    m1 = train_logistic(_data(X, y), (SPEC_A, SPEC_B))
    perm = rng.permutation(300)
    m2 = train_logistic(_data(X[perm], y[perm]), (SPEC_A, SPEC_B))
    assert m1.coefs[0] == pytest.approx(m2.coefs[0], abs=1e-5)


def test_predict_table_shaped_intercepts():
    model = MatcherModel(
        kind="logistic", specs=(SPEC_A,),
        intercepts=np.array([-14.65, -21.14, -14.65]),  # NeitherHan, BothHan, Disagreeing
        coefs=np.zeros((3, 1)))
    both, neither = model.predict_matrix(np.zeros((2, 1)), np.array([1, 0], dtype=np.int8))
    assert both == pytest.approx(6.6e-10, rel=0.01)
    assert neither == pytest.approx(4.3e-7, rel=0.01)


def test_predict_intercept_zero_gives_half():
    model = MatcherModel(
        kind="logistic", specs=(SPEC_A,), intercepts=np.zeros(3), coefs=np.zeros((3, 1)))
    assert model.predict_matrix(np.zeros((1, 1)), np.zeros(1, dtype=np.int8))[0] == 0.5


def test_predict_spec_mismatch():
    """A matrix without one column per model feature is an error, for the
    single-feature kind too."""
    single = MatcherModel.single_feature(SPEC_A)
    logistic = MatcherModel(
        kind="logistic", specs=(SPEC_A, SPEC_B), intercepts=np.zeros(3), coefs=np.zeros((3, 2)))
    for model, width in ((single, 3), (single, 0), (logistic, 1), (logistic, 3)):
        with pytest.raises(ValueError, match="one column per model feature"):
            model.predict_matrix(np.zeros((1, width)), np.zeros(1, dtype=np.int8))
    with pytest.raises(ValueError):
        single.predict_matrix(np.zeros(1), np.zeros(1, dtype=np.int8))


def test_single_feature_passthrough():
    model = MatcherModel.single_feature(SPEC_A)
    assert model.predict_matrix(np.array([[0.42]]), np.array([1], dtype=np.int8))[0] == 0.42


@pytest.mark.parametrize("specs", [(FeatureSpec("SUM", "LF", 1, "1:2"),),
                                   (FeatureSpec("SUM", "AMB", 1, "1:N"),),
                                   (FeatureSpec("CAT", "HAN", 1, "1:N"),),
                                   (SPEC_A, SPEC_B), ()])
def test_single_feature_model_takes_one_bounded_feature(tmp_path, specs):
    """A single-feature model scores by its feature's value, so it takes one
    feature whose values lie in [0, 1], built directly or loaded from JSON."""
    with pytest.raises(InputError, match="single-feature matcher takes one feature"):
        MatcherModel(kind="single", specs=specs)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "single", "specs": [s.to_dict() for s in specs]}))
    with pytest.raises(InputError, match=re.escape(f"{path}: a single-feature")):
        MatcherModel.load(path)


def test_predict_monotone_in_feature():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=500).astype(float)
    X = np.column_stack([rng.normal(size=500) + 2 * y,
                         rng.normal(size=500) - y])
    model = train_logistic(_data(X, y), (SPEC_A, SPEC_B))
    coefs = model.coefs[0]
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
# Batched selection against the per-candidate reference (tests/oracles.py)


def _same_fit(fit, reference):
    """A `_fit_design` fit equals an `oracles.irls_fit` fit bitwise."""
    beta, iterations, converged, trace, error = fit
    assert error is None
    assert beta.tobytes() == reference[0].tobytes()
    assert (iterations, converged) == reference[1:3]
    assert np.array(trace).tobytes() == np.array(reference[3]).tobytes()


def _same_model(model, reference):
    assert model.specs == reference.specs and model.trainer == reference.trainer
    for got, want in ((model.coefs, reference.coefs), (model.intercepts, reference.intercepts)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40), st.integers(1, 4))
def test_sigmoid_matches_masked_reference(values, rows):
    """The mask-free logistic equals the per-sign masked one bitwise, in
    any shape, at +-0, +-inf and where e^|z| overflows."""
    z = np.array(values * rows).reshape(rows, -1)
    assert matcher._sigmoid(z).tobytes() == oracles.masked_sigmoid(z).tobytes()
    assert matcher._sigmoid(z[0]).tobytes() == oracles.masked_sigmoid(z[0]).tobytes()


def _halving_design():
    """The first of a fixed run of tiny heavy-tailed designs whose reference
    fit halves a Newton step."""
    for seed in itertools.count():
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(4, 16)), int(rng.integers(1, 4))
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            continue
        X = rng.standard_cauchy((n, p)) * rng.choice([1, 10, 100], size=p)
        D = np.column_stack([np.ones(n), X])
        if oracles.irls_fit(D, y, 1e-6, 1e-8, 200)[4]:
            return D, y


@pytest.mark.parametrize("penalty", [1e-6, 0.5])
def test_fit_is_independent_of_its_batch(monkeypatch, penalty):
    """A design fits bitwise the same alone, inside a stack, on either side
    of a chunk boundary and from a non-contiguous stack. This pins the BLAS
    path of each slice's products and, with a penalty large enough to
    show, the summation order of the ridge term."""
    rng = np.random.default_rng(20)
    K, n, p = 7, 90, 9
    y = (rng.random(n) < 0.4).astype(float)
    D = rng.normal(size=(K, n, p)) + y[:, None]
    D[:, :, 0] = 1.0
    D[3, :, 2] = D[3, :, 1]  # collinear columns
    references = [oracles.irls_fit(d, y, penalty, 1e-8, 200) for d in D]
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(D, 2, 0)), 0, 2)
    assert not strided.flags.c_contiguous
    monkeypatch.setattr(matcher, "PENALTY", penalty)
    together = matcher._fit_design(D, y)
    apart = matcher._fit_design(strided, y)
    for k, reference in enumerate(references):
        alone, = matcher._fit_design(D[k:k + 1], y)
        for fit in (alone, together[k], apart[k]):
            _same_fit(fit, reference)
    monkeypatch.setattr(matcher, "FIT_BUDGET", 3 * n * p)  # chunks of 3
    specs = tuple(FeatureSpec("COS", "J", j + 1, "1:N") for j in range(p - 1))
    # trial k selects its own column block of one wide X: design k is D[k]
    wide = _data(np.concatenate(D[:, :, 1:], axis=1), y)
    terms = [("main", j) for j in range(p - 1)]
    trials = [(terms, specs, np.arange(k * (p - 1), (k + 1) * (p - 1)), "") for k in range(K)]
    chunked = list(matcher._scored_fits(wide, wide, trials))
    assert len(chunked) == K
    for d, (model, _, _) in zip(D, chunked):
        _same_model(model, oracles.logistic_fit(_data(d[:, 1:], y), specs, penalty=penalty))


def test_scored_fits_rank_by_c_ordered_dev_scores(monkeypatch):
    """The dev scores `_scored_fits` ranks each trial by are, bitwise, the
    reference's per-category products over C-ordered rows, for 9-column
    subsets of a 146-column matrix: stacking the trials' gathered columns
    does not change the order a product sums in."""
    rng = np.random.default_rng(24)
    F, k = 146, 9

    def split(n):
        y = (rng.random(n) < 0.4).astype(float)
        cats = rng.integers(0, len(HAN_CATEGORIES), n).astype(np.int8)
        return rng.uniform(size=(n, F)) + 0.2 * y[:, None], cats, y

    train, dev = split(2000), split(8000)
    specs = tuple(FeatureSpec("COS", "J", j + 1, "1:N") for j in range(k))
    terms = [("main", j) for j in range(k)] + [("catdum", 1), ("catdum", 2)]
    trials = [(terms, specs, np.sort(rng.choice(F, k, replace=False)), "") for _ in range(6)]
    scored = []
    dev_metrics = matcher._dev_metrics
    monkeypatch.setattr(matcher, "_dev_metrics",
                        lambda s, y: scored.append(s.copy()) or dev_metrics(s, y))
    fits = list(matcher._scored_fits(train, dev, trials))
    assert len(scored) == len(trials)
    for (model, _, _), scores, (_, _, cols, _) in zip(fits, scored, trials):
        assert scores.tobytes() == oracles.dev_scores(model, dev[0], dev[1], cols).tobytes()


def test_fit_with_halved_steps_matches_reference():
    D, y = _halving_design()
    noise = np.random.default_rng(0).normal(size=D.shape)
    noise[:, 0] = 1.0
    stack = np.stack([noise, D, noise])  # halving in the middle of a stack
    fits = matcher._fit_design(stack, y)
    for fit, d in zip(fits, stack):
        _same_fit(fit, oracles.irls_fit(d, y, matcher.PENALTY, 1e-8, 200))


COLUMN_KINDS = ("signal", "noise", "duplicate", "separating", "heavy")


@st.composite
def selection_problems(draw):
    """Train and dev splits over random columns of the listed kinds, a
    chunk budget and whether the pruned model has interactions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    n = draw(st.integers(16, 120))
    y = (rng.random(2 * n) < draw(st.floats(0.2, 0.6))).astype(float)
    y[[0, 1, n, n + 1]] = (0.0, 1.0, 0.0, 1.0)
    cats = rng.integers(0, 3, size=2 * n)
    cols = []
    for kind in kinds:
        if kind == "duplicate" and cols:
            cols.append(cols[int(rng.integers(len(cols)))])  # exact AUROC ties
        elif kind == "separating":
            cols.append(y * rng.uniform(0.5, 2.0))
        elif kind == "heavy":
            cols.append(rng.standard_cauchy(2 * n) * 10.0 + y)
        elif kind == "noise":
            cols.append(rng.normal(size=2 * n))
        else:
            cols.append(y + rng.normal(scale=rng.uniform(0.3, 2.0), size=2 * n))
    X = np.column_stack(cols)
    specs = tuple(FeatureSpec("COS", "J", j + 1, "1:N") for j in range(len(kinds)))
    budget = draw(st.integers(1, 8)) * n * 2  # first-step chunks of 1 to 8
    return (X[:n], cats[:n], y[:n]), (X[n:], cats[n:], y[n:]), specs, budget, \
        draw(st.booleans())


def _outcome(fn, *args, **kwargs):
    """fn's result, or the TrainingError it raised."""
    try:
        return fn(*args, **kwargs)
    except TrainingError as exc:
        return exc


def _same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, TrainingError):
        assert str(got).startswith(str(want))
        if isinstance(want, ConvergenceError):
            _same_model(got.model, want.model)
    elif isinstance(want, MatcherModel):
        _same_model(got, want)
    else:
        assert got == want


@settings(max_examples=60, deadline=None)
@given(selection_problems())
def test_selection_matches_per_candidate_reference(problem):
    """forward_select, train_logistic and backward_prune agree bitwise with
    the per-candidate loop: selected specs, pruned terms and coefficients;
    and the dev (AUROC, EAUROC) that `_scored_fits` yields for each trial,
    from one stacked scoring per chunk, is `oracles.dev_metrics` of that
    trial's model scored alone."""
    train, dev, specs, budget, interactions = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcher, "FIT_BUDGET", budget)
        scored_fits, checked = matcher._scored_fits, []

        def checked_fits(train_, dev_, trials):
            for (model, a, e), (_, _, cols, _) in zip(scored_fits(train_, dev_, trials), trials):
                checked.append((a, e))
                assert (a, e) == oracles.dev_metrics(model, *dev_, cols)
                yield model, a, e

        mp.setattr(matcher, "_scored_fits", checked_fits)
        selected = _outcome(forward_select, list(specs), train, dev, specs)
        _same_outcome(selected, _outcome(oracles.forward_select_loop, list(specs),
                                         train, dev, specs))
        if isinstance(selected, list) and selected:
            cols = [specs.index(s) for s in selected]
            sub_train = (train[0][:, cols], train[1], train[2])
            sub_dev = (dev[0][:, cols], dev[1], dev[2])
            full = _outcome(train_logistic, sub_train, tuple(selected),
                            interactions=interactions)
            _same_outcome(full, _outcome(oracles.logistic_fit, sub_train, tuple(selected),
                                         interactions=interactions))
            if isinstance(full, MatcherModel):
                _same_outcome(_outcome(backward_prune, full, sub_dev, sub_train),
                              _outcome(oracles.backward_prune_loop, full, sub_dev,
                                       sub_train))
        assert checked or not isinstance(selected, list)


def test_selection_error_names_lowest_failing_candidate(monkeypatch):
    """When fits fail, selection raises what the per-candidate loop raises
    first, for the lowest-position failure, naming that candidate."""
    rng = np.random.default_rng(22)
    n = 400
    y = (rng.random(n) < 0.5).astype(float)
    X = np.column_stack([rng.normal(size=n), y, y + rng.normal(size=n), 2 * y])
    specs = tuple(FeatureSpec("LV", enc, 1, "1:N") for enc in ("J", "PY", "FC", "WB"))
    train, dev = _data(X[:200], y[:200]), _data(X[200:], y[200:])
    full = train_logistic(_data(X[:200, :2], y[:200], rng.integers(0, 3, 200)),
                          specs[:2], interactions=True)
    loose = [oracles.logistic_fit((X[:200, [j]], train[1], train[2]), (specs[j],))
             for j in (0, 2)]
    max_iter = max(m.trainer["iterations"] for m in loose)  # too few for separation
    monkeypatch.setattr(matcher, "MAX_ITER", max_iter)
    with pytest.raises(ConvergenceError) as reference:
        oracles.logistic_fit((X[:200, [1]], train[1], train[2]), (specs[1],),
                             max_iter=max_iter)
    with pytest.raises(ConvergenceError, match=f"in {max_iter} iterations "
                       r"\(adding PY_LV_k1_1:N\)") as excinfo:
        forward_select(list(specs), train, dev, specs)
    _same_model(excinfo.value.model, reference.value.model)
    monkeypatch.setattr(matcher, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"\(dropping term \['main', 0\] of J_LV_k1_1:N\)"):
        backward_prune(full, _data(X[200:, :2], y[200:]), _data(X[:200, :2], y[:200]))


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


def _cut(key, size):
    return lambda d: d.update({key: d[key][:size]})


def _set(key, index, value):
    return lambda d: d[key].__setitem__(index, value)


@pytest.mark.parametrize("change,message", [
    (_cut("tail_m", 5000), "tail_m has shape (5000,), expected (10000,)"),
    (_cut("tail_u", 5000), "tail_u has shape (5000,), expected (10000,)"),
    (_cut("counts_m", 199), "counts_m has shape (199,), expected (200,)"),
    (_cut("bin_edges", 200), "bin_edges has shape (200,), expected (201,)"),
    (_cut("ratio", 0), "the number of ratio bins must be an integer >= 1, not 0"),
    (_set("tail_u", 3, 1.5), "tail probabilities must lie in [0, 1]"),
    (_set("tail_m", 3, float("nan")), "tail probabilities must lie in [0, 1]"),
    (_set("tail_u", -1, 1.0), "tail probabilities must not increase"),
    (_set("bin_edges", 100, 0.99), "bin_edges must split [0, 1] into 200 equal-width bins"),
    (_set("ratio", 0, float("nan")), "score distribution ratio must be finite and non-negative"),
    (_set("ratio", 0, -1.0), "score distribution ratio must be finite and non-negative"),
    (_set("ratio", -1, 0.0), "score distribution ratio is not monotone"),
    (lambda d: d.pop("ratio"), "missing key 'ratio'"),
    (lambda d: d.update(grid_size="10000"), "grid_size must be an integer >= 2"),
    (lambda d: d.update(grid_size=10 ** 13),
     "tail_m has shape (10000,), expected (10000000000000,) from grid_size"),
    (_set("counts_m", 0, 2.5), "counts_m holds 2.5, which is not an integer >= 0"),
    (_set("counts_u", 1, -3), "counts_u holds -3, which is not an integer >= 0"),
    (_set("counts_m", 2, "2"), "counts_m holds '2', which is not an integer >= 0"),
    (_set("counts_u", 0, True), "counts_u holds True, which is not an integer >= 0"),
    (_set("counts_m", 0, 2 ** 63), "Python int too large"),
    (_set("tail_m", 0, "1.0"), "tail_m holds '1.0', which is not a number"),
    (_set("tail_u", 5, None), "tail_u holds None, which is not a number"),
    (_set("ratio", 0, False), "ratio holds False, which is not a number"),
    (_set("bin_edges", 0, "0.0"), "bin_edges holds '0.0', which is not a number"),
    (lambda d: d.update(tail_u="1.0"), "tail_u must be a list, not str"),
])
def test_distribution_file_checked_on_load(tmp_path, change, message):
    """A distribution file whose arrays disagree in length, whose edges are
    not the equal-width bins `ratio_at` assumes, whose tails leave [0, 1] or
    increase, or whose ratio is not finite, non-negative and monotone is an
    input error naming the file, not a grid indexed out of step; so is one
    whose arrays are not lists of JSON numbers, the counts integers >= 0,
    which loading would otherwise truncate or convert."""
    rng = np.random.default_rng(13)
    dist = fit_score_distributions(np.concatenate([rng.beta(6, 2, 300), rng.beta(2, 6, 700)]),
                                   np.array([1] * 300 + [0] * 700))
    d = dist.to_dict()
    change(d)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        ScoreDistribution.load(path)


def test_distribution_of_another_bin_count_loads(tmp_path, monkeypatch):
    """A distribution file fitted with a bin count other than BINS loads,
    and `ratio_at` maps scores into its own bins, not BINS of them."""
    rng = np.random.default_rng(13)
    scores = np.concatenate([rng.beta(6, 2, 300), rng.beta(2, 6, 700)])
    labels = np.array([1] * 300 + [0] * 700)
    with monkeypatch.context() as mp:
        mp.setattr(matcher, "BINS", 50)
        fitted = fit_score_distributions(scores, labels)
    path = tmp_path / "dist.json"
    fitted.save(path)
    dist = ScoreDistribution.load(path)
    assert len(dist.ratio) == 50 != matcher.BINS
    assert dist.ratio.tobytes() == fitted.ratio.tobytes()
    assert dist.bin_edges.tobytes() == np.linspace(0.0, 1.0, 51).tobytes()
    x = np.array([0.0, 0.01, 0.03, 0.5, 0.999, 1.0])
    assert dist.ratio_at(x).tobytes() == dist.ratio[[0, 0, 1, 25, 49, 49]].tobytes()


def test_model_and_distribution_files_round_trip_byte_for_byte(tmp_path):
    """What `save` writes, `load` then `save` writes again byte for byte:
    sorted keys, indent 1 and a final newline."""
    rng = np.random.default_rng(5)
    model = MatcherModel(kind="logistic", specs=(SPEC_A, SPEC_B),
                         intercepts=rng.normal(size=3), coefs=rng.normal(size=(3, 2)),
                         trainer={"penalty": 1e-6, "converged": True})
    dist = fit_score_distributions(rng.random(300), np.arange(300) % 2)
    for obj, cls in ((model, MatcherModel), (dist, ScoreDistribution)):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        obj.save(first)
        cls.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text(encoding="utf-8").endswith("\n}\n")


def _model_text(intercept=0.5, slopes=(1.5,)):
    """A one-feature logistic model file whose NeitherHan block holds
    `intercept` and `slopes`, the other categories valid."""
    blocks = {name: {"intercept": 0.5, "slopes": [1.5]} for name in HAN_CATEGORIES}
    blocks["NeitherHan"] = {"intercept": intercept, "slopes": slopes}
    return json.dumps({"kind": "logistic", "specs": [SPEC_A.to_dict()],
                       "coefficients": blocks})


@pytest.mark.parametrize("text,message", [
    ("{", "Expecting property name"),
    ("[]", "must hold a JSON object"),
    ('{"kind": "forest", "specs": []}', "unknown model kind 'forest'"),
    ('{"kind": "single", "specs": [{"comparator": "LV"}]}', "missing key 'encoding'"),
    (None, "BothHan holds 1 slopes for 2 features"),
    ('{"kind": "logistic", "specs": [{"comparator": "LV", "encoding": "J", "k": 1, '
     '"range": "1:N"}], "coefficients": {"NeitherHan": {"intercept": 0, "slopes": [NaN]}}}',
     "NeitherHan holds a coefficient that is not finite"),
    ('{"kind": "logistic", "specs": [], "coefficients": {"NeitherHan": '
     '{"intercept": Infinity, "slopes": []}}}',
     "NeitherHan holds a coefficient that is not finite"),
    (_model_text(slopes=["1.5"]), "NeitherHan slopes holds '1.5', which is not a number"),
    (_model_text(slopes=[False]), "NeitherHan slopes holds False, which is not a number"),
    (_model_text(intercept="2"), "NeitherHan intercept holds '2', which is not a number"),
    (_model_text(intercept=True), "NeitherHan intercept holds True, which is not a number"),
    (_model_text(intercept=None), "NeitherHan intercept holds None, which is not a number"),
    (_model_text(slopes={"0": 1.5}), "NeitherHan slopes must be a list, not dict"),
])
def test_model_file_checked_on_load(tmp_path, text, message):
    """A model file that is not JSON, lacks a key, holds a slope count
    other than one per feature, a coefficient that is not a JSON number (a
    string, bool or null) or one that is not finite is an input error
    naming the file."""
    path = tmp_path / "model.json"
    if text is None:
        model = MatcherModel(kind="logistic", specs=(SPEC_A, SPEC_B),
                             intercepts=np.zeros(3), coefs=np.ones((3, 2)))
        d = model.to_dict()
        d["coefficients"]["BothHan"]["slopes"].pop()
        text = json.dumps(d)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        MatcherModel.load(path)
