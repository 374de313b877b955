import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import posterior_ranking_by_row, tau1_full_grid, tau2_dict_lookup

from hanlink.fuse import (
    CandidatePairs,
    _tau2_curve,
    apply_threshold,
    eligible_rows,
    posterior_adjust,
    tau1_select,
    tau2_select,
    transfer_predictions,
)
from hanlink.linkage import NA, LinkageModel, PatternTable, zeta_for_gammas
from hanlink.matcher import ScoreDistribution, fit_score_distributions


def make_dist(match_scores, nonmatch_scores):
    scores = np.concatenate([match_scores, nonmatch_scores])
    labels = np.concatenate([np.ones(len(match_scores)),
                             np.zeros(len(nonmatch_scores))])
    return fit_score_distributions(scores, labels)


def make_table(gammas, counts, fields=("name", "sex", "yob")):
    return PatternTable(fields=fields, gammas=np.asarray(gammas, dtype=np.int8),
                        counts=np.asarray(counts))


def move_scored_rows(tau, table, scores_by_row):
    """apply_threshold on per-row score arrays, with no true matches."""
    rows = np.concatenate([np.full(len(v), r) for r, v in scores_by_row.items()])
    scores = np.concatenate(list(scores_by_row.values()))
    pairs = CandidatePairs(table, list(scores_by_row), rows, scores, np.zeros(len(rows), bool))
    new_table, new_pos = apply_threshold(tau, table, np.zeros(len(table.counts), np.int64), pairs)
    assert not new_pos.any()
    return new_table


def table_dict(table):
    return {tuple(int(v) for v in g): int(c) for g, c in zip(table.gammas, table.counts)}


@pytest.fixture(scope="module")
def small_model():
    return LinkageModel(fields=("name", "sex", "yob"), pi_m=0.01,
                        p_m=np.array([0.8, 0.95, 0.9]),
                        p_u=np.array([0.001, 0.5, 0.1]))


@pytest.fixture(scope="module")
def small_table(small_model):
    gammas = []
    for name in (0, 1):
        for sex in (0, 1):
            for yob in (0, 1):
                gammas.append([name, sex, yob])
    counts = [96000, 1500, 1200, 600, 400, 150, 100, 50]
    return make_table(gammas, counts)


def test_transfer_conservation_random_tuples():
    rng = np.random.default_rng(0)
    n = 10_000
    zeta1 = rng.uniform(size=n)
    zeta2 = rng.uniform(size=n)
    n1 = rng.uniform(0, 1e6, size=n)
    n2 = rng.uniform(0, 1e6, size=n)
    tail_m = rng.uniform(size=n)
    tail_u = rng.uniform(size=n)
    zh1, zh2, nh1, nh2 = transfer_predictions(zeta1, n1, zeta2, n2, tail_m, tail_u)
    # count conservation
    np.testing.assert_allclose(nh1 + nh2, n1 + n2, rtol=1e-9)
    # matched-mass conservation
    np.testing.assert_allclose(zh1 * nh1 + zh2 * nh2,
                               zeta1 * n1 + zeta2 * n2, rtol=1e-9)


def test_transfer_no_move_limit():
    zh1, zh2, nh1, nh2 = transfer_predictions(0.4, 100.0, 0.9, 50.0, 0.0, 0.0)
    assert zh1 == pytest.approx(0.4)
    assert zh2 == pytest.approx(0.9)
    assert nh1 == pytest.approx(100.0)
    assert nh2 == pytest.approx(50.0)


def test_tau1_separated_distribution(small_table, small_model):
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    dist = make_dist(np.full(200, 0.9999), np.zeros(200))
    tau = tau1_select(small_table, zetas, dist)
    assert tau == pytest.approx(dist.grid[1])  # smallest grid point > 0


def test_tau1_uninformative_distribution(small_table):
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=400)
    dist = make_dist(scores, scores)  # identical distributions
    zetas = np.full(len(small_table.counts), 0.1)
    tau = tau1_select(small_table, zetas, dist)
    assert tau == 0.0  # recall maximal, precision constant


def test_tau1_no_donor_rows(small_model):
    table = make_table([[1, 1, 1]], [100])
    dist = make_dist(np.full(10, 0.9), np.full(10, 0.1))
    with pytest.raises(ValueError):
        tau1_select(table, np.array([0.5]), dist)


def brute_force_tau1(table, zetas, dist):
    donors = [j for j in range(len(table.counts)) if table.gammas[j][0] == 0]
    weights = table.counts[donors].astype(float)
    weights = weights / weights.sum()
    best_tau, best_f1 = None, -1.0
    for g in range(len(dist.grid)):
        tm, tu = dist.tail_m[g], dist.tail_u[g]
        precision = 0.0
        for w, j in zip(weights, donors):
            num = zetas[j] * tm
            den = num + (1 - zetas[j]) * tu
            precision += w * (num / den if den > 0 else 0.0)
        recall = tm
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        if f1 > best_f1:
            best_f1, best_tau = f1, dist.grid[g]
    return best_tau


def brute_force_tau2(table, zetas, dist, model):
    donors = [j for j in range(len(table.counts)) if table.gammas[j][0] == 0]
    codes = table.codes()
    code_to_row = {int(c): j for j, c in enumerate(codes)}
    recips, created = [], []
    for j in donors:
        code = int(codes[j]) + 1  # name field is index 0
        if code in code_to_row:
            recips.append(code_to_row[code])
        else:
            gamma = table.gammas[j].copy()
            gamma[0] = 1
            created.append(gamma)
            recips.append(-len(created))
    created_z = (zeta_for_gammas(model, np.stack(created)) if created else
                 np.empty(0))
    touched = set(donors) | {r for r in recips if r >= 0}
    untouched = [j for j in range(len(table.counts)) if j not in touched]

    best_tau, best_auc = None, -1.0
    curve = np.empty(len(dist.grid))
    for g in range(len(dist.grid)):
        tm, tu = dist.tail_m[g], dist.tail_u[g]
        rows = []
        for j in untouched:
            rows.append((zetas[j], float(table.counts[j])))
        pairs = []
        for j, r in zip(donors, recips):
            z1, n1 = zetas[j], float(table.counts[j])
            if r >= 0:
                z2, n2 = zetas[r], float(table.counts[r])
            else:
                z2, n2 = created_z[-r - 1], 0.0
            stay_m = z1 * (1 - tm)
            stay_u = (1 - z1) * (1 - tu)
            nh1 = n1 * (stay_m + stay_u)
            zh1 = stay_m / (stay_m + stay_u) if stay_m + stay_u > 0 else z1
            nh2 = n2 + n1 * (z1 * tm + (1 - z1) * tu)
            zh2 = ((z2 * n2 + z1 * tm * n1) / nh2) if nh2 > 0 else z2
            pairs.append(((zh1, nh1), (zh2, nh2)))
        for (zh1, nh1), _ in pairs:
            rows.append((zh1, nh1))
        for _, (zh2, nh2) in pairs:
            rows.append((zh2, nh2))
        # grouped AUROC, ties get half credit
        scores = np.array([s for s, _ in rows])
        masses = np.array([m for _, m in rows])
        pos = scores * masses
        neg = (1 - scores) * masses
        P, N = pos.sum(), neg.sum()
        if P <= 0 or N <= 0:
            auc = 0.5
        else:
            order = np.argsort(-scores, kind="stable")
            auc_num = 0.0
            remaining_neg = N
            i = 0
            s, p, n = scores[order], pos[order], neg[order]
            while i < len(s):
                j2 = i
                gp = gn = 0.0
                while j2 < len(s) and s[j2] == s[i]:
                    gp += p[j2]
                    gn += n[j2]
                    j2 += 1
                remaining_neg -= gn
                auc_num += gp * remaining_neg + 0.5 * gp * gn
                i = j2
            auc = auc_num / (P * N)
        curve[g] = auc
        if auc > best_auc:
            best_auc, best_tau = auc, dist.grid[g]
    return best_tau, curve


@pytest.fixture(scope="module")
def fitted_dist():
    rng = np.random.default_rng(2)
    match = np.clip(rng.beta(8, 2, size=400), 0, 1)
    nonmatch = np.clip(rng.beta(2, 10, size=600), 0, 1)
    return make_dist(match, nonmatch)


@st.composite
def tau_cases(draw, counts=st.integers(0, 10 ** 5)):
    """(table, zetas, dist, model): distinct patterns in drawn (unsorted)
    order with "name" at a drawn position and at least one donor row,
    `counts` (by default ones that may be zero), zetas in [0, 1] ends
    included, and a score
    distribution from scores on a coarse lattice, so its tails run in long
    constant steps over the grid (sometimes only one or two steps)."""
    n_fields = draw(st.integers(1, 4))
    name_ix = draw(st.integers(0, n_fields - 1))
    codes = draw(st.lists(st.integers(0, 3 ** n_fields - 1), min_size=1,
                          max_size=min(3 ** n_fields, 30), unique=True)
                 .filter(lambda cs: any(c // 3 ** name_ix % 3 == 0 for c in cs)))
    fields = tuple("name" if f == name_ix else f"f{f}" for f in range(n_fields))
    gammas = np.array(codes)[:, None] // 3 ** np.arange(n_fields) % 3
    rows = len(codes)
    counts = draw(st.lists(counts, min_size=rows, max_size=rows))
    zetas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          min_size=rows, max_size=rows))
    lattice = draw(st.sampled_from([1, 2, 5, 40, 1000]))
    scores = st.lists(st.integers(0, lattice), min_size=1, max_size=40)
    match, nonmatch = draw(scores), draw(scores)
    dist = make_dist(np.array(match) / lattice, np.array(nonmatch) / lattice)
    probs = st.lists(st.floats(0.01, 0.99), min_size=n_fields, max_size=n_fields)
    model = LinkageModel(fields, draw(st.floats(1e-4, 0.5)), np.array(draw(probs)),
                         np.array(draw(probs)))
    return make_table(gammas, counts, fields), np.array(zetas), dist, model


def outcome(select, *args):
    """select(*args), or the type and message of the ValueError it raised."""
    try:
        return select(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(tau_cases())
@example(None)
def test_tau1_matches_brute_force(small_table, small_model, fitted_dist, case):
    """tau1 from one grid point per tail step: the per-grid brute force's
    on the fixture, and bitwise the full-grid evaluation's on drawn cases."""
    if case is None:
        zetas = zeta_for_gammas(small_model, small_table.gammas)
        assert tau1_select(small_table, zetas, fitted_dist) == \
            brute_force_tau1(small_table, zetas, fitted_dist)
        return
    table, zetas, dist, _ = case
    assert tau1_select(table, zetas, dist) == tau1_full_grid(table, zetas, dist)


@settings(max_examples=150, deadline=None)
@given(tau_cases())
@example(None)
def test_tau2_matches_brute_force(small_table, small_model, fitted_dist, case):
    """tau2: the per-grid brute force's on the fixture, and bitwise the
    dict-lookup evaluation's on drawn cases, absent recipients included."""
    if case is None:
        zetas = zeta_for_gammas(small_model, small_table.gammas)
        assert tau2_select(small_table, zetas, fitted_dist, small_model) == \
            brute_force_tau2(small_table, zetas, fitted_dist, small_model)[0]
        return
    table, zetas, dist, model = case
    assert outcome(tau2_select, table, zetas, dist, model) == \
        outcome(tau2_dict_lookup, table, zetas, dist, model)


def test_tau2_curve_matches_per_grid_reference(small_table, small_model, fitted_dist):
    """Evaluating each run of equal tails once gives every grid point's value."""
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    tails = np.stack([fitted_dist.tail_m, fitted_dist.tail_u])
    steps = np.count_nonzero(np.any(np.diff(tails, axis=1) != 0, axis=0))
    assert steps < len(fitted_dist.grid) // 2  # the reduction is exercised
    tau = tau2_select(small_table, zetas, fitted_dist, small_model)
    curve = _tau2_curve(small_table, zetas, fitted_dist, small_model)
    ref_tau, ref_curve = brute_force_tau2(small_table, zetas, fitted_dist, small_model)
    np.testing.assert_allclose(curve, ref_curve, rtol=0, atol=1e-12)
    assert tau == ref_tau


def test_tau2_missing_reciprelies_on_model(small_model, fitted_dist):
    # only a donor row: the recipient must be created from the model
    table = make_table([[0, 1, 1], [0, 0, 0]], [500, 90000])
    zetas = zeta_for_gammas(small_model, table.gammas)
    tau = tau2_select(table, zetas, fitted_dist, small_model)
    assert tau == brute_force_tau2(table, zetas, fitted_dist, small_model)[0]


def test_tau2_no_transfer_at_top_of_grid(small_table, small_model):
    # all scores strictly below 1 so the top grid point moves nothing
    rng = np.random.default_rng(3)
    dist = make_dist(rng.uniform(0.4, 0.95, 300), rng.uniform(0.0, 0.5, 300))
    assert dist.tail_m[-1] == 0.0 and dist.tail_u[-1] == 0.0
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    zh1, zh2, nh1, nh2 = transfer_predictions(
        zetas[0], small_table.counts[0], zetas[4], small_table.counts[4],
        dist.tail_m[-1], dist.tail_u[-1])
    assert zh1 == pytest.approx(zetas[0]) and zh2 == pytest.approx(zetas[4])
    assert nh1 == small_table.counts[0] and nh2 == small_table.counts[4]


def test_apply_threshold_above_max_score_is_identity(small_table):
    scores = {int(j): np.full(int(small_table.counts[j]), 0.3)
              for j in range(len(small_table.counts))
              if small_table.gammas[j][0] == 0}
    new_table = move_scored_rows(0.9, small_table, scores)
    assert table_dict(new_table) == table_dict(small_table)


def test_apply_threshold_zero_moves_everything():
    table = make_table([[0, 1, 1], [1, 1, 1]], [40, 10])
    new_table = move_scored_rows(0.0, table, {0: np.linspace(0, 1, 40)})
    assert len(new_table.counts) == 1
    assert new_table.counts[0] == 50
    assert list(new_table.gammas[0]) == [1, 1, 1]


def test_apply_threshold_requires_full_coverage():
    table = make_table([[0, 1, 1], [1, 1, 1]], [10, 3])
    with pytest.raises(ValueError, match="row 0 has 10 pairs but 1"):
        move_scored_rows(0.5, table, {0: np.array([0.9])})
    with pytest.raises(ValueError, match="gamma_name=0"):
        move_scored_rows(0.5, table, {0: np.full(10, 0.9), 1: np.full(3, 0.9)})


@pytest.mark.parametrize("rows,pair_rows,scores,message", [
    ([0], [0] * 11, [0.5] * 11, "row 0 has 10 pairs but 11 were supplied"),
    ([0], [0] * 10 + [2] * 5, [0.5] * 15, "a pair lies outside the candidate rows"),
    ([0], [0] * 10, [0.5] * 9 + [1.5], r"name scores must lie in \[0, 1\]"),
    ([0], [0] * 10, [0.5] * 9 + [float("nan")], r"name scores must lie in \[0, 1\]"),
    ([0], [0] * 10, [0.5] * 9 + [-0.1], r"name scores must lie in \[0, 1\]"),
    ([0, -1], [0] * 10, [0.5] * 10, "only gamma_name=0 rows can move pairs"),
    ([0, 2], [0] * 10 + [2] * 4 + [-1], [0.5] * 15, "a pair lies outside the candidate rows"),
    ([0], [0] * 10 + [3], [0.5] * 11, "a pair lies outside the candidate rows"),
])
def test_candidate_pairs_checks(rows, pair_rows, scores, message):
    """CandidatePairs rejects a row given more pairs than it has, a row or
    a pair outside its rows (a negative one and one past the table
    included) and a score outside [0, 1]."""
    table = make_table([[0, 1, 1], [1, 1, 1], [0, 0, 1]], [10, 3, 5])
    with pytest.raises(ValueError, match=message):
        CandidatePairs(table, rows, pair_rows, scores, np.zeros(len(pair_rows), bool))


def test_posterior_needs_every_eligible_row(small_table, small_model, fitted_dist):
    """An eligible row that is not a candidate row is a ValueError, not a
    row silently kept at its prior."""
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    elig, _ = eligible_rows(small_table, zetas, fitted_dist, 0.0)
    rows = elig[1:]
    n = int(small_table.counts[rows].sum())
    pairs = CandidatePairs(small_table, rows, np.repeat(rows, small_table.counts[rows]),
                           np.zeros(n), np.zeros(n, bool))
    with pytest.raises(ValueError, match=f"eligible row {elig[0]} is not a candidate row"):
        posterior_adjust(small_table, zetas, fitted_dist,
                         np.zeros(len(small_table.counts), np.int64), pairs, 0.0)


def test_apply_threshold_matches_per_pair_classification():
    rng = np.random.default_rng(4)
    gammas = [[0, 1, 1], [0, 0, 1], [1, 1, 0], [0, NA, 0]]
    counts = [30, 25, 12, 8]
    table = make_table(gammas, counts)
    scores = {j: rng.uniform(size=c) for j, c in enumerate(counts)
              if gammas[j][0] == 0}
    tau = 0.6
    new_table = move_scored_rows(tau, table, scores)
    # independent per-pair tally
    from collections import Counter
    expected = Counter()
    for j, gamma in enumerate(gammas):
        if gamma[0] == 0:
            for x in scores[j]:
                g = tuple(gamma) if x < tau else (1,) + tuple(gamma[1:])
                expected[g] += 1
        else:
            expected[tuple(gamma)] += counts[j]
    assert table_dict(new_table) == {k: v for k, v in expected.items() if v > 0}


def test_apply_threshold_then_retabulate_identity():
    """Moving pairs at tau equals tabulating with agreement = exact or
    score >= tau."""
    from hanlink.experiment import LinkageDataset
    rng = np.random.default_rng(5)
    names = ["a", "b", "c", "d"]
    recs_a = {"name": [rng.choice(names) for _ in range(12)],
              "sex": [str(rng.integers(1, 3)) for _ in range(12)]}
    recs_b = {"name": [rng.choice(names) for _ in range(9)],
              "sex": [str(rng.integers(1, 3)) for _ in range(9)]}
    for f in ("yob", "mob", "dob", "loc"):
        recs_a[f] = [""] * 12
        recs_b[f] = [""] * 9
    fields = ("name", "sex")
    table = LinkageDataset(recs_a, recs_b, np.zeros((0, 2), dtype=np.int64), fields).tabulate()[0]
    tau = 0.55
    pair_scores = {(i, j): float(rng.uniform())
                   for i in range(12) for j in range(9)}
    # group scores by donor row
    codes = table.codes()
    code_to_row = {int(c): r for r, c in enumerate(codes)}
    by_row: dict[int, list[float]] = {}
    for (i, j), x in pair_scores.items():
        gamma_name = 1 if recs_a["name"][i] == recs_b["name"][j] else 0
        gamma_sex = 1 if recs_a["sex"][i] == recs_b["sex"][j] else 0
        code = gamma_name + 3 * gamma_sex
        row = code_to_row[code]
        if gamma_name == 0:
            by_row.setdefault(row, []).append(x)
    scores_by_row = {r: np.array(v) for r, v in by_row.items()}
    new_table = move_scored_rows(tau, table, scores_by_row)
    # direct tabulation with fuzzy agreement
    from collections import Counter
    expected = Counter()
    for i in range(12):
        for j in range(9):
            exact = recs_a["name"][i] == recs_b["name"][j]
            agree = exact or pair_scores[(i, j)] >= tau
            code = (1 if agree else 0,
                    1 if recs_a["sex"][i] == recs_b["sex"][j] else 0)
            expected[code] += 1
    assert table_dict(new_table) == dict(expected)


def adjusted_scores(table, zetas, dist, rows, scores):
    """The posteriors posterior_adjust gives the pairs (rows, scores) at
    floor 0, where every donor row is eligible: each donor row's other
    pairs are listed with score 0, and no pair is a true match."""
    donors = np.nonzero(table.gammas[:, 0] == 0)[0]
    listed = np.bincount(rows, minlength=len(table.counts))[donors]
    pair_rows = np.concatenate([rows, np.repeat(donors, table.counts[donors] - listed)])
    pair_scores = np.concatenate([scores, np.zeros(len(pair_rows) - len(rows))])
    pairs = CandidatePairs(table, donors, pair_rows, pair_scores, np.zeros(len(pair_rows), bool))
    (ranked, _, _, _), elig, skipped = posterior_adjust(
        table, zetas, dist, np.zeros(len(table.counts), np.int64), pairs, floor=0.0)
    assert list(elig) == list(donors) and len(skipped) == 0
    return ranked[len(table.counts) - len(donors):][:len(rows)]


def test_posterior_identity_ratio(small_table, small_model):
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    dist = make_dist(np.linspace(0, 1, 100), np.linspace(0, 1, 100))
    dist.ratio[:] = 1.0
    donors = np.nonzero(small_table.gammas[:, 0] == 0)[0]
    rows = np.repeat(donors, 3)
    scores = np.tile(np.array([0.1, 0.5, 0.9]), len(donors))
    posterior = adjusted_scores(small_table, zetas, dist, rows, scores)
    assert posterior == pytest.approx(zetas[rows], abs=1e-12)


def test_posterior_degenerate_priors(small_table, fitted_dist):
    zetas = np.zeros(len(small_table.counts))
    donors = np.nonzero(small_table.gammas[:, 0] == 0)[0]
    rows = donors[:1]
    posterior = adjusted_scores(small_table, zetas, fitted_dist, rows, np.array([0.9]))
    assert posterior[0] == 0.0
    zetas = np.ones(len(small_table.counts))
    posterior = adjusted_scores(small_table, zetas, fitted_dist, rows, np.array([0.9]))
    assert posterior[0] == 1.0


def test_posterior_hand_arithmetic(small_table):
    dist = make_dist(np.full(50, 0.9), np.full(50, 0.1))
    dist.ratio[:] = 3.0
    zetas = np.full(len(small_table.counts), 0.5)
    donors = np.nonzero(small_table.gammas[:, 0] == 0)[0]
    posterior = adjusted_scores(small_table, zetas, dist, donors[:1], np.array([0.7]))
    assert posterior[0] == pytest.approx(0.75)


def test_posterior_monotone_in_score(small_table, small_model, fitted_dist):
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    donors = np.nonzero(small_table.gammas[:, 0] == 0)[0]
    xs = np.linspace(0, 1, 21)
    rows = np.repeat(donors[:1], len(xs))
    posterior = adjusted_scores(small_table, zetas, fitted_dist, rows, xs)
    assert np.all(np.diff(posterior) >= -1e-12)


@st.composite
def posterior_cases(draw):
    """A tau case with 1 to 6 pairs per row and true-match counts within
    them, then every pair of every gamma_name=0 row, skipped rows' pairs
    included, listed in a drawn order with a score in [0, 1] and a label,
    and a floor in [0, 1] ends included."""
    table, zetas, dist, _ = draw(tau_cases(counts=st.integers(1, 6)))
    pos = np.array([draw(st.integers(0, int(c))) for c in table.counts])
    donors = np.nonzero(table.gammas[:, table.fields.index("name")] == 0)[0]
    pair_rows = np.repeat(donors, table.counts[donors])
    pair_rows = pair_rows[np.array(draw(st.permutations(range(len(pair_rows)))), dtype=int)]
    n = len(pair_rows)
    scores = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                    min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    floor = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return table, zetas, dist, pos, pair_rows, scores, labels, floor


@settings(max_examples=150, deadline=None)
@given(posterior_cases())
def test_posterior_ranking_matches_row_by_row_reference(case):
    """Each pair of an eligible row enters the ranking once, with its
    posterior and label; every other row enters once, with its prior zeta
    and counts, so a skipped row's listed pairs stay out. The masses sum to
    the table's pairs and the match share is the reference's."""
    table, zetas, dist, pos, pair_rows, scores, labels, floor = case
    donors = np.nonzero(table.gammas[:, table.fields.index("name")] == 0)[0]
    (ranked, pos_mass, neg_mass, share), elig, skipped = posterior_adjust(
        table, zetas, dist, pos, CandidatePairs(table, donors, pair_rows, scores, labels), floor)
    entries, ref_share, ref_elig = posterior_ranking_by_row(
        table, zetas, dist, pos, pair_rows, scores, labels, floor)
    assert elig.tolist() == ref_elig
    assert sorted(elig.tolist() + skipped.tolist()) == donors.tolist()
    assert sorted(zip(ranked.tolist(), pos_mass.tolist(), neg_mass.tolist())) == sorted(entries)
    assert pos_mass.sum() + neg_mass.sum() == table.total
    assert share == pytest.approx(ref_share, rel=1e-12, abs=0)


def test_skip_soundness(small_table, small_model, fitted_dist):
    zetas = zeta_for_gammas(small_model, small_table.gammas)
    floor = 0.1
    elig, skipped = eligible_rows(small_table, zetas, fitted_dist, floor)
    rmax = fitted_dist.ratio_max
    for j in skipped:
        best = zetas[j] * rmax / (zetas[j] * rmax + 1 - zetas[j])
        assert best < floor
    for j in elig:
        best = zetas[j] * rmax / (zetas[j] * rmax + 1 - zetas[j])
        assert best >= floor
