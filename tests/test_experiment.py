import concurrent.futures
import csv
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (cross_product_codes, cross_product_table, external_scores_lookup,
                     joint_field_codes, study_name_pairs)

from hanlink import experiment as exp
from hanlink import linkage, simgen
from hanlink.assets import load_bundle
from hanlink.compare import FeatureSpec, NamePairs, PairFeaturizer, intern_strings
from hanlink.encoding import EncodingKind
from hanlink.fuse import CandidatePairs, apply_threshold
from hanlink.linkage import NA, InputError
from hanlink.matcher import MatcherModel, fit_score_distributions
from hanlink.simgen import SimConfig, generate_pair_files

FIELDS = ("name", "sex", "yob", "mob", "dob", "loc")


@pytest.fixture(scope="module")
def small_sim(name_model):
    cfg = SimConfig(n_records=300, name_error_rate=0.2, seed=21)
    return generate_pair_files(cfg, name_model)


@pytest.fixture(scope="module")
def dataset(small_sim):
    return exp.LinkageDataset(small_sim.records_a, small_sim.records_b,
                              small_sim.truth, FIELDS)


def test_dataset_rejects_repeated_field(small_sim):
    with pytest.raises(ValueError, match="'sex' is listed more than once"):
        exp.LinkageDataset(small_sim.records_a, small_sim.records_b, small_sim.truth,
                           ("name", "sex", "sex"))


@st.composite
def linked_files(draw):
    """Two small record files (every field takes missing values), a random
    field list starting with name, and truth links."""
    others = draw(st.permutations(FIELDS[1:]))[:draw(st.integers(0, 5))]
    fields = ("name", *others)
    cell = st.sampled_from(["", "a", "b", "c"])
    n_a = draw(st.integers(1, 7))
    n_b = draw(st.integers(1, 7))
    records_a = {f: draw(st.lists(cell, min_size=n_a, max_size=n_a)) for f in fields}
    records_b = {f: draw(st.lists(cell, min_size=n_b, max_size=n_b)) for f in fields}
    linked_b = draw(st.permutations(range(n_b)))
    n_links = draw(st.integers(0, min(n_a, n_b)))
    truth = np.array([(i, linked_b[i]) for i in range(n_links)], dtype=np.int64)
    return records_a, records_b, truth.reshape(-1, 2), fields


def both_orders(case):
    records_a, records_b, truth, fields = case
    return [(records_a, records_b, truth, fields),
            (records_b, records_a, truth[:, ::-1], fields)]


@settings(max_examples=200, deadline=None)
@given(linked_files())
def test_dataset_tabulate_matches_cross_product(case):
    """Pattern counts and true-match counts equal the brute-force cross
    product's, in both file orders."""
    for records_a, records_b, truth, fields in both_orders(case):
        table, pos = exp.LinkageDataset(records_a, records_b, truth, fields).tabulate()
        got = {tuple(map(int, g)): (int(c), int(p))
               for g, c, p in zip(table.gammas, table.counts, pos)}
        assert got == cross_product_table(records_a, records_b, fields, truth)


@settings(max_examples=200, deadline=None)
@given(linked_files(), st.data())
def test_candidate_pairs_match_cross_product(case, data):
    """candidate_pairs lists exactly the cross product's pairs of the wanted
    table rows, each with its row, in (i, j) order, for any join slice size.
    The wanted rows, repeats among them, always include the table's first
    and last rows: its lowest and highest pattern codes."""
    n_rows = len(exp.LinkageDataset(*case).tabulate()[0].counts)
    wanted = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=8)) + [0, n_rows - 1]
    slice_size = data.draw(st.sampled_from([1, 3, 1 << 18]))
    for records_a, records_b, truth, fields in both_orders(case):
        dataset = exp.LinkageDataset(records_a, records_b, truth, fields)
        table, _ = dataset.tabulate()
        with mock.patch.object(linkage, "_JOIN_SLICE", slice_size):
            ii, jj, rows = dataset.candidate_pairs(table, np.array(wanted))
        ri, rj, rc = cross_product_codes(records_a, records_b, fields)
        keep = np.isin(rc, table.codes()[wanted])
        for got, want in ((ii, ri[keep]), (jj, rj[keep]), (rows, table.rows_of(rc[keep]))):
            assert got.dtype == np.int32
            assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(linked_files())
def test_dataset_name_ids_are_interned_names(case):
    """The dataset's names are `intern_strings` of the files' non-blank
    names, A before B, and each record's name id indexes them; a blank name
    has id -1."""
    records_a, records_b, truth, fields = case
    dataset = exp.LinkageDataset(records_a, records_b, truth, fields)
    names, _ = intern_strings([n for n in records_a["name"] + records_b["name"] if n])
    assert dataset.names == names
    for ids, column in ((dataset.name_ids_a, records_a["name"]),
                        (dataset.name_ids_b, records_b["name"])):
        assert ids.tolist() == [names.index(n) if n else -1 for n in column]


@settings(max_examples=100, deadline=None)
@given(linked_files())
def test_dataset_codes_hold_a_then_b(case):
    """Each field's codes are one array, A's records and then B's: two cells
    share a code exactly when their strings are equal, a blank cell is -1,
    and the name ids of each file are its part of the name field's array."""
    records_a, records_b, truth, fields = case
    dataset = exp.LinkageDataset(records_a, records_b, truth, fields)
    for f, codes in zip(fields, dataset.codes):
        cells = np.array(records_a[f] + records_b[f], dtype=object)
        assert codes.shape == (dataset.n_a + dataset.n_b,)
        assert np.array_equal(codes[:, None] == codes[None, :], cells[:, None] == cells[None, :])
        assert np.array_equal(codes < 0, cells == "")
    name_codes = dataset.codes[fields.index("name")]
    for part, ids in ((name_codes[:dataset.n_a], dataset.name_ids_a),
                      (name_codes[dataset.n_a:], dataset.name_ids_b)):
        assert np.array_equal(part, ids) and np.shares_memory(ids, name_codes)


def assert_joint_codes(dataset, records_a, records_b, fields):
    """Every field's codes are, value for value, the joint interning of A's
    cells and then B's with "" as -1, and int32; the names are the name
    field's distinct values."""
    for f, codes in zip(fields, dataset.codes):
        values, want = joint_field_codes(list(records_a[f]), list(records_b[f]))
        assert codes.dtype == np.int32 and np.array_equal(codes, want)
        if f == "name":
            assert dataset.names == values


@pytest.mark.parametrize("names_a,names_b", [
    (["x", "", "y"], ["y", "z"]),      # "" in A only
    (["x", "y"], ["", "z", "x"]),      # "" in B only
    (["", "x", ""], ["z", "", "x"]),   # "" in both
    (["x", "x"], ["w", "z", "w"]),     # values first seen in B
    ([""], [""]),                      # nothing but ""
])
def test_dataset_codes_are_the_joint_interning(names_a, names_b):
    records_a = {"name": names_a, "sex": ["1"] * len(names_a)}
    records_b = {"name": names_b, "sex": ["2"] * len(names_b)}
    dataset = exp.LinkageDataset(records_a, records_b, np.zeros((0, 2)), ("name", "sex"))
    assert_joint_codes(dataset, records_a, records_b, ("name", "sex"))


@settings(max_examples=100, deadline=None)
@given(linked_files())
def test_file_read_dataset_equals_list_dataset(tmp_path_factory, case):
    """A dataset of record files read back from CSV (interned columns) and
    one of the same records as lists of strings hold equal codes, names and
    name ids, each the joint interning of the cells."""
    records_a, records_b, truth, fields = case
    paths = []
    for records in (records_a, records_b):
        paths.append(tmp_path_factory.mktemp("records") / "r.csv")
        linkage.write_records(paths[-1], {f: records.get(f, [""] * len(records["name"]))
                                          for f in FIELDS})
    from_lists = exp.LinkageDataset(records_a, records_b, truth, fields)
    from_files = exp.LinkageDataset(*map(linkage.read_records, paths), truth, fields)
    assert_joint_codes(from_lists, records_a, records_b, fields)
    assert from_files.names == from_lists.names
    for got, want in zip(from_files.codes, from_lists.codes):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("key", ["n_nonmatch_name_pairs", "n_nonmatch_score_pairs"])
def test_train_pair_counts_bounded(key):
    """A study's nonmatch pair counts reach at most MAX_NONMATCH_PAIRS,
    whatever the dev simulation's size: pairs are drawn with replacement, so
    a count beyond its n_records * (n_records - 1) nonmatch pairs is kept,
    written out or left to its default. A larger count, one beyond any float
    among them, is an InputError naming the key."""
    config = {"simulate": {"n_records": 30}}
    assert 870 < exp.TRAIN_DEFAULTS[key] < exp.MAX_NONMATCH_PAIRS
    for count in (871, exp.TRAIN_DEFAULTS[key], exp.MAX_NONMATCH_PAIRS):
        assert exp.read_settings({**config, "train": {key: count}}).train == {key: count}
    assert exp.read_settings(config).train == {}
    for count in (exp.MAX_NONMATCH_PAIRS + 1, 10 ** 12, 10 ** 400):
        with pytest.raises(InputError, match=f"'train.{key}' must be an integer >= 1 "
                                             f"and <= 100000000, not {count}"):
            exp.read_settings({**config, "train": {key: count}})


def test_dataset_rejects_columns_of_other_lengths():
    """Each field's codes hold A's records, then B's: a column one record
    longer in A and one shorter in B would shift B's codes silently."""
    records_a = {"name": ["x", "y"], "sex": ["1", "2", "1"]}
    records_b = {"name": ["x", "y", "z"], "sex": ["1", "2"]}
    with pytest.raises(InputError, match="hold different numbers of records"):
        exp.LinkageDataset(records_a, records_b, np.zeros((0, 2)), ("name", "sex"))


def test_experiment_links_with_the_linkage_dataset():
    """`experiment.LinkageDataset` is the class `linkage` defines, so a patch
    of one is a patch of the class `run_methods` uses."""
    assert exp.LinkageDataset is linkage.LinkageDataset


@pytest.mark.parametrize("truth,message", [
    ([(-1, 2)], r"truth link \(-1, 2\): id_a -1 is outside \[0, 3\)"),
    ([(0, 1), (3, 0)], r"truth link \(3, 0\): id_a 3 is outside \[0, 3\)"),
    ([(1, 3)], r"truth link \(1, 3\): id_b 3 is outside \[0, 3\)"),
    ([(0, 0), (0, 1)], r"truth link \(0, 1\): id_a 0 is linked more than once"),
    ([(0, 2), (1, 0), (2, 2)], r"truth link \(2, 2\): id_b 2 is linked more than once"),
])
def test_dataset_rejects_bad_truth_links(truth, message):
    records = {f: ["a", "b", "c"] for f in FIELDS}
    with pytest.raises(ValueError, match=message):
        exp.LinkageDataset(records, records, np.array(truth), FIELDS)


def test_candidate_pairs_exhaustive(dataset):
    table, _ = dataset.tabulate()
    ii, jj, rows = dataset.candidate_pairs(table, np.arange(3))
    listed = np.bincount(rows, minlength=len(table.counts))
    assert listed[:3].tolist() == table.counts[:3].tolist() and not listed[3:].any()


def test_exact_zero_error_perfect(name_model, bundle, monkeypatch):
    monkeypatch.setattr(simgen, "FIELD_ERROR_RATES", dict.fromkeys(simgen.SIM_FIELDS, 0.0))
    cfg = SimConfig(n_records=200, name_error_rate=0.0, seed=22)
    sim = generate_pair_files(cfg, name_model)
    dataset = exp.LinkageDataset(sim.records_a, sim.records_b, sim.truth, FIELDS)
    reports = exp.run_methods(dataset, ("exact",))
    assert reports["exact"]["fn_true_pm"] == 0.0
    assert reports["exact"]["fp_true_pm"] == 0.0


def make_scorer_and_dist(bundle, model_specs, sim, seed=0):
    spec = FeatureSpec.from_name("PY_COS_k3_1:N")
    model = MatcherModel.single_feature(spec)
    scorer = exp.NamePairScorer(model, bundle)
    rng = np.random.default_rng(seed)
    names_a, names_b = sim.records_a["name"], sim.records_b["name"]
    ta, tb = sim.truth[:, 0], sim.truth[:, 1]
    match_pairs = [(names_a[i], names_b[j]) for i, j in zip(ta, tb)]
    u_i = rng.integers(len(names_a), size=2000)
    u_j = rng.integers(len(names_b), size=2000)
    b_of_a = np.full(len(names_a), -1)
    b_of_a[ta] = tb
    keep = b_of_a[u_i] != u_j
    nonmatch = [(names_a[i], names_b[j]) for i, j in zip(u_i[keep], u_j[keep])]
    scores = scorer.scores(match_pairs + nonmatch)
    labels = np.concatenate([np.ones(len(match_pairs)), np.zeros(len(nonmatch))])
    dist = fit_score_distributions(scores, labels)
    return scorer, dist


def test_posterior_uninformative_matches_exact(bundle, small_sim, dataset):
    scorer, dist = make_scorer_and_dist(bundle, None, small_sim)
    dist.ratio[:] = 1.0  # uninformative likelihood ratio
    reports = exp.run_methods(dataset, ("exact", "posterior"), scorer=scorer,
                              dist=dist, floor=0.1, candidate_floor=0.1)
    exact, post = reports["exact"], reports["posterior"]
    for key in ("auroc", "eauroc", "neg_log_lik", "fn_true_pm", "fp_true_pm",
                "fn_est_pm", "fp_est_pm", "pi_m_est"):
        assert post[key] == pytest.approx(exact[key], rel=1e-9, abs=1e-9), key


def test_all_methods_run_and_improve(bundle, small_sim, dataset):
    scorer, dist = make_scorer_and_dist(bundle, None, small_sim)
    reports = exp.run_methods(dataset, ("exact", "tau1", "tau2", "posterior"),
                              scorer=scorer, dist=dist)
    assert set(reports) == {"exact", "tau1", "tau2", "posterior"}
    for method in ("tau1", "tau2", "posterior"):
        assert reports[method]["eauroc"] >= reports["exact"]["eauroc"] - 0.02
    assert reports["posterior"]["neg_log_lik"] <= reports["exact"]["neg_log_lik"]


MOVE_FIELDS = ("name", "sex", "yob")


@st.composite
def scored_files(draw):
    """Two small record files (values may be missing), truth links, a name
    score for every A x B pair and a threshold."""
    n_a = draw(st.integers(1, 6))
    n_b = draw(st.integers(1, 6))
    cells = {"name": st.sampled_from(["", "a", "b", "c"]),
             "sex": st.sampled_from(["", "1", "2"]),
             "yob": st.sampled_from(["", "1980", "1981"])}
    records_a = {f: draw(st.lists(cells[f], min_size=n_a, max_size=n_a))
                 for f in MOVE_FIELDS}
    records_b = {f: draw(st.lists(cells[f], min_size=n_b, max_size=n_b))
                 for f in MOVE_FIELDS}
    linked_b = draw(st.permutations(range(n_b)))
    n_links = draw(st.integers(0, min(n_a, n_b)))
    truth = np.array([(i, linked_b[i]) for i in range(n_links)], dtype=np.int64)
    scores = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                    min_size=n_a * n_b, max_size=n_a * n_b)))
    tau = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return records_a, records_b, truth, scores.reshape(n_a, n_b), tau


@settings(max_examples=150, deadline=None)
@given(scored_files())
def test_threshold_move_matches_retabulation(case):
    """Moving the scored gamma_name=0 pairs at tau gives the pattern counts
    and true-match counts of tabulating with name agreement = exact or
    score >= tau."""
    records_a, records_b, truth, scores, tau = case
    dataset = exp.LinkageDataset(records_a, records_b, truth, MOVE_FIELDS)
    table, pos = dataset.tabulate()
    donors = np.nonzero(table.gammas[:, 0] == 0)[0]
    ii, jj, rows = dataset.candidate_pairs(table, donors)
    pairs = CandidatePairs(table, donors, rows, scores[ii, jj], dataset.truth_b_of_a[ii] == jj)
    new_table, new_pos = apply_threshold(tau, table, pos, pairs)
    got = {tuple(map(int, g)): (int(c), int(p))
           for g, c, p in zip(new_table.gammas, new_table.counts, new_pos)}

    linked = {(int(i), int(j)) for i, j in truth}
    want: dict[tuple, list[int]] = {}
    for i in range(len(records_a["name"])):
        for j in range(len(records_b["name"])):
            gamma = []
            for f in MOVE_FIELDS:
                a, b = records_a[f][i], records_b[f][j]
                gamma.append(NA if a == "" or b == "" else int(a == b))
            if gamma[0] == 0 and scores[i, j] >= tau:
                gamma[0] = 1
            entry = want.setdefault(tuple(gamma), [0, 0])
            entry[0] += 1
            entry[1] += (i, j) in linked
    assert got == {g: tuple(v) for g, v in want.items()}


def write_score_table(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name_a", "name_b", "score"])
        writer.writerows(rows)
    return path


def test_external_scorer(tmp_path):
    """A pair the table lacks is an error, also when one of its names is
    not in the table at all (("b", "c") must not alias the code of ("a", "b"))."""
    path = write_score_table(tmp_path / "s.csv", [("a", "b", 0.7), ("b", "a", 0.3)])
    scorer = exp.ExternalScorer(path)
    assert scorer.scores([("b", "a"), ("a", "b")]).tolist() == [0.3, 0.7]
    for pair in (("a", "c"), ("b", "c"), ("c", "a"), ("b", "b")):
        with pytest.raises(InputError, match=re.escape(f"missing the pair {pair!r}")):
            scorer.scores([("a", "b"), pair])


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_external_scorer_rejects_scores_outside_unit_interval(tmp_path, bad):
    path = write_score_table(tmp_path / "s.csv", [("a", "b", 0.9), ("a", "c", bad)])
    with pytest.raises(InputError, match=f"line 3, column 'score': bad cell '{bad}'"):
        exp.ExternalScorer(path)


def test_external_scorer_rejects_repeated_pair(tmp_path):
    """A pair listed twice is an error naming the line that repeats it, not
    the last score silently kept."""
    path = write_score_table(tmp_path / "s.csv", [("a", "b", 0.9), ("b", "a", 0.1),
                                                  ("c", "a", 0.2), ("a", "b", 0.9)])
    with pytest.raises(InputError, match=re.escape(f"{path}, line 5: the pair ('a', 'b') "
                                                   "is listed twice")):
        exp.ExternalScorer(path)


SCORE_NAMES = st.text(alphabet="伍李华a ", max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_external_scorer_matches_tuple_lookup(data):
    """The id-keyed table gives, bitwise, the scores of a lookup by name
    tuple, and raises InputError where it does: a pair the table lacks or a
    table pair listed twice. The two files share names, and the table lists
    names neither file holds."""
    pool = data.draw(st.lists(SCORE_NAMES, min_size=1, max_size=5, unique=True))
    name, score = st.sampled_from(pool), st.floats(0.0, 1.0)
    rows = data.draw(st.lists(st.tuples(name, name, score), max_size=10,
                              unique_by=lambda row: row[:2]))
    if data.draw(st.booleans()):  # the table lists every pair of the pool
        listed = {row[:2] for row in rows}
        rows += [(a, b, data.draw(score)) for a in pool for b in pool if (a, b) not in listed]
    if rows and data.draw(st.booleans()):
        a, b, _ = data.draw(st.sampled_from(rows))
        rows.insert(data.draw(st.integers(0, len(rows))), (a, b, data.draw(score)))
    names_a = data.draw(st.lists(name, min_size=1, max_size=6))
    names_b = data.draw(st.lists(name, min_size=1, max_size=6))
    names, (ids_a, ids_b) = intern_strings(names_a, names_b)
    ii = np.array(data.draw(st.lists(st.integers(0, len(names_a) - 1), max_size=20)),
                  dtype=np.int64)
    jj = np.array(data.draw(st.lists(st.integers(0, len(names_b) - 1), min_size=len(ii),
                                     max_size=len(ii))), dtype=np.int64)
    pairs = NamePairs(names, ids_a[ii], ids_b[jj])

    def outcome(fn, *args):
        try:
            return fn(*args)
        except InputError as exc:
            return exc

    with tempfile.TemporaryDirectory() as tmp:
        path = write_score_table(Path(tmp) / "scores.csv", rows)
        got = outcome(lambda: exp.ExternalScorer(path).scores(pairs))
    want = outcome(external_scores_lookup, rows, list(pairs))
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()


def test_run_methods_rejects_scores_outside_unit_interval(dataset, bundle, small_sim):
    """Pair scores outside [0, 1] break an invariant of the fusion methods:
    a ValueError, whichever scorer gave them."""
    _, dist = make_scorer_and_dist(bundle, None, small_sim)

    class Above:
        def scores(self, pairs):
            return np.full(len(pairs), 1.5)

    with pytest.raises(ValueError, match=r"name scores must lie in \[0, 1\]"):
        exp.run_methods(dataset, ("tau1",), scorer=Above(), dist=dist)


def test_run_study_smoke_and_determinism(bundle):
    config = {
        "seed": 5,
        "simulate": {"n_records": 250, "name_error_rate": 0.2},
        "replicates": 2,
        "methods": ["exact", "posterior"],
        "classifier": "single:PY_COS_k3_1:N",
        "train": {"n_nonmatch_score_pairs": 3000},
    }
    r1 = exp.run_study(config)
    r2 = exp.run_study(config)
    assert r1["summary"] == r2["summary"]
    assert r1["replicates"] == r2["replicates"]
    assert set(r1["summary"]) == {"exact", "posterior"}


def test_run_study_worker_count_invariance(bundle):
    config = {
        "seed": 6,
        "simulate": {"n_records": 200, "name_error_rate": 0.2},
        "replicates": 2,
        "methods": ["exact", "posterior"],
        "classifier": "single:PY_COS_k3_1:N",
        "train": {"n_nonmatch_score_pairs": 2000},
    }
    serial = exp.run_study(config, workers=1)
    parallel = exp.run_study(config, workers=2)
    assert serial["replicates"] == parallel["replicates"]


def test_study_of_a_field_subset(bundle):
    """A study simulating some supporting fields links on the name and
    those fields by default, through every method it names."""
    config = {
        "seed": 7,
        "simulate": {"n_records": 200, "name_error_rate": 0.2, "fields": ["sex", "loc"]},
        "methods": ["exact", "tau1", "posterior"],
        "classifier": "single:PY_COS_k3_1:N",
        "train": {"n_nonmatch_score_pairs": 2000},
    }
    assert exp.read_settings(config).fields == ("name", "sex", "loc")
    report = exp.run_study(config, bundle)
    assert list(report["summary"]) == ["exact", "tau1", "posterior"]
    explicit = exp.run_study({**config, "fields": ["name", "sex", "loc"]}, bundle)
    assert report["replicates"] == explicit["replicates"]


SCORER_NAMES = st.text(alphabet="伍考张可成阳李华㐀 ", min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(SCORER_NAMES, SCORER_NAMES), min_size=1, max_size=40), st.data())
def test_scores_are_permutation_invariant(bundle, pairs, data):
    """A pair's score, bitwise, does not depend on the batch order or on
    duplicates around it."""
    pairs = pairs + pairs[:5]
    perm = np.array(data.draw(st.permutations(range(len(pairs)))), dtype=np.int64)
    specs = tuple(FeatureSpec.from_name(n) for n in
                  ("FC_COS_k3_1:N", "PY_COS_k3_1:2", "RD_LV_k1_1:N", "J_LV_k1_1:1"))
    rng = np.random.default_rng(len(pairs))
    model = MatcherModel(kind="logistic", specs=specs,
                         intercepts=rng.normal(size=3), coefs=rng.normal(size=(3, len(specs))))
    scores = exp.NamePairScorer(model, bundle).scores(pairs)
    permuted = exp.NamePairScorer(model, bundle).scores([pairs[k] for k in perm])
    assert scores[perm].tobytes() == permuted.tobytes()


TRAIN_SIM = {"n_records": 200, "name_error_rate": 0.5}
TRAIN_OPTS = {"n_nonmatch_name_pairs": 300, "n_nonmatch_score_pairs": 500}


@pytest.mark.parametrize("classifier", ["logistic:train", "single:PY_COS_k3_1:N"])
def test_training_step_pairs_match_reference(bundle, name_model, monkeypatch, classifier):
    """The name pairs the training step featurizes and scores are, id for
    id, those of the reference's draws: the matcher's pairs (when it trains
    one), then the score distribution's, which the returned scorer scores."""
    featurized, scored = [], []
    feature_matrix, scores = PairFeaturizer.feature_matrix, exp.NamePairScorer.scores

    def spy_features(self, pairs):
        featurized.append(pairs)
        return feature_matrix(self, pairs)

    def spy_scores(self, pairs):
        scored.append(pairs)
        return scores(self, pairs)

    monkeypatch.setattr(PairFeaturizer, "feature_matrix", spy_features)
    monkeypatch.setattr(exp.NamePairScorer, "scores", spy_scores)
    scorer, _, _ = exp.train_matcher_and_dist(bundle, name_model, TRAIN_SIM, 17, classifier,
                                              TRAIN_OPTS)
    assert isinstance(scorer, exp.NamePairScorer)

    seeds = np.random.SeedSequence(17).spawn(2)
    sim = generate_pair_files(SimConfig.from_dict({**TRAIN_SIM,
                                                   "seed": exp._seed_of(seeds[0])}), name_model)
    names, want = study_name_pairs(sim, np.random.Generator(np.random.PCG64(seeds[1])),
                                   TRAIN_OPTS["n_nonmatch_name_pairs"],
                                   TRAIN_OPTS["n_nonmatch_score_pairs"],
                                   trained=classifier == "logistic:train")
    want = [(names, ia.tolist(), ib.tolist()) for ia, ib in want]
    got = [(list(p.names), p.ia.tolist(), p.ib.tolist()) for p in featurized]
    assert got == want
    assert [(list(p.names), p.ia.tolist(), p.ib.tolist()) for p in scored] == want[-1:]


def test_trained_scorer_encodes_nothing_training_encoded(bundle, name_model, monkeypatch):
    """After a logistic:train step the distribution's scorer shares the
    training featurizer's encodings: every substring it encodes anew is one
    that training never encoded, and it does look up ones training did."""
    encoded, looked_up = {}, {}
    encode = PairFeaturizer._encode

    def spy(self, kind, sub):
        looked_up.setdefault(self, set()).add((kind, sub))
        if sub not in self._encoded[kind]:
            encoded.setdefault(self, set()).add((kind, sub))
        return encode(self, kind, sub)

    monkeypatch.setattr(PairFeaturizer, "_encode", spy)
    scorer, _, _ = exp.train_matcher_and_dist(bundle, name_model, TRAIN_SIM, 17,
                                              "logistic:train", TRAIN_OPTS)
    (training,) = [fz for fz in encoded if fz is not scorer.featurizer]
    assert looked_up[scorer.featurizer] & encoded[training]
    assert not encoded.get(scorer.featurizer, set()) & encoded[training]


def test_scorer_parses_only_the_tables_its_features_read():
    """A scorer whose model reads no LF and no WB feature leaves the
    frequency table and the Wubi98 table unparsed, and holds neither; a
    default-bank featurizer parses every table."""
    bundle = load_bundle()
    specs = tuple(FeatureSpec.from_name(n) for n in
                  ("FC_COS_k3_1:N", "PY_COS_k3_1:2", "RD_LV_k1_1:N", "J_LV_k1_1:1",
                   "RDS_COS_k3_1:1"))
    model = MatcherModel(kind="logistic", specs=specs, intercepts=np.zeros(3),
                         coefs=np.zeros((3, len(specs))))
    scorer = exp.NamePairScorer(model, bundle)
    assert scorer.scores([("张可成", "张珂成"), ("伍考", "阳娅")]).tolist() == [0.5, 0.5]
    read = {EncodingKind.FC, EncodingKind.PY, EncodingKind.RD, EncodingKind.RDS}
    assert set(bundle._tables) == read and "freq" not in vars(bundle)
    assert set(scorer.featurizer.tables) == read | {EncodingKind.J}
    assert scorer.featurizer.freq is None
    bundle.featurizer()
    assert set(bundle._tables) == set(EncodingKind) - {EncodingKind.J}
    assert "freq" in vars(bundle)


def test_trained_study_builds_one_scorer(bundle, monkeypatch):
    """A serial trained study's replicates score with the scorer that fitted
    the score distribution: one NamePairScorer, whatever the replicates."""
    built = []
    init = exp.NamePairScorer.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(exp.NamePairScorer, "__init__", counting_init)
    exp.run_study({"seed": 3, "simulate": TRAIN_SIM, "replicates": 2,
                   "methods": ["exact", "tau1"], "train": TRAIN_OPTS}, bundle, workers=1)
    assert len(built) == 1


def test_run_study_defaults_to_config_workers(bundle, monkeypatch):
    """Without a `workers` argument a study runs its replicates in a pool of
    the config's 'workers' processes; a `workers` argument wins."""
    pools = []

    class Pool:
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    config = {"seed": 1, "simulate": {"n_records": 60}, "replicates": 2, "workers": 2,
              "methods": ["exact"]}
    pooled = exp.run_study(config, bundle)
    assert pools == [2]
    assert exp.run_study(config, bundle, workers=1) == pooled
    assert pools == [2]
