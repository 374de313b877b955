import csv
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (cross_product_table, csv_table_reference, em_fit_reference,
                     joint_field_codes, zeta_reference)

from hanlink import linkage
from hanlink.experiment import LinkageDataset
from hanlink.linkage import (
    NA,
    RECORD_FIELDS,
    CsvTable,
    InputError,
    LinkageModel,
    PatternTable,
    em_fit,
    extend_key,
    join_pairs,
    read_json,
    read_records,
    write_csv,
    write_json,
    write_records,
    zeta,
    zeta_for_gammas,
)


def tabulate(records_a, records_b, fields=RECORD_FIELDS) -> PatternTable:
    """Pattern table over all |A| x |B| pairs, as an experiment builds it."""
    no_links = np.zeros((0, 2), dtype=np.int64)
    return LinkageDataset(records_a, records_b, no_links, fields).tabulate()[0]


def make_records(rows):
    fields = ("name", "sex", "yob", "mob", "dob", "loc")
    return {f: [row.get(f, "") for row in rows] for f in fields}


def brute_force_patterns(recs_a, recs_b, fields):
    from collections import Counter
    counts = Counter()
    n_a = len(recs_a[fields[0]])
    n_b = len(recs_b[fields[0]])
    for i in range(n_a):
        for j in range(n_b):
            gamma = []
            for f in fields:
                a, b = recs_a[f][i], recs_b[f][j]
                if a == "" or b == "":
                    gamma.append(NA)
                else:
                    gamma.append(1 if a == b else 0)
            counts[tuple(gamma)] += 1
    return counts


def test_tabulate_single_pair_all_equal():
    rec = {"name": ["张三"], "sex": ["1"], "yob": ["1980"],
           "mob": ["1"], "dob": ["2"], "loc": ["L1"]}
    table = tabulate(rec, rec)
    assert len(table.counts) == 1
    assert table.counts[0] == 1
    assert list(table.gammas[0]) == [1] * 6


def test_tabulate_counting_identity():
    recs_a = make_records([{"name": "a"}, {"name": "b"}])
    recs_b = make_records([{"name": "a"}, {"name": "c"}])
    table = tabulate(recs_a, recs_b, fields=("name",))
    assert table.total == 4
    assert len(table.counts) <= 3


def test_tabulate_matches_brute_force():
    rng = np.random.default_rng(0)
    def random_records(n):
        rows = []
        for _ in range(n):
            rows.append({
                "name": rng.choice(["a", "b", "c", "d", ""]),
                "sex": rng.choice(["1", "2", ""]),
                "yob": str(rng.integers(1, 4)),
                "mob": rng.choice(["1", "2"]),
                "dob": rng.choice(["1", "2", "3"]),
                "loc": rng.choice(["x", "y", ""]),
            })
        return make_records(rows)
    recs_a = random_records(100)
    recs_b = random_records(100)
    fields = ("name", "sex", "yob", "mob", "dob", "loc")
    table = tabulate(recs_a, recs_b, fields)
    expected = brute_force_patterns(recs_a, recs_b, fields)
    got = {tuple(int(g) for g in table.gammas[j]): int(table.counts[j])
           for j in range(len(table.counts))}
    assert got == dict(expected)
    assert table.total == 100 * 100


def test_tabulate_unknown_field():
    recs = make_records([{"name": "a"}])
    with pytest.raises(ValueError):
        tabulate(recs, recs, fields=("name", "nope"))


def test_tabulate_rejects_repeated_field():
    recs = make_records([{"name": "a", "sex": "1"}])
    with pytest.raises(ValueError, match="'sex' is listed more than once"):
        tabulate(recs, recs, fields=("name", "sex", "sex"))


def test_tabulate_permutation_invariance():
    rng = np.random.default_rng(1)
    rows = [{"name": rng.choice(["a", "b", "c"]), "sex": rng.choice(["1", "2"])}
            for _ in range(40)]
    recs = make_records(rows)
    perm = rng.permutation(40)
    shuffled = {f: [recs[f][i] for i in perm] for f in recs}
    t1 = tabulate(recs, recs, fields=("name", "sex"))
    t2 = tabulate(shuffled, recs, fields=("name", "sex"))
    g1 = {tuple(map(int, g)): int(c) for g, c in zip(t1.gammas, t1.counts)}
    g2 = {tuple(map(int, g)): int(c) for g, c in zip(t2.gammas, t2.counts)}
    assert g1 == g2


@st.composite
def record_files(draw, max_records=7):
    """Two small record files over a random field list holding "name" at a
    random position; every field takes missing values, and tiny alphabets
    make agreements common."""
    fields = list(draw(st.permutations(RECORD_FIELDS[1:]))[:draw(st.integers(0, 5))])
    fields.insert(draw(st.integers(0, len(fields))), "name")
    fields = tuple(fields)
    cell = st.sampled_from(["", "a", "b", "c"])
    n_a = draw(st.integers(1, max_records))
    n_b = draw(st.integers(1, max_records))
    records_a = {f: draw(st.lists(cell, min_size=n_a, max_size=n_a)) for f in fields}
    records_b = {f: draw(st.lists(cell, min_size=n_b, max_size=n_b)) for f in fields}
    return records_a, records_b, fields


def as_dict(table: PatternTable) -> dict:
    return {tuple(map(int, g)): (int(c), 0) for g, c in zip(table.gammas, table.counts)}


@st.composite
def files_missing_in_some_fields(draw):
    """record_files whose missing values are confined to a drawn subset of
    the fields, from none up to all; the others are filled in with "d"."""
    records_a, records_b, fields = draw(record_files())
    gappy = draw(st.sets(st.sampled_from(fields)))
    for records in (records_a, records_b):
        for f in set(fields) - gappy:
            records[f] = [value or "d" for value in records[f]]
    return records_a, records_b, fields


@settings(max_examples=300, deadline=None)
@given(record_files())
def test_tabulate_matches_cross_product(case):
    """Join tabulation equals the brute-force cross product, in both file
    orders."""
    assert_tabulates_cross_product(*case)


@settings(max_examples=300, deadline=None)
@given(files_missing_in_some_fields())
def test_tabulate_with_complete_fields_matches_cross_product(case):
    """Fields that no record lacks take the collapsed count path; the table
    still equals the cross product, in both file orders."""
    assert_tabulates_cross_product(*case)


@st.composite
def files_with_a_near_unique_field(draw):
    """record_files with one drawn field over 31 values and missing ones:
    it has the fewest agreeing pairs, few enough to enumerate, while every
    field, that one included, still lacks values here and there."""
    records_a, records_b, fields = draw(record_files(max_records=12))
    unique = draw(st.sampled_from(fields))
    cell = st.one_of(st.just(""), st.integers(0, 30).map(str))
    for records in (records_a, records_b):
        n = len(records[unique])
        records[unique] = draw(st.lists(cell, min_size=n, max_size=n))
    return records_a, records_b, fields


@settings(max_examples=300, deadline=None)
@given(files_with_a_near_unique_field())
def test_tabulate_with_enumerated_field_matches_cross_product(case):
    """Counting the subsets that hold the most selective field from its
    agreeing pairs gives the cross product, in both file orders."""
    assert_tabulates_cross_product(*case)


def spy_join_pairs(monkeypatch) -> list:
    """The join keys of each `linkage.join_pairs` call, as lists."""
    calls = []
    def spy(key_a, key_b, budget):
        calls.append((key_a.tolist(), key_b.tolist()))
        return join_pairs(key_a, key_b, budget)
    monkeypatch.setattr(linkage, "join_pairs", spy)
    return calls


def test_tabulate_enumerates_the_most_selective_field(monkeypatch):
    """The "loc" field agrees on 2 pairs, fewer than |A| + |B| = 7: its pairs
    are listed, once, from its own codes, and the table is the cross product."""
    records_a = {"name": ["a", "b", "a", ""], "sex": ["1", "1", "", "2"],
                 "loc": ["x", "y", "", "z"]}
    records_b = {"name": ["a", "a", "b"], "sex": ["1", "2", "1"], "loc": ["x", "w", "z"]}
    fields = ("name", "sex", "loc")
    calls = spy_join_pairs(monkeypatch)
    table = tabulate(records_a, records_b, fields)
    assert as_dict(table) == cross_product_table(records_a, records_b, fields)
    assert calls == [([0, 1, -1, 2], [0, 3, 2])]


def test_tabulate_without_enumeration(monkeypatch):
    """Every field agrees on more than |A| + |B| = 10 pairs: no pair is
    listed, and every subset is counted by joins."""
    records_a = {"name": ["a", "a", "b", "", "a"], "sex": ["1", "1", "1", "2", "1"]}
    records_b = {"name": ["a", "a", "a", "b", "a"], "sex": ["1", "", "1", "1", "2"]}
    fields = ("name", "sex")
    calls = spy_join_pairs(monkeypatch)
    for first, second in ((records_a, records_b), (records_b, records_a)):
        table = tabulate(first, second, fields)
        assert as_dict(table) == cross_product_table(first, second, fields)
    assert calls == []


def assert_tabulates_cross_product(records_a, records_b, fields):
    for first, second in ((records_a, records_b), (records_b, records_a)):
        table = tabulate(first, second, fields)
        assert table.counts.dtype == np.int64
        assert as_dict(table) == cross_product_table(first, second, fields)
        assert np.all(np.diff(table.codes()) > 0)


def test_tabulate_compares_strings_exactly():
    """A trailing NUL makes a different value (numpy's fixed-width strings
    would drop it)."""
    records_a, records_b = {"name": ["a", "a\x00"]}, {"name": ["a\x00"]}
    table = tabulate(records_a, records_b, fields=("name",))
    want = cross_product_table(records_a, records_b, ("name",))
    assert as_dict(table) == want == {(0,): (1, 0), (1,): (1, 0)}


@st.composite
def key_extensions(draw):
    """(key, codes) over 1 to 12 records, keys below a drawn span and codes
    below a drawn width (-1 for missing), so that span * width falls at or
    below n, between n and 8n or above 8n."""
    n = draw(st.integers(1, 12))
    span, width = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    key = draw(st.lists(st.integers(-1, span - 1), min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(-1, width - 1), min_size=n, max_size=n))
    return np.array(key, np.int32), np.array(codes, np.int32)


@settings(max_examples=300, deadline=None)
@given(key_extensions())
@example((np.array([0, 0, -1, 0], np.int32), np.array([1, 0, 1, -1], np.int32)))  # 2 <= n = 4
@example((np.array([2, 0, 1], np.int32), np.array([3, -1, 0], np.int32)))  # n = 3 < 12 <= 8n
@example((np.array([9, 0], np.int32), np.array([0, 15], np.int32)))  # 160 > 8n = 16
def test_extend_key_numbers_value_pairs(case):
    """A record's key is key * width + code when span * width <= n, else the
    rank of its (key, code) pair among the distinct pairs held, whether
    ranked by flags (span * width <= 8n) or by a sort; -1 where either is
    missing."""
    key, codes = case
    out = extend_key(key, codes)
    assert out.dtype == np.int32
    span, width = int(key.max()) + 1, int(codes.max()) + 1
    pairs = list(zip(key.tolist(), codes.tolist()))
    held = sorted({(k, c) for k, c in pairs if k >= 0 and c >= 0})
    direct = span * width <= len(key)
    assert out.tolist() == [-1 if k < 0 or c < 0 else k * width + c if direct
                            else held.index((k, c)) for k, c in pairs]


def test_tabulate_ranks_keys_by_flags_and_by_sorts(monkeypatch):
    """Three fields of 30 values over 40 records (one is enumerated): keys
    over one of the others and a small field take key * width + code (at
    most n composite values) or rank by flags (at most 8n), a key over both
    (about 900) sorts, and the table is the cross product in both file
    orders."""
    rng = np.random.default_rng(5)
    def records(n):
        out = {f: rng.integers(0, 30 if f in ("name", "yob", "dob") else 3, n).astype(str)
               for f in RECORD_FIELDS}
        for values in out.values():
            values[rng.random(n) < 0.1] = ""
        return {f: values.tolist() for f, values in out.items()}
    spans = []  # span * width / n of each extension
    def spy(key, codes):
        spans.append((int(key.max()) + 1) * (int(codes.max()) + 1) / len(key))
        return extend_key(key, codes)
    monkeypatch.setattr(linkage, "extend_key", spy)
    assert_tabulates_cross_product(records(20), records(20), RECORD_FIELDS)
    bound = linkage._FLAG_RANK_SPAN
    assert any(s <= 1 for s in spans) and any(1 < s <= bound for s in spans)
    assert any(s > bound for s in spans)


def test_tabulate_keys_cannot_overflow():
    """Six fields of over 2,100 distinct values each: a mixed-radix key
    over all six would need more than 2^66 values."""
    rng = np.random.default_rng(11)
    n = 1700
    source = rng.integers(0, n, size=n)  # B record j copies from A record source[j]
    records_a, records_b = {}, {}
    for f in RECORD_FIELDS:
        values = rng.permutation(10_000)[:2 * n].astype(str).tolist()
        copied = rng.random(n) < 0.6
        records_a[f] = values[:n]
        records_b[f] = [values[source[j]] if copied[j] else values[n + j] for j in range(n)]
        for records in (records_a, records_b):
            for k in rng.choice(n, size=n // 50, replace=False):
                records[f][k] = ""
    sizes = [len(set(records_a[f] + records_b[f]) - {""}) for f in RECORD_FIELDS]
    assert min(sizes) >= 2100 and np.prod(np.array(sizes, dtype=float)) > 2.0 ** 63
    table = tabulate(records_a, records_b, RECORD_FIELDS)
    assert as_dict(table) == cross_product_table(records_a, records_b, RECORD_FIELDS)
    assert table.total == n * n


def assert_tabulates_in_32_mb(name_values):
    """Two 10k-record files (1e8 pairs), whose names are drawn by
    `name_values(rng, n)`, tabulate within 32 MB of traced allocations; one
    int16 code per pair would take 200 MB."""
    rng = np.random.default_rng(12)
    sizes = {"sex": 2, "yob": 80, "mob": 12, "dob": 31, "loc": 200}
    def records(n):
        out = {}
        for f in RECORD_FIELDS:
            values = name_values(rng, n) if f == "name" else rng.integers(0, sizes[f], n)
            values = values.astype(str).astype(object)
            values[rng.random(n) < 0.05] = ""
            out[f] = values.tolist()
        return out
    records_a, records_b = records(10_000), records(10_000)
    tracemalloc.start()
    try:
        table = tabulate(records_a, records_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total == 10_000 * 10_000
    assert peak < 32 * 2 ** 20


def test_tabulate_memory_stays_small():
    """3,000 names: some 30k pairs agree on name, too many to enumerate."""
    assert_tabulates_in_32_mb(lambda rng, n: rng.integers(0, 3000, n))


def test_tabulate_memory_stays_small_with_enumerated_name():
    """10k distinct names in each file: about 9k pairs agree on name, and
    they are enumerated."""
    assert_tabulates_in_32_mb(lambda rng, n: rng.permutation(n))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 3), max_size=12), st.lists(st.integers(-1, 3), max_size=12),
       st.integers(1, 6))
def test_join_pairs_matches_nested_loop(key_a, key_b, budget):
    key_a, key_b = np.array(key_a, dtype=np.int64), np.array(key_b, dtype=np.int64)
    slices = list(join_pairs(key_a, key_b, budget))
    for ia, _ in slices:
        assert len(ia) <= budget or len(np.unique(ia)) == 1
    got = [(int(i), int(j)) for ia, ib in slices for i, j in zip(ia, ib)]
    assert got == [(i, j) for i in range(len(key_a)) for j in range(len(key_b))
                   if key_a[i] == key_b[j] >= 0]


def sample_table(pi_m, p_m, p_u, n_pairs, rng):
    """Exact multinomial sampling from the conditional-independence model."""
    F = len(p_m)
    gammas = np.array([[(code >> f) & 1 for f in range(F)]
                       for code in range(2 ** F)], dtype=np.int8)
    def probs(p):
        out = np.ones(2 ** F)
        for f in range(F):
            out *= np.where(gammas[:, f] == 1, p[f], 1 - p[f])
        return out
    mix = pi_m * probs(p_m) + (1 - pi_m) * probs(p_u)
    counts = rng.multinomial(n_pairs, mix)
    keep = counts > 0
    return PatternTable(fields=tuple(f"f{f}" for f in range(F)),
                        gammas=gammas[keep], counts=counts[keep])


@st.composite
def pattern_tables(draw, max_fields=6, max_rows=24):
    """Distinct agreement patterns over 1 to max_fields fields, NA cells
    included, in drawn (unsorted) order, with positive counts."""
    n_fields = draw(st.integers(1, max_fields))
    codes = draw(st.lists(st.integers(0, 3 ** n_fields - 1), min_size=2,
                          max_size=min(3 ** n_fields, max_rows), unique=True))
    counts = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(codes), max_size=len(codes)))
    gammas = np.array(codes)[:, None] // 3 ** np.arange(n_fields) % 3
    return PatternTable(tuple(f"f{f}" for f in range(n_fields)), gammas, np.array(counts))


def fit_or_error(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(pattern_tables(), st.sampled_from([1, 5, 500]))
def test_em_matches_reference(table, max_iter):
    """em_fit equals the per-field masked EM bitwise, errors included, at a
    drawn iteration cap."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(linkage, "EM_MAX_ITER", max_iter)
        got = fit_or_error(em_fit, table)
    want = fit_or_error(em_fit_reference, table, max_iter=max_iter)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.pi_m == want.pi_m
    assert got.p_m.tobytes() == want.p_m.tobytes()
    assert got.p_u.tobytes() == want.p_u.tobytes()
    assert got.loglik_trace == want.loglik_trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert zeta(got, table).tobytes() == zeta_reference(want, table.gammas).tobytes()


@settings(max_examples=200, deadline=None)
@given(pattern_tables(max_fields=4, max_rows=81), st.data())
def test_rows_of_matches_dict(table, data):
    """rows_of finds each code's row in a table not sorted by code, and -1
    for codes it lacks."""
    row_of = {int(c): j for j, c in enumerate(table.codes())}
    codes = data.draw(st.lists(st.integers(0, 3 ** len(table.fields) - 1), max_size=30))
    assert table.rows_of(np.array(codes, dtype=np.int64)).tolist() == \
        [row_of.get(c, -1) for c in codes]


def test_em_recovers_parameters(monkeypatch):
    rng = np.random.default_rng(2)
    p_m = np.array([0.95, 0.9, 0.85])
    p_u = np.array([0.02, 0.04, 0.06])
    table = sample_table(0.01, p_m, p_u, 1_000_000, rng)
    monkeypatch.setattr(linkage, "EM_TOL", 1e-13)
    monkeypatch.setattr(linkage, "EM_MAX_ITER", 50_000)
    model = em_fit(table)
    assert model.converged
    assert abs(model.pi_m - 0.01) / 0.01 < 0.10
    assert np.all(np.abs(model.p_m - p_m) < 0.02)
    assert np.all(np.abs(model.p_u - p_u) < 0.02)


def test_em_perfect_field():
    # one field agrees iff the pair matches
    gammas = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=np.int8)
    counts = np.array([900, 100, 4000, 95000])
    table = PatternTable(fields=("name", "sex"), gammas=gammas, counts=counts)
    model = em_fit(table)
    assert model.p_m[0] > 0.95
    assert model.p_u[0] < 0.05


def test_em_loglik_monotone_trace():
    rng = np.random.default_rng(3)
    table = sample_table(0.05, [0.9, 0.8, 0.7], [0.3, 0.2, 0.1], 50_000, rng)
    model = em_fit(table)
    trace = np.array(model.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-6 * (np.abs(trace[:-1]) + 1))


def test_em_degenerate_table_error():
    table = PatternTable(fields=("name",), gammas=np.array([[1]], dtype=np.int8),
                         counts=np.array([10]))
    with pytest.raises(ValueError):
        em_fit(table)


def test_zeta_uninformative_pattern():
    model = LinkageModel(fields=("a", "b"), pi_m=0.3,
                         p_m=np.array([0.7, 0.5]), p_u=np.array([0.7, 0.5]))
    gammas = np.array([[1, 0]], dtype=np.int8)
    assert zeta_for_gammas(model, gammas)[0] == pytest.approx(0.3)


def test_zeta_hand_arithmetic():
    # p(gamma|M)/p(gamma|U) = 3 at pi = 0.5 -> zeta = 0.75
    model = LinkageModel(fields=("a",), pi_m=0.5,
                         p_m=np.array([0.75]), p_u=np.array([0.25]))
    gammas = np.array([[1]], dtype=np.int8)
    assert zeta_for_gammas(model, gammas)[0] == pytest.approx(0.75)


def test_zeta_all_na_gives_prior():
    model = LinkageModel(fields=("a", "b"), pi_m=0.123,
                         p_m=np.array([0.9, 0.8]), p_u=np.array([0.2, 0.3]))
    gammas = np.array([[NA, NA]], dtype=np.int8)
    assert zeta_for_gammas(model, gammas)[0] == pytest.approx(0.123)


def test_zeta_na_neutrality():
    rng = np.random.default_rng(5)
    table = sample_table(0.02, [0.9, 0.8], [0.3, 0.2], 100_000, rng)
    model = em_fit(table)
    z1 = zeta(model, table)
    gammas_ext = np.column_stack([table.gammas,
                                  np.full(len(table.counts), NA, dtype=np.int8)])
    model_ext = LinkageModel(fields=table.fields + ("extra",), pi_m=model.pi_m,
                             p_m=np.append(model.p_m, 0.5),
                             p_u=np.append(model.p_u, 0.5))
    z2 = zeta_for_gammas(model_ext, gammas_ext)
    assert z1 == pytest.approx(z2, abs=1e-12)


def test_zeta_ordering_matches_likelihood_ratio():
    rng = np.random.default_rng(6)
    table = sample_table(0.05, [0.9, 0.8, 0.6], [0.4, 0.2, 0.3], 100_000, rng)
    model = em_fit(table)
    z = zeta(model, table)
    from hanlink.linkage import _log_pattern_likelihoods
    log_m, log_u = _log_pattern_likelihoods(model, table.gammas)
    lr = log_m - log_u
    assert np.array_equal(np.argsort(z), np.argsort(lr))


def test_em_mass_conservation(monkeypatch):
    rng = np.random.default_rng(7)
    table = sample_table(0.03, [0.95, 0.85, 0.9], [0.02, 0.04, 0.05], 500_000, rng)
    monkeypatch.setattr(linkage, "EM_TOL", 1e-14)
    monkeypatch.setattr(linkage, "EM_MAX_ITER", 50_000)
    model = em_fit(table)
    z = zeta(model, table)
    lhs = (z * table.counts).sum()
    rhs = model.pi_m * table.counts.sum()
    assert abs(lhs - rhs) / rhs < 1e-6


def test_records_roundtrip(tmp_path):
    recs = make_records([
        {"name": "张三", "sex": "1", "yob": "1980", "loc": "L001"},
        {"name": "李四", "sex": "", "yob": "1990", "dob": "5"},
    ])
    path = tmp_path / "recs.csv"
    write_records(path, recs)
    loaded = read_records(path)
    assert {f: list(column) for f, column in loaded.items()} == recs
    assert all(column.ids.dtype == np.int32 for column in loaded.values())


CELLS = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "#", "张", "李", "a", "0"]),
               max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=5)))
def test_write_csv_reads_back_cell_for_cell(tmp_path_factory, rows):
    """What `write_csv` writes, `CsvTable` reads back unchanged: cells with
    commas, quotes, line breaks (a lone carriage return among them), CJK
    text and empty cells."""
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{k}" for k in range(len(rows[0]) if rows else 2)]
    write_csv(path, header, rows)
    table = CsvTable(path)
    assert table.header == header
    assert [list(row) for row in zip(*(table.column(h) for h in header))] == rows


def test_read_records_memory_follows_distinct_values(tmp_path):
    """A record file is held as each column's distinct cells and one int32
    id per row, and read in blocks: 60k rows of a few hundred distinct
    values hold 24 bytes a row and peak below twice that (a row list of
    their cells held 16 MB and peaked at 22 MB)."""
    rng = np.random.default_rng(5)
    n = 60_000
    columns = [[f"王{k}" for k in rng.integers(0, 500, n)], rng.integers(1, 3, n).astype(str),
               rng.integers(1930, 2010, n).astype(str), rng.integers(1, 13, n).astype(str),
               rng.integers(1, 29, n).astype(str), [f"L{k:03d}" for k in rng.integers(0, 200, n)]]
    path = tmp_path / "records.csv"
    write_csv(path, RECORD_FIELDS, zip(*columns))
    tracemalloc.start()
    try:
        records = read_records(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [list(records[f]) for f in RECORD_FIELDS] == [list(c) for c in columns]
    assert held < 6 * 4 * n + 2 ** 19
    assert peak < 2 * 6 * 4 * n + 2 ** 20


CSV_CELLS = st.one_of(st.sampled_from(["", "0", "12", "7", "1_0", "\uff12", "张", "李华", "a"]),
                     st.text(st.sampled_from([",", '"', "\n", "\r", " ", "张", "a", "1"]),
                             max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_csv_table_matches_row_list_reference(tmp_path_factory, data):
    """`CsvTable`, read in blocks of 1 to 4 rows, gives each column cell for
    cell as a `csv.reader` row list does: interned columns as their strings
    (int32 ids into the distinct cells, first seen first), parsed ones as
    their values. Files hold quoted cells with line feeds and carriage
    returns, LF or CRLF line ends, empty, repeated and CJK cells, ragged rows,
    cells `int` rejects and cells it reads but a parsed column rejects ("1_0",
    a fullwidth digit); a faulty file gives the reference's message,
    with its line, wherever the block boundaries fall."""
    width = data.draw(st.integers(1, 4))
    header = [f"c{k}" for k in range(width)]
    short, long = (width - 1, width + 1) if data.draw(st.booleans()) else (width, width)
    rows = data.draw(st.lists(st.lists(CSV_CELLS, min_size=short, max_size=long), max_size=12))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator=data.draw(st.sampled_from(["\n", "\r\n"])),
                   quoting=data.draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
                   ).writerows([header, *rows])
    parsers = {name: int for name in data.draw(st.sets(st.sampled_from(header)))}
    default = data.draw(st.sampled_from([None, int]))
    want = csv_table_reference(path, parsers, default)
    given_parsers = (parsers if default is None and data.draw(st.booleans())
                     else lambda name: parsers.get(name, default))
    with mock.patch.object(linkage, "_CSV_BLOCK", data.draw(st.integers(1, 4))):
        if isinstance(want, str):
            with pytest.raises(InputError) as caught:
                CsvTable(path, given_parsers)
            assert str(caught.value) == want
            return
        table = CsvTable(path, given_parsers)
    assert table.header == want[0]
    for name, cells in want[1].items():
        column = table.column(name)
        assert list(column) == cells
        if parsers.get(name, default) is None:
            assert column.ids.dtype == np.int32
            assert column.values == list(dict.fromkeys(cells))


@pytest.mark.parametrize("body,message", [
    ("1,a\n2,b\n3,c\n4,d\n5,e,x\n6,f\n", "line 6: 3 cells, expected 2"),
    ("1,a\n2,b\n3,c\nx,d\n5,e,x\n", "line 5, column 'id': bad cell 'x'"),
    ('1,a\n2,"b\r\nb"\r\n3,c\n4,d\n5,e\nx,f\n', "line 8, column 'id': bad cell 'x'"),
    ("1,a\n2,b\n3,c\n4,d\n5,e,x\nx,f\n", "line 6: 3 cells, expected 2"),
])
def test_csv_table_names_faults_past_the_first_block(tmp_path, body, message):
    """Blocks of two rows: a ragged row or a rejected cell in a later block
    is named by its line, counted over quoted line breaks, and the first
    fault in file order wins."""
    path = tmp_path / "t.csv"
    path.write_text("id,name\n" + body, encoding="utf-8", newline="")
    assert csv_table_reference(path, {"id": int}) == f"{path}, {message}"
    with mock.patch.object(linkage, "_CSV_BLOCK", 2):
        with pytest.raises(InputError) as caught:
            CsvTable(path, {"id": int})
    assert str(caught.value) == f"{path}, {message}"


@pytest.mark.parametrize("parse", [int, float])
@pytest.mark.parametrize("cell", ["1_0", "0_0.5", "_", "\uff12", "\u0663", "0.\uff15", "\u00a01",
                                  "1\u3000"])
def test_csv_table_rejects_underscores_and_non_ascii_in_parsed_cells(tmp_path, parse, cell):
    """A parsed cell holding "_" or a character outside ASCII (a fullwidth
    or Arabic-Indic digit, a no-break or ideographic space) is a bad cell,
    though int or float reads most of them as a number; an interned column
    keeps it, and spaces around a number are read."""
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "text"], [[" 3 ", cell], [cell, "x"]])
    with pytest.raises(InputError, match=re.escape(f"line 3, column 'n': bad cell {cell!r}")):
        CsvTable(path, {"n": parse})
    assert list(CsvTable(path).column("n")) == [" 3 ", cell]
    write_csv(path, ["n", "text"], [[" 3 ", cell]])
    assert CsvTable(path, {"n": parse}).column("n") == [3]


def test_json_written_sorted_indented_and_read_back(tmp_path):
    """`write_json` writes and returns sorted keys, indent 1 and a final
    newline, and refuses NaN; `read_json` reads back the object and names
    the file of text that is not a JSON object."""
    path = tmp_path / "x.json"
    text = write_json(path, {"b": [1.5], "a": "张"})
    assert text == path.read_text(encoding="utf-8")
    assert text == '{\n "a": "\\u5f20",\n "b": [\n  1.5\n ]\n}\n'
    assert write_json(None, {"a": 1}) == '{\n "a": 1\n}\n'
    assert read_json(path) == {"a": "张", "b": [1.5]}
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"a": math.nan})
    for text, message in (("[1]", "must hold a JSON object, not list"), ("{", "Expecting")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"{path}: {message}"):
            read_json(path)


def test_read_records_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,sex\nfoo,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_records(path)


@pytest.mark.parametrize("row,cells", [("王明,1", 2), ("王明,1,1980,3,4,L001,x", 7)])
def test_read_records_rejects_ragged_row(tmp_path, row, cells):
    path = tmp_path / "ragged.csv"
    path.write_text("name,sex,yob,mob,dob,loc\n李华,2,1990,1,1,L002\n" + row + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"ragged.csv, line 3: {cells} cells"):
        read_records(path)
