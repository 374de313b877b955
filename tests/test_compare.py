import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hanlink import compare
from hanlink.compare import (
    FeatureSpec,
    PairFeaturizer,
    cosine_sims,
    default_feature_bank,
    edit_distances,
    intern_strings,
    levenshtein_sims,
)
from hanlink.encoding import (IDENTITY_TABLE, EncodingKind, FrequencyTable, InputError,
                              extract_substring, logograms, transform)
from oracles import counter_cosine, dp_levenshtein, unique_id_pairs, unique_name_ids


def one_pair(a, b):
    """(strings, u, v) listing the single pair (a, b) for the batch kernels."""
    strings, (u, v) = intern_strings([a], [b])
    return strings, u, v


def levenshtein(a, b):
    return int(edit_distances(*one_pair(a, b))[0])


def levenshtein_sim(a, b):
    return float(levenshtein_sims(*one_pair(a, b))[0])


def lcs_sim(a, b):
    strings, u, v = one_pair(a, b)
    lens = np.array([len(x) for x in strings])
    return float(compare._from_distances("LCS", edit_distances(strings, u, v),
                                         lens[u], lens[v])[0])


def cosine_sim(a, b, k):
    return float(cosine_sims(*one_pair(a, b), k)[0])


def test_table1_similarities():
    assert levenshtein_sim("万只子", "万只只子") == 0.75
    assert levenshtein_sim("张可成", "张珂成") == pytest.approx(2 / 3)
    assert levenshtein_sim("谯科江", "谯江科") == pytest.approx(1 / 3)
    assert levenshtein_sim("阳娅", "阳女亚") == pytest.approx(1 / 3)


def test_levenshtein_empty_rules():
    assert levenshtein_sim("", "") == 1.0
    assert levenshtein_sim("a", "") == 0.0
    assert levenshtein_sim("", "a") == 0.0


def test_lcs_sim():
    assert lcs_sim("abc", "abc") == 1.0
    assert lcs_sim("万只子", "万只只子") == 1.0  # (4-1)/3
    assert lcs_sim("xy", "ab") == 0.0
    assert lcs_sim("", "") == 1.0
    assert lcs_sim("x", "") == 0.0


def test_cosine_sim():
    assert cosine_sim("wu3_kao3", "wu3_kao3", 3) == 1.0
    assert cosine_sim("ab", "cd", 1) == 0.0
    assert cosine_sim("aab", "abb", 1) == pytest.approx(0.8)
    # too short for tokens: 0 unless identical
    assert cosine_sim("ab", "ab", 3) == 1.0
    assert cosine_sim("ab", "ba", 3) == 0.0


def test_extract_substring():
    assert extract_substring("张可成", "2:N") == "可成"
    assert extract_substring("张可", "3:N") == ""
    assert extract_substring("张可成", "1:N") == "张可成"
    assert extract_substring("张可成", "1:1") == "张"
    assert extract_substring("张", "1:2") == "张"


def test_default_bank_cardinality():
    bank = default_feature_bank()
    assert len(bank) == 146
    by_cmp = {}
    for spec in bank:
        by_cmp[spec.comparator] = by_cmp.get(spec.comparator, 0) + 1
    assert by_cmp == {"LV": 30, "LCS": 30, "COS": 80, "SUM": 5, "CAT": 1}
    assert len(set(s.name for s in bank)) == 146


def test_spec_name_roundtrip():
    for spec in default_feature_bank():
        assert FeatureSpec.from_name(spec.name) == spec


@pytest.mark.parametrize("name,message", [
    ("PY_FOO_k1_1:N", "unknown comparator 'FOO'"),
    ("XX_LV_k1_1:N", "LV takes the encodings"),
    ("PY_SUM_k1_1:N", "SUM takes the encodings ('AMB', 'LF')"),
    ("PY_LV_k1_4:N", "the range must be one of"),
    ("LF_SUM_k1_1:N", "the range must be one of ('1:1', '1:2', '2:N', '3:N')"),
    ("PY_COS_k0_1:N", "k must be an integer >= 1"),
    ("PY_COS_1:N", "malformed feature name"),
    ("PY_LV_k7_1:N", "LV takes k 1 only"),
    ("J_LCS_k3_1:N", "LCS takes k 1 only"),
    ("AMB_SUM_k5_1:N", "SUM takes k 1 only"),
    ("HAN_CAT_k2_1:N", "CAT takes k 1 only"),
    ("AMB_SUM_k1_1:2", "AMB takes the range 1:N only"),
    ("HAN_CAT_k1_2:N", "HAN takes the range 1:N only"),
])
def test_spec_rejects_unknown_parts(name, message):
    """A feature name the featurizer cannot compute is an input error when
    it is read, not a failure inside `feature_matrix`."""
    with pytest.raises(InputError, match=re.escape(message)):
        FeatureSpec.from_name(name)


@pytest.mark.parametrize("k", [2.7, "3", True, None])
def test_spec_from_dict_takes_k_as_given(k):
    """A model file's k is the comparator's token length as written: a
    float, a string or a boolean is an input error, not a k the featurizer
    would compute under another name."""
    with pytest.raises(InputError, match=re.escape("k must be an integer >= 1")):
        FeatureSpec.from_dict({"comparator": "COS", "encoding": "PY", "k": k, "range": "1:N"})
    assert FeatureSpec.from_dict({"comparator": "COS", "encoding": "PY", "k": 3,
                                  "range": "1:N"}).name == "PY_COS_k3_1:N"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abcde", max_size=8), st.text(alphabet="abcde", max_size=8))
def test_levenshtein_matches_oracle(a, b):
    assert levenshtein(a, b) == dp_levenshtein(a, b)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=10), st.text(max_size=10))
def test_comparator_bounds_and_symmetry(a, b):
    for fn in (levenshtein_sim, lcs_sim, lambda x, y: cosine_sim(x, y, 2)):
        v = fn(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(fn(b, a))


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=10))
def test_comparator_reflexivity(a):
    assert levenshtein_sim(a, a) == 1.0
    assert lcs_sim(a, a) == 1.0
    assert cosine_sim(a, a, 1) == 1.0
    assert cosine_sim(a, a, 3) == 1.0


@pytest.fixture(scope="module")
def featurizer(bundle):
    return PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)


def feature_row(fz: PairFeaturizer, a: str, b: str):
    """Feature values and Han category of one pair."""
    X, cats = fz.feature_matrix([(a, b)])
    return X[0], compare.HAN_CATEGORIES[cats[0]]


def column(fz: PairFeaturizer, name: str) -> int:
    """The feature-matrix column of the feature called `name`."""
    return [s.name for s in fz.specs].index(name)


def test_feature_vector_reflexive(featurizer):
    values, cat = feature_row(featurizer, "伍考", "伍考")
    for spec, value in zip(featurizer.specs, values):
        if spec.comparator in ("LV", "LCS", "COS") and spec.range_tag in ("1:N", "1:1", "1:2"):
            assert value == 1.0, spec.name
    assert cat == "BothHan"


def test_feature_vector_symmetric(featurizer):
    X, cats = featurizer.feature_matrix([("张可成", "阳娅"), ("阳娅", "张可成")])
    assert np.allclose(X[0], X[1])
    assert cats[0] == cats[1]


def test_feature_vector_empty_range_flag(featurizer):
    """A range that is empty for a pair scores 0 on every feature reading it."""
    assert extract_substring("张可", "3:N") == ""
    values, _ = feature_row(featurizer, "张可", "张可")
    on_3n = [i for i, spec in enumerate(featurizer.specs) if spec.range_tag == "3:N"]
    assert column(featurizer, "J_LV_k1_3:N") in on_3n and len(on_3n) == 29  # with LF
    assert values[on_3n].tolist() == [0.0] * len(on_3n)


def test_sum_lf_feature(bundle):
    freq = FrequencyTable(values={("1:2", "伍考"): -9.0}, floor=-20.0)
    fz = PairFeaturizer(bundle.tables, freq, bundle.surnames)
    idx = column(fz, "LF_SUM_k1_1:2")
    assert feature_row(fz, "伍考", "伍考")[0][idx] == -18.0


def test_sum_amb_feature(featurizer):
    idx = column(featurizer, "AMB_SUM_k1_1:N")
    assert feature_row(featurizer, "俄者(拉者)", "?者")[0][idx] == 3.0


def test_phonetic_replacement_visible_only_in_raw(bundle):
    """Same-reading substitution keeps the pinyin encoding identical."""
    from hanlink.encoding import EncodingKind
    py = bundle.tables[EncodingKind.PY]
    assert py.code("珂") == py.code("科") == "ke1"
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
    values, _ = feature_row(fz, "张珂成", "张科成")
    assert values[column(fz, "J_LV_k1_1:N")] == pytest.approx(2 / 3)
    assert values[column(fz, "PY_LV_k1_1:N")] == 1.0


# Lengths around the 64-bit word boundaries of the bit-parallel kernel.
BOUNDARY_LENGTHS = st.one_of(st.integers(0, 12),
                             st.sampled_from([1, 63, 64, 65, 127, 128, 129, 140]))


def strings_of(alphabet: str):
    return BOUNDARY_LENGTHS.flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(strings_of("ab"), strings_of("abc")), min_size=1, max_size=8),
       st.sampled_from([1 << 22, 4096]))
def test_edit_distances_match_dp(pairs, budget):
    """One batch mixes pattern widths of one, two and three words; a small
    chunk budget splits it into many chunks."""
    strings, (u, v) = compare.intern_strings([a for a, _ in pairs], [b for _, b in pairs])
    with mock.patch.object(compare, "_EQ_BUDGET", budget):
        got = edit_distances(strings, u, v)
    assert got.tolist() == [dp_levenshtein(a, b) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(strings_of("abc"), strings_of("abcd")), min_size=1, max_size=8),
       st.integers(1, 5), st.sampled_from([1 << 16, 3]))
def test_cosine_sims_match_counter_oracle(pairs, k, budget):
    """Token lengths up to five: past three code points a token is numbered
    one code point at a time; a small budget splits the pairs into many
    chunks."""
    strings, (u, v) = compare.intern_strings([a for a, _ in pairs], [b for _, b in pairs])
    with mock.patch.object(compare, "_TOKEN_BUDGET", budget):
        got = cosine_sims(strings, u, v, k)
    assert got.tolist() == [counter_cosine(a, b, k) for a, b in pairs]


def test_cosine_cost_stops_at_the_longest_string(bundle):
    """A token length beyond every string numbers no token: it costs the
    np.unique calls of a length just past the longest string, not one more
    per code point of the token, here and through a featurizer whose spec
    asks for such a length."""
    def unique_calls(fn):
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            fn()
        return unique.call_count

    def cosine(k):
        assert cosine_sims(["ab", "abc"], [0], [1], k).tolist() == [0.0]

    def featurize(k):
        spec = FeatureSpec.from_name(f"PY_COS_k{k}_1:N")
        fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames, specs=(spec,))
        assert fz.feature_matrix([("张三", "李四"), ("张三", "张三")])[0][:, 0].tolist() == [0.0, 1.0]

    assert unique_calls(lambda: cosine(10 ** 4)) == unique_calls(lambda: cosine(4))
    assert unique_calls(lambda: featurize(10 ** 9)) == unique_calls(lambda: featurize(99))


def test_cosine_norms_round_as_pow():
    """Squared counts summing to 2921, where sqrt and ** 0.5 differ in the last bit."""
    a = "a" * 54 + "bbc"
    for b in ("abd", "ab", "aabbcc", "a" * 20 + "c"):
        assert cosine_sim(a, b, 1) == counter_cosine(a, b, 1)


def reference_feature(spec: FeatureSpec, a: str, b: str, tables) -> float:
    """The LV/LCS/COS feature of one pair from the DP and Counter oracles."""
    sa, sb = extract_substring(a, spec.range_tag), extract_substring(b, spec.range_tag)
    if not sa or not sb:
        return 0.0
    table = IDENTITY_TABLE if spec.encoding == "J" else tables[EncodingKind(spec.encoding)]
    ea, eb = transform(sa, table).joined, transform(sb, table).joined
    if ea == eb:
        return 1.0
    if spec.comparator == "COS":
        return counter_cosine(ea, eb, spec.k)
    e = dp_levenshtein(ea, eb)
    if spec.comparator == "LV":
        return 1.0 - e / max(len(ea), len(eb))
    return (max(len(ea), len(eb)) - e) / min(len(ea), len(eb))


def string_specs(encodings, tags):
    return tuple(FeatureSpec(c, enc, k, tag) for enc in encodings for tag in tags
                 for c, k in (("LV", 1), ("LCS", 1), ("COS", 1), ("COS", 2), ("COS", 3)))


# 伍考张可成阳 have table codes; 㐀 has none and falls back to itself.
NAME_CHARS = "伍考张可成阳㐀"


def names_of(lengths):
    return lengths.flatmap(lambda n: st.text(alphabet=NAME_CHARS, min_size=n, max_size=n))


# Logograms with table codes (伍张阳李华 carry RDS structure marks), 㐀 with
# none, a bare structure mark, inner whitespace, and characters NFC composes
# (e + U+0301) or replaces (U+212B ANGSTROM SIGN becomes U+00C5).
MIXED_CHARS = "伍考张可成阳李华㐀⿰ \u3000e\u0301\u212b"
ALL_ENCODINGS = ("J", "PY", "FC", "WB", "RD", "RDS")


def mixed_names(max_size: int = 8):
    return st.text(alphabet=MIXED_CHARS, max_size=max_size)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(names_of(BOUNDARY_LENGTHS), names_of(BOUNDARY_LENGTHS)),
                min_size=1, max_size=6))
def test_feature_columns_match_oracle_long_strings(bundle, pairs):
    """Identity-encoded columns reach the 63/64/65 and >128 code-point cases."""
    specs = string_specs(("J",), ("1:N", "2:N", "1:2"))
    X, _ = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                          specs=specs).feature_matrix(pairs)
    want = [[reference_feature(spec, a, b, bundle.tables) for spec in specs]
            for a, b in pairs]
    assert X.tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(mixed_names(12), mixed_names(12)), min_size=1, max_size=6))
def test_feature_columns_match_oracle_all_encodings(bundle, pairs):
    """Every string encoding and range, bitwise, both pair orders, on names
    mixing coded and uncoded logograms, whitespace, a structure mark and
    characters NFC rewrites; codes of ten or more characters pass 64 code
    points."""
    specs = string_specs(ALL_ENCODINGS, compare.RANGE_TAGS)
    X, _ = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                          specs=specs).feature_matrix(pairs + [(b, a) for a, b in pairs])
    want = [[reference_feature(spec, a, b, bundle.tables) for spec in specs]
            for a, b in pairs + [(b, a) for a, b in pairs]]
    assert X.tolist() == want


def test_feature_vector_is_a_row_of_the_matrix(featurizer):
    """A pair featurized alone gives its row of a batch, bitwise."""
    pairs = [("张可成", "阳娅"), ("伍考", "伍考"), ("张可", "张可成")]
    X, cats = featurizer.feature_matrix(pairs)
    for row, (a, b) in enumerate(pairs):
        values, cat = feature_row(featurizer, a, b)
        assert values.tolist() == X[row].tolist()
        assert compare.HAN_CATEGORIES.index(cat) == cats[row]



def test_encoded_substring_strips_like_transform(bundle):
    """transform strips the substring: "李 华" at 2:N is " 华", encoded hua4."""
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
    assert extract_substring("李 华", "2:N") == " 华"
    assert fz._encode(EncodingKind.PY, " 华") == "hua4"
    assert fz._encode(EncodingKind.RDS, "李华") == "木 子 化 十 ⿱ ⿱"
    assert fz._encode(EncodingKind.FC, "") == ""


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_names(), min_size=1, max_size=6))
def test_encoded_substrings_match_transform(bundle, names):
    """Every encoding and range, against transform of the substring; one
    fallback per distinct (table encoding, logogram) without a code."""
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
    missing = set()
    for kind, table in fz.tables.items():
        for tag in compare.RANGE_TAGS:
            for name in names:
                sub = extract_substring(name, tag)
                assert fz._encode(kind, sub) == (transform(sub, table).joined if sub else "")
                if kind is not EncodingKind.J:
                    missing |= {(kind, ch) for ch in logograms(sub) if ch not in table.entries}
    assert fz.fallbacks == len(missing)


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_names(), min_size=1, max_size=6), st.data())
def test_feature_matrix_of_name_ids_matches_tuples(bundle, names, data):
    """Ids into a name list that repeats a name and holds one no pair
    references, with duplicate pairs: bitwise the tuple-list result."""
    pool = names + names[:1] + ["阳李华"]
    ids = st.integers(0, len(pool) - 2)
    ia = data.draw(st.lists(ids, min_size=1, max_size=10))
    ib = data.draw(st.lists(ids, min_size=len(ia), max_size=len(ia)))
    ia, ib = ia + ia[:3], ib + ib[:3]
    pairs = compare.NamePairs(pool, ia, ib)
    tuples = [(pool[i], pool[j]) for i, j in zip(ia, ib)]
    assert len(pairs) == len(tuples) and list(pairs) == tuples
    assert [pairs[k] for k in range(len(pairs))] == tuples
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
    X, cats = fz.feature_matrix(pairs)
    for other in (fz, PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)):
        X2, cats2 = other.feature_matrix(tuples)
        assert X.tobytes() == X2.tobytes() and cats.tobytes() == cats2.tobytes()


# Three string encodings with every range, both comparator families and
# cosine at k = 1..3, plus the summed and category features.
MIXED_BANK = string_specs(("J", "PY", "RDS"), compare.RANGE_TAGS) + (
    FeatureSpec("SUM", "AMB", 1, "1:N"), FeatureSpec("SUM", "LF", 1, "2:N"),
    FeatureSpec("CAT", "HAN", 1, "1:N"))
# An empty 2:N range, edge and inner whitespace, and names whose RDS (14 or
# more logograms) or J (65 or more) encodings pass 64 code points.
EDGE_NAMES = ("张", "张 三", " 李", "伍考张可成阳李华伍考张可成阳", "张可" * 33)


@settings(max_examples=25, deadline=None)
@given(st.permutations(MIXED_BANK),
       st.lists(st.one_of(st.sampled_from(EDGE_NAMES), mixed_names(12),
                          st.text(alphabet=NAME_CHARS, min_size=14, max_size=20)),
                min_size=1, max_size=8),
       st.data())
def test_batch_equals_each_spec_alone(bundle, specs, names, data):
    """One feature_matrix over a mixed bank, which sends every LV/LCS key
    through one edit-distance call and every cosine key's token lengths
    through one pass, equals bitwise each spec featurized by its own
    one-spec featurizer."""
    ids = st.integers(0, len(names) - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12))
    pairs = [(names[i], names[j]) for i, j in pairs]
    X, cats = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                             specs=tuple(specs)).feature_matrix(pairs)
    for c, spec in enumerate(specs):
        alone, alone_cats = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                                           specs=(spec,)).feature_matrix(pairs)
        assert X[:, c].tobytes() == alone[:, 0].tobytes(), spec.name
        assert cats.tobytes() == alone_cats.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_NAMES), mixed_names(12)), min_size=1, max_size=8),
       st.data())
def test_feature_matrix_does_not_depend_on_chunk_budgets(bundle, names, data):
    """The cosine and edit-distance chunk budgets at 1, a chunk per pair,
    and at 2^30, one chunk, give the default budgets' matrix bitwise."""
    ids = st.integers(0, len(names) - 1)
    pairs = [(names[i], names[j])
             for i, j in data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12))]
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames, specs=MIXED_BANK)
    want = fz.feature_matrix(pairs)[0].tobytes()
    for budget in (1, 1 << 30):
        with (mock.patch.object(compare, "_TOKEN_BUDGET", budget),
              mock.patch.object(compare, "_EQ_BUDGET", budget)):
            assert fz.feature_matrix(pairs)[0].tobytes() == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))))
def test_name_id_compaction_matches_unique(case):
    """The featurizer's sort-free compaction of name ids equals an int64
    np.unique of both id columns, its ranks int32."""
    n, pairs = case
    ia = np.array([i for i, _ in pairs], dtype=np.int32)
    ib = np.array([j for _, j in pairs], dtype=np.int32)
    got = compare.compact_ids(n, ia, ib)
    for x, y in zip(got, unique_name_ids(ia, ib)):
        assert np.array_equal(x, y)
    assert got[1].dtype == got[2].dtype == np.int32


def ids_below(n: int):
    """Ids below n, half of them among the top few, whose pair codes come
    nearest to the int32 bound."""
    return st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 4), n - 1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 5, 46340, 46341, 1 << 20]).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(ids_below(n), ids_below(n), st.booleans()), max_size=30))))
@example((46340, [(46339, 46338, True), (46338, 46339, True), (0, 46339, True)]))
@example((46341, [(46340, 46339, True), (46339, 46340, True), (0, 46340, False)]))
def test_distinct_pairs_match_int64_unique(case):
    """The distinct unordered pairs of int32 ids equal those of an int64
    np.unique of the pair codes, below and past 46,340 ids, where a code
    low * n + high first leaves int32; the ids and the inverse are int32."""
    n, rows = case
    a = np.array([row[0] for row in rows], dtype=np.int32)
    b = np.array([row[1] for row in rows], dtype=np.int32)
    mask = np.array([row[2] for row in rows], dtype=bool)
    got = compare._distinct_pairs(n, a, b, mask)
    for x, y in zip(got, unique_id_pairs(n, a, b, mask)):
        assert np.array_equal(x, y)
    assert got.u.dtype == got.v.dtype == got.inverse.dtype == np.int32


def test_featurizer_needs_the_tables_its_features_read(bundle):
    """A featurizer keeps only the tables its features read; a table or
    frequency table they read but that is not given is a ValueError."""
    py = FeatureSpec.from_name("PY_LV_k1_1:N")
    fz = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames, specs=(py,))
    assert set(fz.tables) == {EncodingKind.PY, EncodingKind.J} and fz.freq is None
    with pytest.raises(ValueError, match="read the PY table"):
        PairFeaturizer({}, None, bundle.surnames, specs=(py,))
    with pytest.raises(ValueError, match="no frequency table"):
        PairFeaturizer({}, None, bundle.surnames, specs=(FeatureSpec.from_name("LF_SUM_k1_1:2"),))
