import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanlink import simgen
from hanlink.compare import levenshtein_sims
from hanlink.encoding import EncodingKind, EncodingTable, logograms
from hanlink.linkage import InputError
from hanlink.simgen import (
    ERROR_TYPES,
    FIELD_ERROR_RATES,
    MAX_RECORDS,
    SIM_FIELDS,
    STOP,
    SimConfig,
    build_name_model,
    corrupt_name,
    distribution_cdf,
    draw,
    edit_distance_floor,
    generate_pair_files,
    read_truth,
    sample_name,
    symbol_sets,
    write_truth,
)
from oracles import dp_levenshtein, unbounded_substitutions


def levenshtein_sim(a, b):
    return float(levenshtein_sims([a, b], [0], [1])[0])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(name_error_rate=1.5)
    with pytest.raises(ValueError):
        SimConfig(fields=("sex", "bogus"))
    assert SimConfig(n_records=MAX_RECORDS).n_records == MAX_RECORDS


@pytest.mark.parametrize("config,message", [
    ({"n_records": 0}, "'n_records' must be an integer >= 1, not 0"),
    ({"n_records": True}, "'n_records' must be an integer >= 1, not True"),
    ({"seed": -1}, "'seed' must be an integer >= 0"),
    ({"fields": "sex"}, "'fields' must list fields"),
    ({"error_type_probs": {"complex": 0.5}}, "unknown key 'error_type_probs'"),
    ({"field_error_rates": {"sex": 0.5}}, "unknown key 'field_error_rates'"),
    ({"cardinalities": {"loc": 3}}, "unknown key 'cardinalities'"),
    ({"n_records": MAX_RECORDS + 1}, "'n_records' must be at most 1000000, not 1000001"),
    ({"n_records": 10 ** 12}, "'n_records' must be at most 1000000, not 1000000000000"),
    ({"fields": ["sex", "yob", "sex"]}, "simulation key 'fields' lists 'sex' more than once"),
])
def test_config_rejects_bad_values(config, message):
    with pytest.raises(InputError, match=re.escape(message)):
        SimConfig.from_dict(config)


def test_config_rejects_a_field_listed_twice():
    """A repeated field would draw its base values and its errors twice."""
    with pytest.raises(InputError, match="simulation key 'fields' lists 'sex' more than once"):
        SimConfig(fields=("sex", "sex"))


def test_build_model_requires_corpus(bundle):
    with pytest.raises(ValueError):
        build_name_model([], bundle.tables)


def test_positional_distributions(name_model):
    for pos, (chars, probs) in enumerate(zip(name_model.position_chars,
                                             name_model.position_probs)):
        assert probs.sum() == pytest.approx(1.0)
        if pos >= 1:
            assert STOP in chars
            assert probs[list(chars).index(STOP)] > 0
        else:
            assert STOP not in chars


def test_single_name_corpus_concentrates(bundle):
    model = build_name_model(["张三"], bundle.tables)
    chars, probs = model.position_chars[0], model.position_probs[0]
    assert list(chars) == ["张"]
    assert probs[0] == 1.0


def test_homophones_are_substitution_candidates(bundle):
    model = build_name_model(["张珂", "张科"], bundle.tables)
    # identical pinyin reading ke1 -> similarity 1 >= 0.8
    assert "科" in model.substitutions["珂"]
    assert "珂" in model.substitutions["科"]


def test_candidates_match_exhaustive_oracle(bundle, name_model):
    chars = name_model.inventory[:50]
    kinds = (EncodingKind.PY, EncodingKind.FC, EncodingKind.WB, EncodingKind.RDS)
    for c1 in chars:
        for c2 in chars:
            if c1 == c2:
                continue
            expected = False
            for kind in kinds:
                a = bundle.tables[kind].entries.get(c1, c1)
                b = bundle.tables[kind].entries.get(c2, c2)
                if levenshtein_sim(a, b) >= 0.8:
                    expected = True
                    break
            got = c2 in name_model.substitutions[c1]
            assert got == expected, (c1, c2)


def test_sample_name_lengths(name_model):
    rng = np.random.Generator(np.random.PCG64(0))
    lengths = [len(logograms(sample_name(name_model, rng))) for _ in range(500)]
    assert min(lengths) >= 1
    assert max(lengths) <= name_model.max_len


def test_corrupt_single_replacement_bound(name_model):
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(50):
        name = sample_name(name_model, rng)
        variant, _ = corrupt_name(name, "single_replacement", name_model, rng)
        n = max(len(name), len(variant))
        assert variant != name
        assert levenshtein_sim(name, variant) >= (n - 1) / n - 1e-12


def test_corrupt_transposition(name_model):
    rng = np.random.Generator(np.random.PCG64(2))
    variant, fell_back = corrupt_name("谯科江", "transposition",
                                      name_model, rng)
    assert not fell_back
    assert sorted(variant) == sorted("谯科江")
    assert variant != "谯科江"


def test_corrupt_decomposition(bundle, name_model):
    rng = np.random.Generator(np.random.PCG64(3))
    assert name_model.decompositions.get("娅") == "女亚"
    variant, fell_back = corrupt_name("阳娅", "decomposition",
                                      name_model, rng)
    assert not fell_back
    assert variant == "阳女亚"


def test_corrupt_multi_name_parenthesizes(name_model):
    rng = np.random.Generator(np.random.PCG64(4))
    variant, _ = corrupt_name("俄者", "multi_name", name_model, rng)
    assert variant.startswith("俄者(")
    assert variant.endswith(")")


def test_corrupt_infeasible_falls_back(name_model):
    rng = np.random.Generator(np.random.PCG64(5))
    variant, fell_back = corrupt_name("张", "transposition", name_model, rng)
    assert fell_back
    assert variant != "张"
    assert len(logograms(variant)) == 1


def test_generate_zero_error_rates(name_model, monkeypatch):
    monkeypatch.setattr(simgen, "FIELD_ERROR_RATES", dict.fromkeys(SIM_FIELDS, 0.0))
    cfg = SimConfig(n_records=50, name_error_rate=0.0, seed=9)
    sim = generate_pair_files(cfg, name_model)
    for i, j in sim.truth:
        assert sim.records_a["name"][i] == sim.records_b["name"][j]
        for f in ("sex", "yob", "mob", "dob", "loc"):
            assert sim.records_a[f][i] == sim.records_b[f][j]


def test_generate_forced_name_error(name_model, monkeypatch):
    monkeypatch.setattr(simgen, "ERROR_TYPES", {**dict.fromkeys(ERROR_TYPES, 0.0),
                                                "single_replacement": 1.0})
    cfg = SimConfig(n_records=60, name_error_rate=1.0, seed=10)
    sim = generate_pair_files(cfg, name_model)
    for i, j in sim.truth:
        a, b = sim.records_a["name"][i], sim.records_b["name"][j]
        assert a != b
        assert len(logograms(a)) == len(logograms(b))


def test_generate_reproducible(name_model):
    cfg = SimConfig(n_records=80, name_error_rate=0.2, seed=11)
    s1 = generate_pair_files(cfg, name_model)
    s2 = generate_pair_files(cfg, name_model)
    assert s1.records_a == s2.records_a
    assert s1.records_b == s2.records_b
    assert np.array_equal(s1.truth, s2.truth)


def test_generate_truth_consistency(name_model):
    cfg = SimConfig(n_records=100, name_error_rate=0.1, seed=12)
    sim = generate_pair_files(cfg, name_model)
    assert sim.truth.shape == (100, 2)
    assert sorted(sim.truth[:, 0]) == list(range(100))
    assert sorted(sim.truth[:, 1]) == list(range(100))


def test_name_error_rate_within_binomial_ci(name_model):
    n, rate = 10_000, 0.1
    cfg = SimConfig(n_records=n, name_error_rate=rate, seed=13)
    sim = generate_pair_files(cfg, name_model)
    diffs = sum(1 for i, j in sim.truth
                if sim.records_a["name"][i] != sim.records_b["name"][j])
    half_width = 2.576 * np.sqrt(rate * (1 - rate) / n)
    assert abs(diffs / n - rate) <= half_width


def test_error_type_frequencies_chi_square(name_model):
    cfg = SimConfig(n_records=10_000, name_error_rate=1.0, seed=14)
    sim = generate_pair_files(cfg, name_model)
    types = sim.requested_error_types
    assert len(types) == 10_000
    counts = {t: types.count(t) for t in ERROR_TYPES}
    chi2 = sum((counts[t] - 10_000 * p) ** 2 / (10_000 * p) for t, p in ERROR_TYPES.items())
    # chi-square with 6 dof, alpha=0.001 -> critical value 22.46
    assert chi2 < 22.46


def test_field_errors_independent(name_model):
    cfg = SimConfig(n_records=20_000, name_error_rate=0.1, seed=15)
    sim = generate_pair_files(cfg, name_model)
    errors = {}
    for f in ("sex", "yob", "mob", "dob", "loc"):
        errors[f] = np.array(
            [sim.records_a[f][i] != sim.records_b[f][j] for i, j in sim.truth],
            dtype=float)
    fields = list(errors)
    for a_ix in range(len(fields)):
        for b_ix in range(a_ix + 1, len(fields)):
            ea, eb = errors[fields[a_ix]], errors[fields[b_ix]]
            if ea.std() == 0 or eb.std() == 0:
                continue
            corr = np.corrcoef(ea, eb)[0, 1]
            se = 1 / np.sqrt(len(ea))
            assert abs(corr) <= 3 * se, (fields[a_ix], fields[b_ix], corr)


def test_truth_roundtrip(tmp_path, name_model):
    cfg = SimConfig(n_records=30, seed=16)
    sim = generate_pair_files(cfg, name_model)
    path = tmp_path / "truth.csv"
    write_truth(path, sim.truth)
    assert np.array_equal(read_truth(path), sim.truth)


@pytest.mark.parametrize("rows,line", [(["0,1,2", "3,4,5"], 2), (["0,1", "2"], 3)])
def test_read_truth_rejects_rows_without_two_cells(tmp_path, rows, line):
    path = tmp_path / "truth.csv"
    path.write_text("id_a,id_b\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"truth.csv, line {line}"):
        read_truth(path)


def test_read_truth_rejects_an_id_beyond_int64(tmp_path):
    """An id that int parses but int64 cannot hold is an InputError naming
    the first such cell in file order, not an OverflowError."""
    path = tmp_path / "truth.csv"
    path.write_text("id_b,id_a\n0,1\n-99999999999999999999,99999999999999999999\n",
                    encoding="utf-8")
    message = "truth.csv, line 3, column 'id_b': id -99999999999999999999 does not fit in 64 bits"
    with pytest.raises(InputError, match=re.escape(message)):
        read_truth(path)
    path.write_text(f"id_a,id_b\n{2 ** 63 - 1},{-2 ** 63}\n", encoding="utf-8")
    assert read_truth(path).tolist() == [[2 ** 63 - 1, -2 ** 63]]


def name_model_at(threshold, corpus, tables):
    """build_name_model with simgen.SIM_THRESHOLD set to `threshold`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simgen, "SIM_THRESHOLD", threshold)
        return build_name_model(corpus, tables)


SUBSTITUTION_KINDS = (EncodingKind.PY, EncodingKind.FC, EncodingKind.WB, EncodingKind.RDS)


def reference_substitutions(inventory, tables, threshold):
    """The pairwise scalar search, with its length-gap prune written the
    same way: characters whose codes reach `threshold` Levenshtein
    similarity under any encoding."""
    subs = {c: [] for c in inventory}
    for i, c1 in enumerate(inventory):
        for c2 in inventory[i + 1:]:
            for kind in SUBSTITUTION_KINDS:
                if kind not in tables:
                    continue
                a = tables[kind].entries.get(c1, c1)
                b = tables[kind].entries.get(c2, c2)
                if abs(len(a) - len(b)) > (1.0 - threshold) * max(len(a), len(b)):
                    continue
                if 1.0 - dp_levenshtein(a, b) / max(len(a), len(b)) >= threshold:
                    subs[c1].append(c2)
                    subs[c2].append(c1)
                    break
    return {c: tuple(v) for c, v in subs.items()}


@settings(max_examples=15, deadline=None)
@given(data=st.data(), threshold=st.sampled_from([0.5, 0.7, 0.75, 0.8, 0.9]))
def test_substitutions_match_scalar_reference(bundle, data, threshold):
    corpus = data.draw(st.lists(st.sampled_from(bundle.corpus[:400]), min_size=1,
                                max_size=25, unique=True))
    model = name_model_at(threshold, corpus, bundle.tables)
    assert model.substitutions == reference_substitutions(model.inventory, bundle.tables,
                                                          threshold)


def test_substitution_prune_drops_pairs_at_the_threshold_with_a_length_gap(bundle):
    """wan4/wang4 sit at similarity 0.8 with a gap of one, but (1.0 - 0.8) * 5
    rounds below 1, so the prune drops the pair."""
    py = bundle.tables[EncodingKind.PY]
    assert (py.code("万"), py.code("旺")) == ("wan4", "wang4")
    assert levenshtein_sim("wan4", "wang4") == 0.8
    assert simgen.SIM_THRESHOLD == 0.8
    model = build_name_model(["万旺"], {EncodingKind.PY: py})
    assert model.substitutions == {"万": (), "旺": ()}


@pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
def test_substitutions_match_unbounded_search_on_shipped_bundle(bundle, name_model, threshold):
    model = (name_model if threshold == 0.8
             else name_model_at(threshold, bundle.corpus, bundle.tables))
    assert model.substitutions == unbounded_substitutions(model.inventory, bundle.tables,
                                                          threshold)


# Han characters three to a residue mod 64, and code symbols that collide
# with them and with each other mod 64, so the symbol-set floor meets
# collisions on both sides.
COLLIDING_HAN = [chr(0x5B00 + 64 * k + r) for r in range(3) for k in range(3)]
CODE_SYMBOLS = ["a", "b", chr(ord("a") + 64), chr(ord("b") + 128), "1", *COLLIDING_HAN[:4]]
codes_st = st.one_of(st.text(st.sampled_from(CODE_SYMBOLS), max_size=6),
                     st.text(st.sampled_from(CODE_SYMBOLS), min_size=60, max_size=75))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), threshold=st.sampled_from([0.5, 0.8, 1.0]))
def test_substitutions_match_unbounded_search_on_drawn_tables(data, threshold):
    """Drawn tables hold empty codes, codes over 64 characters and symbols
    that collide mod 64; characters a table lacks stand for themselves."""
    corpus = data.draw(st.lists(st.text(st.sampled_from(COLLIDING_HAN), min_size=1,
                                        max_size=3), min_size=1, max_size=6))
    kinds = data.draw(st.lists(st.sampled_from(SUBSTITUTION_KINDS), min_size=1, unique=True))
    tables = {kind: EncodingTable(kind, data.draw(st.dictionaries(
        st.sampled_from(COLLIDING_HAN), codes_st, max_size=len(COLLIDING_HAN))))
        for kind in kinds}
    model = name_model_at(threshold, corpus, tables)
    assert model.substitutions == unbounded_substitutions(model.inventory, tables, threshold)


@settings(max_examples=200, deadline=None)
@given(a=codes_st, b=codes_st)
def test_edit_distance_floor_never_exceeds_the_distance(a, b):
    lens = np.array([len(a), len(b)])
    assert 0 <= edit_distance_floor(symbol_sets([a, b]), lens, [0], [1])[0] <= dp_levenshtein(a, b)


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(0, 1e6), min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
       seed=st.integers(0, 2 ** 64 - 1), draws=st.integers(1, 20))
def test_draw_matches_generator_choice(weights, seed, draws):
    """draw on distribution_cdf(p) gives the indices Generator.choice(k, p=p)
    gives, and leaves the generator in the same state."""
    probs = np.array(weights) / sum(weights)
    cdf = distribution_cdf(probs, "drawn probabilities")
    ours, theirs = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    assert ([draw(cdf, ours) for _ in range(draws)]
            == [int(theirs.choice(len(probs), p=probs)) for _ in range(draws)])
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, float("nan")], [0.5, 0.4999]])
def test_distribution_cdf_rejects_what_is_not_a_distribution(probs):
    with pytest.raises(ValueError, match="error-type probabilities must be non-negative"):
        distribution_cdf(np.array(probs), "error-type probabilities")


def test_error_types_summing_within_tolerance_are_drawn_as_given(name_model, monkeypatch):
    """Error-type shares summing to 1 within SUM_TOLERANCE, as the
    renormalized observed shares do, are drawn from as given."""
    monkeypatch.setattr(simgen, "ERROR_TYPES", {**dict.fromkeys(ERROR_TYPES, 0.0),
                                                "single_replacement": 0.5,
                                                "transposition": 0.5 + 5e-7})
    sim = generate_pair_files(SimConfig(n_records=40, name_error_rate=1.0, seed=3),
                              name_model)
    assert set(sim.requested_error_types) == {"single_replacement", "transposition"}


def sim_digest(sim) -> str:
    blob = json.dumps([sim.records_a, sim.records_b, sim.truth.tolist(),
                       sim.requested_error_types, sim.fallback_count],
                      ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed,rate,digest", [
    (5, 0.0345, "24befb11c3aded712670457db8b24d9d2dd7c56570beffd5c761f01699ee4b00"),
    (6, 0.2, "02c8ad03259c7a668543e05352792deb259b880cb9aa8d0e6e3e36ca560b1c7a"),
    (7, 1.0, "4966e4ef29ceb96121ac33947814742ee49deaf117cb9c44cfc11236864def4d"),
])
def test_simulated_files_are_pinned(name_model, seed, rate, digest):
    """Records, truth, requested error types and fallbacks of 300-record
    simulations on the shipped bundle, as digests: a change to name
    sampling, corruption or the name model shows here."""
    sim = generate_pair_files(SimConfig(n_records=300, seed=seed, name_error_rate=rate),
                              name_model)
    assert sim_digest(sim) == digest


def test_unsimulated_fields_are_blank_columns(name_model):
    """A simulation of some supporting fields writes every record field,
    the others as blank columns in both files; records, truth, error types
    and fallbacks are pinned as a digest."""
    sim = generate_pair_files(SimConfig(n_records=200, seed=4, name_error_rate=0.2,
                                        fields=("sex", "loc")), name_model)
    for records in (sim.records_a, sim.records_b):
        assert list(records) == ["name", *SIM_FIELDS]
        assert all(records[f] == [""] * 200 for f in ("yob", "mob", "dob"))
        assert all("" not in records[f] for f in ("name", "sex", "loc"))
    assert sim_digest(sim) == "710c73af388962f1dc5f27bc88d273372944cc55527f5bd12e2d667342a6441d"


ONE_TYPE = {
    "single_replacement": "08ee4b99b29d7e3d9aabf560e99d1c0945f1326d6b8e37ac799bb5061cd659fe",
    "multi_replacement": "d5ae2466461e6f3baeb9cb9c244b0299c7e8a1d55a5da255f34157a69ba89d97",
    "insertion_deletion": "4c5d01f58a75008c6b2fef413dc9f6a982baf262f797939c8418dab79ea84a85",
    "transposition": "ab3805370a8730e4b626575f1161e148e48e71499b94b4c644805d0d87877065",
    "multi_name": "118d9fe8d8dbf9b3b216abc02928e87e5863339d04e534ef473c7df58601ac5f",
    "decomposition": "87cdf917d9992b15c9a9d8c888388af8ad005dcf6d9072498e3d2d1d6d5f9db5",
    "complex": "8b13d82b76bebdffb683f45d3263f555fe28e736cb7e2dddc1afbf29bf4aa0fb",
}


@pytest.mark.parametrize("etype", ERROR_TYPES)
def test_each_mechanism_is_pinned(name_model, monkeypatch, etype):
    """A 200-record simulation corrupting every name with one error type,
    as a digest: the draws and fallbacks of each mechanism."""
    monkeypatch.setattr(simgen, "ERROR_TYPES", {**dict.fromkeys(ERROR_TYPES, 0.0), etype: 1.0})
    sim = generate_pair_files(SimConfig(n_records=200, seed=8, name_error_rate=1.0),
                              name_model)
    assert sim_digest(sim) == ONE_TYPE[etype]


def test_field_redraws_are_pinned(name_model, monkeypatch):
    """Most loc values redrawn, from the Zipf-ish location sizes."""
    monkeypatch.setattr(simgen, "FIELD_ERROR_RATES", {**FIELD_ERROR_RATES, "loc": 0.9})
    sim = generate_pair_files(SimConfig(n_records=200, seed=9), name_model)
    assert sim_digest(sim) == "554f59c1981bc7ef7ebbe747b8e428eb1eece80f567a4b0f4b60b8a9ac8360ba"


@pytest.mark.parametrize("etype,fallbacks,digest", [
    ("single_replacement", 0, "81e8ba5e8138249611f0b3aa5511ea8994609a7bc4a86248c071ebb7de7244b1"),
    ("multi_replacement", 8, "5bacfbf4f8291c0f4cbc6baaadafd416de2d645db6dea804beeff18286e66841"),
    ("insertion_deletion", 0, "949f16fca2ef41aa99654e3a1b3bc61efb652f49d83c0ac0ee1d1a992226977e"),
    ("transposition", 12, "df2977ddaa82207cfab3ba0f83c8debacb738fca7903f8ccc4198e76ae370157"),
    ("multi_name", 0, "00a01c439d7d78f0d5276760ec76957c8d2b7f8af747beb7fd4def872469e4b1"),
    ("decomposition", 8, "d6baf09fb120a8866510f855c1a9513a124009218673eaeda6afcf543805cf06"),
    ("complex", 3, "3b6c36fe5a1b31e32ec8ec11186ab2b553df11f152381cf8117cef75a000075a"),
])
def test_short_name_corruptions_are_pinned(name_model, etype, fallbacks, digest):
    """Each mechanism four times on one- to three-logogram names, among them
    a single decomposable logogram and a name without unequal neighbours,
    so that every fallback runs; one generator throughout."""
    rng = np.random.Generator(np.random.PCG64(12))
    out = [corrupt_name(name, etype, name_model, rng)
           for name in ("张", "娅", "张张", "阳娅", "谯科江", "李华华") for _ in range(4)]
    assert sum(fell_back for _, fell_back in out) == fallbacks
    assert hashlib.sha256(json.dumps(out, ensure_ascii=False).encode()).hexdigest() == digest
