import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hanlink import assets, cli, encoding
from hanlink import experiment as exp
from hanlink.cli import main
from hanlink.compare import HAN_CATEGORIES, FeatureSpec, PairFeaturizer


def sha256_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def write_pairs_csv(path: Path, rows, header=("name_a", "name_b", "label")):
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def test_features_shape(tmp_path):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("伍考", "伍考", 1),
                            ("张可成", "阳娅", 0)])
    out = tmp_path / "features.csv"
    assert main(["features", "--in", str(pairs), "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3
    assert len(rows[0]) == 146 + 2
    assert rows[0][-2:] == ["han_category", "label"]


def test_features_han_category_is_one_code(tmp_path, bundle):
    """A both-Han, a neither and a disagreeing pair each get the code whose
    HAN_CATEGORIES name matches `han_of_logograms` of its two names, in the
    featurizer's codes and its HAN_CAT column, and the name `hanlink
    features` writes reads back as that code."""
    pairs = [("张可成", "伍考"), ("考", "可成伍考娅"), ("张可成", "考")]

    def han(name):
        return encoding.han_of_logograms(encoding.normal_form(name), bundle.surnames)

    names = [{(True, True): "BothHan", (False, False): "NeitherHan"}.get(
        (han(a), han(b)), "Disagreeing") for a, b in pairs]
    assert names == ["BothHan", "NeitherHan", "Disagreeing"]
    codes = [HAN_CATEGORIES.index(name) for name in names]
    featurizer = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
    X, cats = featurizer.feature_matrix(pairs)
    assert cats.tolist() == codes
    assert X[:, [s.name for s in featurizer.specs].index("HAN_CAT_k1_1:N")].tolist() == codes
    write_pairs_csv(tmp_path / "pairs.csv", [(a, b, 0) for a, b in pairs])
    out = tmp_path / "features.csv"
    assert main(["features", "--in", str(tmp_path / "pairs.csv"), "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as handle:
        assert [row["han_category"] for row in csv.DictReader(handle)] == names
    assert cli._read_feature_csv(str(out))[1].tolist() == codes


def test_features_missing_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    write_pairs_csv(bad, [("a", "b")], header=("name_a", "name_x"))
    assert main(["features", "--in", str(bad), "--out",
                 str(tmp_path / "o.csv")]) == 2
    assert "name_b" in capsys.readouterr().err


def test_features_rejects_short_row(tmp_path, capsys):
    pairs = tmp_path / "short.csv"
    pairs.write_text("name_a,name_b,label\n伍考,伍考,1\n李华\n", encoding="utf-8")
    assert main(["features", "--in", str(pairs), "--out", str(tmp_path / "o.csv")]) == 2
    assert "short.csv, line 3: 1 cells" in capsys.readouterr().err


def test_features_reproduce_table1_column(tmp_path):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [
        ("万只子", "万只只子", 1),
        ("张可成", "张珂成", 1),
        ("谯科江", "谯江科", 1),
        ("阳娅", "阳女亚", 1),
    ])
    out = tmp_path / "features.csv"
    assert main(["features", "--in", str(pairs), "--out", str(out)]) == 0
    with out.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        col = header.index("J_LV_k1_1:N")
        values = [float(row[col]) for row in reader]
    assert values == pytest.approx([0.75, 2 / 3, 1 / 3, 1 / 3])


def test_features_full_bank_pinned(tmp_path):
    """`hanlink features` over the full bank, pinned as a digest of its
    output: pairs whose pinyin (伊/依), four-corner (二/许) or Wubi98 (丁/夌)
    codes are equal while the logograms differ, a name holding a space (its
    1:2 and 2:N substrings hold it), names shorter than a range, 㐀 (in no
    table), an empty name, a Latin name, and duplicated and swapped pairs.
    Values are written with `.12g`, so the digest does not depend on the host."""
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [
        ("伊", "依"), ("二", "许"), ("丁", "夌"), ("依", "伊"), ("伊", "依"),
        ("伊二丁", "依许夌"), ("李 华", "李华"), ("李 华", "伊"), ("李华", "李 华"),
        ("㐀", "丁"), ("㐀伊", "㐀依"), ("张可成", "张珂成"), ("张珂成", "张可成"),
        ("谯科江", "谯江科"), ("万只子", "万只只子"), ("阳娅", "阳女亚"), ("二许", "许二"),
        ("李华", ""), ("", ""), ("Li Hua", "李华"), ("张可成", "张可成"),
    ], header=("name_a", "name_b"))
    out = tmp_path / "features.csv"
    assert main(["features", "--in", str(pairs), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "80e4be8a35c29f5ee0d45581ce830541b3fda447ef04e3cf3582e7f97f94ce97")


def test_train_and_fitdist_and_evaluate(tmp_path, name_model, bundle):
    from hanlink.simgen import SimConfig, generate_pair_files
    rng = np.random.default_rng(0)
    sim = generate_pair_files(SimConfig(n_records=250, name_error_rate=0.5,
                                        seed=31), name_model)
    names_a, names_b = sim.records_a["name"], sim.records_b["name"]
    rows = []
    for i, j in sim.truth:
        if names_a[i] != names_b[j]:
            rows.append((names_a[i], names_b[j], 1))
    for _ in range(600):
        i = rng.integers(250)
        j = rng.integers(250)
        if sim.truth[i][1] != j:
            rows.append((names_a[i], names_b[j], 0))
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, rows)
    features = tmp_path / "features.csv"
    assert main(["features", "--in", str(pairs), "--out", str(features)]) == 0

    model_path = tmp_path / "model.json"
    assert main(["train", "--in", str(features), "--out", str(model_path),
                 "--seed", "1"]) == 0
    model = json.loads(model_path.read_text())
    assert model["kind"] == "logistic"
    assert set(model["coefficients"]) == {"BothHan", "NeitherHan", "Disagreeing"}

    dist_path = tmp_path / "dist.json"
    assert main(["fitdist", "--in", str(pairs), "--model", str(model_path),
                 "--out", str(dist_path)]) == 0
    dist = json.loads(dist_path.read_text())
    ratio = np.array(dist["ratio"])
    assert np.all(np.diff(ratio) >= -1e-12)

    scores = tmp_path / "scores.csv"
    write_pairs_csv(scores, [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)],
                    header=("score", "label"))
    out_json = tmp_path / "eval.json"
    assert main(["evaluate", "--in", str(scores), "--out", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    assert report["auroc"] == 1.0


def test_fitdist_separated_toy_scores(tmp_path):
    scores = tmp_path / "toy.csv"
    write_pairs_csv(scores, [(0.95, 1)] * 20 + [(0.05, 0)] * 20,
                    header=("score", "label"))
    out = tmp_path / "dist.json"
    assert main(["fitdist", "--in", str(scores), "--out", str(out)]) == 0
    from hanlink.matcher import ScoreDistribution
    dist = ScoreDistribution.load(out)  # load validates monotone ratio
    assert dist.ratio_max > 1.0


def test_simulate_reproducible(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n_records": 120, "name_error_rate": 0.1,
                               "seed": 77}))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert sha256_dir(out1) == sha256_dir(out2)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"file_a.csv", "file_b.csv", "truth.csv"}


def test_simulate_writes_pinned_bytes(tmp_path):
    """The simulated record and truth files of a fixed seed keep their bytes."""
    cfg = tmp_path / "sim.json"
    cfg.write_text('{"n_records": 60, "seed": 1}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    digests = {name: digest[:16] for name, digest in sha256_dir(tmp_path / "sim").items()}
    assert digests == {"file_a.csv": "fb4654e4ecb8ad84", "file_b.csv": "edc26c6f8970cd0f",
                       "truth.csv": "7d4501dc08bee76b",
                       "manifest.json": digests["manifest.json"]}


def test_manifest_lists_only_the_files_the_command_wrote(tmp_path):
    """A manifest hashes the command's own outputs, not other files in the
    output directory: a note and the config beside a simulation, or a
    stale model.json beside a files-mode report."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    cfg = out / "sim.json"
    cfg.write_text('{"n_records": 60, "seed": 1}')
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"file_a.csv", "file_b.csv", "truth.csv"}
    (out / "model.json").write_text("{}", encoding="utf-8")
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({"data": {"file_a": str(out / "file_a.csv"),
                                            "file_b": str(out / "file_b.csv"),
                                            "truth": str(out / "truth.csv")}}))
    assert main(["experiment", "--config", str(exp_cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"report.json"}


@pytest.mark.parametrize("option", ["--seed", "--classifier"])
def test_experiment_takes_no_seed_or_classifier_option(tmp_path, capsys, option):
    """A study's seed and classifier are config keys only."""
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", "--config", "c.json", "--out", str(tmp_path / "r"), option, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_asset_directory_is_not_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("HANLINK_ASSETS", "/nonexistent")
    assert assets.load_bundle().directory == assets.default_asset_dir()


def test_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"name_error_rate": 7}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    assert "'name_error_rate' must be a number >= 0 and <= 1, not 7" in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    ({"nrecords": 9}, "unknown key 'nrecords'"),
    ({"n_records": 9.5}, "'n_records' must be an integer >= 1, not 9.5"),
    ({"field_error_rates": {"sex": 0.5}}, "unknown key 'field_error_rates'"),
    ({"n_records": 10 ** 12}, "'n_records' must be at most 1000000, not 1000000000000"),
    ([60], "must hold a JSON object"),
    ({"fields": ["sex", "sex"]}, "simulation key 'fields' lists 'sex' more than once"),
])
def test_simulate_rejects_malformed_config(tmp_path, capsys, config, message):
    """A simulation config key that is unknown, or a value of the wrong type
    or out of range, is an input error naming the key."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_experiment_files_mode(tmp_path, name_model):
    from hanlink.linkage import write_records
    from hanlink.simgen import SimConfig, generate_pair_files, write_truth
    sim = generate_pair_files(SimConfig(n_records=150, name_error_rate=0.1,
                                        seed=41), name_model)
    write_records(tmp_path / "a.csv", sim.records_a)
    write_records(tmp_path / "b.csv", sim.records_b)
    write_truth(tmp_path / "truth.csv", sim.truth)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "data": {"file_a": str(tmp_path / "a.csv"),
                 "file_b": str(tmp_path / "b.csv"),
                 "truth": str(tmp_path / "truth.csv")},
        "methods": ["exact"],
    }))
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "exact" in report["reports"]
    assert report["reports"]["exact"]["pi_m_true"] == pytest.approx(1 / 150)


def small_experiment(tmp_path, data=(), **config) -> Path:
    """Config file of an exact-method experiment on two three-record files
    linked one to one; `data` replaces entries of its 'data' section and
    keyword arguments set top-level keys."""
    from hanlink.linkage import write_records
    records = {f: ["a", "b", "c"] for f in ("name", "sex", "yob", "mob", "dob", "loc")}
    write_records(tmp_path / "a.csv", records)
    write_records(tmp_path / "b.csv", records)
    (tmp_path / "truth.csv").write_text("id_a,id_b\n0,0\n1,1\n2,2\n")
    files = {"file_a": str(tmp_path / "a.csv"), "file_b": str(tmp_path / "b.csv"),
             "truth": str(tmp_path / "truth.csv"), **dict(data)}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"data": files, "methods": ["exact"], **config}))
    return cfg


@pytest.mark.parametrize("rows", [["-1,2"], ["0,0", "0,1"]])
def test_experiment_rejects_bad_truth_links(tmp_path, capsys, rows):
    truth = tmp_path / "links.csv"
    truth.write_text("\n".join(["id_a,id_b", *rows]) + "\n")
    cfg = small_experiment(tmp_path, data={"truth": str(truth)})
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert f"truth link ({rows[-1].replace(',', ', ')})" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["name,sex,yob,mob,dob,loc\n", ""],
                         ids=["header-only", "no-header"])
def test_experiment_rejects_empty_record_file(tmp_path, capsys, text):
    """A record file with no records fails before any linkage work."""
    empty = tmp_path / "empty.csv"
    empty.write_text(text, encoding="utf-8")
    cfg = small_experiment(tmp_path, data={"file_a": str(empty)})
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert ("record files must be non-empty" if text else f"{empty}: empty file") \
        in capsys.readouterr().err


def test_experiment_requires_dist_for_fusion(tmp_path, name_model):
    from hanlink.linkage import write_records
    from hanlink.simgen import SimConfig, generate_pair_files, write_truth
    sim = generate_pair_files(SimConfig(n_records=50, seed=42), name_model)
    write_records(tmp_path / "a.csv", sim.records_a)
    write_records(tmp_path / "b.csv", sim.records_b)
    write_truth(tmp_path / "truth.csv", sim.truth)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "data": {"file_a": str(tmp_path / "a.csv"),
                 "file_b": str(tmp_path / "b.csv"),
                 "truth": str(tmp_path / "truth.csv")},
        "methods": ["posterior"],
        "classifier": "single:PY_COS_k3_1:N",
    }))
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2


def test_experiment_external_scores(tmp_path, name_model):
    from hanlink.linkage import write_records
    from hanlink.simgen import SimConfig, generate_pair_files, write_truth
    sim = generate_pair_files(SimConfig(n_records=120, name_error_rate=0.3,
                                        seed=43), name_model)
    write_records(tmp_path / "a.csv", sim.records_a)
    write_records(tmp_path / "b.csv", sim.records_b)
    write_truth(tmp_path / "truth.csv", sim.truth)
    # external score source: 1.0 for true pairs, 0.0 otherwise, all pairs listed
    ext = tmp_path / "ext.csv"
    b_of_a = {int(i): int(j) for i, j in sim.truth}
    with ext.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name_a", "name_b", "score"])
        seen = set()
        for i in range(120):
            for j in range(120):
                key = (sim.records_a["name"][i], sim.records_b["name"][j])
                if key in seen:
                    continue
                seen.add(key)
                writer.writerow([key[0], key[1],
                                 0.99 if b_of_a[i] == j else 0.01])
    toy = tmp_path / "toy_scores.csv"
    write_pairs_csv(toy, [(0.99, 1)] * 30 + [(0.01, 0)] * 30,
                    header=("score", "label"))
    dist = tmp_path / "dist.json"
    assert main(["fitdist", "--in", str(toy), "--out", str(dist)]) == 0
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "data": {"file_a": str(tmp_path / "a.csv"),
                 "file_b": str(tmp_path / "b.csv"),
                 "truth": str(tmp_path / "truth.csv")},
        "methods": ["exact", "posterior"],
        "classifier": f"external-scores:{ext}",
        "dist": str(dist),
    }))
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["reports"]["posterior"]["neg_log_lik"] <= \
        report["reports"]["exact"]["neg_log_lik"] + 1e-9


def assets_with_empty_pinyin(tmp_path) -> Path:
    """A copy of the packaged assets whose pinyin table holds no entry."""
    copy = tmp_path / "assets"
    shutil.copytree(assets.default_asset_dir(), copy)
    (copy / "pinyin.tsv").write_text("# emptied\n", encoding="utf-8")
    return copy


def test_exact_experiment_reads_no_asset_file(tmp_path, monkeypatch):
    """Exact agreement needs no lookup table: with every asset loader
    refusing, an exact-only experiment exits 0 and writes the report and
    manifest of an unhindered run; the manifest still hashes each file."""
    cfg = small_experiment(tmp_path)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "free")]) == 0
    def refuse(*args, **kwargs):
        raise RuntimeError("asset file read")
    for owner, name in ((encoding, "load_encoding_table"), (assets, "load_encoding_table"),
                        (assets, "load_surnames"), (encoding.FrequencyTable, "load")):
        monkeypatch.setattr(owner, name, refuse)
    bundles = []
    def spy(path):
        bundles.append(assets.load_bundle(path))
        return bundles[-1]
    monkeypatch.setattr(cli, "load_bundle", spy)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "lazy")]) == 0
    assert not {"tables", "surnames", "freq", "corpus"} & vars(bundles[0]).keys()
    assert not bundles[0]._tables
    assert sha256_dir(tmp_path / "lazy") == sha256_dir(tmp_path / "free")
    manifest = json.loads((tmp_path / "lazy" / "manifest.json").read_text())
    assert "pinyin.tsv" in manifest["asset_versions"]


def test_malformed_asset_table_fails_only_runs_that_use_it(tmp_path, capsys):
    """An emptied pinyin table: an exact-only run exits 0 and its manifest
    lists the emptied file's hash; a run scoring names with a pinyin
    feature exits 2 and names the file."""
    copy = assets_with_empty_pinyin(tmp_path)
    cfg = small_experiment(tmp_path)
    out = tmp_path / "exact"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--assets", str(copy)]) == 0
    digest = hashlib.sha256((copy / "pinyin.tsv").read_bytes()).hexdigest()[:12]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["asset_versions"]["pinyin.tsv"] == digest
    toy = tmp_path / "toy_scores.csv"
    write_pairs_csv(toy, [(0.99, 1), (0.01, 0)] * 5, header=("score", "label"))
    dist = tmp_path / "dist.json"
    assert main(["fitdist", "--in", str(toy), "--out", str(dist)]) == 0
    capsys.readouterr()
    fused = small_experiment(tmp_path, methods=["exact", "tau1"], dist=str(dist),
                             classifier="single:PY_LV_k1_1:N")
    assert main(["experiment", "--config", str(fused), "--out", str(tmp_path / "fused"),
                 "--assets", str(copy)]) == 2
    assert f"no valid entries in encoding table {copy / 'pinyin.tsv'}" in capsys.readouterr().err
    assert not (tmp_path / "fused" / "report.json").exists()


def test_experiment_study_reproducible(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "simulate": {"n_records": 150, "name_error_rate": 0.2},
        "replicates": 1,
        "methods": ["exact", "posterior"],
        "classifier": "single:PY_COS_k3_1:N",
        "train": {"n_nonmatch_score_pairs": 1500},
    }))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert sha256_dir(out1) == sha256_dir(out2)



@pytest.mark.parametrize("labels,message", [
    ((0, 1), "the dev split (1 of 2 labeled rows)"),
    ((0, 1, 1, 1, 0, 1, 1, 0, 0, 1), "the dev split (4 of 10 labeled rows)"),
    ((0, 1, 1, 1, 1), "the training split (3 of 5 labeled rows)"),
], ids=["dev-1-of-2", "dev-4-of-10", "training-3-of-5"])
def test_train_rejects_single_class_split(tmp_path, capsys, labels, message):
    """A dev or training split holding one label, cut at the fixed
    DEV_FRACTION, is an input error naming the split and its size, not a
    failure inside the trainer. At --seed 1 the ten-row case's dev split
    is the zero-labeled rows only at DEV_FRACTION 0.4, so it pins the cut."""
    features = tmp_path / "features.csv"
    features.write_text("J_LV_k1_1:N,han_category,label\n" + "".join(
        f"{0.2 + 0.6 * label},BothHan,{label}\n" for label in labels), encoding="utf-8")
    assert main(["train", "--in", str(features), "--out", str(tmp_path / "model.json"),
                 "--seed", "1"]) == 2
    assert f"error: {message} must contain both labels" in capsys.readouterr().err


def test_study_rejects_single_class_dev_split(tmp_path, capsys):
    """A study's dev split is cut and checked as `hanlink train` cuts it:
    with one sampled nonmatch, a split misses a label."""
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"seed": 3, "simulate": {"n_records": 60},
                               "methods": ["exact", "tau1"],
                               "train": {"n_nonmatch_name_pairs": 1}}))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert ("error: the dev split (1 of 3 labeled rows) must contain "
            "both labels") in capsys.readouterr().err


def test_study_without_name_errors_names_the_rate(tmp_path, capsys):
    """A trained study whose dev simulation has no true match with differing
    names says that the name error rate left the matcher no positive pair,
    rather than blaming the dev split."""
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"seed": 3, "simulate": {"n_records": 60, "name_error_rate": 0},
                               "methods": ["exact", "tau1"],
                               "train": {"n_nonmatch_name_pairs": 50}}))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert ("error: config key 'simulate.name_error_rate': no true match of the dev "
            "simulation (60 records) has differing names") in capsys.readouterr().err


@pytest.mark.parametrize("rows,options,status,expected", [
    ("0.9,1\n0.8,1\n0.4,0\n0.7,1\n", [], 0, '"q": 1.0'),
    ("0.9,1\n0.1,1\n", [], 2, "error: both classes must carry positive mass"),
    ("0.9,1\n0.1,0\n", ["--q", "0"], 2, "error: --q must be a number > 0 and <= 1, not 0.0"),
])
def test_evaluate_default_q(tmp_path, capsys, rows, options, status, expected):
    """Without --q, evaluate takes the ranking's default q, the odds capped
    at 1; a one-class file and --q 0 are input errors."""
    scores = tmp_path / "scores.csv"
    scores.write_text("score,label\n" + rows, encoding="utf-8")
    assert main(["evaluate", "--in", str(scores)] + options) == status
    captured = capsys.readouterr()
    assert expected in (captured.out if status == 0 else captured.err)

MALFORMED_CSV = {
    "train": ("J_LV_k1_1:N,han_category,label\n0.5,BothHan,1\n0.5,BothHan\n",
              "line 3: 2 cells"),
    "train-label": ("J_LV_k1_1:N,han_category,label\n0.5,BothHan,1\n0.5,BothHan,2\n",
                    "line 3, column 'label': bad cell '2'"),
    "train-feature-nan": ("J_LV_k1_1:N,han_category,label\n0.5,BothHan,1\nnan,BothHan,0\n",
                          "line 3, column 'J_LV_k1_1:N': bad cell 'nan'"),
    "train-category": ("J_LV_k1_1:N,han_category,label\n0.5,BothHan,1\n0.5,Foo,0\n",
                       "line 3, column 'han_category': bad cell 'Foo'"),
    "features-label": ("name_a,name_b,label\n伍考,伍考,1\n李华,李,2\n",
                       "line 3, column 'label': bad cell '2'"),
    "evaluate": ("score,label\n0.9,1\n0.1\n", "line 3: 1 cells"),
    "evaluate-score": ("score,label\n0.9,1\n0.x,0\n", "line 3, column 'score': bad cell '0.x'"),
    "evaluate-quoted-newline": ('score,label\n"0.9\n",1\n0.x,0\n',
                                "line 4, column 'score': bad cell '0.x'"),
    "evaluate-label": ("score,label\n0.9,1\n0.1,2\n", "line 3, column 'label': bad cell '2'"),
    "evaluate-nan": ("score,label\n0.9,1\nnan,0\n", "line 3, column 'score': bad cell 'nan'"),
    "evaluate-inf": ("score,label\n0.9,1\ninf,0\n", "line 3, column 'score': bad cell 'inf'"),
    "evaluate-above-one": ("score,label\n0.9,1\n1.5,0\n",
                           "line 3, column 'score': bad cell '1.5'"),
    "fitdist-nan": ("score,label\n0.9,1\nnan,0\n", "line 3, column 'score': bad cell 'nan'"),
    "external-scores-above-one": ("name_a,name_b,score\na,b,1.5\n",
                                  "line 2, column 'score': bad cell '1.5'"),
    "fitdist-scores": ("score,label\n0.9,1\n0.1\n", "line 3: 1 cells"),
    "fitdist-label": ("score,label\n0.9,1\n0.1,2\n", "line 3, column 'label': bad cell '2'"),
    "fitdist-score": ("score,label\n0.9,1\n0_0.5,0\n", "line 3, column 'score': bad cell '0_0.5'"),
    "fitdist-pairs": ("name_a,name_b,label\n伍考,伍考,1\n李华,李\n", "line 3: 2 cells"),
    "external-scores": ("name_a,name_b,score\na,b,0.5\na\n", "line 3: 1 cells"),
    "external-scores-empty": ("", "empty file"),
    "truth-cell": ("id_a,id_b\n0,x\n1,1\n2,2\n", "line 2, column 'id_b': bad cell 'x'"),
    "truth-underscore": ("id_a,id_b\n0,0\n1,1_0\n2,2\n", "line 3, column 'id_b': bad cell '1_0'"),
    "truth-fullwidth": ("id_a,id_b\n0,0\n\uff11,1\n2,2\n",
                        "line 3, column 'id_a': bad cell '\uff11'"),
    "truth-blank-line": ("id_a,id_b\n0,0\n\n1,1\n2,2\n", "line 3: 0 cells, expected 2"),
    "records-repeated-column": ("name,sex,yob,mob,dob,loc,sex\na,a,a,a,a,a,b\n",
                                "header names a column twice"),
    "records-extra-cell": ("name,sex,yob,mob,dob,loc\na,a,a,a,a,a\nb,b,b,b,b,b,x\nc,c,c,c,c,c\n",
                           "line 3: 7 cells, expected 6"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_input_exits_2(tmp_path, capsys, case):
    """A ragged row, a rejected cell or an empty file is an input error
    naming the file, and the line, column and cell at fault."""
    text, message = MALFORMED_CSV[case]
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    command = case.split("-")[0]
    if command == "external":
        cfg = small_experiment(tmp_path, methods=["exact", "posterior"],
                               classifier=f"external-scores:{bad}",
                               dist=str(tmp_path / "dist.json"))
        argv = ["experiment", "--config", str(cfg), "--out", out]
    elif command in ("truth", "records"):
        cfg = small_experiment(tmp_path, data={"truth" if command == "truth" else "file_a":
                                               str(bad)})
        argv = ["experiment", "--config", str(cfg), "--out", out]
    elif case == "fitdist-pairs":
        from hanlink.matcher import MatcherModel
        from hanlink.compare import FeatureSpec
        model = tmp_path / "model.json"
        MatcherModel.single_feature(FeatureSpec.from_name("J_LV_k1_1:N")).save(model)
        argv = ["fitdist", "--in", str(bad), "--model", str(model), "--out", out]
    else:
        argv = [command, "--in", str(bad), "--out", out]
    assert main(argv) == 2
    assert f"{bad}{',' if 'line' in message else ':'} {message}" in capsys.readouterr().err


def test_no_option_repeats_a_config_key(tmp_path, capsys):
    """An experiment's methods and a simulation's seed are config keys
    only: --method and --seed are unknown options, and the retired singular
    'method' key is an input error. The matcher's ridge penalty, dev
    fraction and score bins are constants of `matcher`: --penalty,
    --dev-fraction and --bins are unknown options too."""
    for argv in (["experiment", "--config", "c.json", "--method", "exact"],
                 ["simulate", "--seed", "1"],
                 ["train", "--in", "f.csv", "--penalty", "0.1"],
                 ["train", "--in", "f.csv", "--dev-fraction", "0.4"],
                 ["fitdist", "--in", "s.csv", "--bins", "10"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"seed": 3, "simulate": {"n_records": 80}, "method": "exact"}))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert "'methods'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists() and not (tmp_path / "t").exists()


FILES = {"data": {"file_a": "a.csv", "file_b": "b.csv", "truth": "truth.csv"}}
STUDY = {"seed": 3, "simulate": {"n_records": 60}}
MALFORMED_CONFIG = {
    "misspelt-key": ({**FILES, "candiate_floor": 0.5}, "unknown key 'candiate_floor'"),
    "misspelt-floor": ({**FILES, "flor": 3}, "unknown key 'flor'"),
    "misspelt-simulate-key": ({"simulate": {"nrecords": 9}}, "unknown key 'nrecords'"),
    "simulate-seed": ({"simulate": {"seed": 4}}, "'simulate.seed'"),
    "simulate-rate": ({"simulate": {"name_error_rate": 2}}, "'name_error_rate'"),
    "simulate-field-twice": ({"simulate": {"fields": ["sex", "sex"]}},
                             "simulation key 'fields' lists 'sex' more than once"),
    "simulate-error-model": ({"simulate": {"error_type_probs": {"complex": 1}}},
                             "unknown key 'error_type_probs'"),
    "simulate-records-beyond-cap": ({"simulate": {"n_records": 10 ** 12}},
                                    "'n_records' must be at most 1000000"),
    "no-replicates": ({**STUDY, "replicates": 0}, "'replicates' must be an integer >= 1"),
    "files-no-methods": ({**FILES, "methods": []}, "'methods' must list"),
    "study-no-methods": ({**STUDY, "methods": []}, "'methods' must list"),
    "misspelt-method": ({**FILES, "methods": ["exact", "exakt"]}, "'exakt'"),
    "repeated-method": ({**STUDY, "methods": ["exact", "exact"]}, "'methods' must list"),
    "both-sections": ({**STUDY, **FILES}, "both a 'simulate' and a 'data' section"),
    "negative-workers": ({**STUDY, "workers": -3}, "'workers' must be an integer >= 1"),
    "study-q": ({**STUDY, "q": 1.5}, "unknown key 'q'"),
    "files-floor": ({**FILES, "floor": "0.5"}, "'floor' must be a number"),
    "files-train-classifier": ({**FILES, "methods": ["exact", "tau1"], "dist": "d.json",
                                "classifier": "logistic:train"}, "'classifier'"),
    "study-external-scores": ({**STUDY, "classifier": "external-scores:x.csv"},
                              "'classifier'"),
    "files-no-dist": ({**FILES, "methods": ["posterior"], "classifier": "single:J_LV_k1_1:N"},
                      "'dist'"),
    "dist-in-study": ({**STUDY, "dist": "d.json"}, "'dist' belongs to files mode"),
    "workers-in-files": ({**FILES, "workers": 2}, "'workers' belongs to a study"),
    "data-without-file_b": ({"data": {"file_a": "a.csv", "truth": "t.csv"}}, "'file_b'"),
    "fields-without-name": ({**FILES, "fields": ["sex", "yob"]}, "must include 'name'"),
    "train-key": ({**STUDY, "train": {"bin": 3}}, "unknown key 'bin'"),
    "train-fraction": ({**STUDY, "train": {"dev_fraction": 0.4}}, "unknown key 'dev_fraction'"),
    "retired-method-key": ({**FILES, "method": "exact"}, "'methods'"),
    "null-floor": ({**STUDY, "floor": None}, "'floor' is null"),
    "null-file": ({"data": {**FILES["data"], "truth": None}}, "lacks 'truth'"),
    "files-q": ({**FILES, "q": 0.5}, "unknown key 'q'"),
    "assets-dir": ({**STUDY, "assets_dir": "assets"}, "unknown key 'assets_dir'"),
    "train-penalty": ({**STUDY, "train": {"penalty": 0.1}}, "unknown key 'penalty'"),
    "train-bins": ({**STUDY, "train": {"bins": 10}}, "unknown key 'bins'"),
    "floor-beyond-float": ({**FILES, "candidate_floor": 10 ** 400},
                           "config key 'candidate_floor' must be a number >= 0 and <= 1"),
    "train-pairs-beyond-float": ({**STUDY, "train": {"n_nonmatch_name_pairs": 10 ** 400}},
                                 "config key 'train.n_nonmatch_name_pairs' must be an "
                                 "integer >= 1 and <= 100000000"),
    "train-pairs-beyond-cap": ({**STUDY, "train": {"n_nonmatch_score_pairs": 10 ** 12}},
                               "config key 'train.n_nonmatch_score_pairs' must be an "
                               "integer >= 1 and <= 100000000, not 1000000000000"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIG))
def test_malformed_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch, case):
    """A malformed experiment config is an input error naming the key, found
    before assets load, a record file is read or a name model is built."""
    def no_work(*args, **kwargs):
        raise RuntimeError("work started")
    for owner, name in ((cli, "load_bundle"), (cli, "read_records"),
                        (exp, "build_name_model")):
        monkeypatch.setattr(owner, name, no_work)
    config, message = MALFORMED_CONFIG[case]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert message in capsys.readouterr().err


def test_study_rejects_malformed_config_before_name_model(monkeypatch):
    """`run_study`, called as a library, checks its config first too."""
    monkeypatch.setattr(exp, "build_name_model", None)
    with pytest.raises(exp.InputError, match="'replicates'"):
        exp.run_study({**STUDY, "replicates": 0})


def test_internal_value_error_exits_1(tmp_path, capsys, monkeypatch):
    """A ValueError from inside the pipeline is a bug, not bad input: exit 1."""
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")
    monkeypatch.setattr(exp, "em_fit", broken)
    cfg = small_experiment(tmp_path)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "failure: broken invariant" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("selector,message", [
    ("single:PY_FOO_k1_1:N", "unknown comparator 'FOO'"),
    ("single:LF_SUM_k1_1:2", "single-feature matcher takes one feature"),
    ("single:AMB_SUM_k1_1:N", "single-feature matcher takes one feature"),
    ("single:HAN_CAT_k1_1:N", "single-feature matcher takes one feature"),
    ("single:", "takes single:<feature>"),
    ("train:x", "takes single:<feature>"),
])
@pytest.mark.parametrize("mode", ["files", "study"])
def test_bad_selector_fails_before_any_file_is_read(tmp_path, capsys, monkeypatch, selector,
                                                     message, mode):
    """A selector naming no feature, or one whose values leave [0, 1], is an
    input error naming the key before a record file is read (files mode) or
    the name model is built (a study)."""
    def no_work(*args, **kwargs):
        raise RuntimeError("work started")
    monkeypatch.setattr(cli, "read_records", no_work)
    monkeypatch.setattr(exp, "build_name_model", no_work)
    if mode == "files":
        cfg = small_experiment(tmp_path, methods=["exact", "tau1"], classifier=selector,
                               dist="dist.json")
    else:
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({**STUDY, "classifier": selector}))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config key 'classifier'" in err and message in err


def test_single_model_file_with_unbounded_feature_exits_2(tmp_path, capsys):
    """A model JSON of kind single holds one bounded feature, as single:
    does; a SUM feature loaded through logistic:<path> is an input error
    naming the file."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "kind": "single", "specs": [
        {"comparator": "SUM", "encoding": "LF", "k": 1, "range": "1:2"}]}))
    cfg = small_experiment(tmp_path, methods=["exact", "tau1"],
                           classifier=f"logistic:{model}", dist="dist.json")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert f"{model}: a single-feature matcher takes one feature" in capsys.readouterr().err


@pytest.mark.parametrize("command,option,value,message", [
    ("train", "--seed", "-1", "--seed must be an integer >= 0, not -1"),
    ("experiment", "--workers", "-3", "--workers must be an integer >= 1, not -3"),
    ("experiment", "--workers", "0", "--workers must be an integer >= 1, not 0"),
    ("train", "--in", "labels.csv", "labels.csv: no feature columns"),
    ("train", "--in", "typo.csv", "typo.csv: feature 'PY_FOO_k1_1:N': unknown comparator 'FOO'"),
    ("train", "--in", "pairs.csv", "pairs.csv: malformed feature name 'name_a'"),
    ("train", "--in", "cell.csv", "cell.csv, line 3, column 'J_LV_k1_1:N': bad cell 'x'"),
    ("train", "--in", "digits.csv", "digits.csv, line 2, column 'J_LV_k1_1:N': bad cell '0_0.5'"),
    ("evaluate", "--q", "2", "--q must be a number > 0 and <= 1, not 2.0"),
])
def test_command_line_numbers_checked(tmp_path, monkeypatch, capsys, command, option, value,
                                      message):
    """A number given on the command line is checked as the config reader
    checks the same setting, before any work, and a feature file without
    feature columns, with a malformed feature name (found before any cell is
    parsed, so a name pair file's text is not read as numbers) or with a
    feature cell that is not a number is rejected: exit 2 naming the option
    or the file."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    Path("labels.csv").write_text("han_category,label\nBothHan,0\nBothHan,1\n",
                                  encoding="utf-8")
    Path("typo.csv").write_text("PY_FOO_k1_1:N,label\n0.2,0\n0.8,1\n", encoding="utf-8")
    Path("pairs.csv").write_text("name_a,name_b,label\n张三,张山,1\n", encoding="utf-8")
    Path("cell.csv").write_text("J_LV_k1_1:N,label\n0.2,0\nx,1\n", encoding="utf-8")
    Path("digits.csv").write_text("J_LV_k1_1:N,label\n0_0.5,0\n0.8,1\n", encoding="utf-8")
    Path("features.csv").write_text("J_LV_k1_1:N,han_category,label\n" + "".join(
        f"{0.2 + 0.6 * (k % 2)},BothHan,{k % 2}\n" for k in range(8)), encoding="utf-8")
    Path("scores.csv").write_text("score,label\n0.9,1\n0.1,0\n", encoding="utf-8")
    Path("study.json").write_text(json.dumps({**STUDY, "methods": ["exact"]}))
    argv = {"train": ["--in", "features.csv"], "fitdist": ["--in", "scores.csv"],
            "experiment": ["--config", "study.json"],
            "evaluate": ["--in", "scores.csv"]}[command]
    assert main([command, *argv, "--out", str(out), option, value]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


NUMPY_MA_PROBE = r'''
import csv, json, sys
from hanlink.cli import main

imported = []  # the steps after which numpy.ma had been imported
def step(name, argv=None):
    if argv is not None and main(argv) != 0:
        sys.exit(f"{name} failed")
    if "numpy.ma" in sys.modules:
        imported.append(name)

step("import hanlink.cli")
json.dump({"n_records": 60, "name_error_rate": 0.5, "seed": 1}, open("sim.json", "w"))
step("simulate", ["simulate", "--config", "sim.json", "--out", "sim"])
with open("toy.csv", "w") as handle:
    handle.write("score,label\n0.9,1\n0.8,1\n0.4,0\n0.2,0\n")
step("fitdist", ["fitdist", "--in", "toy.csv", "--out", "dist.json"])
json.dump({"data": {"file_a": "sim/file_a.csv", "file_b": "sim/file_b.csv",
                    "truth": "sim/truth.csv"},
           "methods": ["exact", "tau1", "tau2", "posterior"],
           "classifier": "single:PY_LV_k1_1:N", "dist": "dist.json", "candidate_floor": 0},
          open("files.json", "w"))
step("files-mode experiment", ["experiment", "--config", "files.json", "--out", "files"])
json.dump({"simulate": {"n_records": 60, "name_error_rate": 0.5}, "seed": 3,
           "train": {"n_nonmatch_name_pairs": 50, "n_nonmatch_score_pairs": 50}},
          open("study.json", "w"))
step("study", ["experiment", "--config", "study.json", "--out", "study", "--workers", "1"])
def column(path, name):
    with open(path, encoding="utf-8", newline="") as handle:
        return [row[name] for row in csv.DictReader(handle)]
a, b = column("sim/file_a.csv", "name"), column("sim/file_b.csv", "name")
links = list(zip(map(int, column("sim/truth.csv", "id_a")),
                 map(int, column("sim/truth.csv", "id_b"))))
with open("pairs.csv", "w", encoding="utf-8", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["name_a", "name_b", "label"])
    for k, (i, j) in enumerate(links):
        writer.writerow([a[i], b[j], 1])
        writer.writerow([a[i], b[links[(k + 7) % len(links)][1]], 0])
step("features", ["features", "--in", "pairs.csv", "--out", "features.csv"])
step("train", ["train", "--in", "features.csv", "--out", "model.json"])
print(json.dumps(imported))
'''


def test_no_command_imports_numpy_ma(tmp_path):
    """numpy.ma takes 8-14 ms to import on a 2-vCPU host and no command
    needs it; a bare `np.unique(x)` imports it, and so do set operations
    such as `np.isin` that call one. A fresh process that imports the CLI
    and runs a files-mode experiment with all four methods, a train and a
    study with one worker never imports it."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_fused_report_pinned(tmp_path, monkeypatch):
    """`hanlink experiment` with all four methods on simulated files, a
    fixed logistic matcher over cosine, Levenshtein and LCS features of
    every string encoding, and a score distribution fitted on fixed scores:
    report.json keeps its bytes. The other experiment tests compare runs
    with each other, which a featurizer, tau2 or posterior kernel that
    rounds differently would pass."""
    from hanlink.matcher import MatcherModel
    monkeypatch.chdir(tmp_path)  # the report records the config's relative file names
    Path("sim.json").write_text('{"n_records": 300, "name_error_rate": 0.3, "seed": 5}')
    assert main(["simulate", "--config", "sim.json", "--out", "sim"]) == 0
    specs = tuple(FeatureSpec.from_name(name) for name in (
        "FC_COS_k3_1:N", "PY_COS_k2_1:2", "RD_LV_k1_1:N", "J_LV_k1_1:1", "RDS_COS_k3_1:1",
        "WB_LCS_k1_2:N"))
    MatcherModel(kind="logistic", specs=specs, intercepts=np.array([-6.0, -7.0, -6.5]),
                 coefs=np.array([[3.0, 2.0, 4.0, 1.0, 1.5, 2.0], [2.5, 2.5, 3.0, 2.0, 1.0, 1.0],
                                 [3.0, 1.0, 3.5, 1.5, 2.0, 1.5]])).save(Path("model.json"))
    write_pairs_csv(Path("scores.csv"), [(0.4 + 0.6 * i / 59, 1) for i in range(60)]
                    + [(0.8 * (i / 99) ** 2, 0) for i in range(100)], header=("score", "label"))
    assert main(["fitdist", "--in", "scores.csv", "--out", "dist.json"]) == 0
    Path("exp.json").write_text(json.dumps({
        "data": {name: f"sim/{name}.csv" for name in ("file_a", "file_b", "truth")},
        "methods": ["exact", "tau1", "tau2", "posterior"],
        "classifier": "logistic:model.json", "dist": "dist.json"}))
    assert main(["experiment", "--config", "exp.json", "--out", "run"]) == 0
    assert hashlib.sha256(Path("run/report.json").read_bytes()).hexdigest() == (
        "2a1ad028efdc3275c08ddc1c5200bf37e2f369bc70b33266a8bc849e93ae83ad")
