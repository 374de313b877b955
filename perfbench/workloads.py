"""Workload inputs, the timed workload calls, and the spans around them.

Every hanlink call goes through its module attribute (`experiment.run_methods`,
not a name imported here), so the wrappers installed by `spans.install` see it.
"""
from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np

from hanlink import (assets, cli, compare, experiment, fuse, linkage, matcher,
                     metrics, simgen)

FIELDS = ("name", "sex", "yob", "mob", "dob", "loc")
METHODS = ("exact", "tau1", "tau2", "posterior")

# link_exact: ~10k x 10k = 1e8 pairs, tabulation dominates.
EXACT_RECORDS = 10_000
# link_fused: ~32k candidate pairs at n=2500. The default candidate floor
# (0.01) sits on the boundary of an ~8k-pair pattern row, so the candidate
# set jumps between seeds; 0.002 lies in a gap of the rows' best posteriors.
FUSED_RECORDS = 2_500
FUSED_CANDIDATE_FLOOR = 0.002
# The link_fused matcher is a logistic fit (`matcher.train_logistic`) over
# these six fixed features on a dev sim from a fixed seed, so the per-pair
# work cannot change with a float-level change to training or comparators.
FUSED_SPECS = ("FC_COS_k3_1:N", "PY_COS_k3_1:2", "RD_LV_k1_1:N",
               "PY_COS_k2_1:1", "J_LV_k1_1:1", "RDS_COS_k3_1:1")
FUSED_TRAIN_SIM = {"n_records": 400, "name_error_rate": 0.5}
FUSED_TRAIN_SEED = 6
FUSED_TRAIN_OPTS = {"n_nonmatch_score_pairs": 2000}
# study: name model + 146-feature featurization of ~1k training pairs +
# forward/backward selection, then one 1000-record replicate. The trained
# score distribution's ratio_max ranges over 300..5500 between seeds, which
# moves a ~5k-pair pattern row across the default 0.01 candidate floor; a
# 0.5 floor keeps the replicate's scored pairs in the hundreds on every seed.
# tau2 (a fixed ~1 s grid search) is timed by link_fused; leaving it out
# here keeps a round near 9 s, so a run holds three rounds.
STUDY_SIM = {"n_records": 1000, "name_error_rate": 0.05}
STUDY_TRAIN_OPTS = {"n_nonmatch_name_pairs": 1000, "n_nonmatch_score_pairs": 3000}
STUDY_FLOOR = 0.5
STUDY_METHODS = ("exact", "tau1", "posterior")

WORKLOADS = ("link_exact", "link_fused", "study")


# ---------------------------------------------------------------------------
# Inputs


def build_shared(build_dir: Path) -> None:
    """Seed-independent inputs: the simulator's name model and the
    link_fused matcher and score distribution."""
    build_dir.mkdir(parents=True, exist_ok=True)
    bundle = assets.load_bundle()
    name_model = simgen.build_name_model(bundle.corpus, bundle.tables)
    sim = simgen.generate_pair_files(
        simgen.SimConfig(seed=FUSED_TRAIN_SEED, **FUSED_TRAIN_SIM), name_model)
    names_a, names_b = sim.records_a["name"], sim.records_b["name"]
    ta, tb = sim.truth[:, 0], sim.truth[:, 1]
    pos = [(names_a[i], names_b[j]) for i, j in zip(ta, tb) if names_a[i] != names_b[j]]
    neg = [(names_a[i], names_b[j]) for i, j in zip(ta, np.roll(tb, 7))]
    specs = tuple(compare.FeatureSpec.from_name(name) for name in FUSED_SPECS)
    featurizer = compare.PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                                        specs=specs)
    X, cats = featurizer.feature_matrix(pos + neg)
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    matcher.train_logistic((X, cats, y), specs).save(build_dir / "model.json")
    _, dist, _ = experiment.train_matcher_and_dist(
        bundle, name_model, FUSED_TRAIN_SIM, FUSED_TRAIN_SEED,
        "logistic:" + str(build_dir / "model.json"), FUSED_TRAIN_OPTS)
    dist.save(build_dir / "dist.json")
    tmp = build_dir / "name_model.pkl.tmp"
    tmp.write_bytes(pickle.dumps(name_model))
    tmp.replace(build_dir / "name_model.pkl")  # written last: marks the build done


def prepare(workload: str, seed: int, run_dir: Path, build_dir: Path) -> dict:
    """Write the workload's input files into run_dir; returns its config."""
    run_dir.mkdir(parents=True, exist_ok=True)
    if workload == "study":
        return {"seed": seed, "simulate": dict(STUDY_SIM), "replicates": 1,
                "workers": 1, "methods": list(STUDY_METHODS),
                "train": dict(STUDY_TRAIN_OPTS), "floor": STUDY_FLOOR,
                "candidate_floor": STUDY_FLOOR}
    if not (build_dir / "name_model.pkl").exists():
        build_shared(build_dir)
    name_model = pickle.loads((build_dir / "name_model.pkl").read_bytes())
    n = EXACT_RECORDS if workload == "link_exact" else FUSED_RECORDS
    sim = simgen.generate_pair_files(simgen.SimConfig(n_records=n, seed=seed), name_model)
    linkage.write_records(run_dir / "file_a.csv", sim.records_a)
    linkage.write_records(run_dir / "file_b.csv", sim.records_b)
    simgen.write_truth(run_dir / "truth.csv", sim.truth)
    config = {"data": {"file_a": "file_a.csv", "file_b": "file_b.csv",
                       "truth": "truth.csv"},
              "fields": list(FIELDS)}
    if workload == "link_exact":
        config["methods"] = ["exact"]
        return config
    for name in ("model.json", "dist.json"):
        (run_dir / name).write_bytes((build_dir / name).read_bytes())
    config.update(methods=list(METHODS), classifier="logistic:model.json",
                  dist="dist.json", candidate_floor=FUSED_CANDIDATE_FLOOR)
    return config


# ---------------------------------------------------------------------------
# The timed work


def run(config: dict) -> dict:
    """`hanlink experiment` on config, from the directory that holds its files."""
    if "simulate" in config:
        return experiment.run_study(config, workers=1)
    return cli._experiment_files(config, None, assets.load_bundle())


def canonical(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Spans and counters


def _count_tabulate(c, args, kwargs, out):
    table, _ = out
    c["experiment.pairs_tabulated"] += int(table.counts.sum())
    c["experiment.patterns"] += len(table.counts)


def _count_em(c, args, kwargs, out):
    c["linkage.em_fits"] += 1
    c["linkage.em_iterations"] += int(out.iterations)


def _count_candidates(c, args, kwargs, out):
    c["experiment.candidate_pairs"] += len(out[0])


def _count_scorer(c, args, kwargs, out):
    pairs = args[1]
    c["experiment.scorer_pairs"] += len(pairs)
    c["experiment.scorer_unique_pairs"] += len(set(pairs))


def _count_features(c, args, kwargs, out):
    featurizer, pairs = args[0], args[1]
    specs = args[2] if len(args) > 2 else kwargs.get("specs")
    n_specs = len(featurizer.specs if specs is None else specs)
    c["compare.pairs_featurized"] += len(pairs)
    c["compare.feature_values"] += len(pairs) * n_specs


def _count_fit(c, args, kwargs, out):
    c["matcher.logistic_fits"] += 1


def _count_selected(c, args, kwargs, out):
    c["matcher.features_selected"] += len(out.specs)


def targets(traced: bool) -> list[tuple]:
    """(owner, attribute, span name, keep results for checks?, counter)."""
    keep = [
        (experiment.LinkageDataset, "tabulate", "experiment.tabulate", True, _count_tabulate),
        (linkage, "em_fit", "linkage.em_fit", True, _count_em),
        (experiment.NamePairScorer, "scores", "experiment.scorer", True, _count_scorer),
        (simgen, "generate_pair_files", "simgen.generate_pair_files", True, None),
        (matcher, "fit_score_distributions", "matcher.fit_dist", True, None),
    ]
    if not traced:
        return keep
    timed_only = [
        (assets, "load_bundle", "assets.load_bundle", False, None),
        (simgen, "build_name_model", "simgen.build_name_model", False, None),
        (linkage, "read_records", "linkage.read_records", False, None),
        (experiment.LinkageDataset, "__init__", "experiment.dataset", False, None),
        (experiment.LinkageDataset, "candidate_pairs", "experiment.candidate_enum",
         False, _count_candidates),
        (experiment, "run_methods", "experiment.run_methods", False, None),
        (experiment, "train_matcher_and_dist", "experiment.train_matcher_and_dist",
         False, None),
        (experiment, "run_study", "experiment.run_study", False, None),
        (compare.PairFeaturizer, "feature_matrix", "compare.feature_matrix", False,
         _count_features),
        (matcher, "train_matcher", "matcher.train_matcher", False, _count_selected),
        (matcher, "train_logistic", "matcher.train_logistic", False, _count_fit),
        (matcher.MatcherModel, "predict_matrix", "matcher.predict", False, None),
        (fuse, "tau1_select", "fuse.tau1_select", False, None),
        (fuse, "tau2_select", "fuse.tau2_select", False, None),
        (fuse, "posterior_adjust", "fuse.posterior_adjust", False, None),
    ]
    ranking = [(metrics, name, "metrics.ranking", False, None)
               for name in ("auroc", "eauroc", "confusion_at_proportion",
                            "grouped_log_loss", "log_loss")]
    return keep + timed_only + ranking


# Per-layer metrics: span self times (seconds) and counters.
SPAN_METRICS = (
    "assets.load_bundle", "simgen.build_name_model", "simgen.generate_pair_files",
    "linkage.read_records", "linkage.em_fit", "experiment.dataset",
    "experiment.tabulate", "experiment.candidate_enum", "experiment.scorer",
    "experiment.run_methods", "experiment.train_matcher_and_dist",
    "experiment.run_study", "compare.feature_matrix", "matcher.train_matcher",
    "matcher.train_logistic", "matcher.predict", "matcher.fit_dist",
    "fuse.tau1_select", "fuse.tau2_select", "fuse.posterior_adjust",
    "metrics.ranking",
)
COUNT_METRICS = (
    "linkage.em_fits", "linkage.em_iterations", "experiment.pairs_tabulated",
    "experiment.patterns", "experiment.candidate_pairs", "experiment.scorer_pairs",
    "experiment.scorer_unique_pairs", "compare.pairs_featurized",
    "compare.feature_values", "matcher.logistic_fits", "matcher.features_selected",
)
