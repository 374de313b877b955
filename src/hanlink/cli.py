"""Command-line front end.

Commands: features, train, fitdist, simulate, experiment, evaluate.

Exit codes: 0 success; 2 an `InputError` or a missing file, a fault in
what the user gave; 1 anything else, which is a bug. Each file format has
one reader and one writer, in `linkage`: CSV files are read by `CsvTable`,
whose `InputError` names the file and the line, column and cell at fault,
and written by `write_csv`; JSON files (configs, models, distributions,
reports, manifests) are read by `read_json`, whose `InputError` names the
file, and written by `write_json`. Asset files are read by
`encoding.asset_lines` from the directory given by --assets, else the
packaged one. An experiment config goes through
`experiment.read_settings`, whose `InputError` names the key. `simulate`
and `experiment` also write a manifest with the config hash, seeds, and
the checksums of the files the command wrote; outputs carry no timestamps
and no NaN, so reruns with the same seed are byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .assets import load_bundle
from .compare import HAN_CATEGORIES, FeatureSpec, NamePairs
from .matcher import (
    MatcherModel,
    ScoreDistribution,
    fit_score_distributions,
    has_both_labels,
    split_dev,
    train_matcher,
)
from .metrics import GroupedRanking, ranking_report
from .simgen import SimConfig, build_name_model, generate_pair_files, read_truth, write_truth
from . import experiment as exp
from .linkage import (CsvTable, InputError, checked_number, read_json, read_records,
                      score_cell, write_csv, write_json, write_records)

_label = ("0", "1").index  # a label cell -> 0 or 1


def _finite(cell: str) -> float:
    """A feature cell as a float; NaN and infinities are rejected."""
    return checked_number("a feature", float(cell), -math.inf)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed, bundle,
                    written: list[Path]) -> None:
    """manifest.json in `out_dir`, listing the checksums of the files the
    command wrote (`written`) and no other file there."""
    outputs = {p.name: _sha256(p) for p in written}
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "package_version": __version__,
        "asset_versions": bundle.versions(),
        "outputs": outputs,
    }
    write_json(out_dir / "manifest.json", manifest)


def cmd_features(args) -> int:
    bundle = load_bundle(args.assets)
    table = CsvTable(args.input, {"label": _label})
    pairs = NamePairs.of_columns(table.column("name_a"), table.column("name_b"))
    labels = table.column("label") if "label" in table.header else None
    featurizer = bundle.featurizer()
    X, cats = featurizer.feature_matrix(pairs)
    header = [s.name for s in featurizer.specs] + ["han_category"]
    rows = ([f"{v:.12g}" for v in values] + [HAN_CATEGORIES[cat]]
            for values, cat in zip(X.tolist(), cats.tolist()))
    if labels is not None:
        header.append("label")
        rows = (row + [str(label)] for row, label in zip(rows, labels))
    write_csv(args.out, header, rows)
    print(f"wrote {len(pairs)} feature rows to {args.out}")
    return 0


def _read_feature_csv(path: str):
    fixed = {"label": _label, "han_category": HAN_CATEGORIES.index}
    specs = []

    def parser(name: str):
        """A column's parser; a feature's name is checked before any cell is read."""
        if name in fixed:
            return fixed[name]
        try:
            specs.append(FeatureSpec.from_name(name))
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        return _finite

    table = CsvTable(path, parser)
    y = np.array(table.column("label"), dtype=float)
    if not specs:
        raise InputError(f"{path}: no feature columns")
    cats = table.column("han_category") if "han_category" in table.header else [0] * len(y)
    names = [name for name in table.header if name not in fixed]
    return (np.column_stack([table.column(name) for name in names]),
            np.array(cats, dtype=np.int8), y, tuple(specs))


def cmd_train(args) -> int:
    seed = checked_number("--seed", args.seed, 0, integer=True)
    X, cats, y, specs = _read_feature_csv(args.input)
    if not has_both_labels(y):
        raise InputError("training data must contain both labels")
    train, dev = split_dev(np.random.Generator(np.random.PCG64(seed)), X, cats, y)
    model = train_matcher(train, dev, specs)
    out = Path(args.out)
    model.save(out)
    print(f"trained logistic matcher on {len(train[2])} pairs "
          f"({len(model.specs)} features selected); wrote {out}")
    return 0


def cmd_fitdist(args) -> int:
    table = CsvTable(args.input, {"score": score_cell, "label": _label})
    if "score" in table.header:
        scores = np.array(table.column("score"))
    else:
        pairs = NamePairs.of_columns(table.column("name_a"), table.column("name_b"))
        if not args.model:
            raise InputError("name-pair input needs --model to score pairs")
        scorer = exp.NamePairScorer(MatcherModel.load(args.model), load_bundle(args.assets))
        scores = scorer.scores(pairs)
    labels = np.array(table.column("label"))
    dist = fit_score_distributions(scores, labels)
    dist.save(args.out)
    print(f"fitted score distribution from {len(scores)} labeled scores; "
          f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = read_json(args.config) if args.config else {}
    sim_cfg = SimConfig.from_dict(config)
    bundle = load_bundle(args.assets)
    name_model = build_name_model(bundle.corpus, bundle.tables)
    result = generate_pair_files(sim_cfg, name_model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    file_a, file_b, truth = (out_dir / name for name in ("file_a.csv", "file_b.csv", "truth.csv"))
    write_records(file_a, result.records_a)
    write_records(file_b, result.records_b)
    write_truth(truth, result.truth)
    _write_manifest(out_dir, "simulate", config, sim_cfg.seed, bundle, [file_a, file_b, truth])
    print(f"simulated {sim_cfg.n_records} record pairs "
          f"(name error rate {sim_cfg.name_error_rate}) into {out_dir}")
    return 0


def _experiment_files(config: dict, args, bundle) -> dict:
    settings = exp.read_settings(config)
    scorer = dist = None
    if any(m != "exact" for m in settings.methods):  # classifier and dist files before records
        scorer = exp.name_scorer(settings.classifier, bundle)
        dist = ScoreDistribution.load(settings.dist)
    data = settings.data
    dataset = exp.LinkageDataset(read_records(data["file_a"]), read_records(data["file_b"]),
                                 read_truth(data["truth"]), settings.fields)
    return {"config": config, "reports": exp.link(settings, dataset, scorer, dist)}


def cmd_experiment(args) -> int:
    config = read_json(args.config)
    settings = exp.read_settings(config)
    workers = (None if args.workers is None  # None: run_study reads the config's
               else checked_number("--workers", args.workers, 1, integer=True))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_bundle(args.assets)
    written: list[Path] = []
    try:
        if settings.study:
            report = exp.run_study(config, bundle, workers=workers)
            if report.get("model"):
                write_json(out_dir / "model.json", report["model"])
                written.append(out_dir / "model.json")
        else:
            report = _experiment_files(config, args, bundle)
        write_json(out_dir / "report.json", report)
        written.append(out_dir / "report.json")
        _write_manifest(out_dir, "experiment", config, settings.seed, bundle, written)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    summary = report.get("summary") or report.get("reports") or {}
    for method, row in summary.items():
        line = (f"{method}: eauroc={row.get('eauroc', float('nan')):.6f} "
                f"-LL={row.get('neg_log_lik', float('nan')):.1f}")
        if "mean_misclass_est_pm" in row:
            line += f" misclass@est={row['mean_misclass_est_pm']:.1f}"
        print(line)
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_evaluate(args) -> int:
    if args.q is not None:
        checked_number("--q", args.q, 0, 1, above=True)
    table = CsvTable(args.input, {"score": score_cell, "label": _label})
    scores = np.array(table.column("score"))
    labels = np.array(table.column("label"))
    try:
        report = ranking_report(GroupedRanking.from_pairs(scores, labels), args.q)
    except ValueError as exc:  # one class in the file
        raise InputError(str(exc)) from None
    print(write_json(args.out, {**report, "n": len(scores)}), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanlink",
        description="Record linkage toolkit with logographic name matching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="compute pairwise feature vectors")
    p.add_argument("--in", dest="input", required=True,
                   help="CSV with name_a,name_b[,label]")
    p.add_argument("--out", required=True)
    p.add_argument("--assets", default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the logistic matcher")
    p.add_argument("--in", dest="input", required=True, help="feature CSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fitdist", help="fit the empirical score distribution")
    p.add_argument("--in", dest="input", required=True,
                   help="CSV with score,label or name_a,name_b,label")
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--assets", default=None)
    p.set_defaults(func=cmd_fitdist)

    p = sub.add_parser("simulate", help="generate a paired dataset with truth")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--assets", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a linkage experiment or study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--assets", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("evaluate", help="metrics for a per-pair score file")
    p.add_argument("--in", dest="input", required=True, help="CSV with score,label")
    p.add_argument("--out", default=None)
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
