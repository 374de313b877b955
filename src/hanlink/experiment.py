"""End-to-end linkage experiments: settings, scorers, methods and studies.

An experiment config is read in one place, `read_settings`, whose
docstring lists each mode's keys and defaults and the classifier selectors;
`run_study` and the command line call it before any file is read or model
built, and `name_scorer` builds the scorer a selector names. `run_methods`
runs the requested methods over one `LinkageDataset`: exact agreement
pattern counts, an EM fit, and optional name-score incorporation (tau1/tau2
threshold moves or per-pair posterior adjustment), each evaluated into a
report. `run_study` trains a matcher once and runs replicated simulations
through the same methods.

Scoring every gamma_name=0 pair of a 10^8-pair linkage is not feasible at
desk scale, so names are scored only in the gamma_name=0 rows whose best
achievable posterior reaches min(candidate_floor, floor): tau1 and tau2
move pairs of those rows only, and the posterior adjusts those reaching floor.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .assets import AssetBundle, load_bundle
from .compare import FeatureSpec, NamePairs, PairFeaturizer
from .fuse import (CandidatePairs, apply_threshold, eligible_rows, posterior_adjust,
                   tau1_select, tau2_select)
from .linkage import (RECORD_FIELDS, CsvTable, InputError, LinkageDataset,
                      PatternTable, check_keys, checked_number, em_fit, score_cell, zeta)
from .matcher import (
    MatcherModel,
    ScoreDistribution,
    fit_score_distributions,
    split_dev,
    train_matcher,
)
from .metrics import GroupedRanking, confusion_at_proportion, ranking_report
from .simgen import SimConfig, build_name_model, generate_pair_files

DEFAULT_METHODS = ("exact", "tau1", "tau2", "posterior")
DEFAULT_CANDIDATE_FLOOR = 0.01
DEFAULT_POSTERIOR_FLOOR = 0.1
# A study's 'train' section: the dev simulation's sampled nonmatches for the
# matcher and for the score distribution
TRAIN_DEFAULTS = {"n_nonmatch_name_pairs": 20_000, "n_nonmatch_score_pairs": 50_000}
# The most nonmatch pairs a study samples for either use: `_nonmatches` draws
# two int64 row indices per pair, 1.6 GB at this count before any is scored.
# Pairs are drawn with replacement, so a count need not fit the dev simulation.
MAX_NONMATCH_PAIRS = 10 ** 8

# Experiment config keys: those of both modes, and those of each mode
_COMMON_KEYS = ("seed", "methods", "fields", "classifier", "floor", "candidate_floor")
_MODE_KEYS = {"files mode": ("data", "dist"),
              "a study": ("simulate", "replicates", "workers", "train")}
_DATA_KEYS = ("file_a", "file_b", "truth")


@dataclass(frozen=True)
class Settings:
    """An experiment config checked by `read_settings`, each key of its
    mode as given or defaulted. A section of the other mode is None."""
    study: bool
    seed: int | None
    methods: tuple[str, ...]
    fields: tuple[str, ...]
    classifier: str | None
    floor: float
    candidate_floor: float
    data: dict | None       # files mode
    dist: str | None
    simulate: dict | None   # a study
    train: dict | None
    replicates: int
    workers: int


def read_settings(config: dict) -> Settings:
    """The settings of a `hanlink experiment` config, checked before any
    file is read or model built. A key that is unknown or belongs to the
    other mode, a value of the wrong type or out of range, and a classifier
    the mode cannot use are each an InputError naming the key.

    Keys and defaults. Files mode, chosen by a 'data' section:
      data             file_a, file_b, truth: the record and truth CSV paths
      methods          ["exact"]; distinct names from DEFAULT_METHODS
      fields           RECORD_FIELDS; distinct RECORD_FIELDS, 'name' among them
      classifier       none; a selector (below), required by a non-exact method
      dist             none; a score distribution JSON, required by a
                       non-exact method
      seed             none (recorded in the manifest only)
    A study, chosen by a 'simulate' section:
      simulate         SimConfig keys but seed, each defaulting as SimConfig does
      methods          DEFAULT_METHODS
      fields           'name' and the simulated fields
      classifier       "logistic:train"; or a fixed selector (below)
      train            TRAIN_DEFAULTS, keys given override: the nonmatch pair counts,
                       integers from 1 to MAX_NONMATCH_PAIRS
      seed             0
      replicates       1
      workers          1 (`run_study`'s `workers`, the command line's --workers, wins)
    Both modes:
      floor            DEFAULT_POSTERIOR_FLOOR, in [0, 1]
      candidate_floor  DEFAULT_CANDIDATE_FLOOR, in [0, 1]: only pairs of gamma_name=0 rows
                       whose best posterior reaches min(it, floor) are scored and moved

    Classifier selectors, each scoring a name pair in [0, 1]:
      single:<feature>          the feature's value, a feature name such as
                                PY_LV_k1_1:N whose comparator is bounded
                                (LV, LCS or COS; not SUM or CAT)
      logistic:<model JSON>     a saved matcher (`hanlink train`)
      logistic:train            a study only: a matcher trained on its dev simulation
      external-scores:<CSV>     files mode only: a name_a,name_b,score table
                                listing each scored pair once
    """
    study = "simulate" in config
    if study and "data" in config:
        raise InputError("experiment config has both a 'simulate' and a 'data' section")
    if not study and "data" not in config:
        raise InputError("experiment config needs a 'simulate' or 'data' section")
    mode, other = ("a study", "files mode") if study else ("files mode", "a study")
    for key, value in config.items():
        if key in _MODE_KEYS[other]:
            raise InputError(f"config key {key!r} belongs to {other}, not to {mode}")
        if value is None:
            raise InputError(f"config key {key!r} is null: leave it out for its default")
    check_keys("config", config, _COMMON_KEYS + _MODE_KEYS[mode])

    def number(key: str, default, lo: float, hi: float = math.inf, **kind):
        value = config.get(key, default)
        return value if value is None else checked_number(f"config key {key!r}", value,
                                                          lo, hi, **kind)

    def section(key: str, known) -> dict | None:
        if key not in _MODE_KEYS[mode]:
            return None
        value = config.get(key, {})
        if not isinstance(value, dict):
            raise InputError(f"config key {key!r} must be a JSON object, not {value!r}")
        check_keys(f"config section {key!r}", value, known)
        return value

    data = section("data", _DATA_KEYS)
    if data is not None:
        for key in _DATA_KEYS:
            if data.get(key) is None:
                raise InputError(f"config section 'data' lacks {key!r}")
            _text(f"data.{key}", data[key])
    simulate = section("simulate", SimConfig.__dataclass_fields__)
    default_fields = RECORD_FIELDS
    if simulate is not None:
        if "seed" in simulate:
            raise InputError("config key 'simulate.seed' is not used: a study's seed is "
                             "the top-level 'seed'")
        sim = SimConfig.from_dict(simulate)
        default_fields = ("name", *sim.fields)
    train = section("train", TRAIN_DEFAULTS)
    for key, value in (train or {}).items():
        checked_number(f"config key 'train.{key}'", value, 1, MAX_NONMATCH_PAIRS, integer=True)

    methods = _distinct("methods", config.get("methods", DEFAULT_METHODS if study
                                              else ("exact",)), DEFAULT_METHODS)
    fields = _distinct("fields", config.get("fields", default_fields), RECORD_FIELDS)
    if "name" not in fields:
        raise InputError(f"config key 'fields' must include 'name', not {list(fields)!r}")
    classifier = _text("classifier", config.get("classifier",
                                                "logistic:train" if study else None))
    if classifier is not None:
        read_selector(classifier, study)
    dist = _text("dist", config.get("dist"))
    if not study and any(m != "exact" for m in methods):
        if classifier is None:
            raise InputError("non-exact methods require a 'classifier'")
        if dist is None:
            raise InputError("non-exact methods require a fitted 'dist' file")
    return Settings(
        study=study, seed=number("seed", 0 if study else None, 0, integer=True),
        methods=methods, fields=fields, classifier=classifier,
        floor=float(number("floor", DEFAULT_POSTERIOR_FLOOR, 0, 1)),
        candidate_floor=float(number("candidate_floor", DEFAULT_CANDIDATE_FLOOR, 0, 1)),
        data=data, dist=dist, simulate=simulate, train=train,
        replicates=number("replicates", 1, 1, integer=True),
        workers=number("workers", 1, 1, integer=True))


def _text(key: str, value) -> str | None:
    """`value`, unless it is neither None nor a non-empty string."""
    if value is not None and (not isinstance(value, str) or not value):
        raise InputError(f"config key {key!r} must be a non-empty string, not {value!r}")
    return value


def _distinct(key: str, value, allowed: tuple[str, ...]) -> tuple[str, ...]:
    """`value` as a tuple, if it lists distinct entries of `allowed`, one at least."""
    if (not isinstance(value, (list, tuple)) or not value
            or any(v not in allowed for v in value) or len(set(value)) < len(value)):
        raise InputError(f"config key {key!r} must list distinct entries of {allowed}, "
                         f"not {value!r}")
    return tuple(value)


def read_selector(selector: str, study: bool) -> tuple[str, object]:
    """A classifier selector of `read_settings`' grammar as (kind, argument),
    checked without reading a file: ("single", its MatcherModel), ("logistic",
    a model JSON path), ("train", None) or ("external-scores", a CSV path).
    A selector the mode does not take is an InputError naming the key."""
    kind, _, arg = selector.partition(":")
    if selector == "logistic:train":
        kind = "train"
    elif kind == "train" or not arg:
        kind = None
    if kind not in ("single", "logistic", "train" if study else "external-scores"):
        raise InputError(f"config key 'classifier': {'a study' if study else 'files mode'} "
                         "takes single:<feature>, logistic:<model JSON> or "
                         f"{'logistic:train' if study else 'external-scores:<CSV>'}, "
                         f"not {selector!r}")
    if kind == "single":
        try:
            return kind, MatcherModel.single_feature(FeatureSpec.from_name(arg))
        except InputError as exc:
            raise InputError(f"config key 'classifier': {exc}") from None
    return kind, None if kind == "train" else arg


def name_scorer(selector: str, bundle: AssetBundle, study: bool = False):
    """The scorer a classifier selector names: a NamePairScorer of its matcher
    or an ExternalScorer of its table; None for logistic:train, whose matcher
    a study trains."""
    kind, arg = read_selector(selector, study)
    if kind == "train":
        return None
    if kind == "external-scores":
        return ExternalScorer(arg)
    return NamePairScorer(arg if kind == "single" else MatcherModel.load(arg), bundle)


class NamePairScorer:
    """Classifier scores for name pairs. The featurizer works on name ids,
    running each comparator once per distinct pair of encoded substrings,
    so a pair's score does not depend on the batch or its order.

    It reads only what the model's features read: built from an
    `AssetBundle`, it parses the encoding tables of their encodings, the
    frequency table only if one reads LF, and the surnames. Built from a
    `PairFeaturizer` (the one a matcher was trained with), it shares that
    featurizer's tables and encoded substrings."""

    def __init__(self, model: MatcherModel, assets: AssetBundle | PairFeaturizer):
        self.model = model
        self.featurizer = assets.featurizer(model.specs)

    def scores(self, pairs) -> np.ndarray:
        """Scores of a `NamePairs` or a sequence of (name_a, name_b) tuples."""
        return self.model.predict_matrix(*self.featurizer.feature_matrix(pairs))


class ExternalScorer:
    """Name-pair scores read from a name_a,name_b,score CSV, any score
    source's. The table is keyed by interned name ids, so scoring looks up
    each distinct name once and each pair by a search over the sorted pair
    codes. A score cell outside [0, 1], a pair listed twice and a scored
    pair the table lacks are each an InputError."""

    def __init__(self, path):
        self.path = path
        table = CsvTable(path, {"score": score_cell})
        listed = NamePairs.of_columns(table.column("name_a"), table.column("name_b"))
        values = np.array(table.column("score"), dtype=float)
        self.ids = dict(zip(listed.names, range(len(listed.names))))
        codes = listed.ia.astype(np.int64) * len(listed.names) + listed.ib
        order = np.argsort(codes, kind="stable")
        self.codes, self.values = codes[order], values[order]
        if len(repeated := np.nonzero(np.diff(self.codes) == 0)[0]):
            k = int(order[repeated + 1].min())  # the first row that repeats an earlier one
            raise InputError(f"{path}, line {table.line(k)}: the pair {listed[k]!r} "
                             "is listed twice")

    def scores(self, pairs) -> np.ndarray:
        """Scores of a `NamePairs` or a sequence of (name_a, name_b) tuples."""
        pairs = NamePairs.of(pairs)
        ids = np.array([self.ids.get(name, -1) for name in pairs.names], dtype=np.int64)
        a, b = ids[pairs.ia], ids[pairs.ib]
        codes = a * len(self.ids) + b
        at = np.searchsorted(self.codes, codes)
        found = (a >= 0) & (b >= 0) & (at < len(self.codes))
        found[found] = self.codes[at[found]] == codes[found]
        if not found.all():
            raise InputError(f"external score table {self.path} is missing the pair "
                             f"{pairs[int(np.argmin(found))]!r}")
        return self.values[at]


def _table_ranking(table: PatternTable, pos: np.ndarray, z: np.ndarray) -> tuple:
    """A pattern table's ranking: each row's zeta with its true and false
    match counts, and the estimated match share, zeta weighted by the counts."""
    return z, pos, table.counts - pos, float((z * table.counts).sum() / table.total)


def _evaluate_ranking(ranking: tuple, pi_true: float) -> dict:
    """The report of a (scores, positive mass, negative mass, estimated
    match share) ranking: its `ranking_report` and its confusion counts at
    the true and the estimated match share."""
    scores, pos, neg, pi_est = ranking
    grouped = GroupedRanking(scores, pos, neg)
    fn_t, fp_t = confusion_at_proportion(grouped, pi_true)
    fn_e, fp_e = confusion_at_proportion(grouped, pi_est)
    return {
        **ranking_report(grouped),
        "fn_true_pm": fn_t,
        "fp_true_pm": fp_t,
        "fn_est_pm": fn_e,
        "fp_est_pm": fp_e,
        "pi_m_true": pi_true,
        "pi_m_est": pi_est,
    }


def run_methods(dataset: LinkageDataset, methods: tuple[str, ...],
                scorer=None, dist: ScoreDistribution | None = None,
                floor: float = DEFAULT_POSTERIOR_FLOOR,
                candidate_floor: float = DEFAULT_CANDIDATE_FLOOR) -> dict[str, dict]:
    """Run the requested incorporation methods and return per-method reports,
    in the order of `methods`. The fusion methods share one enumeration and
    scoring of the candidate pairs."""
    if unknown := [m for m in methods if m not in DEFAULT_METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    fusion = [m for m in methods if m != "exact"]
    if fusion and (scorer is None or dist is None):
        raise ValueError("non-exact methods need a scorer and a fitted distribution")
    table, pos = dataset.tabulate()
    fs_model = em_fit(table)
    z = zeta(fs_model, table)
    pi_true = len(dataset.truth) / table.total
    prior = _table_ranking(table, pos, z)

    if fusion:
        rows, _ = eligible_rows(table, z, dist, floor=min(candidate_floor, floor))
        ii, jj, pair_rows = dataset.candidate_pairs(table, rows)
        name_pairs = dataset.name_pairs(ii, jj)  # gamma_name=0: both names present
        pairs = CandidatePairs(table, rows, pair_rows,
                               scorer.scores(name_pairs) if len(name_pairs) else np.empty(0),
                               dataset.truth_b_of_a[ii] == jj)

    reports: dict[str, dict] = {}
    for method in methods:
        if method == "exact":
            ranking, counters = prior, {}
        elif method == "posterior":
            ranking, elig, skipped = posterior_adjust(table, z, dist, pos, pairs, floor)
            counters = dict(floor=floor, n_eligible_rows=len(elig),
                            n_skipped_rows=len(skipped),
                            n_adjusted_pairs=int(table.counts[elig].sum()),
                            pi_m_est_prior=prior[3])
        else:
            tau = (tau1_select(table, z, dist) if method == "tau1"
                   else tau2_select(table, z, dist, fs_model))
            new_table, new_pos = apply_threshold(tau, table, pos, pairs)
            ranking = _table_ranking(new_table, new_pos, zeta(em_fit(new_table), new_table))
            counters = dict(tau=tau, n_moved_pairs=int((pairs.scores >= tau).sum()))
        if method != "exact":
            counters["n_candidate_pairs"] = len(pairs.pair_rows)
        reports[method] = {**_evaluate_ranking(ranking, pi_true), **counters,
                           "method": method}
    return reports


# ---------------------------------------------------------------------------
# Training a matcher + score distribution from a development simulation


def _seed_of(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0]) % 2**63


def _nonmatches(rng: np.random.Generator, b_of_a: np.ndarray, n_b: int,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` random (A row, B row) pairs, all A rows drawn before the B
    rows, less the truth links (`b_of_a`: each A row's linked B row or -1)."""
    i = rng.integers(len(b_of_a), size=count)
    j = rng.integers(n_b, size=count)
    ok = b_of_a[i] != j
    return i[ok], j[ok]


def train_matcher_and_dist(bundle: AssetBundle, name_model, sim_params: dict,
                           seed: int, classifier: str, train_opts: dict | None
                           ) -> tuple[NamePairScorer, ScoreDistribution, dict]:
    """Train (or instantiate) the name classifier and fit the empirical
    score distribution on a development simulation; `train_opts` overrides
    some of TRAIN_DEFAULTS. Returns the scorer that fitted the distribution
    (a study's replicates score with it), the distribution and counts. A
    matcher is trained on the true matches whose names differ, so a dev
    simulation without one is an InputError naming the name error rate."""
    scorer = name_scorer(classifier, bundle, study=True)
    opts = {**TRAIN_DEFAULTS, **(train_opts or {})}
    seeds = np.random.SeedSequence(seed).spawn(2)
    dev_cfg = SimConfig.from_dict({**sim_params, "seed": _seed_of(seeds[0])})
    sim = generate_pair_files(dev_cfg, name_model)
    dev = LinkageDataset(sim.records_a, sim.records_b, sim.truth, ("name",))
    rng = np.random.Generator(np.random.PCG64(seeds[1]))
    ta, tb = dev.truth[:, 0], dev.truth[:, 1]

    info: dict = {"dev_sim_records": dev_cfg.n_records}
    if scorer is None:
        pos = dev.name_ids_a[ta] != dev.name_ids_b[tb]  # matches whose names differ
        if not pos.any():
            raise InputError("config key 'simulate.name_error_rate': no true match of the "
                             f"dev simulation ({dev_cfg.n_records} records) has differing "
                             "names, so logistic:train has no positive pair")
        neg_i, neg_j = _nonmatches(rng, dev.truth_b_of_a, dev.n_b,
                                   int(opts["n_nonmatch_name_pairs"]))
        featurizer = bundle.featurizer()
        X, cats = featurizer.feature_matrix(dev.name_pairs(np.concatenate([ta[pos], neg_i]),
                                                           np.concatenate([tb[pos], neg_j])))
        y = np.concatenate([np.ones(int(pos.sum())), np.zeros(len(neg_i))])
        train, dev_split = split_dev(rng, X, cats, y)
        model = train_matcher(train, dev_split, featurizer.specs)
        info["n_train_pairs"] = len(train[2])
        info["n_dev_pairs"] = len(dev_split[2])
        info["n_selected_features"] = len(model.specs)
        scorer = NamePairScorer(model, featurizer)

    u_i, u_j = _nonmatches(rng, dev.truth_b_of_a, dev.n_b, int(opts["n_nonmatch_score_pairs"]))
    scores = scorer.scores(dev.name_pairs(np.concatenate([ta, u_i]), np.concatenate([tb, u_j])))
    labels = np.concatenate([np.ones(len(ta)), np.zeros(len(u_i))])
    dist = fit_score_distributions(scores, labels)
    info["n_dist_match"] = len(ta)
    info["n_dist_nonmatch"] = len(u_i)
    return scorer, dist, info


def link(settings: Settings, dataset: LinkageDataset, scorer,
         dist: ScoreDistribution | None) -> dict[str, dict]:
    """`run_methods` over a dataset of the settings' fields, with their
    methods and floors. The caller builds the dataset, so that the records
    it was built from can be freed before tabulation."""
    return run_methods(dataset, settings.methods, scorer=scorer, dist=dist,
                       floor=settings.floor, candidate_floor=settings.candidate_floor)


def run_replicate(name_model, settings: Settings, rep_seed: int, scorer,
                  dist: ScoreDistribution | None) -> dict[str, dict]:
    """One replicate of a study: a simulation seeded `rep_seed`, linked."""
    sim = generate_pair_files(SimConfig.from_dict({**settings.simulate, "seed": rep_seed}),
                              name_model)
    return link(settings, LinkageDataset(sim.records_a, sim.records_b, sim.truth,
                                         settings.fields), scorer, dist)


def run_study(config: dict, bundle: AssetBundle | None = None,
              workers: int | None = None) -> dict:
    """Replicated simulation study: train once, then run every replicate
    through every requested method with the one scorer that fitted the
    score distribution. Deterministic given the config's seed. Without a
    `bundle` the packaged assets are used; without `workers`, the config's
    'workers' applies. The config is checked by `read_settings`
    before any work starts.

    With workers > 1 the replicates run in that many spawned processes,
    each given this process's name model, settings, scorer and score
    distribution, so results do not depend on the worker count. Spawned
    workers re-import the calling script, so a script must call this under
    `if __name__ == "__main__":`.
    """
    settings = read_settings(config)
    if not settings.study:
        raise InputError("a study config needs a 'simulate' section")
    bundle = bundle or load_bundle()
    name_model = build_name_model(bundle.corpus, bundle.tables)
    methods, replicates = settings.methods, settings.replicates
    workers = settings.workers if workers is None else workers

    train, *reps = np.random.SeedSequence(settings.seed).spawn(replicates + 1)
    train_seed, rep_seeds = _seed_of(train), [_seed_of(s) for s in reps]
    scorer = dist = None
    train_info: dict = {}
    if any(m != "exact" for m in methods):
        scorer, dist, train_info = train_matcher_and_dist(
            bundle, name_model, settings.simulate, train_seed, settings.classifier,
            settings.train)

    if workers > 1 and replicates > 1:
        import multiprocessing  # only parallel studies pay for this import

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(run_replicate, name_model, settings, rs, scorer, dist)
                       for rs in rep_seeds]
            results = [f.result() for f in futures]
    else:
        results = [run_replicate(name_model, settings, rs, scorer, dist) for rs in rep_seeds]

    summary: dict[str, dict] = {}
    for method in methods:
        rows = [r[method] for r in results]
        summary[method] = {
            key: float(np.mean([row[key] for row in rows]))
            for key in ("auroc", "eauroc", "neg_log_lik", "fn_true_pm",
                        "fp_true_pm", "fn_est_pm", "fp_est_pm", "pi_m_est")
        }
        summary[method]["mean_misclass_est_pm"] = float(np.mean(
            [row["fn_est_pm"] + row["fp_est_pm"] for row in rows]))
        summary[method]["mean_misclass_true_pm"] = float(np.mean(
            [row["fn_true_pm"] + row["fp_true_pm"] for row in rows]))
    return {
        "config": config,
        "train_info": train_info,
        "model": scorer.model.to_dict() if scorer else None,
        "dist_summary": {"ratio_max": dist.ratio_max} if dist else None,
        "replicates": results,
        "summary": summary,
    }
