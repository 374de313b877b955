"""End-to-end linkage experiments on record-file pairs.

Wires the pipeline together: exact agreement-pattern counts from joins
on the records' values (the |A| x |B| pairs are never formed), EM fit,
optional name-score incorporation (tau1/tau2 threshold moves or per-pair
posterior adjustment), and the evaluation report. Pairs are listed only
for the pattern rows whose names get scored, again by joins. Those pairs
are scored by name id: the names of both files are interned once, and a
`NamePairs` of id arrays goes to the scorer, so no per-pair Python runs
between candidate enumeration and the matcher.

Scoring every gamma_name=0 pair of a 10^8-pair linkage is not feasible at
desk scale, so pair-level name scoring is restricted to rows whose best
achievable posterior reaches `candidate_floor` (default 0.01); rows below
it cannot contribute recoverable matches and keep their prior zeta.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .assets import AssetBundle, load_bundle
from .compare import NamePairs, PairFeaturizer, intern_strings
from .fuse import (
    apply_threshold,
    check_coverage,
    eligible_rows,
    posterior_adjust,
    tau1_select,
    tau2_select,
)
from .linkage import (
    LINK_FIELDS,
    NA,
    PatternTable,
    em_fit,
    encode_fields,
    extend_key,
    join_pairs,
    pair_gamma_codes,
    pattern_counts,
    zeta,
)
from .matcher import (
    MatcherModel,
    ScoreDistribution,
    fit_score_distributions,
    split_dev,
    train_matcher,
)
from .metrics import (
    GroupedRanking,
    auroc,
    confusion_at_proportion,
    eauroc,
    grouped_log_loss,
)
from .simgen import SimConfig, build_name_model, generate_pair_files

DEFAULT_METHODS = ("exact", "tau1", "tau2", "posterior")


def _seed_of(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint64)[0]) % 2**63
DEFAULT_CANDIDATE_FLOOR = 0.01
DEFAULT_POSTERIOR_FLOOR = 0.1
_JOIN_SLICE = 1 << 18  # joined pairs held at once while enumerating candidates


class NamePairScorer:
    """Classifier scores for name pairs. The featurizer works on name ids,
    running each comparator once per distinct pair of encoded substrings,
    so a pair's score does not depend on the batch or its order."""

    def __init__(self, model: MatcherModel, bundle: AssetBundle):
        self.model = model
        self.featurizer = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                                         specs=model.specs)

    def scores(self, pairs) -> np.ndarray:
        """Scores of a `NamePairs` or a sequence of (name_a, name_b) tuples."""
        return self.model.predict_matrix(*self.featurizer.feature_matrix(pairs))


class ExternalScorer:
    """Name-pair scores taken from a precomputed table (any score source).
    Every score must lie in [0, 1]."""

    def __init__(self, table: dict[tuple[str, str], float]):
        for pair, value in table.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"external score {value!r} for pair {pair!r} "
                                 "is outside [0, 1]")
        self.table = table

    def scores(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        out = np.empty(len(pairs))
        for i, pair in enumerate(pairs):
            value = self.table.get(pair)
            if value is None:
                raise ValueError(f"external score table is missing pair {pair!r}")
            out[i] = value
        return out


class LinkageDataset:
    """Two record files with truth links, pre-encoded for pattern work."""

    def __init__(self, records_a: dict[str, list[str]], records_b: dict[str, list[str]],
                 truth: np.ndarray, fields: tuple[str, ...]):
        self.fields = tuple(fields)
        self.codes_a, self.codes_b = encode_fields(records_a, records_b, self.fields)
        if "name" not in self.fields:
            raise ValueError("linkage fields must include 'name'")
        self.names_a, self.names_b = records_a["name"], records_b["name"]
        self.n_a, self.n_b = len(self.names_a), len(self.names_b)
        if not self.n_a or not self.n_b:
            raise ValueError("record files must be non-empty")
        self.truth = np.asarray(truth, dtype=np.int64).reshape(-1, 2)
        for side, ids, n in (("id_a", self.truth[:, 0], self.n_a),
                             ("id_b", self.truth[:, 1], self.n_b)):
            outside = (ids < 0) | (ids >= n)
            repeated = np.zeros(len(ids), dtype=bool)
            repeated[np.argsort(ids, kind="stable")[1:]] = np.diff(np.sort(ids)) == 0
            if len(bad := np.nonzero(outside | repeated)[0]):
                k = bad[0]
                why = f"outside [0, {n})" if outside[k] else "linked more than once"
                raise ValueError(f"truth link ({self.truth[k, 0]}, {self.truth[k, 1]}): "
                                 f"{side} {ids[k]} is {why}")
        self.truth_b_of_a = np.full(self.n_a, -1, dtype=np.int64)
        self.truth_b_of_a[self.truth[:, 0]] = self.truth[:, 1]

    def tabulate(self) -> tuple[PatternTable, np.ndarray]:
        """Pattern table over all pairs plus true-match counts per row."""
        table = PatternTable.from_counts(self.fields, pattern_counts(self.codes_a, self.codes_b))
        ta, tb = self.truth[:, 0], self.truth[:, 1]
        truth_codes = pair_gamma_codes([ca[ta] for ca in self.codes_a],
                                       [cb[tb] for cb in self.codes_b])
        return table, np.bincount(truth_codes, minlength=3 ** len(self.fields))[table.codes()]

    def candidate_pairs(self, wanted_codes: np.ndarray):
        """All (i, j, code) pairs whose pattern code is in `wanted_codes`,
        sorted by (i, j): for each code, a join on the fields it agrees on
        over the records holding every field it does not mark NA, keeping
        the joined pairs with that code. Codes visited in field-by-field
        gamma order share the key of their common leading gammas."""
        parts = [(np.empty(0, np.int64),) * 3]
        fields = range(len(self.fields))
        wanted = set(np.asarray(wanted_codes, dtype=np.int64).tolist())
        keys = {(): np.zeros(self.n_a + self.n_b, dtype=np.int64)}  # by leading gammas
        for gammas, code in sorted((tuple(c // 3 ** f % 3 for f in fields), c) for c in wanted):
            keys = {lead: key for lead, key in keys.items() if lead == gammas[:len(lead)]}
            for f, pair in enumerate(zip(self.codes_a, self.codes_b)):
                if gammas[:f + 1] not in keys:
                    key, both = keys[gammas[:f]], np.concatenate(pair)
                    keys[gammas[:f + 1]] = (key if gammas[f] == NA else extend_key(key, both)
                                            if gammas[f] == 1 else np.where(both >= 0, key, -1))
            key = keys[gammas]
            for ii, jj in join_pairs(key[:self.n_a], key[self.n_a:], _JOIN_SLICE):
                got = pair_gamma_codes([ca[ii] for ca in self.codes_a],
                                       [cb[jj] for cb in self.codes_b])
                parts.append([x[got == code] for x in (ii, jj, got)])
        ii, jj, cc = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((jj, ii))
        return ii[order], jj[order], cc[order]


def _evaluate_ranking(scores, pos, neg, pi_true, pi_est, q=None) -> dict:
    ranking = GroupedRanking(scores, pos, neg)
    q = ranking.default_q() if q is None else q
    fn_t, fp_t = confusion_at_proportion(ranking, pi_true)
    fn_e, fp_e = confusion_at_proportion(ranking, pi_est)
    return {
        "auroc": auroc(ranking),
        "eauroc": eauroc(ranking, q),
        "q": q,
        "neg_log_lik": grouped_log_loss(scores, pos, neg),
        "fn_true_pm": fn_t,
        "fp_true_pm": fp_t,
        "fn_est_pm": fn_e,
        "fp_est_pm": fp_e,
        "pi_m_true": pi_true,
        "pi_m_est": pi_est,
    }


@dataclass
class MethodInputs:
    table: PatternTable
    pos: np.ndarray
    zetas: np.ndarray
    pair_rows: np.ndarray     # candidate pairs: table row index
    pair_scores: np.ndarray
    pair_labels: np.ndarray
    pi_true: float


def run_methods(dataset: LinkageDataset, methods: tuple[str, ...],
                scorer=None, dist: ScoreDistribution | None = None,
                floor: float = DEFAULT_POSTERIOR_FLOOR,
                candidate_floor: float = DEFAULT_CANDIDATE_FLOOR,
                q: float | None = None) -> dict[str, dict]:
    """Run the requested incorporation methods and return per-method reports."""
    table, pos = dataset.tabulate()
    neg = table.counts - pos
    fs_model = em_fit(table)
    z = zeta(fs_model, table)
    total = table.total
    pi_true = len(dataset.truth) / total
    pi_est = float((z * table.counts).sum() / total)

    reports: dict[str, dict] = {}
    if "exact" in methods:
        reports["exact"] = _evaluate_ranking(z, pos, neg, pi_true, pi_est, q)
        reports["exact"]["method"] = "exact"
    fusion = [m for m in methods if m != "exact"]
    if not fusion:
        return reports
    if scorer is None or dist is None:
        raise ValueError("non-exact methods need a scorer and a fitted distribution")

    cand_floor = min(candidate_floor, floor)
    cand_rows, _ = eligible_rows(table, z, dist, floor=cand_floor)
    ii, jj, pair_codes = dataset.candidate_pairs(table.codes()[cand_rows])
    pair_rows = table.rows_of(pair_codes)
    pair_labels = dataset.truth_b_of_a[ii] == jj
    names, (ids_a, ids_b) = intern_strings(dataset.names_a, dataset.names_b)
    name_pairs = NamePairs(names, ids_a[ii], ids_b[jj])
    pair_scores = scorer.scores(name_pairs) if len(name_pairs) else np.empty(0)

    inputs = MethodInputs(table=table, pos=pos, zetas=z, pair_rows=pair_rows,
                          pair_scores=pair_scores, pair_labels=pair_labels,
                          pi_true=pi_true)
    for method in fusion:
        if method in ("tau1", "tau2"):
            reports[method] = _threshold_report(method, inputs, fs_model, dist, q)
        elif method == "posterior":
            reports[method] = _posterior_report(inputs, dist, floor, q)
        else:
            raise ValueError(f"unknown method {method!r}")
        reports[method]["method"] = method
        reports[method]["n_candidate_pairs"] = int(len(pair_rows))
    return reports


def _threshold_report(method: str, inputs: MethodInputs, fs_model, dist, q) -> dict:
    if method == "tau1":
        tau = tau1_select(inputs.table, inputs.zetas, dist)
    else:
        tau = tau2_select(inputs.table, inputs.zetas, dist, fs_model)
    new_table, new_pos = apply_threshold(tau, inputs.table, inputs.pos, inputs.pair_rows,
                                         inputs.pair_scores, inputs.pair_labels)
    model2 = em_fit(new_table)
    z2 = zeta(model2, new_table)
    total = new_table.total
    pi_est = float((z2 * new_table.counts).sum() / total)
    report = _evaluate_ranking(z2, new_pos, new_table.counts - new_pos,
                               inputs.pi_true, pi_est, q)
    report["tau"] = tau
    report["n_moved_pairs"] = int((inputs.pair_scores >= tau).sum())
    return report


def _posterior_report(inputs: MethodInputs, dist: ScoreDistribution,
                      floor: float, q) -> dict:
    table, z, pos = inputs.table, inputs.zetas, inputs.pos
    adjusted = posterior_adjust(table, z, dist, inputs.pair_rows,
                                inputs.pair_scores, floor=floor)
    elig = adjusted.eligible_rows
    check_coverage(table, inputs.pair_rows, elig)
    in_elig = np.zeros(len(table.counts), dtype=bool)
    in_elig[elig] = True
    pair_labels = inputs.pair_labels[in_elig[inputs.pair_rows]]
    keep = ~in_elig
    scores = np.concatenate([z[keep], adjusted.posterior])
    pos_mass = np.concatenate([pos[keep].astype(float), pair_labels.astype(float)])
    neg_mass = np.concatenate([(table.counts[keep] - pos[keep]).astype(float),
                               1.0 - pair_labels.astype(float)])
    total = table.total
    pi_est_prior = float((z * table.counts).sum() / total)
    pi_est = float(((z[keep] * table.counts[keep]).sum() + adjusted.posterior.sum())
                   / total)
    report = _evaluate_ranking(scores, pos_mass, neg_mass, inputs.pi_true, pi_est, q)
    report["floor"] = floor
    report["n_eligible_rows"] = int(len(elig))
    report["n_skipped_rows"] = int(len(adjusted.skipped_rows))
    report["n_adjusted_pairs"] = int(len(adjusted.posterior))
    report["pi_m_est_prior"] = pi_est_prior
    return report


# ---------------------------------------------------------------------------
# Training a matcher + score distribution from a development simulation


def train_matcher_and_dist(bundle: AssetBundle, name_model, sim_params: dict,
                           seed: int, classifier: str, train_opts: dict | None
                           ) -> tuple[MatcherModel, ScoreDistribution, dict]:
    """Train (or instantiate) the name classifier and fit the empirical
    score distribution on a development simulation."""
    opts = {"n_nonmatch_name_pairs": 20_000, "n_nonmatch_score_pairs": 50_000,
            "dev_fraction": 0.4, "penalty": 1e-6, "bins": 200}
    opts.update(train_opts or {})
    seeds = np.random.SeedSequence(seed).spawn(3)
    dev_cfg = SimConfig.from_dict({**sim_params, "seed": _seed_of(seeds[0])})
    sim = generate_pair_files(dev_cfg, name_model)
    rng = np.random.Generator(np.random.PCG64(seeds[1]))
    names, (ids_a, ids_b) = intern_strings(sim.records_a["name"], sim.records_b["name"])
    ta, tb = sim.truth[:, 0], sim.truth[:, 1]

    info: dict = {"dev_sim_records": dev_cfg.n_records}
    if classifier == "logistic:train":
        pos = ids_a[ta] != ids_b[tb]  # matches whose names differ
        n_neg = int(opts["n_nonmatch_name_pairs"])
        neg_i = rng.integers(sim.truth.shape[0], size=n_neg)
        neg_j = rng.integers(len(ids_b), size=n_neg)
        ok = tb[neg_i] != neg_j
        featurizer = PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames)
        pairs = NamePairs(names, np.concatenate([ids_a[ta[pos]], ids_a[ta[neg_i[ok]]]]),
                          np.concatenate([ids_b[tb[pos]], ids_b[neg_j[ok]]]))
        y = np.concatenate([np.ones(int(pos.sum())), np.zeros(int(ok.sum()))])
        X, cats = featurizer.feature_matrix(pairs)
        train, dev = split_dev(rng, X, cats, y, float(opts["dev_fraction"]),
                               "train.dev_fraction")
        model = train_matcher(train, dev, featurizer.specs,
                              penalty=float(opts["penalty"]))
        info["n_train_pairs"] = len(train[2])
        info["n_dev_pairs"] = len(dev[2])
        info["n_selected_features"] = len(model.specs)
    else:
        model = MatcherModel.from_selector(classifier)

    scorer = NamePairScorer(model, bundle)
    n_u = int(opts["n_nonmatch_score_pairs"])
    u_i = rng.integers(len(ids_a), size=n_u)
    u_j = rng.integers(len(ids_b), size=n_u)
    b_of_a = np.full(len(ids_a), -1, dtype=np.int64)
    b_of_a[ta] = tb
    ok = b_of_a[u_i] != u_j
    scores = scorer.scores(NamePairs(names, ids_a[np.concatenate([ta, u_i[ok]])],
                                     ids_b[np.concatenate([tb, u_j[ok]])]))
    labels = np.concatenate([np.ones(len(ta)), np.zeros(int(ok.sum()))])
    dist = fit_score_distributions(scores, labels, bins=int(opts["bins"]))
    info["n_dist_match"] = len(ta)
    info["n_dist_nonmatch"] = int(ok.sum())
    return model, dist, info


def run_replicate(bundle: AssetBundle, name_model, sim_params: dict, rep_seed: int,
                  methods: tuple[str, ...], model: MatcherModel | None,
                  dist: ScoreDistribution | None, fields: tuple[str, ...],
                  floor: float, candidate_floor: float,
                  q: float | None) -> dict[str, dict]:
    cfg = SimConfig.from_dict({**sim_params, "seed": rep_seed})
    sim = generate_pair_files(cfg, name_model)
    dataset = LinkageDataset(sim.records_a, sim.records_b, sim.truth, fields)
    scorer = None if model is None else NamePairScorer(model, bundle)
    return run_methods(dataset, methods, scorer=scorer, dist=dist, floor=floor,
                       candidate_floor=candidate_floor, q=q)


def run_study(config: dict, bundle: AssetBundle | None = None, workers: int = 1) -> dict:
    """Replicated simulation study: train once, then run every replicate
    through every requested method. Deterministic given config['seed'].
    Without a `bundle` the assets come from config['assets_dir'].

    With workers > 1 the replicates run in that many spawned processes,
    each given this process's asset bundle, name model, matcher and score
    distribution, so results do not depend on the worker count. Spawned
    workers re-import the calling script, so a script must call this under
    `if __name__ == "__main__":`.
    """
    bundle = bundle or load_bundle(config.get("assets_dir"))
    name_model = build_name_model(bundle.corpus, bundle.tables)
    sim_params = dict(config.get("simulate", {}))
    sim_params.pop("seed", None)
    methods = tuple(config.get("methods", DEFAULT_METHODS))
    classifier = config.get("classifier", "logistic:train")
    floor = float(config.get("floor", DEFAULT_POSTERIOR_FLOOR))
    cand = float(config.get("candidate_floor", DEFAULT_CANDIDATE_FLOOR))
    q = config.get("q")
    replicates = int(config.get("replicates", 1))
    seed = int(config.get("seed", 0))
    fields = tuple(config.get("fields",
                              ("name", *sim_params.get("fields", LINK_FIELDS[1:]))))

    seeds = np.random.SeedSequence(seed)
    train_seed = _seed_of(seeds.spawn(1)[0])
    model = dist = None
    train_info: dict = {}
    if any(m != "exact" for m in methods):
        model, dist, train_info = train_matcher_and_dist(
            bundle, name_model, sim_params, train_seed, classifier,
            config.get("train"))
    rep_seeds = [_seed_of(s)
                 for s in np.random.SeedSequence(seed).spawn(replicates + 1)[1:]]

    shared = (methods, model, dist, fields, floor, cand, q)
    if workers > 1 and replicates > 1:
        import multiprocessing  # only parallel studies pay for this import

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(run_replicate, bundle, name_model, sim_params, rs,
                                   *shared) for rs in rep_seeds]
            results = [f.result() for f in futures]
    else:
        results = [run_replicate(bundle, name_model, sim_params, rs, *shared)
                   for rs in rep_seeds]

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
        "model": model.to_dict() if model else None,
        "dist_summary": {"ratio_max": dist.ratio_max} if dist else None,
        "replicates": results,
        "summary": summary,
    }
