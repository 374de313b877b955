"""Name-match classifier training and empirical score distributions.

The classifier is a ridge-penalized logistic regression whose feature
effects may be stratified by the pair's Han category (both, neither,
disagreeing). Features are selected greedy-forward on dev AUROC/EAUROC,
then the Han-category interaction model's terms are pruned backward. Every
fit the trainer makes, that interaction model included, is a trial of
`_scored_fits`: damped Newton (IRLS) iterations, run for all trials of a
step at once on a stacked design and bitwise equal to fitting each alone,
then one dev scoring per stacked chunk, bitwise equal to scoring each
model alone. Score distributions keep exact empirical tail probabilities
on a 10,000-point grid plus a monotone (isotonic) match/nonmatch
density-ratio estimate.

The fit settings are fixed constants of this module, read where they are
used and settable by no caller: the ridge PENALTY, the IRLS TOL and
MAX_ITER, the DEV_FRACTION held out for selection, and the score
distribution's BINS and GRID_SIZE. A saved model or distribution fitted
with other values still loads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compare import BOUNDED_COMPARATORS, FeatureSpec, HAN_CATEGORIES
from .linkage import InputError, checked_number, read_json, write_json
from .metrics import GroupedRanking, auroc, eauroc

TOL = 1e-8           # IRLS stops once a step lowers the objective by less, relatively
MAX_ITER = 200       # IRLS iterations before a ConvergenceError
MIN_IMPROVE = 1e-5   # selection stops once a step gains less dev AUROC and EAUROC
GRID_SIZE = 10_000
PENALTY = 1e-6       # ridge penalty of the logistic matcher's slopes
DEV_FRACTION = 0.4   # share of labeled pairs held out for feature selection
BINS = 200           # score bins of the density-ratio estimate
# Elements (designs x rows x columns) of one stacked IRLS in feature selection
FIT_BUDGET = 1 << 17


class TrainingError(RuntimeError):
    pass


class ConvergenceError(TrainingError):
    """Raised when IRLS hits MAX_ITER; carries the last iterate."""

    def __init__(self, message: str, model: "MatcherModel"):
        super().__init__(message)
        self.model = model


def _json_numbers(key: str, values, counts: bool = False) -> np.ndarray:
    """The JSON list `values` as a float array, or as int64 with `counts`:
    an InputError naming `key` unless each entry is a JSON number (strings,
    bools and null are not), with `counts` an integer >= 0."""
    kinds, what = ({int}, "an integer >= 0") if counts else ({int, float}, "a number")
    if not isinstance(values, list):
        raise InputError(f"{key} must be a list, not {type(values).__name__}")
    if not set(map(type, values)) <= kinds or (counts and min(values, default=0) < 0):
        bad = next(v for v in values if type(v) not in kinds or (counts and v < 0))
        raise InputError(f"{key} holds {bad!r}, which is not {what}")
    return np.asarray(values, dtype=np.int64 if counts else float)


@dataclass
class MatcherModel:
    """A name-pair matcher over `specs`. A "logistic" model scores features x
    of a pair with Han-category code c (its index in HAN_CATEGORIES) as
    sigmoid(intercepts[c] + coefs[c] @ x), float arrays of shape (3,) and
    (3, len(specs)); a "single" model scores by its one feature, holding None."""
    kind: str                               # "logistic" | "single"
    specs: tuple[FeatureSpec, ...]
    intercepts: np.ndarray | None = None
    coefs: np.ndarray | None = None
    trainer: dict = field(default_factory=dict)

    def __post_init__(self):
        """A single-feature model scores a pair by its one feature's value,
        which must lie in [0, 1]: an InputError unless the comparator is bounded."""
        if self.kind == "single" and (len(self.specs) != 1
                                      or self.specs[0].comparator not in BOUNDED_COMPARATORS):
            raise InputError(f"a single-feature matcher takes one feature compared by "
                             f"{' / '.join(BOUNDED_COMPARATORS)}, whose values lie in "
                             f"[0, 1], not {[s.name for s in self.specs]}")

    @classmethod
    def single_feature(cls, spec: FeatureSpec) -> "MatcherModel":
        return cls(kind="single", specs=(spec,))

    def predict_matrix(self, X: np.ndarray, cats: np.ndarray) -> np.ndarray:
        """Scores of feature rows X (one column per spec) with Han-category
        codes `cats`: the logistic of the category's linear predictor, or
        the raw value in single-feature mode."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.specs):
            raise ValueError(f"feature matrix of shape {X.shape} does not have one "
                             f"column per model feature ({len(self.specs)})")
        if self.kind == "single":
            return X[:, 0].copy()
        return _predict_stack(X, np.asarray(cats), [self], [slice(None)])[0]

    def to_dict(self) -> dict:
        out = {"format_version": 1, "kind": self.kind,
               "specs": [s.to_dict() for s in self.specs]}
        if self.kind == "logistic":
            out["coefficients"] = {
                name: {"intercept": float(intercept), "slopes": [float(v) for v in slopes]}
                for name, intercept, slopes in zip(HAN_CATEGORIES, self.intercepts, self.coefs)
            }
            out["trainer"] = self.trainer
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MatcherModel":
        """The model `to_dict` wrote, its category blocks read in code order:
        InputError unless each holds finite JSON numbers, one slope per feature."""
        specs = tuple(FeatureSpec.from_dict(s) for s in d["specs"])
        if d["kind"] == "single":
            return cls(kind="single", specs=specs)
        if d["kind"] != "logistic":
            raise InputError(f"unknown model kind {d['kind']!r}")
        intercepts = np.empty(len(HAN_CATEGORIES))
        coefs = np.empty((len(HAN_CATEGORIES), len(specs)))
        for code, name in enumerate(HAN_CATEGORIES):
            block = d["coefficients"][name]
            intercept = _json_numbers(f"{name} intercept", [block["intercept"]])
            slopes = _json_numbers(f"{name} slopes", block["slopes"])
            if slopes.shape != (len(specs),):
                raise InputError(f"{name} holds {slopes.size} slopes for "
                                 f"{len(specs)} features")
            if not (np.isfinite(intercept).all() and np.isfinite(slopes).all()):
                raise InputError(f"{name} holds a coefficient that is not finite")
            intercepts[code], coefs[code] = intercept[0], slopes
        return cls(kind="logistic", specs=specs, intercepts=intercepts,
                   coefs=coefs, trainer=d.get("trainer", {}))

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "MatcherModel":
        return read_json(path, cls.from_dict)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without masking."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _predict_stack(X: np.ndarray, cats: np.ndarray, models: list[MatcherModel],
                   cols: list) -> np.ndarray:
    """Scores (K, n) of K logistic models over the rows of X (n, F) with
    Han-category codes `cats`, model k reading the columns cols[k]: one
    stacked product per category over C-ordered column slices, so each
    slice's BLAS call sums as a lone model's 2-D product, and one sigmoid.
    A category's rows are gathered once, and each model's slice of them
    once, straight into the stack; a lone model reading every column
    stacks the gathered rows themselves."""
    z = np.empty((len(models), X.shape[0]))
    columns = np.arange(X.shape[1])
    picked = [columns[c] for c in cols]
    lone = len(picked) == 1 and np.array_equal(picked[0], columns)
    for code in range(len(HAN_CATEGORIES)):
        mask = cats == code
        if mask.any():
            rows = X[mask]
            if lone:
                stack = rows[None]
            else:
                stack = np.empty((len(picked), len(rows), len(picked[0])))
                for k, c in enumerate(picked):
                    np.take(rows, c, axis=1, out=stack[k], mode="clip")  # c is in range
            coefs = np.array([m.coefs[code] for m in models])[:, :, None]
            intercepts = np.array([m.intercepts[code] for m in models])[:, None]
            z[:, mask] = intercepts + np.matmul(stack, coefs)[:, :, 0]
    return _sigmoid(z)


def has_both_labels(y: np.ndarray) -> bool:
    """Whether 0/1 labels hold both classes; no label holds neither."""
    return bool(y.any() and not y.all())


def _as_matrices(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An (X, cats, y) triple as float, int8 and float arrays."""
    X, cats, y = data
    return (np.asarray(X, dtype=float), np.asarray(cats, dtype=np.int8),
            np.asarray(y, dtype=float))


# Design-matrix terms: ("main", j) is feature j shared across categories;
# ("inter", j, c) and ("catdum", c) add category-specific offsets relative
# to the reference, code 0 (c is another category's code).
def _build_design(X: np.ndarray, cats: np.ndarray, terms: list[tuple]) -> np.ndarray:
    cols = [np.ones(X.shape[0])]
    for term in terms:
        if term[0] == "main":
            cols.append(X[:, term[1]])
        elif term[0] == "catdum":
            cols.append((cats == term[1]).astype(float))
        elif term[0] == "inter":
            cols.append(X[:, term[1]] * (cats == term[2]))
        else:
            raise ValueError(f"unknown term {term!r}")
    return np.column_stack(cols)


def _penalized_nll(beta, D, y):
    """Objectives of the stacked fits beta (K, p) over designs D (K, n, p),
    and their linear predictors D·beta (K, n)."""
    z = np.matmul(D, beta[:, :, None])[:, :, 0]
    ll = np.logaddexp(0.0, z) - y * z  # log(1 + e^z) - y*z, computed stably
    # one ddot per slice, summing as np.dot(b[1:], b[1:]) does (einsum does not)
    ridge = np.matmul(beta[:, None, 1:], beta[:, 1:, None])[:, 0, 0]
    return ll.sum(axis=1) + 0.5 * PENALTY * ridge, z


def _solve(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, g, rcond=None)[0]


def _newton_steps(D: np.ndarray, z: np.ndarray, y: np.ndarray, b: np.ndarray,
                  pen: np.ndarray) -> np.ndarray:
    """Newton steps H^-1 g of the stacked fits at coefficients b (K, p),
    whose linear predictors over the designs D (K, n, p) are z (K, n)."""
    mu = _sigmoid(z)
    grad = np.matmul(D.transpose(0, 2, 1), (mu - y)[:, :, None])[:, :, 0] + pen * b
    w = np.clip(mu * (1.0 - mu), 1e-10, None)
    H = np.matmul((D * w[:, :, None]).transpose(0, 2, 1), D) + np.diag(pen)
    try:
        return np.linalg.solve(H, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some slice is singular
        return np.array([_solve(h, g) for h, g in zip(H, grad)])


def _fit_design(D: np.ndarray, y: np.ndarray) -> list[tuple]:
    """Damped-Newton (IRLS) fits of the stacked designs D (K, n, p), column 0
    the unpenalized intercept, at PENALTY to TOL within MAX_ITER iterations: per fit
    (beta, iterations, converged, error or None). Every stacked product
    makes, per slice, a lone 2-D fit's BLAS call, so a fit is bitwise the
    same in any stack. An iteration's weights come from the linear
    predictor D·beta that the line search computed when it accepted beta,
    so D·beta is formed once per accepted step. A fit leaves the active set
    once it converges or its objective rises."""
    if not has_both_labels(y):
        raise TrainingError("training data must contain both classes")
    D = np.ascontiguousarray(D, dtype=float)  # strided slices sum without BLAS
    K, n, p = D.shape
    pen = np.full(p, PENALTY)
    pen[0] = 0.0  # intercept unpenalized
    beta, iterations, converged = np.zeros((K, p)), np.zeros(K, int), np.zeros(K, bool)
    objective, z = _penalized_nll(beta, D, y)
    errors = [None] * K
    live = np.arange(K)  # positions of the fits still iterating
    for it in range(1, MAX_ITER + 1):
        if not len(live):
            break
        b, obj = beta[live], objective[live]
        step = _newton_steps(D, z, y, b, pen)
        # damped Newton: halve each fit's step until its objective decreases
        new_b, new_obj = b.copy(), obj.copy()
        todo, Dt, scale = np.arange(len(live)), D, 1.0
        for _ in range(40):
            cand = b[todo] - scale * step[todo]
            new_obj[todo], cand_z = _penalized_nll(cand, Dt, y)
            down = new_obj[todo] <= obj[todo]
            new_b[todo[down]], z[todo[down]] = cand[down], cand_z[down]
            todo, Dt = todo[~down], Dt[~down]
            if not len(todo):
                break
            scale *= 0.5
        rose = new_obj > obj + 1e-9 * (1.0 + np.abs(obj))
        done = rose | (obj - new_obj < TOL * (np.abs(new_obj) + 1.0))
        beta[live], objective[live], iterations[live] = new_b, new_obj, it
        converged[live] = done & ~rose
        for k, old, new in zip(live[rose].tolist(), obj[rose].tolist(), new_obj[rose].tolist()):
            errors[k] = f"training objective increased from {old!r} to {new!r} at iteration {it}"
        if done.any():
            live, D, z = live[~done], D[~done], z[~done]
    return list(zip(beta, iterations.tolist(), converged.tolist(), errors))


def train_logistic(data, specs: tuple[FeatureSpec, ...]) -> MatcherModel:
    """Fit the ridge-penalized logistic matcher over `specs`, each feature's
    slope shared by every Han category."""
    X, cats, y = _as_matrices(data)
    if X.shape[1] != len(specs):
        raise ValueError("feature matrix width does not match specs")
    terms = [("main", j) for j in range(len(specs))]
    fit, = _fit_design(_build_design(X, cats, terms)[None], y)
    return _fitted_model(fit, terms, specs)


def _fitted_model(fit: tuple, terms: list[tuple], specs: tuple[FeatureSpec, ...],
                  label: str = "") -> MatcherModel:
    """The matcher of one `_fit_design` fit, each category's intercept and
    slopes summing its terms, or the fit's error naming `label`."""
    beta, iterations, converged, error = fit
    if error is not None:
        raise TrainingError(error + label)
    intercepts = np.full(len(HAN_CATEGORIES), beta[0])
    coefs = np.zeros((len(HAN_CATEGORIES), len(specs)))
    for value, term in zip(beta[1:], terms):
        if term[0] == "main":
            coefs[:, term[1]] += value
        elif term[0] == "catdum":
            intercepts[term[1]] += value
        elif term[0] == "inter":
            coefs[term[2], term[1]] += value
    model = MatcherModel(kind="logistic", specs=specs, intercepts=intercepts, coefs=coefs,
                         trainer={"iterations": iterations, "penalty": PENALTY, "tol": TOL,
                                  "converged": converged, "terms": [list(t) for t in terms]})
    if not converged:
        raise ConvergenceError(f"IRLS did not converge in {MAX_ITER} iterations{label}",
                               model)
    return model


def _dev_metrics(scores: np.ndarray, dev_y: np.ndarray) -> tuple[float, float]:
    """(AUROC, EAUROC) of one model's dev scores."""
    ranking = GroupedRanking.from_pairs(scores, dev_y)
    return auroc(ranking), eauroc(ranking)


def _scored_fits(train, dev, trials: list[tuple]):
    """(model, dev AUROC, dev EAUROC) of each trial (terms, specs, columns,
    label) in order: the fit of `_build_design` over the train columns,
    scored on the same dev columns. Trials are stacked as IRLS chunks of at
    most FIT_BUDGET elements, and each chunk's models are scored on the dev
    split by one `_predict_stack`; a failed fit raises naming its label."""
    X, cats, y = train
    dev_X, dev_cats, dev_y = dev
    size = max(1, FIT_BUDGET // (len(y) * (len(trials[0][0]) + 1)))
    for lo in range(0, len(trials), size):
        chunk = trials[lo:lo + size]
        D = np.stack([_build_design(X[:, cols], cats, terms) for terms, _, cols, _ in chunk])
        models = [_fitted_model(fit, terms, specs, label)
                  for fit, (terms, specs, _, label) in zip(_fit_design(D, y), chunk)]
        scores = _predict_stack(dev_X, dev_cats, models, [cols for _, _, cols, _ in chunk])
        for model, s in zip(models, scores):
            yield (model,) + _dev_metrics(s, dev_y)


def forward_select(candidates: list[FeatureSpec], train, dev,
                   bank: tuple[FeatureSpec, ...]) -> list[FeatureSpec]:
    """Greedy forward selection maximizing dev AUROC (ties: EAUROC, then
    candidate order); stops once the best addition improves both metrics
    by less than MIN_IMPROVE.

    A step fits all remaining candidates (the selected features plus one)
    as stacked IRLS chunks, each fit bitwise `train_logistic`'s. The first
    failing candidate raises `train_logistic`'s error, naming it.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    train, dev = _as_matrices(train), _as_matrices(dev)
    bank_index = {spec: i for i, spec in enumerate(bank)}
    remaining = list(candidates)
    selected: list[FeatureSpec] = []
    cur_auroc, cur_eauroc = 0.5, 0.5  # intercept-only ranking is uninformative
    while remaining:
        terms = [("main", j) for j in range(len(selected) + 1)]
        trials = [(terms, tuple(selected + [c]), [bank_index[s] for s in selected + [c]],
                   f" (adding {c.name})") for c in remaining]
        # max keeps the first of equal keys: the earliest candidate
        pos, (_, a, e) = max(enumerate(_scored_fits(train, dev, trials)),
                             key=lambda f: (f[1][1], f[1][2]))
        if a - cur_auroc < MIN_IMPROVE and e - cur_eauroc < MIN_IMPROVE:
            break
        selected.append(remaining.pop(pos))
        cur_auroc, cur_eauroc = a, e
    return selected


def backward_prune(specs: tuple[FeatureSpec, ...], train, dev) -> MatcherModel:
    """The Han-category interaction model over `specs` (the columns of train
    and dev), pruned. Its design, mains, then category dummies, then
    interactions, is the first `_scored_fits` trial. Then terms (mains and
    interactions) are dropped one at a time, always the one whose removal
    least harms dev metrics, refitting after each drop, until a drop would
    worsen dev AUROC or EAUROC by more than MIN_IMPROVE. A round fits the
    droppable terms' reduced designs as `forward_select` fits a step;
    errors name the term."""
    train, dev = _as_matrices(train), _as_matrices(dev)
    others = range(1, len(HAN_CATEGORIES))
    terms = ([("main", j) for j in range(len(specs))] + [("catdum", c) for c in others]
             + [("inter", j, c) for j in range(len(specs)) for c in others])
    cols = np.arange(len(specs))
    (current, cur_a, cur_e), = _scored_fits(train, dev, [(terms, specs, cols, "")])
    while True:
        droppable = [t for t in terms if t[0] in ("main", "inter")]
        if len(droppable) <= 1:
            break
        trials = [([u for u in terms if u != t], specs, cols,
                   f" (dropping term {list(t)} of {specs[t[1]].name})") for t in droppable]
        pos, (trial, a, e) = max(enumerate(_scored_fits(train, dev, trials)),
                                 key=lambda f: (min(f[1][1] - cur_a, f[1][2] - cur_e),
                                                f[1][1], f[1][2]))
        if cur_a - a > MIN_IMPROVE or cur_e - e > MIN_IMPROVE:
            break
        terms = trials[pos][0]
        current, cur_a, cur_e = trial, a, e
    return current


def split_dev(rng: np.random.Generator, X, cats, y):
    """(train, dev) rows: one `rng.permutation`, its first
    max(1, int(n * DEV_FRACTION)) rows the dev split. Raises InputError
    unless each split holds both labels, naming the split and its size."""
    order = rng.permutation(len(y))
    n_dev = max(1, int(len(y) * DEV_FRACTION))
    for split, rows in (("dev", order[:n_dev]), ("training", order[n_dev:])):
        if not has_both_labels(y[rows]):
            raise InputError(f"the {split} split ({len(rows)} of {len(y)} labeled rows) "
                             f"must contain both labels")
    return tuple((X[rows], cats[rows], y[rows]) for rows in (order[n_dev:], order[:n_dev]))


def train_matcher(train, dev, bank: tuple[FeatureSpec, ...]) -> MatcherModel:
    """The full two-step trainer: forward selection of the bank's single
    features but CAT, then a Han-category interaction model pruned backward."""
    candidates = [s for s in bank if s.comparator != "CAT"]
    train, dev = _as_matrices(train), _as_matrices(dev)
    selected = forward_select(candidates, train, dev, bank) or [candidates[0]]
    cols = [bank.index(s) for s in selected]
    train, dev = ((X[:, cols], cats, y) for X, cats, y in (train, dev))
    return backward_prune(tuple(selected), train, dev)


# ---------------------------------------------------------------------------
# Empirical score distributions


def pava(values, weights) -> np.ndarray:
    """Weighted least-squares isotonic (non-decreasing) fit via
    pool-adjacent-violators."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must have the same shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    blocks: list[tuple] = []  # (weight sum, weighted mean, length)
    for v, w in zip(values, weights):
        block = (w, v, 1)
        while blocks and blocks[-1][1] > block[1]:
            (w1, m1, l1), (w2, m2, l2) = blocks.pop(), block
            wt = w1 + w2
            block = (wt, m1 if wt == 0 else (w1 * m1 + w2 * m2) / wt, l1 + l2)
        blocks.append(block)
    return np.repeat([m for _, m, _ in blocks], [n for _, _, n in blocks])


@dataclass
class ScoreDistribution:
    """Empirical tails P(X>=tau | M/U) on the selection grid plus a
    monotone binned estimate of the density ratio f(X|M)/f(X|U)."""
    grid: np.ndarray
    tail_m: np.ndarray
    tail_u: np.ndarray
    bin_edges: np.ndarray
    counts_m: np.ndarray
    counts_u: np.ndarray
    ratio: np.ndarray

    @property
    def ratio_max(self) -> float:
        return float(self.ratio[-1])  # non-decreasing, so the last bin is max

    def ratio_at(self, x) -> np.ndarray:
        bins = len(self.ratio)
        idx = np.clip((np.asarray(x, dtype=float) * bins).astype(int), 0, bins - 1)
        return self.ratio[idx]

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "grid_size": len(self.grid),
            "tail_m": [float(v) for v in self.tail_m],
            "tail_u": [float(v) for v in self.tail_u],
            "bin_edges": [float(v) for v in self.bin_edges],
            "counts_m": [int(v) for v in self.counts_m],
            "counts_u": [int(v) for v in self.counts_u],
            "ratio": [float(v) for v in self.ratio],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreDistribution":
        """The distribution `to_dict` wrote. InputError unless each array is a
        list of JSON numbers, the counts integers >= 0, the tails hold one
        entry per grid point, the ratio and counts one per bin and the
        edges one more, the edges are the equal-width bins on [0, 1] that
        `ratio_at` assumes, the tails lie in [0, 1] and do not increase, and
        the ratio is finite, non-negative and non-decreasing."""
        grid_size = checked_number("grid_size", d["grid_size"], 2, integer=True)
        arrays = {key: _json_numbers(key, d[key], counts=key.startswith("counts"))
                  for key in ("tail_m", "tail_u", "bin_edges", "counts_m", "counts_u", "ratio")}
        bins = checked_number("the number of ratio bins", len(arrays["ratio"]), 1, integer=True)
        # the tails are measured before the grid is built, so a huge grid_size is never allocated
        for name, size, source in (("tail_m", grid_size, "grid_size"),
                                   ("tail_u", grid_size, "grid_size"),
                                   ("counts_m", bins, "the ratio's length"),
                                   ("counts_u", bins, "the ratio's length"),
                                   ("bin_edges", bins + 1, "the ratio's length")):
            if arrays[name].shape != (size,):
                raise InputError(f"{name} has shape {arrays[name].shape}, "
                                 f"expected ({size},) from {source}")
        dist = cls(grid=np.linspace(0.0, 1.0, grid_size), **arrays)
        if not np.array_equal(dist.bin_edges, np.linspace(0.0, 1.0, bins + 1)):
            raise InputError(f"bin_edges must split [0, 1] into {bins} equal-width bins")
        if not all(np.all((tail >= 0.0) & (tail <= 1.0)) for tail in (dist.tail_m, dist.tail_u)):
            raise InputError("tail probabilities must lie in [0, 1]")
        if any(np.any(np.diff(tail) > 0.0) for tail in (dist.tail_m, dist.tail_u)):
            raise InputError("tail probabilities must not increase")
        if not np.all(np.isfinite(dist.ratio) & (dist.ratio >= 0.0)):
            raise InputError("score distribution ratio must be finite and non-negative")
        if np.any(np.diff(dist.ratio) < -1e-12):
            raise InputError("score distribution ratio is not monotone")
        return dist

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "ScoreDistribution":
        return read_json(path, cls.from_dict)


def fit_score_distributions(scores, labels) -> ScoreDistribution:
    """Estimate tails and the monotone density ratio from labeled scores.

    Tails are exact empirical survival functions on the GRID_SIZE grid; the
    ratio is built from BINS per-bin class counts with add-half smoothing
    and made non-decreasing by PAVA weighted with (smoothed) bin totals.
    Scores must lie in [0, 1].
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        raise InputError(f"{int(outside.sum())} scores lie outside [0, 1] or are NaN, "
                         f"first {scores[outside][0]!r}")
    sm = np.sort(scores[labels == 1])
    su = np.sort(scores[labels == 0])
    if len(sm) == 0 or len(su) == 0:
        raise InputError("scores must include both classes")
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    tail_m = 1.0 - np.searchsorted(sm, grid, side="left") / len(sm)
    tail_u = 1.0 - np.searchsorted(su, grid, side="left") / len(su)
    edges = np.linspace(0.0, 1.0, BINS + 1)
    counts_m, _ = np.histogram(sm, bins=edges)
    counts_u, _ = np.histogram(su, bins=edges)
    dens_m = (counts_m + 0.5) / (len(sm) + 0.5 * BINS)
    dens_u = (counts_u + 0.5) / (len(su) + 0.5 * BINS)
    raw = dens_m / dens_u
    weights = counts_m + counts_u + 1.0
    ratio = pava(raw, weights)
    return ScoreDistribution(grid=grid, tail_m=tail_m, tail_u=tail_u,
                             bin_edges=edges, counts_m=counts_m,
                             counts_u=counts_u, ratio=ratio)
