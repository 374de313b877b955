"""Independent checks of a workload's outputs.

Everything here is recomputed with the benchmark's own code: a hash join
over raw record values for pattern counts, a Mann-Whitney count for the
exact method's AUROC/EAUROC, and a scalar oracle (DP Levenshtein,
edit-mode LCS, k-gram cosine, logistic score) for name scores. Only the
encoding step (`encoding.transform` and the per-name properties) is taken
from the program.
"""
from __future__ import annotations

import csv
import itertools
import math
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from hanlink import assets, compare, encoding, linkage

TOL = 1e-12
MW_TOL = 1e-9
ORACLE_SAMPLE = 200


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# Raw inputs, read without hanlink


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {f: [row[i] for row in body] for i, f in enumerate(header)}


def read_truth_pairs(path: Path) -> np.ndarray:
    rows = read_csv_columns(path)
    return np.column_stack([np.array(rows["id_a"], dtype=np.int64),
                            np.array(rows["id_b"], dtype=np.int64)])


# ---------------------------------------------------------------------------
# Pattern counts against a hash join


def _joint_codes(values_a: list[str], values_b: list[str]):
    vocab: dict[str, int] = {}
    def codes(values):
        return np.array([-1 if v == "" else vocab.setdefault(v, len(vocab))
                         for v in values], dtype=np.int64)
    ca, cb = codes(values_a), codes(values_b)
    return ca, cb, len(vocab)


def _join_count(keys_a: np.ndarray, keys_b: np.ndarray) -> int:
    ua, na = np.unique(keys_a, return_counts=True)
    ub, nb = np.unique(keys_b, return_counts=True)
    _, ia, ib = np.intersect1d(ua, ub, assume_unique=True, return_indices=True)
    return int((na[ia] * nb[ib]).sum())


def check_tabulation(chk: Checks, fields, records_a, records_b, truth,
                     table, pos) -> None:
    n_a, n_b = len(records_a[fields[0]]), len(records_b[fields[0]])
    chk.expect(int(table.counts.sum()) == n_a * n_b, "pattern counts sum to n_a*n_b")
    chk.expect(int(np.asarray(pos).sum()) == len(truth), "true-match counts sum to n")
    codes = [_joint_codes(records_a[f], records_b[f]) for f in fields]
    ta, tb = truth[:, 0], truth[:, 1]
    col = {f: i for i, f in enumerate(table.fields)}
    for size in range(1, len(fields) + 1):
        for subset in itertools.combinations(range(len(fields)), size):
            ok_a = np.ones(n_a, bool)
            ok_b = np.ones(n_b, bool)
            key_a = np.zeros(n_a, np.int64)
            key_b = np.zeros(n_b, np.int64)
            truth_agree = np.ones(len(truth), bool)
            for f in subset:
                ca, cb, card = codes[f]
                ok_a &= ca >= 0
                ok_b &= cb >= 0
                key_a = key_a * (card + 1) + ca
                key_b = key_b * (card + 1) + cb
                truth_agree &= (ca[ta] >= 0) & (ca[ta] == cb[tb])
            expected = _join_count(key_a[ok_a], key_b[ok_b])
            rows = np.all(table.gammas[:, [col[fields[f]] for f in subset]] == 1, axis=1)
            names = "+".join(fields[f] for f in subset)
            chk.expect(int(table.counts[rows].sum()) == expected,
                       f"pairs agreeing on {names}: table {int(table.counts[rows].sum())}"
                       f" vs join {expected}")
            chk.expect(int(np.asarray(pos)[rows].sum()) == int(truth_agree.sum()),
                       f"true matches agreeing on {names}")


# ---------------------------------------------------------------------------
# EM fits and the exact method's ranking


def check_em(chk: Checks, em_calls) -> None:
    chk.expect(len(em_calls) > 0, "EM was fitted")
    for k, (args, _, model) in enumerate(em_calls):
        trace = np.asarray(model.loglik_trace)
        slack = 1e-9 * (np.abs(trace[:-1]) + 1.0)
        chk.expect(bool(np.all(np.diff(trace) >= -slack)), f"EM fit {k}: loglik non-decreasing")
        chk.expect(model.converged, f"EM fit {k}: converged")
        chk.expect(bool(np.all(model.p_m > model.p_u)), f"EM fit {k}: p_m > p_u on every field")
        z = linkage.zeta(model, args[0])
        chk.expect(bool(np.all((z >= 0) & (z <= 1))), f"EM fit {k}: zeta in [0,1]")


def mann_whitney(scores, pos, neg, q: float) -> tuple[float, float]:
    """AUROC and partial AUROC on FPR in [0, q] / q, ties counted half."""
    scores, pos, neg = (np.asarray(a, float) for a in (scores, pos, neg))
    uniq, inv = np.unique(scores, return_inverse=True)
    p = np.bincount(inv, weights=pos, minlength=len(uniq))[::-1]  # descending score
    n = np.bincount(inv, weights=neg, minlength=len(uniq))[::-1]
    P, N = p.sum(), n.sum()
    neg_above = np.concatenate([[0.0], np.cumsum(n)[:-1]])
    auc = float(((N - neg_above - n) * p + 0.5 * p * n).sum() / (P * N))
    # partial area: each tied group is a straight ROC segment
    area, fpr, tpr = 0.0, 0.0, 0.0
    for pg, ng in zip(p / P, n / N):
        if fpr >= q:
            break
        if ng > 0 and fpr + ng > q:
            frac = (q - fpr) / ng
            area += frac * ng * (tpr + 0.5 * frac * pg)
            fpr = q
            break
        area += ng * (tpr + 0.5 * pg)
        fpr, tpr = fpr + ng, tpr + pg
    return auc, area / q


def check_exact_ranking(chk: Checks, report: dict, table, pos, exact_model) -> None:
    z = linkage.zeta(exact_model, table)
    a, e = mann_whitney(z, pos, table.counts - pos, report["q"])
    chk.expect(abs(a - report["auroc"]) <= MW_TOL,
               f"exact AUROC {report['auroc']!r} vs Mann-Whitney {a!r}")
    chk.expect(abs(e - report["eauroc"]) <= MW_TOL,
               f"exact EAUROC {report['eauroc']!r} vs Mann-Whitney {e!r}")


# ---------------------------------------------------------------------------
# Method reports


PROB_KEYS = ("auroc", "eauroc", "pi_m_true", "pi_m_est", "pi_m_est_prior", "tau", "floor")


def check_method_reports(chk: Checks, reports: dict) -> None:
    fused = {m: r for m, r in reports.items() if m != "exact"}
    for method, r in reports.items():
        for key in PROB_KEYS:
            if key in r:
                chk.expect(0.0 <= r[key] <= 1.0, f"{method}.{key} in [0,1]")
    if not fused:
        return
    counts = {r["n_candidate_pairs"] for r in fused.values()}
    chk.expect(len(counts) == 1, f"all methods report one n_candidate_pairs: {counts}")
    n_cand = max(counts)
    for method, r in fused.items():
        for key in ("n_moved_pairs", "n_adjusted_pairs"):
            if key in r:
                chk.expect(0 <= r[key] <= n_cand, f"{method}.{key} <= n_candidate_pairs")


def check_distribution(chk: Checks, dist) -> None:
    chk.expect(bool(np.all(np.diff(dist.ratio) >= 0)), "score ratio non-decreasing")
    for name in ("tail_m", "tail_u"):
        tail = getattr(dist, name)
        chk.expect(bool(np.all(np.diff(tail) <= 0)), f"{name} non-increasing")
        chk.expect(bool(np.all((tail >= 0) & (tail <= 1))), f"{name} in [0,1]")


# ---------------------------------------------------------------------------
# Name-score oracle


def _logograms(name: str) -> list[str]:
    return list(unicodedata.normalize("NFC", name.strip()))


def _substring(name: str, tag: str) -> str:
    chars = _logograms(name)
    start, end = tag.split(":")
    stop = len(chars) if end == "N" else int(end)
    return "".join(chars[int(start) - 1:stop])


def _levenshtein(a: str, b: str) -> int:
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def _cosine(a: str, b: str, k: int) -> float:
    ta = Counter(a[i:i + k] for i in range(len(a) - k + 1))
    tb = Counter(b[i:i + k] for i in range(len(b) - k + 1))
    dot = sum(c * tb[t] for t, c in ta.items())
    if dot == 0:
        return 0.0
    norm = math.sqrt(sum(c * c for c in ta.values())) * math.sqrt(sum(c * c for c in tb.values()))
    return min(dot / norm, 1.0)


class Oracle:
    def __init__(self, bundle):
        self.bundle = bundle
        self.tables = dict(bundle.tables)
        self.tables[encoding.EncodingKind.J] = encoding.IDENTITY_TABLE

    def category(self, a: str, b: str) -> str:
        ha = encoding.han_indicator(a, self.bundle.surnames)
        hb = encoding.han_indicator(b, self.bundle.surnames)
        return "BothHan" if ha and hb else ("Disagreeing" if ha != hb else "NeitherHan")

    def feature(self, spec, a: str, b: str) -> float:
        if spec.comparator == "CAT":
            return float(("NeitherHan", "BothHan", "Disagreeing").index(self.category(a, b)))
        if spec.encoding == "AMB":
            return float(encoding.ambiguity_count(a) + encoding.ambiguity_count(b))
        sa, sb = _substring(a, spec.range_tag), _substring(b, spec.range_tag)
        if not sa or not sb:
            return 0.0
        if spec.encoding == "LF":
            return (encoding.log_rel_frequency(a, spec.range_tag, self.bundle.freq)
                    + encoding.log_rel_frequency(b, spec.range_tag, self.bundle.freq))
        table = self.tables[encoding.EncodingKind(spec.encoding)]
        ea = encoding.transform(sa, table).joined
        eb = encoding.transform(sb, table).joined
        if ea == eb:
            return 1.0
        if spec.comparator == "LV":
            return 1.0 - _levenshtein(ea, eb) / max(len(ea), len(eb))
        if spec.comparator == "LCS":
            return (max(len(ea), len(eb)) - _levenshtein(ea, eb)) / min(len(ea), len(eb))
        if spec.comparator == "COS":
            return _cosine(ea, eb, spec.k)
        raise ValueError(f"oracle has no comparator {spec.comparator!r}")

    @staticmethod
    def score(model: dict, category: str, x: list[float]) -> float:
        block = model["coefficients"][category]
        z = block["intercept"] + sum(w * v for w, v in zip(block["slopes"], x))
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def check_name_scores(chk: Checks, model_dict: dict, scorer_calls) -> None:
    pairs, scores = [], []
    for args, _, out in scorer_calls:
        pairs.extend(args[1])
        scores.extend(np.asarray(out, float).tolist())
    chk.expect(len(pairs) > 0, "name pairs were scored")
    if not pairs:
        return
    chk.expect(all(0.0 <= s <= 1.0 for s in scores), "name scores in [0,1]")
    chk.expect(model_dict["kind"] == "logistic", "matcher is logistic")
    specs = tuple(compare.FeatureSpec.from_dict(s) for s in model_dict["specs"])
    bundle = assets.load_bundle()
    oracle = Oracle(bundle)
    featurizer = compare.PairFeaturizer(bundle.tables, bundle.freq, bundle.surnames,
                                        specs=specs)
    picks = sorted(set(np.linspace(0, len(pairs) - 1, ORACLE_SAMPLE).astype(int).tolist()))
    sample = [pairs[i] for i in picks]
    X, _ = featurizer.feature_matrix(sample)
    bad_features = bad_scores = 0
    for row, i in enumerate(picks):
        a, b = pairs[i]
        x = [oracle.feature(spec, a, b) for spec in specs]
        bad_features += sum(abs(u - v) > TOL for u, v in zip(x, X[row]))
        expected = oracle.score(model_dict, oracle.category(a, b), x)
        bad_scores += abs(expected - scores[i]) > TOL
    chk.expect(bad_features == 0,
               f"oracle features: {bad_features} of {len(picks) * len(specs)} differ")
    chk.expect(bad_scores == 0, f"oracle scores: {bad_scores} of {len(picks)} differ")
