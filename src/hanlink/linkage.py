"""Fellegi-Sunter linkage core: agreement-pattern tabulation and EM fit.

Agreement patterns are per-field codes (1 agree, 0 disagree, NA when
either value is missing) tallied over the full cross product of two
record files. The two-class mixture over patterns is fitted by EM under
conditional independence; missing fields contribute a factor of one to
both class likelihoods.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .metrics import PROB_CLAMP

RECORD_FIELDS = ("name", "sex", "yob", "mob", "dob", "loc")
LINK_FIELDS = RECORD_FIELDS  # default linkage field set, name first
NA = 2  # gamma code for "either value missing"


def read_records(path: str | Path) -> dict[str, list[str]]:
    """Read a record CSV with header name,sex,yob,mob,dob,loc; empty cells
    are missing values. A row without exactly one cell per field is an
    error naming its line."""
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(RECORD_FIELDS):
            raise ValueError(f"record file {path} must have header "
                             f"{','.join(RECORD_FIELDS)}")
        columns: dict[str, list[str]] = {f: [] for f in RECORD_FIELDS}
        for row in reader:
            if len(row) != len(RECORD_FIELDS):
                raise ValueError(f"record file {path}, line {reader.line_num}: "
                                 f"{len(row)} cells, expected {len(RECORD_FIELDS)}")
            for f, value in zip(RECORD_FIELDS, row):
                columns[f].append(value)
    return columns


def write_records(path: str | Path, records: dict[str, list[str]]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        n = len(records[RECORD_FIELDS[0]])
        for i in range(n):
            writer.writerow([records[f][i] for f in RECORD_FIELDS])


def check_distinct_fields(fields) -> None:
    """Raise ValueError naming a field listed twice, which EM would count
    twice (and which would widen the base-3 pattern codes)."""
    seen: set[str] = set()
    for f in fields:
        if f in seen:
            raise ValueError(f"linkage field {f!r} is listed more than once")
        seen.add(f)


def encode_field_values(values_a: list[str], values_b: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Shared integer codes for one field across both files; missing -> -1."""
    vocab: dict[str, int] = {}
    def encode(values):
        out = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            if v == "":
                out[i] = -1
            else:
                code = vocab.get(v)
                if code is None:
                    code = len(vocab)
                    vocab[v] = code
                out[i] = code
        return out
    return encode(values_a), encode(values_b)


@dataclass
class PatternTable:
    """Distinct agreement patterns with their pair counts.

    gammas is (J, F) with entries in {0, 1, NA}; counts sums to the number
    of evaluated pairs.
    """
    fields: tuple[str, ...]
    gammas: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=np.int8)
        self.counts = np.asarray(self.counts)
        if self.gammas.ndim != 2 or self.gammas.shape[0] != len(self.counts):
            raise ValueError("gammas and counts are misaligned")

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def codes(self) -> np.ndarray:
        """Row codes in base 3 (field f contributes gamma_f * 3^f)."""
        powers = 3 ** np.arange(len(self.fields), dtype=np.int64)
        return (self.gammas.astype(np.int64) * powers).sum(axis=1)

    def export_csv(self, path: str | Path, zetas: np.ndarray | None = None) -> None:
        with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            header = [f"gamma_{f}" for f in self.fields] + ["count"]
            if zetas is not None:
                header.append("zeta")
            writer.writerow(header)
            for j in range(len(self.counts)):
                row = ["NA" if g == NA else str(int(g)) for g in self.gammas[j]]
                row.append(str(int(self.counts[j])))
                if zetas is not None:
                    row.append(f"{zetas[j]:.12g}")
                writer.writerow(row)


def pair_gamma_codes(field_codes_a: list[np.ndarray],
                     field_codes_b: list[np.ndarray]) -> np.ndarray:
    """Base-3 pattern codes (field f contributes gamma_f * 3^f) of the pairs
    formed by broadcasting each field's A codes against its B codes.

    Aligned 1-d arrays give one code per listed pair; an (n, 1) column
    against a (1, m) row gives the (n, m) cross product, which callers
    chunk to bound memory.
    """
    code = None
    power = 1
    for a, b in zip(field_codes_a, field_codes_b):
        agree = (a == b).astype(np.int64)
        missing = (a == -1) | (b == -1)
        gamma = np.where(missing, NA, agree)
        code = gamma * power if code is None else code + gamma * power
        power *= 3
    return code


def tabulate_patterns(records_a: dict[str, list[str]], records_b: dict[str, list[str]],
                      fields: tuple[str, ...] = LINK_FIELDS,
                      chunk_rows: int = 256) -> PatternTable:
    """Tally agreement patterns over the |A| x |B| cross product."""
    check_distinct_fields(fields)
    for f in fields:
        if f not in records_a or f not in records_b:
            raise ValueError(f"unknown field {f!r} in record schema")
    n_a = len(records_a[fields[0]])
    n_b = len(records_b[fields[0]])
    if n_a == 0 or n_b == 0:
        raise ValueError("record files must be non-empty")
    codes_a, codes_b = [], []
    for f in fields:
        ca, cb = encode_field_values(records_a[f], records_b[f])
        codes_a.append(ca)
        codes_b.append(cb)
    n_codes = 3 ** len(fields)
    totals = np.zeros(n_codes, dtype=np.int64)
    for start in range(0, n_a, chunk_rows):
        rows = slice(start, min(start + chunk_rows, n_a))
        block = pair_gamma_codes([ca[rows][:, None] for ca in codes_a],
                                 [cb[None, :] for cb in codes_b])
        totals += np.bincount(block.ravel(), minlength=n_codes)
    present = np.nonzero(totals)[0]
    gammas = _codes_to_gammas(present, len(fields))
    return PatternTable(fields=tuple(fields), gammas=gammas, counts=totals[present])


def _codes_to_gammas(codes: np.ndarray, n_fields: int) -> np.ndarray:
    out = np.empty((len(codes), n_fields), dtype=np.int8)
    rest = codes.astype(np.int64)
    for f in range(n_fields):
        out[:, f] = rest % 3
        rest //= 3
    return out


@dataclass
class LinkageModel:
    """Mixture parameters: match proportion and per-field agreement
    probabilities for the match (M) and nonmatch (U) classes."""
    fields: tuple[str, ...]
    pi_m: float
    p_m: np.ndarray
    p_u: np.ndarray
    loglik_trace: list[float] = field(default_factory=list)
    converged: bool = True
    iterations: int = 0

    def to_dict(self) -> dict:
        return {"format_version": 1, "fields": list(self.fields),
                "pi_m": self.pi_m,
                "p_agree_match": [float(v) for v in self.p_m],
                "p_agree_unmatch": [float(v) for v in self.p_u],
                "iterations": self.iterations, "converged": self.converged}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True),
                              encoding="utf-8")


def _log_pattern_likelihoods(model: LinkageModel, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern log p(gamma|M) and log p(gamma|U); NA fields contribute 0."""
    p_m = np.clip(model.p_m, PROB_CLAMP, 1 - PROB_CLAMP)
    p_u = np.clip(model.p_u, PROB_CLAMP, 1 - PROB_CLAMP)
    log_m = np.zeros(gammas.shape[0])
    log_u = np.zeros(gammas.shape[0])
    for f in range(gammas.shape[1]):
        g = gammas[:, f]
        agree = g == 1
        disagree = g == 0
        log_m[agree] += np.log(p_m[f])
        log_m[disagree] += np.log1p(-p_m[f])
        log_u[agree] += np.log(p_u[f])
        log_u[disagree] += np.log1p(-p_u[f])
    return log_m, log_u


def _responsibilities(pi_m: float, log_m: np.ndarray, log_u: np.ndarray) -> np.ndarray:
    log_pm = np.log(pi_m) + log_m
    log_pu = np.log1p(-pi_m) + log_u
    top = np.maximum(log_pm, log_pu)
    denom = top + np.log(np.exp(log_pm - top) + np.exp(log_pu - top))
    return np.exp(log_pm - denom)


def _observed_loglik(pi_m: float, log_m: np.ndarray, log_u: np.ndarray,
                     counts: np.ndarray) -> float:
    log_pm = np.log(pi_m) + log_m
    log_pu = np.log1p(-pi_m) + log_u
    top = np.maximum(log_pm, log_pu)
    mix = top + np.log(np.exp(log_pm - top) + np.exp(log_pu - top))
    return float((counts * mix).sum())


def em_fit(table: PatternTable, init: LinkageModel | None = None,
           tol: float = 1e-10, max_iter: int = 500) -> LinkageModel:
    """Fit the conditional-independence mixture by EM.

    Stops when the relative log-likelihood change drops below `tol`;
    parameters are clamped to [1e-12, 1-1e-12]. Raises RuntimeError if the
    observed-data log-likelihood decreases at any iteration.
    """
    if len(table.counts) < 2:
        raise ValueError("pattern table must contain at least 2 distinct patterns")
    gammas = table.gammas
    counts = table.counts.astype(float)
    total = counts.sum()
    n_fields = gammas.shape[1]
    if init is None:
        p_u0 = np.empty(n_fields)
        for f in range(n_fields):
            g = gammas[:, f]
            known = g != NA
            denom = counts[known].sum()
            p_u0[f] = counts[known & (g == 1)].sum() / denom if denom > 0 else 0.5
        model = LinkageModel(fields=table.fields, pi_m=1e-4,
                             p_m=np.full(n_fields, 0.9),
                             p_u=np.clip(p_u0, 1e-6, 1 - 1e-6))
    else:
        model = LinkageModel(fields=table.fields, pi_m=init.pi_m,
                             p_m=np.array(init.p_m, dtype=float),
                             p_u=np.array(init.p_u, dtype=float))
    log_m, log_u = _log_pattern_likelihoods(model, gammas)
    loglik = _observed_loglik(model.pi_m, log_m, log_u, counts)
    if not np.isfinite(loglik):
        raise ValueError("non-finite likelihood at initialization")
    trace = [loglik]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        resp = _responsibilities(model.pi_m, log_m, log_u)
        w_m = resp * counts
        w_u = (1.0 - resp) * counts
        pi_m = float(np.clip(w_m.sum() / total, PROB_CLAMP, 1 - PROB_CLAMP))
        p_m = np.empty(n_fields)
        p_u = np.empty(n_fields)
        for f in range(n_fields):
            g = gammas[:, f]
            known = g != NA
            agree = known & (g == 1)
            m_den = w_m[known].sum()
            u_den = w_u[known].sum()
            p_m[f] = w_m[agree].sum() / m_den if m_den > 0 else 0.5
            p_u[f] = w_u[agree].sum() / u_den if u_den > 0 else 0.5
        model = LinkageModel(fields=table.fields, pi_m=pi_m,
                             p_m=np.clip(p_m, PROB_CLAMP, 1 - PROB_CLAMP),
                             p_u=np.clip(p_u, PROB_CLAMP, 1 - PROB_CLAMP))
        log_m, log_u = _log_pattern_likelihoods(model, gammas)
        new_loglik = _observed_loglik(model.pi_m, log_m, log_u, counts)
        if not np.isfinite(new_loglik):
            raise ValueError("non-finite likelihood during EM")
        if new_loglik < loglik - 1e-8 * (abs(loglik) + 1.0):
            raise RuntimeError(f"EM log-likelihood decreased from {loglik!r} "
                               f"to {new_loglik!r} at iteration {iterations}")
        delta = abs(new_loglik - loglik)
        loglik = new_loglik
        trace.append(loglik)
        if delta < tol * (abs(loglik) + 1.0):
            converged = True
            break
    model.loglik_trace = trace
    model.converged = converged
    model.iterations = iterations
    return model


def zeta(model: LinkageModel, table: PatternTable) -> np.ndarray:
    """Posterior match probability per pattern row (Bayes' law; NA fields
    skipped in both class likelihoods)."""
    return zeta_for_gammas(model, table.gammas)


def zeta_for_gammas(model: LinkageModel, gammas: np.ndarray) -> np.ndarray:
    log_m, log_u = _log_pattern_likelihoods(model, np.asarray(gammas, dtype=np.int8))
    return _responsibilities(model.pi_m, log_m, log_u)
