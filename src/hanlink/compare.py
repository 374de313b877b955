"""Pairwise similarity features over encoded name strings.

Each feature is a (comparator, encoding, token length, substring range)
combination; the default bank has 146 features: 30 Levenshtein + 30
longest-common-substring + 80 cosine + 5 summed properties + 1 Han
category.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoding import (
    LF_RANGES,
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    IDENTITY_TABLE,
    ambiguity_count,
    extract_substring,
    han_indicator,
    log_rel_frequency,
    transform,
)

try:  # numba roughly 70x faster per call; pure python fallback below
    from numba import njit

    @njit(cache=True)
    def _lev_jit(a, b):  # pragma: no cover - exercised via levenshtein()
        la, lb = a.size, b.size
        prev = np.arange(lb + 1)
        cur = np.zeros(lb + 1, dtype=np.int64)
        for i in range(1, la + 1):
            cur[0] = i
            ca = a[i - 1]
            for j in range(1, lb + 1):
                cost = 0 if ca == b[j - 1] else 1
                best = prev[j] + 1
                if cur[j - 1] + 1 < best:
                    best = cur[j - 1] + 1
                if prev[j - 1] + cost < best:
                    best = prev[j - 1] + cost
                cur[j] = best
            prev, cur = cur, prev
        return prev[lb]

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover
    _HAVE_NUMBA = False


def _lev_python(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[lb]


def _to_codepoints(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.int32)


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions, or
    substitutions turning `a` into `b`."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if _HAVE_NUMBA:
        return int(_lev_jit(_to_codepoints(a), _to_codepoints(b)))
    return _lev_python(a, b)


def levenshtein_sim(a: str, b: str) -> float:
    """1 - E/max(N1, N2); both empty -> 1, exactly one empty -> 0."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def _longest_common_substring(a: str, b: str) -> int:
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ca = a[i - 1]
        for j in range(1, len(b) + 1):
            if ca == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def lcs_sim(a: str, b: str, mode: str = "edit") -> float:
    """Longest-common-substring similarity.

    mode="edit" (default): (max(N1,N2) - E)/min(N1,N2) with E the
    Levenshtein distance. mode="contiguous": length of the longest
    contiguous shared substring divided by the shorter length.
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if mode == "contiguous":
        return _longest_common_substring(a, b) / min(len(a), len(b))
    return (max(len(a), len(b)) - levenshtein(a, b)) / min(len(a), len(b))


def _tokens(s: str, k: int) -> Counter:
    return Counter(s[i : i + k] for i in range(len(s) - k + 1))


def cosine_sim(a: str, b: str, k: int) -> float:
    """Cosine similarity of contiguous k-character token frequency vectors."""
    if k < 1:
        raise ValueError("token length must be >= 1")
    ta, tb = _tokens(a, k), _tokens(b, k)
    if ta == tb:
        return 1.0 if (ta or a == b) else 0.0
    if not ta or not tb:
        return 0.0
    dot = sum(cnt * tb[tok] for tok, cnt in ta.items())
    if dot == 0:
        return 0.0
    na = sum(c * c for c in ta.values()) ** 0.5
    nb = sum(c * c for c in tb.values()) ** 0.5
    return min(dot / (na * nb), 1.0)


RANGE_TAGS = ("1:N", "1:1", "1:2", "2:N", "3:N")


class HanCategory(str, Enum):
    NEITHER = "NeitherHan"
    BOTH = "BothHan"
    DISAGREE = "Disagreeing"

    def __str__(self) -> str:
        return self.value


HAN_CATEGORIES = (HanCategory.NEITHER, HanCategory.BOTH, HanCategory.DISAGREE)

STRING_ENCODINGS = (EncodingKind.J, EncodingKind.PY, EncodingKind.FC,
                    EncodingKind.WB, EncodingKind.RD, EncodingKind.RDS)


@dataclass(frozen=True)
class FeatureSpec:
    comparator: str          # LV | LCS | COS | SUM | CAT
    encoding: str            # EncodingKind value, or AMB | LF | HAN
    k: int                   # token length (1 for LV/LCS; 1-3 for COS)
    range_tag: str

    @property
    def name(self) -> str:
        return f"{self.encoding}_{self.comparator}_k{self.k}_{self.range_tag}"

    def to_dict(self) -> dict:
        return {"comparator": self.comparator, "encoding": self.encoding,
                "k": self.k, "range": self.range_tag}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(d["comparator"], d["encoding"], int(d["k"]), d["range"])

    @classmethod
    def from_name(cls, name: str) -> "FeatureSpec":
        try:
            enc, cmp_name, k_part, range_tag = name.split("_")
            if not k_part.startswith("k"):
                raise ValueError
            return cls(cmp_name, enc, int(k_part[1:]), range_tag)
        except ValueError as exc:
            raise ValueError(f"malformed feature name {name!r} "
                             "(expected <ENC>_<CMP>_k<k>_<range>)") from exc


def default_feature_bank() -> tuple[FeatureSpec, ...]:
    """The full 146-feature bank: encoding-major, comparator-minor order.

    Cosine skips k in {2,3} for the identity encoding; summed ambiguity is
    full-string only; summed log frequency covers the four sub-ranges.
    """
    specs: list[FeatureSpec] = []
    for enc in STRING_ENCODINGS:
        for cmp_name in ("LV", "LCS"):
            for tag in RANGE_TAGS:
                specs.append(FeatureSpec(cmp_name, enc.value, 1, tag))
        ks = (1,) if enc is EncodingKind.J else (1, 2, 3)
        for k in ks:
            for tag in RANGE_TAGS:
                specs.append(FeatureSpec("COS", enc.value, k, tag))
    specs.append(FeatureSpec("SUM", "AMB", 1, "1:N"))
    for tag in LF_RANGES:
        specs.append(FeatureSpec("SUM", "LF", 1, tag))
    specs.append(FeatureSpec("CAT", "HAN", 1, "1:N"))
    return tuple(specs)


@dataclass
class FeatureVector:
    values: np.ndarray
    han_category: HanCategory
    empty_range: bool = False


class PairFeaturizer:
    """Computes feature vectors for name pairs against a fixed spec list.

    Per-name intermediate results (substrings, encoded strings, token
    counters, properties) are cached, so scoring many pairs over a limited
    name vocabulary stays cheap.
    """

    def __init__(self, tables: dict[EncodingKind, EncodingTable],
                 freq: FrequencyTable, surnames: frozenset[str],
                 specs: tuple[FeatureSpec, ...] | None = None,
                 lcs_mode: str = "edit"):
        self.tables = dict(tables)
        self.tables[EncodingKind.J] = IDENTITY_TABLE
        self.freq = freq
        self.surnames = surnames
        self.specs = tuple(specs) if specs is not None else default_feature_bank()
        self.lcs_mode = lcs_mode
        self.fallbacks = 0
        self._subs: dict[tuple[str, str], str] = {}
        self._encoded: dict[tuple[str, str, str], str] = {}
        self._tokens: dict[tuple[str, str, str, int], Counter] = {}
        self._ords: dict[str, np.ndarray] = {}
        self._han: dict[str, bool] = {}
        self._amb: dict[str, int] = {}
        self._lf: dict[tuple[str, str], float] = {}
        self._index = {spec: i for i, spec in enumerate(self.specs)}

    def spec_index(self, spec_name: str) -> int:
        for i, spec in enumerate(self.specs):
            if spec.name == spec_name:
                return i
        raise KeyError(f"unknown feature {spec_name!r}")

    def _substring(self, name: str, tag: str) -> str:
        key = (name, tag)
        cached = self._subs.get(key)
        if cached is None:
            cached = extract_substring(name, tag)
            self._subs[key] = cached
        return cached

    def _encoded_sub(self, name: str, enc: str, tag: str) -> str:
        key = (name, enc, tag)
        cached = self._encoded.get(key)
        if cached is not None:
            return cached
        sub = self._substring(name, tag)
        if not sub:
            joined = ""
        else:
            encoded = transform(sub, self.tables[EncodingKind(enc)])
            self.fallbacks += encoded.fallbacks
            joined = encoded.joined
        self._encoded[key] = joined
        return joined

    def _token_counter(self, name: str, enc: str, tag: str, k: int) -> Counter:
        key = (name, enc, tag, k)
        cached = self._tokens.get(key)
        if cached is None:
            cached = _tokens(self._encoded_sub(name, enc, tag), k)
            self._tokens[key] = cached
        return cached

    def _han_of(self, name: str) -> bool:
        cached = self._han.get(name)
        if cached is None:
            cached = han_indicator(name, self.surnames)
            self._han[name] = cached
        return cached

    def _amb_of(self, name: str) -> int:
        cached = self._amb.get(name)
        if cached is None:
            cached = ambiguity_count(name)
            self._amb[name] = cached
        return cached

    def _lf_of(self, name: str, tag: str) -> float:
        key = (name, tag)
        cached = self._lf.get(key)
        if cached is None:
            cached = log_rel_frequency(name, tag, self.freq)
            self._lf[key] = cached
        return cached

    def han_category(self, name_a: str, name_b: str) -> HanCategory:
        ha, hb = self._han_of(name_a), self._han_of(name_b)
        if ha and hb:
            return HanCategory.BOTH
        if ha != hb:
            return HanCategory.DISAGREE
        return HanCategory.NEITHER

    def _ords_of(self, s: str) -> np.ndarray:
        cached = self._ords.get(s)
        if cached is None:
            cached = _to_codepoints(s)
            self._ords[s] = cached
        return cached

    def _edit_distance(self, ea: str, eb: str, memo: dict | None) -> int:
        if memo is not None:
            key = (ea, eb)
            cached = memo.get(key)
            if cached is not None:
                return cached
        if _HAVE_NUMBA:
            e = int(_lev_jit(self._ords_of(ea), self._ords_of(eb)))
        else:
            e = _lev_python(ea, eb)
        if memo is not None:
            memo[key] = e
        return e

    def feature(self, name_a: str, name_b: str, spec: FeatureSpec) -> float:
        value, _ = self._feature_flag(name_a, name_b, spec, None)
        return value

    def _feature_flag(self, name_a: str, name_b: str, spec: FeatureSpec,
                      memo: dict | None) -> tuple[float, bool]:
        cmp_name = spec.comparator
        if cmp_name == "CAT":
            cat = self.han_category(name_a, name_b)
            return float(HAN_CATEGORIES.index(cat)), False
        if cmp_name == "SUM" and spec.encoding == "AMB":
            return float(self._amb_of(name_a) + self._amb_of(name_b)), False
        sub_a = self._substring(name_a, spec.range_tag)
        sub_b = self._substring(name_b, spec.range_tag)
        if not sub_a or not sub_b:
            return 0.0, True
        if cmp_name == "SUM":  # LF
            return self._lf_of(name_a, spec.range_tag) + self._lf_of(name_b, spec.range_tag), False
        ea = self._encoded_sub(name_a, spec.encoding, spec.range_tag)
        eb = self._encoded_sub(name_b, spec.encoding, spec.range_tag)
        if cmp_name == "LV":
            if ea == eb:
                return 1.0, False
            return 1.0 - self._edit_distance(ea, eb, memo) / max(len(ea), len(eb)), False
        if cmp_name == "LCS":
            if ea == eb:
                return 1.0, False
            if self.lcs_mode == "contiguous":
                return _longest_common_substring(ea, eb) / min(len(ea), len(eb)), False
            e = self._edit_distance(ea, eb, memo)
            return (max(len(ea), len(eb)) - e) / min(len(ea), len(eb)), False
        if cmp_name == "COS":
            if ea == eb:
                return 1.0, False
            ta = self._token_counter(name_a, spec.encoding, spec.range_tag, spec.k)
            tb = self._token_counter(name_b, spec.encoding, spec.range_tag, spec.k)
            if not ta or not tb:
                return 0.0, False
            dot = sum(cnt * tb[tok] for tok, cnt in ta.items())
            if dot == 0:
                return 0.0, False
            na = sum(c * c for c in ta.values()) ** 0.5
            nb = sum(c * c for c in tb.values()) ** 0.5
            return min(dot / (na * nb), 1.0), False
        raise ValueError(f"unknown comparator {cmp_name!r}")

    def feature_vector(self, name_a: str, name_b: str) -> FeatureVector:
        values = np.empty(len(self.specs))
        empty = False
        memo: dict = {}
        for i, spec in enumerate(self.specs):
            values[i], flag = self._feature_flag(name_a, name_b, spec, memo)
            empty = empty or flag
        return FeatureVector(values=values, han_category=self.han_category(name_a, name_b),
                             empty_range=empty)

    def feature_matrix(self, pairs: list[tuple[str, str]],
                       specs: tuple[FeatureSpec, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Feature matrix plus Han-category codes for a batch of name pairs."""
        specs = self.specs if specs is None else specs
        X = np.empty((len(pairs), len(specs)))
        cats = np.empty(len(pairs), dtype=np.int8)
        for r, (a, b) in enumerate(pairs):
            memo: dict = {}
            for c, spec in enumerate(specs):
                X[r, c] = self._feature_flag(a, b, spec, memo)[0]
            cats[r] = HAN_CATEGORIES.index(self.han_category(a, b))
        return X, cats
