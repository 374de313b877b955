"""Pairwise similarity features over encoded name strings.

Each feature is a (comparator, encoding, token length, substring range)
combination; the default bank has 146 features: 30 Levenshtein + 30
longest-common-substring + 80 cosine + 5 summed properties + 1 Han
category.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .encoding import (
    LF_RANGES,
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    IDENTITY_TABLE,
    InputError,
    ambiguity_count,
    extract_substring,
    han_indicator,
    join_codes,
    log_rel_frequency,
    logograms,
)

# The comparators are numpy batch kernels; numba is not used.
_HAVE_NUMBA = False

_WORD = 64
_ONE = np.uint64(1)
_HIGH = np.uint64(_WORD - 1)
_EQ_BUDGET = 1 << 22   # bool cells of one chunk's pattern-match table
_TOKEN_BUDGET = 1 << 16  # tokens looked up per cosine chunk


def intern_strings(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """Distinct strings over all columns, first seen first, and each column as ids into them."""
    index: dict[str, int] = {}
    ids = [np.fromiter((index.setdefault(s, len(index)) for s in col),
                       dtype=np.int64, count=len(col)) for col in columns]
    return list(index), ids


def _code_table(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of `strings`, one row each padded with -1, and the lengths."""
    lens = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    table = np.full((len(strings), max(int(lens.max(initial=0)), 1)), -1, dtype=np.int32)
    table[np.arange(table.shape[1]) < lens[:, None]] = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.int32)
    return table, lens


def _myers_chunk(pat: np.ndarray, m: np.ndarray, txt: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """Edit distances of padded pattern rows (1 <= m) against text rows
    (m <= n, n ascending), bit-parallel in 64-bit words per pattern."""
    count, m_max = pat.shape
    n_max = txt.shape[1]
    words = -(-m_max // _WORD)
    # eq[p, j, w]: bits of pattern word w that equal text character j
    bits = np.zeros((count, n_max, 8 * words), dtype=np.uint8)
    bits[:, :, :-(-m_max // 8)] = np.packbits(
        txt[:, :, None] == pat[:, None, :], axis=2, bitorder="little")
    eq = bits.view("<u8")
    pv = np.full((count, words), ~np.uint64(0))
    mv = np.zeros((count, words), dtype=np.uint64)
    last = m - 1
    top = np.zeros((count, words), dtype=np.uint64)
    top[np.arange(count), last // _WORD] = _ONE << (last % _WORD).astype(np.uint64)
    score = m.copy()
    first = 0
    for j in range(n_max):
        while n[first] <= j:  # texts sorted by length: the rest are still running
            first += 1
        rows = slice(first, count)
        carry_p, carry_m = _ONE, None  # row 0 of the DP rises by one per column
        for w in range(words):
            e, p, q = eq[rows, j, w], pv[rows, w], mv[rows, w]
            xv = e | q
            if carry_m is not None:
                e = e | carry_m
            xh = (((e & p) + p) ^ p) | e
            ph = q | ~(xh | p)
            mh = p & xh
            score[rows] += (ph & top[rows, w]) != 0
            score[rows] -= (mh & top[rows, w]) != 0
            out_p, out_m = ph >> _HIGH, mh >> _HIGH
            ph = (ph << _ONE) | carry_p
            mh = mh << _ONE
            if carry_m is not None:
                mh |= carry_m
            pv[rows, w] = mh | ~(xv | ph)
            mv[rows, w] = ph & xv
            carry_p, carry_m = out_p, out_m
    return score


def edit_distances(strings: Sequence[str], u, v) -> np.ndarray:
    """Levenshtein distance between strings[u[i]] and strings[v[i]] for
    every i.

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyrö's
    edit-distance form, vectorized across pairs: the shorter string of
    each pair is the bit-vector pattern, and patterns longer than 64 code
    points span several words with the horizontal delta carried between
    them. Pairs run in chunks of similar text length.
    """
    table, lens = _code_table(strings)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    swap = lens[u] > lens[v]
    pat, txt = np.where(swap, v, u), np.where(swap, u, v)
    m, n = lens[pat], lens[txt]
    out = n.copy()  # an empty pattern costs one insertion per text character
    live = np.nonzero(m > 0)[0]
    live = live[np.argsort(n[live], kind="stable")]
    start = 0
    while start < len(live):
        ahead = live[start:start + _EQ_BUDGET // _WORD]
        width = -(-int(m[ahead].max()) // _WORD) * _WORD
        size = max(1, _EQ_BUDGET // (int(n[ahead[-1]]) * width))
        rows = live[start:start + size]
        m_max, n_max = int(m[rows].max()), int(n[rows[-1]])
        out[rows] = _myers_chunk(table[pat[rows], :m_max], m[rows],
                                 table[txt[rows], :n_max], n[rows])
        start += size
    return out


def _from_distances(comparator: str, d: np.ndarray, la: np.ndarray,
                    lb: np.ndarray) -> np.ndarray:
    """LV (1 - E/max) or edit-mode LCS ((max - E)/min) from distances E;
    both empty -> 1, exactly one empty -> 0."""
    longer, shorter = np.maximum(la, lb), np.minimum(la, lb)
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = 1.0 - d / longer if comparator == "LV" else (longer - d) / shorter
    return np.where(longer == 0, 1.0, np.where(shorter == 0, 0.0, sim))


def levenshtein_sims(strings: Sequence[str], u, v) -> np.ndarray:
    """Levenshtein similarity 1 - E/max(N1, N2) of strings[u[i]] and
    strings[v[i]] for every i; both empty -> 1, exactly one empty -> 0."""
    lens = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return _from_distances("LV", edit_distances(strings, u, v), lens[u], lens[v])


def _token_rows(strings: Sequence[str], k: int):
    """Sparse k-token counts per string: sorted keys (string id * n_tokens
    + token id) with their counts, each string's first entry, and each
    string's Euclidean norm."""
    table, lens = _code_table(strings)
    per = np.maximum(lens - k + 1, 0)
    row = np.repeat(np.arange(len(strings)), per)
    at = np.arange(len(row)) - np.repeat(np.cumsum(per) - per, per)
    token = np.zeros(len(row), dtype=np.int64)
    for t in range(k):  # number the distinct prefixes of length t + 1
        _, token = np.unique(token * 0x110000 + table[row, at + t], return_inverse=True)
    n_tokens = int(token.max(initial=-1)) + 1
    keys, counts = np.unique(row * n_tokens + token, return_counts=True)
    owner = keys // max(n_tokens, 1)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(strings)))])
    squares = np.bincount(owner, weights=counts * counts,
                          minlength=len(strings)).astype(np.int64)
    # pow(s, 0.5), not np.sqrt: the two round differently for some s (2921, ...)
    norms = np.array([s ** 0.5 for s in squares.tolist()])
    return keys, counts, offsets, norms, n_tokens


def cosine_sims(strings: Sequence[str], u, v, k: int) -> np.ndarray:
    """Cosine similarity of contiguous k-token count vectors of
    strings[u[i]] and strings[v[i]], `strings` holding each string once:
    1 where u[i] == v[i], 0 when either has no token, else the integer
    dot product over the float norms, capped at 1."""
    if k < 1:
        raise ValueError("token length must be >= 1")
    keys, counts, offsets, norms, n_tokens = _token_rows(strings, k)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    nnz = np.diff(offsets)
    dot = np.zeros(len(u))
    ends = np.cumsum(nnz[u])
    start = 0
    while start < len(u):
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _TOKEN_BUDGET, side="right")))
        cu, cv = u[start:stop], v[start:stop]
        per = nnz[cu]
        pair = np.repeat(np.arange(len(cu)), per)
        at_u = np.arange(int(per.sum())) + np.repeat(offsets[cu] - (np.cumsum(per) - per), per)
        want = cv[pair] * n_tokens + keys[at_u] % n_tokens
        at_v = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        both = np.where(keys[at_v] == want, counts[at_u] * counts[at_v], 0)
        dot[start:stop] = np.bincount(pair, weights=both, minlength=len(cu))
        start = stop
    denom = norms[u] * norms[v]
    sims = np.minimum(dot / np.where(denom > 0, denom, 1.0), 1.0)
    return np.where(u == v, 1.0, sims)


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
# The comparators whose values lie in [0, 1]: similarities, not SUM's log
# frequencies and ambiguity counts or CAT's category codes
BOUNDED_COMPARATORS = ("LV", "LCS", "COS")
# The encodings each comparator takes
_ENCODINGS_OF = {**dict.fromkeys(BOUNDED_COMPARATORS, tuple(e.value for e in STRING_ENCODINGS)),
                 "SUM": ("AMB", "LF"), "CAT": ("HAN",)}


@dataclass(frozen=True)
class FeatureSpec:
    comparator: str          # LV | LCS | COS | SUM | CAT
    encoding: str            # EncodingKind value, or AMB | LF | HAN
    k: int                   # token length (1 for LV/LCS; 1-3 for COS)
    range_tag: str

    def __post_init__(self):
        encodings = _ENCODINGS_OF.get(self.comparator)
        ranges = LF_RANGES if self.encoding == "LF" else RANGE_TAGS
        if encodings is None:
            why = f"unknown comparator {self.comparator!r}"
        elif self.encoding not in encodings:
            why = f"{self.comparator} takes the encodings {encodings}"
        elif self.range_tag not in ranges:
            why = f"the range must be one of {ranges}"
        elif isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            why = "k must be an integer >= 1"
        else:
            return
        raise InputError(f"feature {self.name!r}: {why}")

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
            k = int(k_part[1:])
        except ValueError:
            raise InputError(f"malformed feature name {name!r} "
                             "(expected <ENC>_<CMP>_k<k>_<range>)") from None
        return cls(cmp_name, enc, k, range_tag)


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


class NamePairs(Sequence):
    """The name pairs (names[ia[k]], names[ib[k]]) held as integer ids into
    one list of names; indexing and iteration yield plain string tuples."""

    def __init__(self, names: Sequence[str], ia, ib):
        self.names = names
        self.ia = np.asarray(ia, dtype=np.int64)
        self.ib = np.asarray(ib, dtype=np.int64)
        if self.ia.shape != self.ib.shape or self.ia.ndim != 1:
            raise ValueError("name id arrays must be one-dimensional and of equal length")

    @classmethod
    def of(cls, pairs) -> "NamePairs":
        """`pairs` if it already is a NamePairs, else its (name_a, name_b)
        tuples interned into ids."""
        if isinstance(pairs, cls):
            return pairs
        names, (ia, ib) = intern_strings([a for a, _ in pairs], [b for _, b in pairs])
        return cls(names, ia, ib)

    def __len__(self) -> int:
        return len(self.ia)

    def __getitem__(self, k) -> tuple[str, str]:
        return self.names[self.ia[k]], self.names[self.ib[k]]

    def __iter__(self):
        return zip(map(self.names.__getitem__, self.ia.tolist()),
                   map(self.names.__getitem__, self.ib.tolist()))


class PairFeaturizer:
    """Computes feature matrices for name pairs against a fixed spec list.

    Pairs are scored by name id (`NamePairs`): per-name work (substrings,
    Han indicator, ambiguity tally, log frequencies) runs once per call
    over the distinct names a batch references; an encoded substring is
    built once per (encoding, distinct substring) from per-logogram codes
    looked up once per (encoding, logogram), both kept across calls.
    Features are built one column at a time in numpy, the string
    comparators running once per distinct pair of unequal encoded
    substrings, so a duplicate pair costs only a gather.

    `fallbacks` counts the distinct (encoding, logogram) lookups that found
    no code in a table and fell back to the logogram itself; the identity
    encoding J never falls back.
    """

    def __init__(self, tables: dict[EncodingKind, EncodingTable],
                 freq: FrequencyTable, surnames: frozenset[str],
                 specs: tuple[FeatureSpec, ...] | None = None):
        self.tables = dict(tables)
        self.tables[EncodingKind.J] = IDENTITY_TABLE
        self.freq = freq
        self.surnames = surnames
        self.specs = tuple(specs) if specs is not None else default_feature_bank()
        self.fallbacks = 0
        self._codes: dict[EncodingKind, dict[str, str]] = {k: {} for k in self.tables}
        self._encoded: dict[EncodingKind, dict[str, str]] = {k: {} for k in self.tables}

    def _encode(self, kind: EncodingKind, sub: str) -> str:
        """transform(sub, table).joined, or "" for an empty substring."""
        memo = self._encoded[kind]
        joined = memo.get(sub)
        if joined is None:
            codes, chars = self._codes[kind], logograms(sub)
            for ch in chars:
                if ch not in codes:
                    code = self.tables[kind].lookup(ch)
                    self.fallbacks += code is None and kind is not EncodingKind.J
                    codes[ch] = ch if code is None else code
            joined = memo[sub] = join_codes(kind, [codes[ch] for ch in chars])
        return joined

    def feature_matrix(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Feature matrix plus Han-category codes, one row per pair of a
        `NamePairs` or a sequence of (name_a, name_b) tuples."""
        pairs = NamePairs.of(pairs)
        used, inverse = np.unique(np.concatenate([pairs.ia, pairs.ib]), return_inverse=True)
        names = [pairs.names[i] for i in used.tolist()]  # only the names pairs reference
        ia, ib = inverse[:len(pairs)], inverse[len(pairs):]
        han = np.array([han_indicator(n, self.surnames) for n in names], dtype=bool)
        ha, hb = han[ia], han[ib]
        cats = np.where(ha != hb, 2, np.where(ha, 1, 0)).astype(np.int8)  # HAN_CATEGORIES
        X = np.empty((len(pairs), len(self.specs)))
        memo: dict = {}
        for c, spec in enumerate(self.specs):
            X[:, c] = cats if spec.comparator == "CAT" else self._column(spec, names, ia, ib, memo)
        return X, cats

    def _column(self, spec: FeatureSpec, names: list[str], ia: np.ndarray,
                ib: np.ndarray, memo: dict) -> np.ndarray:
        """One feature for the pairs (names[ia], names[ib]); `memo` shares
        the substrings, distinct encoded pairs and edit distances between
        the columns of one batch."""
        cmp_name, tag = spec.comparator, spec.range_tag
        if cmp_name == "SUM" and spec.encoding == "AMB":
            amb = np.array([ambiguity_count(n) for n in names], dtype=np.int64)
            return (amb[ia] + amb[ib]).astype(float)
        if tag not in memo:
            subs = [extract_substring(n, tag) for n in names]
            present = np.array([bool(s) for s in subs], dtype=bool)
            memo[tag] = subs, present[ia] & present[ib]
        subs, both = memo[tag]
        if cmp_name == "SUM":  # LF
            lf = np.array([log_rel_frequency(n, tag, self.freq) for n in names])
            return np.where(both, lf[ia] + lf[ib], 0.0)
        if cmp_name not in ("LV", "LCS", "COS"):
            raise ValueError(f"unknown comparator {cmp_name!r}")
        key = (spec.encoding, tag)
        if key not in memo:
            kind = EncodingKind(spec.encoding)
            memo[key] = _distinct_pairs([self._encode(kind, s) for s in subs], ia, ib, both)
        strings, lens, u, v, todo, inverse = memo[key]
        if cmp_name == "COS":
            values = cosine_sims(strings, u, v, spec.k)
        else:
            if ("E",) + key not in memo:
                memo[("E",) + key] = edit_distances(strings, u, v)
            values = _from_distances(cmp_name, memo[("E",) + key], lens[u], lens[v])
        column = both.astype(float)  # equal encoded substrings score 1
        column[todo] = values[inverse]
        return column


def _distinct_pairs(encoded: list[str], ia: np.ndarray, ib: np.ndarray, both: np.ndarray):
    """Distinct unordered pairs of unequal encoded substrings (`encoded`
    holding one per name) among the pairs where both substrings exist, and
    each such pair's index."""
    strings, (ids,) = intern_strings(encoded)
    lens = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    ea, eb = ids[ia], ids[ib]
    todo = both & (ea != eb)
    lo, hi = np.minimum(ea, eb)[todo], np.maximum(ea, eb)[todo]
    keys, inverse = np.unique(lo * len(strings) + hi, return_inverse=True)
    u, v = np.divmod(keys, len(strings))
    return strings, lens, u, v, todo, inverse
