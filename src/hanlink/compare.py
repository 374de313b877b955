"""Pairwise similarity features over encoded name strings.

Each feature is a (comparator, encoding, token length, substring range)
combination; the default bank has 146 features: 30 Levenshtein + 30
longest-common-substring + 80 cosine + 5 summed properties + 1 Han
category.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoding import (
    LF_RANGES,
    CodeTranslation,
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    IDENTITY_TABLE,
    InputError,
    ambiguity_count,
    han_of_logograms,
    normal_form,
    range_slice,
)

# The comparators are numpy batch kernels; numba is not used.
_HAVE_NUMBA = False

_WORD = 64
_ONE = np.uint64(1)
_HIGH = np.uint64(_WORD - 1)
_EQ_BUDGET = 1 << 22   # pattern-match cells (pairs x text length x pattern width) of a chunk
_TOKEN_BUDGET = 1 << 13  # tokens looked up per cosine chunk, about 1 MB of temporaries
_DENSE_BUDGET = 1 << 20  # token counts (strings x tokens) of a dense cosine block


def index_type(bound: int) -> type:
    """np.int32 if every integer in [0, bound) fits it, else np.int64."""
    return np.int32 if bound <= 2**31 else np.int64


def intern_into(index: dict[str, int], strings: Sequence[str]) -> np.ndarray:
    """Each string's id in `index`, once the strings it lacks are added with
    the next ids, first seen first; int32 below 2^31 ids. The lookups run at
    C speed: `dict.fromkeys` finds the distinct strings, and only those that
    are new are added."""
    index.update(zip(itertools.filterfalse(index.__contains__, dict.fromkeys(strings)),
                     itertools.count(len(index))))
    return np.fromiter(map(index.__getitem__, strings), index_type(len(index)), len(strings))


def intern_strings(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """Distinct strings over all columns, first seen first, and each column
    as ids into them, int32 below 2^31 strings."""
    index: dict[str, int] = {}
    ids = [intern_into(index, col) for col in columns]
    return list(index), ids


class InternedColumn(Sequence):
    """A column of strings held as its distinct values, first seen first,
    and one id per row into them (`intern_strings`); indexing and iteration
    yield the strings. `of` is the one place a list of strings becomes one."""

    def __init__(self, values: list[str], ids: np.ndarray):
        self.values, self.ids = values, ids

    @classmethod
    def of(cls, column: Sequence[str]) -> "InternedColumn":
        """`column` if it already is an InternedColumn, else its strings interned."""
        if isinstance(column, cls):
            return column
        values, (ids,) = intern_strings(column)
        return cls(values, ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k) -> str:
        return self.values[self.ids[k]]

    def __iter__(self):
        return map(self.values.__getitem__, self.ids.tolist())


def merge_interned(columns: Sequence[InternedColumn],
                   missing: str | None = None) -> tuple[list[str], np.ndarray]:
    """`intern_strings` of the columns' strings end to end, as one id array,
    from each column's distinct values alone: a column's ids map through the
    merged ids of its values (the first column's map to themselves). A
    `missing` string gets id -1 and no entry among the distinct strings."""
    index: dict[str, int] = {}
    merged = [intern_into(index, col.values) for col in columns]
    values = list(index)
    if missing in index:
        gap = index[missing]
        del values[gap]
        merged = [np.where(ids == gap, -1, ids - (ids > gap)) for ids in merged]
    out = np.empty(sum(map(len, columns)), dtype=index_type(len(values)))
    start = 0
    for col, ids in zip(columns, merged):
        np.take(ids, col.ids, out=out[start:start + len(col)], mode="clip")  # ids are in range
        start += len(col)
    return values, out


def _lengths(strings: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))


def _code_points(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code points of `strings` end to end, each string's first index
    into them, and the lengths."""
    lens = _lengths(strings)
    points = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.int32)
    return points, np.cumsum(lens) - lens, lens


def _code_rows(points: np.ndarray, starts: np.ndarray, lens: np.ndarray,
               ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code points of the strings `ids` of a `_code_points` triple, one row
    each padded with -1, and their lengths."""
    lens = lens[ids]
    table = np.full((len(ids), max(int(lens.max(initial=0)), 1)), -1, dtype=np.int32)
    at = np.repeat(starts[ids] - (np.cumsum(lens) - lens), lens)
    table[np.arange(table.shape[1]) < lens[:, None]] = points[at + np.arange(len(at))]
    return table, lens


def _myers_chunk(pat: np.ndarray, m: np.ndarray, txt: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """Edit distances of padded pattern rows (1 <= m) against text rows
    (m <= n, n ascending), bit-parallel in 64-bit words per pattern."""
    count, m_max = pat.shape
    n_max = txt.shape[1]
    words = -(-m_max // _WORD)
    # eq[p, w]: bits of pattern word w that equal the text character of the
    # current column, built per column for the texts still running
    bits = np.zeros((count, 8 * words), dtype=np.uint8)
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
        bits[rows, :-(-m_max // 8)] = np.packbits(txt[rows, j, None] == pat[rows], axis=1,
                                                  bitorder="little")
        carry_p, carry_m = _ONE, None  # row 0 of the DP rises by one per column
        for w in range(words):
            e, p, q = eq[rows, w], pv[rows, w], mv[rows, w]
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
    them. Pairs run in chunks of similar text length, each chunk's padded
    code rows gathered from the strings' code points end to end, so no
    padded table over all strings is held.
    """
    points, starts, lens = _code_points(strings)
    u, v = (np.asarray(x, dtype=index_type(len(strings))) for x in (u, v))
    m, n = lens[u], lens[v]
    m, n = np.minimum(m, n), np.maximum(m, n)
    out = n.copy()  # an empty pattern costs one insertion per text character
    live = np.flatnonzero(m > 0).astype(index_type(len(u)))
    live = live[np.argsort(n[live], kind="stable")]
    start = 0
    while start < len(live):
        ahead = live[start:start + max(1, _EQ_BUDGET // _WORD)]
        width = -(-int(m[ahead].max()) // _WORD) * _WORD
        size = max(1, _EQ_BUDGET // (int(n[ahead[-1]]) * width))
        rows = live[start:start + size]
        cu, cv = u[rows], v[rows]
        swap = lens[cu] > lens[cv]
        out[rows] = _myers_chunk(*_code_rows(points, starts, lens, np.where(swap, cv, cu)),
                                 *_code_rows(points, starts, lens, np.where(swap, cu, cv)))
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
    lens = _lengths(strings)
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return _from_distances("LV", edit_distances(strings, u, v), lens[u], lens[v])


def _token_rows(strings: Sequence[str], ks: Sequence[int]):
    """Sparse token counts of every string at every token length in `ks`
    (ascending): row i * len(strings) + s counts the ks[i]-tokens of
    strings[s]. Each entry's row and token id, sorted by (row, token), with
    their counts, each row's first entry, each row's Euclidean norm and the
    number of token ids.

    Tokens of all lengths share one lexicographic numbering. Their first
    three code points (each < 2^21, stored plus one so that a shorter
    token never equals a longer one) pack into one int64; each further
    code point extends the rank of the prefix before it. Only tokens that
    fit in some string are numbered, so a length beyond the longest string
    costs nothing."""
    table, lens = _code_rows(*_code_points(strings), np.arange(len(strings)))
    n_strings, width = table.shape
    ks = np.asarray(ks, dtype=np.int64)
    per = np.maximum(lens[None, :] - ks[:, None] + 1, 0).ravel()
    first = np.cumsum(per) - per  # each row's first window
    row = np.repeat(np.arange(len(per)), per)
    # each window's first code point in the flat code table
    pos = np.arange(len(row)) + np.repeat(np.arange(len(per)) % n_strings * width - first, per)
    codes = table.ravel()
    token = np.zeros(len(row), dtype=np.int64)
    longest = int(ks[row[-1] // n_strings]) if len(row) else 0  # length with a window
    for t in range(longest):
        if t >= 3:  # rank the prefixes, so that one more code point fits
            _, token = np.unique(token, return_inverse=True)
        token <<= 21
        # the windows of the lengths above t: all rows from the first such length on
        longer = first[np.searchsorted(ks, t, side="right") * n_strings]
        token[longer:] |= codes[pos[longer:] + t] + 1
    _, token = np.unique(token, return_inverse=True)
    n_tokens = int(token.max(initial=-1)) + 1
    keys, counts = np.unique(row * n_tokens + token, return_counts=True)
    owner = keys // max(n_tokens, 1)
    tokens = keys - owner * n_tokens
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=len(per)))])
    squares = np.bincount(owner, weights=counts * counts,
                          minlength=len(per)).astype(np.int64)
    # pow(s, 0.5), not np.sqrt: the two round differently for some s (2921, ...);
    # once per distinct sum of squares, of which there are few
    sums, which = np.unique(squares, return_inverse=True)
    norms = np.array([s ** 0.5 for s in sums.tolist()])[which]
    return owner, tokens, counts, offsets, norms, n_tokens


def _cosines(strings: Sequence[str], u, v, ks: Sequence[int]) -> np.ndarray:
    """Cosine similarities of the pairs (strings[u[i]], strings[v[i]]) at
    every token length in `ks`, one row per length, from one token
    numbering; `cosine_sims` without its rule for u[i] == v[i].

    The pairs run ordered by their first string, in chunks whose second
    strings hold about _TOKEN_BUDGET tokens and whose first strings' token
    counts fit one dense (block, n_tokens) array of at most _DENSE_BUDGET
    counts, uint8 where all are below 256; each token of a second string
    reads its count there by one gather. Dot products are integer sums, so
    neither budget changes a value."""
    owner, tokens, counts, offsets, norms, n_tokens = _token_rows(strings, ks)
    nnz = np.diff(offsets)
    order = np.argsort(u, kind="stable")
    u, v = np.asarray(u, dtype=np.int64)[order], np.asarray(v, dtype=np.int64)[order]
    block = max(1, _DENSE_BUDGET // max(n_tokens, 1))
    dense = np.zeros((min(block, len(strings)), n_tokens),
                     np.min_scalar_type(int(counts.max(initial=0))))
    out = np.empty((len(ks), len(u)))
    for row in range(len(ks)):
        shift = row * len(strings)
        ends = np.cumsum(nnz[shift:shift + len(strings)][v])
        start = 0
        while start < len(u):
            base = int(ends[start - 1]) if start else 0
            stop = min(max(start + 1, int(np.searchsorted(ends, base + _TOKEN_BUDGET, side="right"))),
                       int(np.searchsorted(u, u[start] + block)))  # first strings in one block
            cu, cv = u[start:stop] + shift, v[start:stop] + shift
            held = slice(offsets[cu[0]], offsets[cu[-1] + 1])
            dense[owner[held] - cu[0], tokens[held]] = counts[held]
            per = nnz[cv]
            pair = np.repeat(np.arange(len(cv)), per)
            at_v = np.arange(int(per.sum())) + np.repeat(offsets[cv] - (np.cumsum(per) - per), per)
            dot = np.bincount(pair, weights=counts[at_v] * dense[cu[pair] - cu[0], tokens[at_v]],
                              minlength=len(cv))
            dense[owner[held] - cu[0], tokens[held]] = 0
            denom = norms[cu] * norms[cv]
            out[row, order[start:stop]] = np.minimum(dot / np.where(denom > 0, denom, 1.0), 1.0)
            start = stop
    return out


def cosine_sims(strings: Sequence[str], u, v, k: int) -> np.ndarray:
    """Cosine similarity of contiguous k-token count vectors of
    strings[u[i]] and strings[v[i]], `strings` holding each string once:
    1 where u[i] == v[i], 0 when either has no token, else the integer
    dot product over the float norms, capped at 1."""
    if k < 1:
        raise ValueError("token length must be >= 1")
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return np.where(u == v, 1.0, _cosines(strings, u, v, (k,))[0])


RANGE_TAGS = ("1:N", "1:1", "1:2", "2:N", "3:N")


# A name pair's Han category (both names follow the Han convention, neither
# does, or they disagree); its code in feature batches and models is its index
HAN_CATEGORIES = ("NeitherHan", "BothHan", "Disagreeing")

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
    k: int                   # token length: 1 but for COS
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
        elif self.k != 1 and self.comparator != "COS":
            why = f"{self.comparator} takes k 1 only"
        elif self.encoding in ("AMB", "HAN") and self.range_tag != "1:N":
            why = f"{self.encoding} takes the range 1:N only"
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
        return cls(d["comparator"], d["encoding"], d["k"], d["range"])

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
    one list of names, int32 below 2^31 names; indexing and iteration yield
    plain string tuples. An id outside [0, len(names)) is a ValueError."""

    def __init__(self, names: Sequence[str], ia, ib):
        self.names = names
        self.ia, self.ib = np.asarray(ia), np.asarray(ib)
        if self.ia.shape != self.ib.shape or self.ia.ndim != 1:
            raise ValueError("name id arrays must be one-dimensional and of equal length")
        if len(self.ia) and (min(self.ia.min(), self.ib.min()) < 0
                             or max(self.ia.max(), self.ib.max()) >= len(names)):
            raise ValueError(f"name ids must lie in [0, {len(names)})")
        id_type = index_type(len(names))
        self.ia, self.ib = self.ia.astype(id_type, copy=False), self.ib.astype(id_type, copy=False)

    @classmethod
    def of(cls, pairs) -> "NamePairs":
        """`pairs` if it already is a NamePairs, else its (name_a, name_b)
        tuples interned into ids."""
        if isinstance(pairs, cls):
            return pairs
        return cls.of_columns([a for a, _ in pairs], [b for _, b in pairs])

    @classmethod
    def of_columns(cls, names_a: Sequence[str], names_b: Sequence[str]) -> "NamePairs":
        """The pairs (names_a[k], names_b[k]) of two name columns, lists of
        strings or `InternedColumn`s, with one list of names over both."""
        names, ids = merge_interned([InternedColumn.of(names_a), InternedColumn.of(names_b)])
        return cls(names, *np.split(ids, [len(names_a)]))

    def __len__(self) -> int:
        return len(self.ia)

    def __getitem__(self, k) -> tuple[str, str]:
        return self.names[self.ia[k]], self.names[self.ib[k]]

    def __iter__(self):
        return zip(map(self.names.__getitem__, self.ia.tolist()),
                   map(self.names.__getitem__, self.ib.tolist()))


def tables_read(specs) -> tuple[EncodingKind, ...]:
    """The encoding tables the features `specs` read, in STRING_ENCODINGS
    order; J reads none."""
    read = {spec.encoding for spec in specs}
    return tuple(kind for kind in STRING_ENCODINGS[1:] if kind.value in read)


def reads_frequencies(specs) -> bool:
    """Whether a feature of `specs` reads the frequency table (LF)."""
    return any(spec.encoding == "LF" for spec in specs)


class PairFeaturizer:
    """Computes feature matrices for name pairs against a fixed spec list.

    What it reads: the encoding tables of the encodings its specs name
    (`tables_read`), the frequency table only when a spec reads LF, and the
    surnames, since every batch gives each pair's Han category. It keeps
    only those of the tables and frequencies it is given, and one that a
    spec reads but that is not given is a ValueError, so `freq` may be None
    for specs without LF. `AssetBundle.featurizer` parses only the files
    the specs read, and `featurizer(specs)` gives a featurizer of other
    specs over this one's tables that shares its encoded substrings.

    Pairs are scored by name id (`NamePairs`): per-name work (`normal_form`,
    Han indicator, ambiguity tally) runs once per call over the distinct
    names a batch references, found by a flag per name id, and per-substring
    work (log frequencies, encodings) once per distinct substring of a
    range, a slice of the normal form. Each (encoding, range) key encodes
    its new substrings in one `_encode_batch` call, each logogram's code
    looked up once per encoding (`CodeTranslation`), both kept across calls.
    Each key maps each name to its encoded substring's id and finds the
    batch's distinct pairs of unequal encoded substrings in one pass (equal
    ones score 1, a missing one 0), so a duplicate pair costs only a gather.
    Each comparator runs once per batch: one `edit_distances` call over
    every LV/LCS key's pairs, string ids offset per key into one pool, and
    one cosine pass per key covering all its token lengths. Ids and pair
    codes are int32 where they fit.

    `fallbacks` counts the distinct (encoding, logogram) lookups that found
    no code in a table and fell back to the logogram itself; the identity
    encoding J never falls back.
    """

    def __init__(self, tables: dict[EncodingKind, EncodingTable],
                 freq: FrequencyTable | None, surnames: frozenset[str],
                 specs: tuple[FeatureSpec, ...] | None = None):
        self.specs = tuple(specs) if specs is not None else default_feature_bank()
        kinds, lf = tables_read(self.specs), reads_frequencies(self.specs)
        if missing := [kind for kind in kinds if kind not in tables]:
            raise ValueError(f"the features read the {missing[0]} table, which is not given")
        if lf and freq is None:
            raise ValueError("the features read LF, but no frequency table is given")
        self.tables = {kind: tables[kind] for kind in kinds}
        self.tables[EncodingKind.J] = IDENTITY_TABLE
        self.freq = freq if lf else None
        self.surnames = surnames
        self.fallbacks = 0
        self._translations = {kind: CodeTranslation(table) for kind, table in self.tables.items()}
        self._encoded: dict[EncodingKind, dict[str, str]] = {k: {} for k in self.tables}

    def featurizer(self, specs) -> "PairFeaturizer":
        """A featurizer of `specs` over this one's tables, frequencies and
        surnames that shares its per-logogram codes and encoded substrings:
        what either has encoded, the other does not encode again."""
        other = PairFeaturizer(self.tables, self.freq, self.surnames, specs)
        other._translations = {kind: self._translations[kind] for kind in other.tables}
        other._encoded = {kind: self._encoded[kind] for kind in other.tables}
        return other

    def _encode_batch(self, kind: EncodingKind, subs: list[str]) -> list[str]:
        """transform(sub, table).joined of each substring ("" for ""); those
        not encoded before go through one call, counting `fallbacks`."""
        memo, translation = self._encoded[kind], self._translations[kind]
        if new := [sub for sub in subs if sub not in memo]:
            encoded, fallbacks = translation.encode(list(map(normal_form, new)))
            memo.update(zip(new, encoded))
            self.fallbacks += fallbacks
        return [memo[sub] for sub in subs]

    def feature_matrix(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Feature matrix plus Han-category codes, one row per pair of a
        `NamePairs` or a sequence of (name_a, name_b) tuples."""
        pairs = NamePairs.of(pairs)
        used, ia, ib = compact_ids(len(pairs.names), pairs.ia, pairs.ib)
        names = [pairs.names[i] for i in used.tolist()]  # only the names pairs reference
        cats, ranges = self._split(names, ia, ib)
        X = np.empty((len(pairs), len(self.specs)))
        keys: dict[str, dict[str, list[int]]] = {}  # range tag -> encoding -> LV/LCS/COS columns
        for c, spec in enumerate(self.specs):
            if spec.comparator == "CAT":
                X[:, c] = cats
            elif spec.encoding == "AMB":
                amb = np.array([ambiguity_count(n) for n in names], dtype=np.int64)
                X[:, c] = amb[ia] + amb[ib]
            elif spec.encoding == "LF":
                subs, ids, both = ranges[spec.range_tag]
                lf = np.array([self.freq.value(spec.range_tag, sub) for sub in subs])[ids]
                X[:, c] = np.where(both, lf[ia] + lf[ib], 0.0)
            else:
                keys.setdefault(spec.range_tag, {}).setdefault(spec.encoding, []).append(c)
        edits = []  # per key with LV/LCS columns: those columns, its pairs, its strings
        for tag, encodings in keys.items():
            subs, ids, both = ranges[tag]
            for enc, cols in encodings.items():
                kind = EncodingKind(enc)
                strings, (enc_ids,) = intern_strings(self._encode_batch(kind, subs))
                enc_ids = enc_ids[ids]  # each name's encoded substring
                key = _distinct_pairs(len(strings), enc_ids[ia], enc_ids[ib], both)
                X[:, cols] = both[:, None]  # equal encoded substrings score 1, a missing one 0
                cos = [c for c in cols if self.specs[c].comparator == "COS"]
                if cos:
                    ks = sorted({self.specs[c].k for c in cos})
                    sims = dict(zip(ks, _cosines(strings, key.u, key.v, ks)))
                    for c in cos:
                        X[key.todo, c] = sims[self.specs[c].k][key.inverse]
                if edit_cols := [c for c in cols if c not in cos]:
                    edits.append((edit_cols, key, strings))
        if edits:
            self._edit_columns(X, edits)
        return X, cats

    def _split(self, names: list[str], ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, dict]:
        """The Han-category code of each pair (names[ia], names[ib]) and, per
        range the specs read, the distinct substrings of `names`, each
        name's id into them and whether both substrings of each pair are
        present. Each name is put in `normal_form` once, and a range's
        substring is a slice of it."""
        forms = list(map(normal_form, names))
        han = np.array([han_of_logograms(form, self.surnames) for form in forms], dtype=bool)
        ha, hb = han[ia], han[ib]
        code = HAN_CATEGORIES.index
        cats = np.where(ha != hb, code("Disagreeing"),
                        np.where(ha, code("BothHan"), code("NeitherHan"))).astype(np.int8)
        ranges = {}
        for tag in dict.fromkeys(s.range_tag for s in self.specs
                                 if s.comparator != "CAT" and s.encoding != "AMB"):
            cut = range_slice(tag)
            subs, (ids,) = intern_strings([form[cut] for form in forms])
            present = (_lengths(subs) > 0)[ids]
            ranges[tag] = subs, ids, present[ia] & present[ib]
        return cats, ranges

    def _edit_columns(self, X: np.ndarray, edits: list[tuple]) -> None:
        """Fill the LV/LCS columns of every key in `edits` from one
        `edit_distances` call over all their pairs, each key's string ids
        written once, offset by its strings' start, into two pool arrays."""
        pool: list[str] = []
        bounds = np.cumsum([0] + [len(key.u) for _, key, _ in edits])
        id_type = index_type(sum(len(strings) for *_, strings in edits))
        us, vs = np.empty(bounds[-1], dtype=id_type), np.empty(bounds[-1], dtype=id_type)
        for (_, key, strings), start, stop in zip(edits, bounds, bounds[1:]):
            np.add(key.u, len(pool), out=us[start:stop])
            np.add(key.v, len(pool), out=vs[start:stop])
            pool += strings
        d = edit_distances(pool, us, vs)
        lens = _lengths(pool)
        for (cols, key, _), start, stop in zip(edits, bounds, bounds[1:]):
            u, v = us[start:stop], vs[start:stop]
            for c in cols:
                sims = _from_distances(self.specs[c].comparator, d[start:stop], lens[u], lens[v])
                X[key.todo, c] = sims[key.inverse]


_FLAG_RANK_SPAN = 8  # possible ids per batch member `rank_ids` flags, 5 bytes each


def compact_ids(n_ids: int, *ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct ids (< n_ids) of the arrays `ids`, ascending, and each of
    those arrays as ranks into them: `np.unique(np.concatenate(ids),
    return_inverse=True)` without its sort, from one flag per id. Ranks are
    int32 below 2^31 ids. The rank table is written only at the ids seen,
    which is faster than a cumulative sum over every flag."""
    seen = np.zeros(n_ids, dtype=bool)
    for x in ids:
        seen[x] = True
    used = np.flatnonzero(seen)
    rank = np.empty(n_ids, dtype=index_type(n_ids))
    rank[used] = np.arange(len(used))
    return used, *(rank[x] for x in ids)


class _Pairs(NamedTuple):
    """The distinct unordered pairs (u, v) of unequal ids among the pairs
    (a, b) of a batch: `todo` marks the pairs compared, and `inverse` maps
    each of them to its index in (u, v)."""
    u: np.ndarray
    v: np.ndarray
    todo: np.ndarray
    inverse: np.ndarray


def rank_ids(n_ids: int, ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(ids, return_inverse=True)` of ids below n_ids, from a batch
    of `count` records or pairs: by `compact_ids` while n_ids is at most
    `_FLAG_RANK_SPAN` * count, else by a sort."""
    if n_ids <= _FLAG_RANK_SPAN * count:
        return compact_ids(n_ids, ids)
    return np.unique(ids, return_inverse=True)


def _distinct_pairs(n_ids: int, a: np.ndarray, b: np.ndarray, mask) -> _Pairs:
    """The `_Pairs` of the pairs (a[k], b[k]) of ids below n_ids that `mask`
    keeps, (u, v) ascending by (low id, high id). Ids are int32 below 2^31,
    and so is each pair's code, low id * n_ids + high id, when n_ids^2 <=
    2^31; else the code is formed in int64."""
    todo = (a != b) & mask
    a, b = a[todo], b[todo]
    codes = np.minimum(a, b).astype(index_type(n_ids * n_ids))
    codes *= n_ids
    codes += np.maximum(a, b)
    keys, inverse = rank_ids(n_ids * n_ids, codes, len(todo))
    u, v = (x.astype(index_type(n_ids)) for x in np.divmod(keys, n_ids))
    return _Pairs(u, v, todo, inverse.astype(index_type(len(keys))))
