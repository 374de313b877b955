"""Fellegi-Sunter linkage core: agreement-pattern tabulation and EM fit.

Agreement patterns are per-field codes (1 agree, 0 disagree, NA when
either value is missing) counted over all |A| x |B| pairs of two record
files without forming the pairs: joins on each subset of fields count the
pairs agreeing on it, and Moebius inversion over subsets gives the exact
pattern counts (as in fastLink; Enamorado, Fifield and Imai, APSR 113(2),
2019), one count per subset when no value is missing. The subsets that
hold the field with the fewest agreeing pairs (a near-unique field such
as the name) are counted from those pairs instead, listed once, when they
number at most |A| + |B|. The two-class mixture over patterns is fitted
by EM under conditional independence; missing fields contribute a factor
of one to both class likelihoods.

A record file is read into interned columns: each column's distinct cells
and one int32 id per record, so memory follows distinct values, not cells.
A `LinkageDataset` merges each field's two columns into one int32 code
array, looking up only each file's distinct values: file A's n_a records,
then file B's, so the pair (i, j) reads entries i and n_a + j. Join keys
over the codes are int32 too. It lists the pairs of the pattern rows whose
names get scored, again by joins, and hands their names to a scorer as ids
(`NamePairs`). Every base-3 pattern code is built here, by `gamma_codes`.

Each file format the package reads or writes has one reader and one
writer here: every CSV file is read by `CsvTable`, in blocks of rows, whose
`InputError` names the file, and the line, column and cell at fault, and
written by `write_csv`; every JSON file is read by `read_json` and written
by `write_json`.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compare import (InternedColumn, NamePairs, compact_ids, index_type, intern_into,
                      merge_interned)
from .encoding import InputError
from .metrics import PROB_CLAMP

RECORD_FIELDS = ("name", "sex", "yob", "mob", "dob", "loc")  # a record file's columns, name first
NA = 2  # gamma code for "either value missing"
EM_TOL = 1e-10       # EM stops once an iteration changes the log-likelihood by less, relatively
EM_MAX_ITER = 500    # EM iterations at most
_JOIN_SLICE = 1 << 18  # joined pairs held at once while enumerating candidates
_CSV_BLOCK = 1 << 10   # CSV rows read, interned and parsed at a time
# join keys over up to this many composite values per record are ranked by
# `compact_ids`, at one flag (1 byte) and one int32 rank (4 bytes) per value,
# 0.8 MB at n = 20,000; more values are ranked by a sort
_FLAG_RANK_SPAN = 8


def checked_number(key: str, value, lo: float, hi: float = math.inf, *,
                   integer: bool = False, above: bool = False):
    """`value` as given if it is a finite number (an integer if `integer`)
    in [lo, hi], or in (lo, hi] if `above`; else an InputError naming `key`.
    An integer is compared exactly, so one too large for a float is out of
    range, not an OverflowError."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or not (lo < value if above else lo <= value) or value > hi):
        bounds = f"{'>' if above else '>='} {lo}" + (f" and <= {hi}" if hi < math.inf else "")
        raise InputError(f"{key} must be {'an integer' if integer else 'a number'} {bounds}, "
                         f"not {value!r}")
    return value


def check_keys(where: str, given, known) -> None:
    """InputError naming the first key of `given` that `known` lacks."""
    for key in given:
        if key not in known:
            raise InputError(f"{where}: unknown key {key!r}; known keys: {sorted(known)}")


class CsvTable:
    """A CSV file's header and columns, read once in blocks of `_CSV_BLOCK`
    rows; no row is kept. `parsers` gives a column's parser by its name, as a
    dict or a function of the name that returns None for no parser; the
    function is called on each header name before any cell is read, so it
    may reject the header. A column with a parser is the list of its parsed
    cells; any other column is an `InternedColumn`, its distinct cells, first
    seen first, and one int32 id per row. InputError names the file when it
    is empty or names a column
    twice, and a column that `column` is asked for and the header lacks. It
    names the first row, in file order, without exactly one cell per header
    column, by its line, or holding a cell its column's parser rejects with
    ValueError, by its line, column and cell (the leftmost in that row). A
    parsed cell holding "_" or a non-ASCII character is rejected before its
    parser sees it: int and float read those as digits, "1_0" as 10 and a
    fullwidth "２" as 2."""

    def __init__(self, path: str | Path, parsers: dict | Callable | None = None):
        self.path = path
        with Path(path).open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            self.header = [h.strip() for h in header]
            if len(set(self.header)) < len(self.header):
                raise InputError(f"{path}: header names a column twice")
            parser_of = parsers if callable(parsers) else (parsers or {}).get
            parse = [parser_of(name) for name in self.header]
            index: list[dict[str, int]] = [{} for _ in parse]  # per interned column
            parts: list[list] = [[] for _ in parse]  # id blocks or parsed cells
            start = 0
            while block := list(itertools.islice(reader, _CSV_BLOCK)):
                self._add_block(block, start, parse, index, parts)
                start += len(block)
        self._columns = {
            name: part if p is not None else InternedColumn(
                list(ids), np.concatenate(part or [np.empty(0, dtype=np.int32)]))
            for name, p, ids, part in zip(self.header, parse, index, parts)}

    def _add_block(self, block: list[list[str]], start: int, parse, index, parts) -> None:
        """Intern or parse the cells of `block`, whose first row is body row
        `start`, into each column's part; InputError for its first faulty row."""
        width = len(self.header)
        ragged = len(block)
        if set(map(len, block)) - {width}:
            ragged = next(k for k, row in enumerate(block) if len(row) != width)
        faults = []  # (row, column, cell) of each column's first rejected cell
        for c, cells in enumerate(zip(*block[:ragged])):
            if parse[c] is None:
                parts[c].append(intern_into(index[c], cells))
                continue
            plain = len(cells)  # the cells before the first holding "_" or a non-ASCII character
            if "_" in (text := "".join(cells)) or not text.isascii():
                plain = next(k for k, cell in enumerate(cells) if "_" in cell or not cell.isascii())
            done = len(parts[c])
            try:
                parts[c].extend(map(parse[c], cells[:plain]))
            except ValueError:  # extend keeps the values parsed before the rejected cell
                pass
            if (k := len(parts[c]) - done) < len(cells):  # the first cell not parsed
                faults.append((k, c, cells[k]))
        if faults:
            k, c, cell = min(faults)
            raise InputError(f"{self.path}, line {self.line(start + k)}, "
                             f"column '{self.header[c]}': bad cell {cell!r}")
        if ragged < len(block):
            raise InputError(f"{self.path}, line {self.line(start + ragged)}: "
                             f"{len(block[ragged])} cells, expected {width}")

    def line(self, k: int) -> int:
        """The line on which body row k ends, the end of the first k + 2 records."""
        with Path(self.path).open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            for _ in itertools.islice(reader, k + 2):
                pass
            return reader.line_num

    def column(self, name: str):
        """Column `name`: the list of its parsed cells if it has a parser,
        else an `InternedColumn`."""
        if name not in self._columns:
            raise InputError(f"{self.path}: missing required column '{name}'")
        return self._columns[name]


def write_csv(path: str | Path, header, rows) -> None:
    """Write `header` and `rows` (sequences of str cells) as a UTF-8 CSV file
    with LF line ends that `CsvTable` reads back cell for cell. The csv module
    leaves a lone carriage return unquoted, so a row holding one is quoted whole."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            (quoted if any("\r" in cell for cell in row) else writer).writerow(row)


def write_json(path: str | Path | None, obj) -> str:
    """`obj` as JSON text (sorted keys, indent 1, a final newline; NaN and
    infinities are a ValueError), written to `path` unless it is None."""
    text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def read_json(path: str | Path, parse=None):
    """The JSON object in the file at `path`, as read or mapped through
    `parse`. Text that is not JSON, JSON that is not an object and a fault
    `parse` finds (KeyError, ValueError, TypeError, OverflowError) are each
    an InputError naming the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise InputError(f"must hold a JSON object, not {type(data).__name__}")
        return data if parse is None else parse(data)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:  # JSONDecodeError, InputError too
        raise InputError(f"{path}: {exc}") from None


def score_cell(cell: str) -> float:
    """A score cell as a float in [0, 1]; NaN and infinities are rejected."""
    return checked_number("a score", float(cell), 0, 1)


def read_records(path: str | Path) -> dict[str, InternedColumn]:
    """The name,sex,yob,mob,dob,loc columns of a record CSV ("" = missing),
    each an `InternedColumn`: its distinct cells and one int32 id per record."""
    table = CsvTable(path)
    return {f: table.column(f) for f in RECORD_FIELDS}


def write_records(path: str | Path, records: dict[str, list[str]]) -> None:
    write_csv(path, RECORD_FIELDS, zip(*(records[f] for f in RECORD_FIELDS)))


def encode_fields(records_a: dict, records_b: dict,
                  fields) -> tuple[list[np.ndarray], list[list[str]]]:
    """Per field, the codes of file A's values and then file B's, equal
    exactly when the strings are (missing -> -1), int32 below 2^31 distinct
    values, and the distinct values the codes index, first seen first. A
    field's two columns are lists of strings or `InternedColumn`s (a list is
    interned first), merged by `merge_interned`: only each file's distinct
    values are looked up. A field listed twice (EM would count it twice),
    absent from either file or holding another number of a file's records
    than the first field is an InputError."""
    codes, values = [], []
    for k, f in enumerate(fields):
        if f in fields[:k]:
            raise InputError(f"linkage field {f!r} is listed more than once")
        if f not in records_a or f not in records_b:
            raise InputError(f"unknown field {f!r} in record schema")
        distinct, both = merge_interned([InternedColumn.of(records_a[f]),
                                         InternedColumn.of(records_b[f])], missing="")
        codes.append(both)
        values.append(distinct)
    if len({(len(records_a[f]), len(records_b[f])) for f in fields}) > 1:
        raise InputError(f"the fields {list(fields)} hold different numbers of records")
    return codes, values


def gamma_codes(columns) -> np.ndarray:
    """Base-3 pattern codes from each field's gammas, in field order: field
    f contributes gamma_f * 3^f."""
    return sum(np.asarray(gammas, dtype=np.int64) * 3 ** f for f, gammas in enumerate(columns))


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

    @classmethod
    def from_counts(cls, fields, totals: np.ndarray) -> "PatternTable":
        """Table of the codes with a nonzero count in `totals` (indexed by
        code); field f of code c is c // 3^f % 3."""
        present = np.nonzero(totals)[0]
        gammas = present[:, None] // 3 ** np.arange(len(fields)) % 3
        return cls(tuple(fields), gammas, totals[present])

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def codes(self) -> np.ndarray:
        """Each row's pattern code (`gamma_codes`)."""
        return gamma_codes(self.gammas.T)

    def rows_of(self, codes) -> np.ndarray:
        """Row of each pattern code in `codes`, -1 for a code with no row."""
        lookup = np.full(3 ** len(self.fields), -1, dtype=np.int64)
        lookup[self.codes()] = np.arange(len(self.counts))
        return lookup[np.asarray(codes, dtype=np.int64)]


def pair_gamma_codes(codes: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Pattern codes of the record pairs (i[k], j[k]), both indexing every
    field's codes (A's records, then B's)."""
    gathered = ((c[i], c[j]) for c in codes)
    return gamma_codes(np.where((a < 0) | (b < 0), NA, a == b) for a, b in gathered)


def extend_key(key: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Join key over one more field: equal keys mean equal values on every
    field so far. Keys lie in [0, n) over all n records, int32 below 2^31
    records, so they never overflow: key * width + code where that is below
    n, else its rank among the values the records hold, ranked by one flag
    per value while they number at most `_FLAG_RANK_SPAN` * n and by a sort
    beyond; -1 marks a record missing this field or an earlier one."""
    out = np.full(len(key), -1, dtype=index_type(len(key)))
    ok = (key >= 0) & (codes >= 0)
    span, width = int(key.max(initial=-1)) + 1, int(codes.max(initial=-1)) + 1
    composite = key[ok].astype(index_type(span * width)) * width + codes[ok]
    if span * width <= len(key):
        out[ok] = composite
    elif span * width <= _FLAG_RANK_SPAN * len(key):
        out[ok] = compact_ids(span * width, composite)[1]
    else:
        out[ok] = np.unique(composite, return_inverse=True)[1]
    return out


def _subset_keys(codes: list[np.ndarray], fields, subset: int = 0,
                 key: np.ndarray | None = None):
    """Yield (subset, join key) for every subset of `fields` (bit f set for
    field f), depth first, so at most one key per field is held."""
    key = np.zeros(len(codes[0]), dtype=index_type(len(codes[0]))) if key is None else key
    yield subset, key
    for k, f in enumerate(fields):
        yield from _subset_keys(codes, fields[k + 1:], subset | 1 << f, extend_key(key, codes[f]))


def _superset_sums(table: np.ndarray, sign: int) -> None:
    """In place over both axes of a (2^F, 2^F) table indexed by field sets:
    sign 1 sums each entry over its supersets, sign -1 inverts that sum."""
    sets = np.arange(len(table))
    for f in range(len(sets).bit_length() - 1):
        low = sets[(sets >> f & 1) == 0]
        table[low] += sign * table[low | 1 << f]
        table[:, low] += sign * table[:, low | 1 << f]


def _agreeing_pairs(codes: list[np.ndarray], masks: np.ndarray, n_a: int, f: int) -> np.ndarray:
    """[c, s]: the pairs that hold every field of c and agree on all of s,
    for every s holding field f, counted from the pairs agreeing on f."""
    n_sets = 1 << len(codes)
    hist = np.zeros(n_sets * n_sets, dtype=np.int64)  # [fields held, fields agreeing]
    for ia, ib in join_pairs(codes[f][:n_a], codes[f][n_a:], len(masks)):
        ib = ib + n_a
        held = masks[ia] & masks[ib]
        agree = sum((c[ia] == c[ib]).astype(np.int64) << g for g, c in enumerate(codes))
        hist += np.bincount(held * n_sets + (agree & held), minlength=len(hist))
    hist = hist.reshape(n_sets, n_sets)
    _superset_sums(hist, 1)
    return hist


def _join_count(key: np.ndarray, keep: np.ndarray, n_a: int, n_keys: int) -> int:
    """Pairs of a kept A record and a kept B record (the first n_a entries
    are A's) with equal join keys; every kept key lies in [0, n_keys)."""
    return int(np.bincount(key[:n_a][keep[:n_a]], minlength=n_keys)
               @ np.bincount(key[n_a:][keep[n_a:]], minlength=n_keys))


def pattern_counts(codes: list[np.ndarray], n_a: int) -> np.ndarray:
    """Number of A x B pairs with each base-3 pattern code (length 3^F),
    from each field's codes, A's n_a records and then B's (missing -> -1).

    For each field subset S and each C containing it, the pairs of records
    that both have every field of C and agree on all of S number
    sum_k cnt_A[k] * cnt_B[k] over S's join keys k. Inverting over supersets
    of C and of S gives the pairs whose fields present on both sides are
    exactly M and agree exactly on T: code sum_{T} 3^f + sum_{not M} 2 * 3^f.
    Fields no record lacks keep every record, so [C, S] equals
    [(C & gaps) | S, S] for `gaps` the fields some record lacks: 2^F counts
    when no value is missing, up to 3^F when every field is missing somewhere.

    The field f* with the fewest agreeing pairs is enumerated when those
    pairs number at most |A| + |B|: each is listed once, the [C, S] counts
    of every S holding f* are sums over its fields held and fields agreeing,
    and join keys are built only over subsets of the other fields.
    """
    n_fields = len(codes)
    sets = np.arange(1 << n_fields)
    within = (sets[:, None] & sets[None, :]) == sets[None, :]  # [c, s]: s within c
    masks = sum((c >= 0).astype(np.int64) << f for f, c in enumerate(codes))  # fields held
    gaps = int(np.bitwise_or.reduce(~masks & sets[-1]))  # fields some record lacks
    joined = np.zeros((len(sets), len(sets)), dtype=np.int64)  # [c, s]
    # a field's codes are its own join key
    agreeing = [_join_count(c, c >= 0, n_a, int(c.max(initial=-1)) + 1) for c in codes]
    star = int(np.argmin(agreeing))
    rest = tuple(range(n_fields))
    if agreeing[star] <= len(masks):
        with_star = sets[(sets >> star & 1) == 1]
        joined[:, with_star] = _agreeing_pairs(codes, masks, n_a, star)[:, with_star]
        rest = rest[:star] + rest[star + 1:]
    for s, key in _subset_keys(codes, rest):
        n_keys = int(key.max(initial=-1)) + 1
        for c in np.flatnonzero(np.bincount(sets & gaps | s, minlength=len(sets))):
            joined[c, s] = _join_count(key, (masks & c) == c, n_a, n_keys)  # implies key >= 0
    joined = joined[sets[:, None] & gaps | sets[None, :], sets[None, :]]  # as [(c & gaps) | s, s]
    _superset_sums(joined, -1)
    ternary = gamma_codes(sets >> f & 1 for f in range(n_fields))  # gamma 1 on each set's fields
    codes_of = ternary[None, :] + 2 * ternary[len(sets) - 1 - sets][:, None]  # [m, t]
    totals = np.zeros(3 ** n_fields, dtype=np.int64)
    totals[codes_of[within]] = joined[within]
    return totals


def join_pairs(key_a: np.ndarray, key_b: np.ndarray, budget: int):
    """Yield (ia, ib) for every pair with key_a[ia] == key_b[ib] >= 0, in
    slices of consecutive A records holding at most `budget` pairs (a single
    record may exceed it), each slice ordered by (ia, ib)."""
    order = np.argsort(key_b, kind="stable")
    sorted_b = key_b[order]
    lo = np.searchsorted(sorted_b, key_a, side="left")
    hits = np.where(key_a >= 0, np.searchsorted(sorted_b, key_a, side="right") - lo, 0)
    ends = np.cumsum(hits)
    start = 0
    while start < len(key_a):
        stop = max(int(np.searchsorted(ends, ends[start] - hits[start] + budget,
                                       side="right")), start + 1)
        n_hit = hits[start:stop]
        first = ends[start:stop] - n_hit
        ia = np.repeat(np.arange(start, stop), n_hit)
        ib = order[np.repeat(lo[start:stop] - first, n_hit) + np.arange(first[0], ends[stop - 1])]
        yield ia, ib
        start = stop


class LinkageDataset:
    """Two record files with truth links, encoded once for pattern work.

    Each file is a dict of columns by field, lists of strings (simulated
    records) or the `InternedColumn`s `read_records` gives; both go through
    `encode_fields`. `codes[f]` holds field f's int32 codes, file A's n_a
    records and then file B's n_b; `name_ids_a` and `name_ids_b` are the
    name field's two parts, ids into the distinct `names` (-1 if missing).
    The truth links are also held as each A row's linked B row,
    `truth_b_of_a` (-1 if unlinked)."""

    def __init__(self, records_a: dict, records_b: dict, truth: np.ndarray,
                 fields: tuple[str, ...]):
        self.fields = tuple(fields)
        self.codes, values = encode_fields(records_a, records_b, self.fields)
        if "name" not in self.fields:
            raise InputError("linkage fields must include 'name'")
        name = self.fields.index("name")
        self.names = values[name]
        self.n_a, self.n_b = len(records_a["name"]), len(records_b["name"])
        self.name_ids_a, self.name_ids_b = np.split(self.codes[name], [self.n_a])
        if not self.n_a or not self.n_b:
            raise InputError("record files must be non-empty")
        self.truth = np.asarray(truth, dtype=np.int64).reshape(-1, 2)
        for side, ids, n in (("id_a", self.truth[:, 0], self.n_a),
                             ("id_b", self.truth[:, 1], self.n_b)):
            outside = (ids < 0) | (ids >= n)
            repeated = np.zeros(len(ids), dtype=bool)
            repeated[np.argsort(ids, kind="stable")[1:]] = np.diff(np.sort(ids)) == 0
            if len(bad := np.nonzero(outside | repeated)[0]):
                k = bad[0]
                why = f"outside [0, {n})" if outside[k] else "linked more than once"
                raise InputError(f"truth link ({self.truth[k, 0]}, {self.truth[k, 1]}): "
                                 f"{side} {ids[k]} is {why}")
        self.truth_b_of_a = np.full(self.n_a, -1, dtype=np.int64)
        self.truth_b_of_a[self.truth[:, 0]] = self.truth[:, 1]

    def name_pairs(self, ii: np.ndarray, jj: np.ndarray) -> NamePairs:
        """The names of the record pairs (A row ii[k], B row jj[k]), each present."""
        return NamePairs(self.names, self.name_ids_a[ii], self.name_ids_b[jj])

    def tabulate(self) -> tuple[PatternTable, np.ndarray]:
        """Pattern table over all pairs plus true-match counts per row."""
        table = PatternTable.from_counts(self.fields, pattern_counts(self.codes, self.n_a))
        truth_codes = pair_gamma_codes(self.codes, self.truth[:, 0], self.n_a + self.truth[:, 1])
        return table, np.bincount(table.rows_of(truth_codes), minlength=len(table.counts))

    def candidate_pairs(self, table: PatternTable, rows: np.ndarray):
        """All pairs (i, j) of the rows `rows` of `table`, as (i, j, row)
        sorted by (i, j), int32 while the records and rows number at most
        2^31: for each row, a join on the fields it agrees on over the
        records holding every field it does not mark NA, keeping the joined
        pairs with its pattern. Rows visited in field-by-field gamma order
        share the key of their common leading gammas."""
        id_type = index_type(max(self.n_a, self.n_b, len(table.counts)))
        parts = [(np.empty(0, id_type),) * 3]
        codes = table.codes()
        n = self.n_a + self.n_b
        keys = {(): np.zeros(n, dtype=index_type(n))}  # by leading gammas
        for gammas, row in sorted({(tuple(table.gammas[r].tolist()), int(r)) for r in rows}):
            keys = {lead: key for lead, key in keys.items() if lead == gammas[:len(lead)]}
            for f, both in enumerate(self.codes):
                if gammas[:f + 1] not in keys:
                    key = keys[gammas[:f]]
                    keys[gammas[:f + 1]] = (key if gammas[f] == NA else extend_key(key, both)
                                            if gammas[f] == 1 else np.where(both >= 0, key, -1))
            key = keys[gammas]
            for ii, jj in join_pairs(key[:self.n_a], key[self.n_a:], _JOIN_SLICE):
                keep = pair_gamma_codes(self.codes, ii, self.n_a + jj) == codes[row]
                parts.append([x[keep].astype(id_type) for x in (ii, jj)]
                             + [np.full(np.count_nonzero(keep), row, dtype=id_type)])
        ii, jj, cc = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((jj, ii))
        return ii[order], jj[order], cc[order]


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


def _log_pattern_likelihoods(model: LinkageModel, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern log p(gamma|M) and log p(gamma|U); NA fields contribute 0."""
    p_m = np.clip(model.p_m, PROB_CLAMP, 1 - PROB_CLAMP)
    p_u = np.clip(model.p_u, PROB_CLAMP, 1 - PROB_CLAMP)
    log_m = np.zeros(gammas.shape[0])
    log_u = np.zeros(gammas.shape[0])
    for f in range(gammas.shape[1]):
        agree, disagree = gammas[:, f] == 1, gammas[:, f] == 0
        for out, p in ((log_m, p_m[f]), (log_u, p_u[f])):
            out += np.where(agree, np.log(p), np.where(disagree, np.log1p(-p), 0.0))
    return log_m, log_u


def _log_mixture(pi_m: float, log_m: np.ndarray, log_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern log pi_m p(gamma|M) and log p(gamma): the responsibility
    is exp of their difference, the log-likelihood the count-weighted sum
    of the second."""
    log_pm = np.log(pi_m) + log_m
    log_pu = np.log1p(-pi_m) + log_u
    top = np.maximum(log_pm, log_pu)
    return log_pm, top + np.log(np.exp(log_pm - top) + np.exp(log_pu - top))


def _agree_rates(gammas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per field, the weighted share of agreement among the patterns where
    the field is known (0.5 where they carry no weight)."""
    rates = np.empty(gammas.shape[1])
    for f in range(gammas.shape[1]):
        known = gammas[:, f] != NA
        denom = weights[known].sum()
        rates[f] = weights[known & (gammas[:, f] == 1)].sum() / denom if denom > 0 else 0.5
    return rates


def em_fit(table: PatternTable) -> LinkageModel:
    """Fit the conditional-independence mixture by EM.

    Stops when the relative log-likelihood change drops below EM_TOL, or
    after EM_MAX_ITER iterations; parameters are clamped to [1e-12, 1-1e-12].
    Raises RuntimeError if the observed-data log-likelihood decreases at
    any iteration.
    """
    if len(table.counts) < 2:
        raise InputError("pattern table must contain at least 2 distinct patterns")
    gammas = table.gammas
    counts = table.counts.astype(float)
    total = counts.sum()
    model = LinkageModel(fields=table.fields, pi_m=1e-4,
                         p_m=np.full(gammas.shape[1], 0.9),
                         p_u=np.clip(_agree_rates(gammas, counts), 1e-6, 1 - 1e-6))
    log_pm, mix = _log_mixture(model.pi_m, *_log_pattern_likelihoods(model, gammas))
    loglik = float((counts * mix).sum())
    if not np.isfinite(loglik):
        raise ValueError("non-finite likelihood at initialization")
    trace = [loglik]
    converged = False
    iterations = 0
    for iterations in range(1, EM_MAX_ITER + 1):
        resp = np.exp(log_pm - mix)
        w_m = resp * counts
        w_u = (1.0 - resp) * counts
        model = LinkageModel(fields=table.fields,
                             pi_m=float(np.clip(w_m.sum() / total, PROB_CLAMP, 1 - PROB_CLAMP)),
                             p_m=np.clip(_agree_rates(gammas, w_m), PROB_CLAMP, 1 - PROB_CLAMP),
                             p_u=np.clip(_agree_rates(gammas, w_u), PROB_CLAMP, 1 - PROB_CLAMP))
        log_pm, mix = _log_mixture(model.pi_m, *_log_pattern_likelihoods(model, gammas))
        new_loglik = float((counts * mix).sum())
        if not np.isfinite(new_loglik):
            raise ValueError("non-finite likelihood during EM")
        if new_loglik < loglik - 1e-8 * (abs(loglik) + 1.0):
            raise RuntimeError(f"EM log-likelihood decreased from {loglik!r} "
                               f"to {new_loglik!r} at iteration {iterations}")
        delta = abs(new_loglik - loglik)
        loglik = new_loglik
        trace.append(loglik)
        if delta < EM_TOL * (abs(loglik) + 1.0):
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
    log_pm, mix = _log_mixture(model.pi_m, *_log_pattern_likelihoods(
        model, np.asarray(gammas, dtype=np.int8)))
    return np.exp(log_pm - mix)
