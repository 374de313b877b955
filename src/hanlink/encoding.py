"""Character-level encodings of logographic name strings.

Names are mapped through lookup tables into phonetic (pinyin), visual
(four-corner, radical decomposition) and keystroke (Wubi98) code strings,
plus scalar per-name properties: a Han-convention indicator, an ambiguity
marker tally, and log relative frequencies of name substrings.
"""
from __future__ import annotations

import math
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class InputError(ValueError):
    """A fault in a file or setting the user gave: a config, CSV, model or
    distribution JSON, or asset file. The command line exits 2 on it."""


class EncodingKind(str, Enum):
    J = "J"      # identity
    PY = "PY"    # pinyin
    FC = "FC"    # four-corner code
    WB = "WB"    # Wubi98
    RD = "RD"    # radical decomposition
    RDS = "RDS"  # radical decomposition + structure marks

    def __str__(self) -> str:
        return self.value


# Unicode ideographic description characters; in RDS codes these mark the
# layout of compound characters and are re-ordered after all radicals.
STRUCTURE_CHARS = frozenset("⿰⿱⿲⿳⿴⿵⿶"
                            "⿷⿸⿹⿺⿻")

# PY/FC/WB codes are joined with "_"; RD/RDS codes with a single space.
_SEPARATORS = {
    EncodingKind.J: "",
    EncodingKind.PY: "_",
    EncodingKind.FC: "_",
    EncodingKind.WB: "_",
    EncodingKind.RD: " ",
    EncodingKind.RDS: " ",
}


def logograms(name: str) -> list[str]:
    """Split a name into logograms (Unicode scalar values, NFC-normalized)."""
    return list(unicodedata.normalize("NFC", name.strip()))


@dataclass(frozen=True)
class EncodingTable:
    kind: EncodingKind
    entries: dict[str, str]
    duplicates: int = 0

    def code(self, logogram: str) -> str:
        """The logogram's code, or the logogram itself where the table has none."""
        return self.entries.get(logogram, logogram)


IDENTITY_TABLE = EncodingTable(kind=EncodingKind.J, entries={})


def asset_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of the UTF-8 asset file at `path`
    that is neither blank nor a '#' comment, without its line end. Every
    asset file is read here."""
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if (text := line.lstrip()) and text[0] != "#":
            yield number, line


def load_encoding_table(path: str | Path, kind: EncodingKind) -> EncodingTable:
    """Load a `logogram<TAB>code` TSV; any other line is an InputError
    naming the file and line. The first entry wins on duplicate logograms
    (duplicate count kept on the table)."""
    entries: dict[str, str] = {}
    duplicates = 0
    for number, line in asset_lines(path):
        cells = line.split("\t")
        if len(cells) != 2 or len(logograms(cells[0])) != 1 or not cells[1]:
            raise InputError(f"{path}, line {number}: expected logogram<TAB>code")
        if cells[0] in entries:
            duplicates += 1
        else:
            entries[cells[0]] = cells[1]
    if not entries:
        raise InputError(f"no valid entries in encoding table {path}")
    return EncodingTable(kind=kind, entries=entries, duplicates=duplicates)


@dataclass(frozen=True)
class EncodedName:
    codes: tuple[str, ...]
    joined: str
    fallbacks: int = 0


def transform(name: str, table: EncodingTable) -> EncodedName:
    """Map each logogram of `name` through `table`.

    Unknown logograms fall back to themselves and are tallied in
    `fallbacks`. The J kind's table has no entries, so J maps each
    logogram to itself and tallies none.
    """
    chars = logograms(name)
    if not chars:
        raise ValueError("cannot transform an empty name")
    codes = [table.code(ch) for ch in chars]
    fallbacks = 0 if table.kind is EncodingKind.J else sum(ch not in table.entries
                                                           for ch in chars)
    return EncodedName(tuple(codes), join_codes(table.kind, codes), fallbacks)


def join_codes(kind: EncodingKind, codes: list[str]) -> str:
    """One name's code string from its per-logogram codes."""
    return _join_rds(codes) if kind is EncodingKind.RDS else _SEPARATORS[kind].join(codes)


def _join_rds(codes: list[str]) -> str:
    # All radicals in character order, then all structure marks in
    # character order, mirroring how the codes are displayed.
    radicals: list[str] = []
    structures: list[str] = []
    for code in codes:
        for token in code.split(" "):
            if token in STRUCTURE_CHARS:
                structures.append(token)
            elif token:
                radicals.append(token)
    return " ".join(radicals + structures)


def load_surnames(path: str | Path) -> frozenset[str]:
    names = frozenset(unicodedata.normalize("NFC", line.strip()) for _, line in asset_lines(path))
    if not names:
        raise InputError(f"{path}: no surnames")
    return names


def han_indicator(name: str, surnames: frozenset[str]) -> bool:
    """True iff the name starts with a listed surname (2-logogram surnames
    matched before 1-logogram ones) and has 2-4 logograms in total."""
    return han_of_logograms(logograms(name), surnames)


def han_of_logograms(chars: list[str], surnames: frozenset[str]) -> bool:
    """`han_indicator` of a name already split into logograms."""
    if not surnames:
        raise ValueError("surname set is empty")
    if not 2 <= len(chars) <= 4:
        return False
    if "".join(chars[:2]) in surnames:
        return True
    return chars[0] in surnames


_AMBIGUITY_MARKS = ("?", "？", "(", ")", "（", "）", "又名")


def ambiguity_count(name: str) -> int:
    """Tally of ambiguity markers: question marks, parentheses (each marker
    counts one), and the alias phrase 又名."""
    text = unicodedata.normalize("NFC", name)
    return sum(text.count(mark) for mark in _AMBIGUITY_MARKS)


LF_RANGES = ("1:1", "1:2", "2:N", "3:N")


def extract_substring(name: str, range_tag: str) -> str:
    """Logograms of `name` at the 1-based positions given by the range;
    ranges past the end truncate, a start past the end yields ""."""
    return range_substring(logograms(name), range_tag)


def range_substring(chars: list[str], range_tag: str) -> str:
    """`extract_substring` of a name already split into logograms."""
    start_s, end_s = range_tag.split(":")
    start = int(start_s)
    end = len(chars) if end_s == "N" else int(end_s)
    return "".join(chars[start - 1 : end])


@dataclass
class FrequencyTable:
    """Log relative frequencies of name substrings, keyed by (range, substring)."""
    values: dict[tuple[str, str], float]
    floor: float

    @classmethod
    def load(cls, path: str | Path) -> "FrequencyTable":
        """A range<TAB>substring<TAB>log frequency TSV; the floor, an unseen
        substring's value, lies log 2 below the smallest stored value. A
        file without entries, a malformed line and a key listed twice are
        each an InputError naming the file (and the line)."""
        values: dict[tuple[str, str], float] = {}
        for number, line in asset_lines(path):
            try:
                tag, sub, val = line.split("\t")
                if not math.isfinite(value := float(val)):
                    raise ValueError
            except ValueError:
                raise InputError(f"{path}, line {number}: expected "
                                 "range<TAB>substring<TAB>log frequency") from None
            if (tag, sub) in values:
                raise InputError(f"{path}, line {number}: {sub!r} at {tag} is listed twice")
            values[tag, sub] = value
        if not values:
            raise InputError(f"{path}: no frequency entries")
        return cls(values=values, floor=min(values.values()) + math.log(0.5))

    def value(self, range_tag: str, sub: str) -> float:
        """The stored log relative frequency of `sub` at `range_tag`, or the floor."""
        return self.values.get((range_tag, sub), self.floor)


def log_rel_frequency(name: str, range_tag: str, freq: FrequencyTable) -> float:
    """Stored log relative frequency of the substring of `name` selected by
    `range_tag`, or the table floor when unseen."""
    if range_tag not in LF_RANGES:
        raise ValueError(f"substring range {range_tag!r} not allowed for frequencies "
                         f"(expected one of {LF_RANGES})")
    return freq.value(range_tag, extract_substring(name, range_tag))
