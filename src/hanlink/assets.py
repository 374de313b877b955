"""Locating and loading the bundled demo lookup-table assets.

The asset directory is the command line's --assets, or else the packaged
`assets` directory next to this module (`default_asset_dir`). Each asset
file format has one reader, `encoding.asset_lines`, under its loader here.
"""
from __future__ import annotations

import hashlib
from functools import cached_property
from pathlib import Path

from .compare import PairFeaturizer, default_feature_bank, reads_frequencies, tables_read
from .encoding import (
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    asset_lines,
    load_encoding_table,
    load_surnames,
)

_TABLE_FILES = {
    EncodingKind.PY: "pinyin.tsv",
    EncodingKind.FC: "fourcorner.tsv",
    EncodingKind.WB: "wubi98.tsv",
    EncodingKind.RD: "radicals.tsv",
    EncodingKind.RDS: "radicals_struct.tsv",
}


def default_asset_dir() -> Path:
    return Path(__file__).resolve().parent / "assets"


class AssetBundle:
    """The lookup tables of one asset directory, each parsed from its file on
    first use and then kept: an encoding table when a caller reads that
    encoding (`table`, or `tables` for all five), the frequency table when
    one reads LF. `featurizer` parses only the tables its features read, so
    an exact-only run parses no asset, a fused run only what its matcher
    reads, and a study, whose featurizer has the full bank, all of them."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._tables: dict[EncodingKind, EncodingTable] = {}

    def table(self, kind: EncodingKind) -> EncodingTable:
        if kind not in self._tables:
            self._tables[kind] = load_encoding_table(self.directory / _TABLE_FILES[kind], kind)
        return self._tables[kind]

    @property
    def tables(self) -> dict[EncodingKind, EncodingTable]:
        return {kind: self.table(kind) for kind in _TABLE_FILES}

    def featurizer(self, specs=None) -> PairFeaturizer:
        """A featurizer of `specs` (default: the full bank) given only the
        tables they read (`compare.tables_read`), and the frequency table
        only if one reads LF."""
        specs = default_feature_bank() if specs is None else tuple(specs)
        return PairFeaturizer({kind: self.table(kind) for kind in tables_read(specs)},
                              self.freq if reads_frequencies(specs) else None,
                              self.surnames, specs)

    @cached_property
    def surnames(self) -> frozenset[str]:
        return load_surnames(self.directory / "surnames.tsv")

    @cached_property
    def freq(self) -> FrequencyTable:
        return FrequencyTable.load(self.directory / "freq_demo.tsv")

    @cached_property
    def corpus(self) -> list[str]:
        return [line for _, line in asset_lines(self.directory / "corpus_names.txt")]

    def versions(self) -> dict[str, str]:
        out = {}
        for path in sorted(self.directory.iterdir()):
            if path.suffix in (".tsv", ".txt"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
                out[path.name] = digest
        return out


def load_bundle(asset_dir: str | Path | None = None) -> AssetBundle:
    """The bundle of `asset_dir` (default: the packaged assets); only the
    directory is checked here."""
    directory = Path(asset_dir) if asset_dir is not None else default_asset_dir()
    if not directory.is_dir():
        raise FileNotFoundError(f"asset directory {directory} does not exist")
    return AssetBundle(directory)
