"""Locating and loading the bundled demo lookup-table assets.

The asset directory is the command line's --assets, or else the packaged
`assets` directory next to this module (`default_asset_dir`). Each asset
file format has one reader, `encoding.asset_lines`, under its loader here.
"""
from __future__ import annotations

import hashlib
from functools import cached_property
from pathlib import Path

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
    """The lookup tables of one asset directory, each read from its file on
    first use, so a run that needs none (exact agreement only) reads none."""

    def __init__(self, directory: Path):
        self.directory = directory

    @cached_property
    def tables(self) -> dict[EncodingKind, EncodingTable]:
        return {kind: load_encoding_table(self.directory / fname, kind)
                for kind, fname in _TABLE_FILES.items()}

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
