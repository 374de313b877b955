"""Locating and loading the bundled demo lookup-table assets."""
from __future__ import annotations

import hashlib
import os
from functools import cached_property
from pathlib import Path

from .encoding import (
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    load_encoding_table,
    load_surnames,
)

ASSET_ENV_VAR = "HANLINK_ASSETS"

_TABLE_FILES = {
    EncodingKind.PY: "pinyin.tsv",
    EncodingKind.FC: "fourcorner.tsv",
    EncodingKind.WB: "wubi98.tsv",
    EncodingKind.RD: "radicals.tsv",
    EncodingKind.RDS: "radicals_struct.tsv",
}


def default_asset_dir() -> Path:
    override = os.environ.get(ASSET_ENV_VAR)
    if override:
        return Path(override)
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
        return [line for line in (self.directory / "corpus_names.txt")
                .read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]

    def versions(self) -> dict[str, str]:
        out = {}
        for path in sorted(self.directory.iterdir()):
            if path.suffix in (".tsv", ".txt"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
                out[path.name] = digest
        return out


def load_bundle(asset_dir: str | Path | None = None) -> AssetBundle:
    """The bundle of `asset_dir` (default: HANLINK_ASSETS, else the packaged
    assets); only the directory is checked here."""
    directory = Path(asset_dir) if asset_dir is not None else default_asset_dir()
    if not directory.is_dir():
        raise FileNotFoundError(f"asset directory {directory} does not exist")
    return AssetBundle(directory)
