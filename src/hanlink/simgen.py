"""Synthetic paired record files with ground-truth links.

Names are sampled position-by-position from the character distribution of
a reference corpus (with a STOP symbol controlling length); file B
re-records every individual of file A, corrupting each field independently
at its fixed rate and the name at the configured rate with an error type
drawn from fixed shares. A simulation varies only its size, name error
rate, supporting fields and seed (`SimConfig`). Substitution candidates for
replacement errors are characters whose encodings are highly similar under
any of the phonetic/visual/keystroke encodings. Each error mechanism returns
its variant, or None when the name gives it nothing to act on (multi
replacement or decomposition of one logogram, transposition without
unequal neighbours, decomposition without a decomposable logogram): None
means single replacement instead, and the fallback flag is set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compare import _from_distances, levenshtein_sims
from .encoding import EncodingKind, EncodingTable, logograms
from .linkage import RECORD_FIELDS, CsvTable, InputError, check_keys, checked_number, write_csv

# Error-type shares observed among name disagreements (single/multi
# replacement, insertion/deletion, transposition, extra/alternative name,
# decomposition, complex), renormalized once to sum to one.
_OBSERVED_ERROR_TYPES = {
    "single_replacement": 0.8448,
    "multi_replacement": 0.0808,
    "insertion_deletion": 0.0287,
    "transposition": 0.0236,
    "multi_name": 0.0059,
    "decomposition": 0.0050,
    "complex": 0.0111,
}
ERROR_TYPES = {t: share / sum(_OBSERVED_ERROR_TYPES.values())
               for t, share in _OBSERVED_ERROR_TYPES.items()}

# Per-field disagreement rates among true matches (1 - field sensitivity),
# and each field's number of values.
FIELD_ERROR_RATES = {"sex": 0.0053, "yob": 0.0178, "mob": 0.0367, "dob": 0.0465, "loc": 0.1178}
CARDINALITIES = {"sex": 2, "yob": 80, "mob": 12, "dob": 31, "loc": 200}

DEFAULT_NAME_ERROR_RATE = 0.0345

SIM_FIELDS = RECORD_FIELDS[1:]  # every record field but the name, in file order

# The most records a simulation draws: ten times the 100k-record linkage
# aimed at. `generate_pair_files` takes about 12 us and 1 KB of peak RSS per
# record (100k: 1.19 s, +96 MB; 300k: 3.61 s, +285 MB; 2-vCPU x86 host).
MAX_RECORDS = 10 ** 6

STOP = "\x00"
_PAIR_BLOCK = 1 << 14  # character pairs searched at a time for substitutions

# How far from 1 a probability vector may sum and still be drawn from.
SUM_TOLERANCE = 1e-6


@dataclass
class SimConfig:
    """Simulation settings: the record count, the name error rate, the
    simulated supporting fields and the seed. The error model (field error
    rates, error-type shares, cardinalities) is fixed by the module's
    constants. A key or value out of place is an InputError naming it."""
    n_records: int = 10_000
    name_error_rate: float = DEFAULT_NAME_ERROR_RATE
    fields: tuple[str, ...] = SIM_FIELDS
    seed: int = 0

    def __post_init__(self):
        checked_number("simulation key 'n_records'", self.n_records, 1, integer=True)
        if self.n_records > MAX_RECORDS:
            raise InputError(f"simulation key 'n_records' must be at most {MAX_RECORDS}, "
                             f"not {self.n_records}")
        checked_number("simulation key 'seed'", self.seed, 0, integer=True)
        checked_number("simulation key 'name_error_rate'", self.name_error_rate, 0, 1)
        if not isinstance(self.fields, (list, tuple)):
            raise InputError(f"simulation key 'fields' must list fields, not {self.fields!r}")
        self.fields = tuple(self.fields)
        check_keys("simulation key 'fields'", self.fields, SIM_FIELDS)
        if twice := [f for k, f in enumerate(self.fields) if f in self.fields[:k]]:
            raise InputError(f"simulation key 'fields' lists {twice[0]!r} more than once")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        check_keys("simulation config", d, cls.__dataclass_fields__)
        return cls(**d)


@dataclass
class PositionalNameModel:
    """Per-position character distributions (with STOP) plus substitution
    and decomposition candidates for corruption."""
    position_chars: list[tuple[str, ...]]   # chars available at position i (0-based)
    position_probs: list[np.ndarray]
    substitutions: dict[str, tuple[str, ...]]
    decompositions: dict[str, str]
    inventory: tuple[str, ...]
    max_len: int
    # what sample_name draws from, derived from position_probs once
    position_cdfs: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.position_cdfs = [distribution_cdf(p, f"position {pos}'s character probabilities")
                              for pos, p in enumerate(self.position_probs)]


def distribution_cdf(probs: np.ndarray, what: str) -> np.ndarray:
    """The cumulative distribution `Generator.choice(len(probs), p=probs)`
    draws from, cumsum(p) / cumsum(p)[-1], for `draw`. `probs` must be
    finite, non-negative and sum to 1 within SUM_TOLERANCE: a ValueError
    naming `what` otherwise."""
    total = probs.sum()
    if not (np.isfinite(total) and (probs >= 0).all() and abs(total - 1.0) <= SUM_TOLERANCE):
        raise ValueError(f"{what} must be non-negative and sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn from `cdf` exactly as `Generator.choice` draws it with
    the probabilities behind `cdf`: one `rng.random()`, searched from the
    right. The result and the generator's next state match choice's."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def edit_distance_floor(codes: list[str], u, v) -> np.ndarray:
    """A lower bound on the Levenshtein distance of codes[u[i]] and
    codes[v[i]]: the larger of the length gap and, for each side, the
    number of symbols (code point mod 64, one bit of a uint64 each) it holds
    that the other lacks, since every character of such a symbol must be
    deleted or substituted. Symbols that collide mod 64 only lower it."""
    sets = np.array([sum({1 << (ord(ch) & 63) for ch in code}) for code in codes],
                    dtype=np.uint64)
    lens = np.fromiter(map(len, codes), dtype=np.int64, count=len(codes))
    sa, sb = sets[u], sets[v]
    gone = np.maximum(np.bitwise_count(sa & ~sb), np.bitwise_count(sb & ~sa))
    return np.maximum(gone, np.abs(lens[u] - lens[v]))


def build_name_model(corpus: list[str],
                     tables: dict[EncodingKind, EncodingTable],
                     sim_threshold: float = 0.8) -> PositionalNameModel:
    """Positional character frequencies (add-one smoothed) and candidate
    substitutions: characters whose codes reach `sim_threshold` Levenshtein
    similarity under any of PY/FC/WB/RDS."""
    names = [logograms(n) for n in corpus if n.strip()]
    if not names:
        raise InputError("name corpus is empty")
    max_len = max(len(n) for n in names)
    length_counts = np.bincount([len(n) for n in names], minlength=max_len + 1)

    position_chars: list[np.ndarray] = []
    position_probs: list[np.ndarray] = []
    for pos in range(max_len):
        counts: dict[str, int] = {}
        for name in names:
            if len(name) > pos:
                counts[name[pos]] = counts.get(name[pos], 0) + 1
        chars = sorted(counts)
        weights = np.array([counts[c] + 1 for c in chars], dtype=float)
        if pos >= 1:
            chars.append(STOP)
            weights = np.append(weights, length_counts[pos] + 1)
        position_chars.append(tuple(chars))
        position_probs.append(weights / weights.sum())

    inventory = tuple(sorted({c for name in names for c in name}))
    first, second = np.triu_indices(len(inventory), 1)
    hit = np.zeros(len(first), dtype=bool)
    encoded = []  # (codes, their lengths) per searched encoding
    for kind in (EncodingKind.PY, EncodingKind.FC, EncodingKind.WB, EncodingKind.RDS):
        if kind in tables:
            codes = [tables[kind].code(c) for c in inventory]
            encoded.append((codes, np.array([len(code) for code in codes], dtype=np.int64)))
    for start in range(0, len(first), _PAIR_BLOCK):
        # one block of pairs at a time; `found` is a view of its part of `hit`
        a, b = first[start:start + _PAIR_BLOCK], second[start:start + _PAIR_BLOCK]
        found = hit[start:start + _PAIR_BLOCK]
        for codes, lens in encoded:
            la, lb = lens[a], lens[b]
            # sim >= t requires E <= (1-t)*maxlen and E >= length gap
            pruned = np.abs(la - lb) > (1.0 - sim_threshold) * np.maximum(la, lb)
            todo = np.nonzero(~found & ~pruned)[0]  # a pair matched once is not searched again
            # levenshtein_sims' own similarity of a floor of E: it falls as E
            # grows, so a pair below the threshold at its floor stays below
            floor = edit_distance_floor(codes, a[todo], b[todo])
            todo = todo[_from_distances("LV", floor, la[todo], lb[todo]) >= sim_threshold]
            sims = levenshtein_sims(codes, a[todo], b[todo])
            found[todo[sims >= sim_threshold]] = True
    # each character's candidates in inventory order
    char, other = (np.concatenate([first[hit], second[hit]]),
                   np.concatenate([second[hit], first[hit]]))
    order = np.lexsort((other, char))
    substitutions: dict[str, list[str]] = {c: [] for c in inventory}
    for i, j in zip(char[order].tolist(), other[order].tolist()):
        substitutions[inventory[i]].append(inventory[j])
    decompositions: dict[str, str] = {}
    rd = tables.get(EncodingKind.RD)
    if rd is not None:
        for c, code in rd.entries.items():
            leaves = [t for t in code.split(" ") if t]
            if len(leaves) >= 2:
                decompositions[c] = "".join(leaves)
    return PositionalNameModel(
        position_chars=position_chars,
        position_probs=position_probs,
        substitutions={c: tuple(v) for c, v in substitutions.items()},
        decompositions=decompositions,
        inventory=inventory,
        max_len=max_len,
    )


def sample_name(model: PositionalNameModel, rng: np.random.Generator) -> str:
    chars = []
    for available, cdf in zip(model.position_chars, model.position_cdfs):
        pick = available[draw(cdf, rng)]
        if pick == STOP:
            break
        chars.append(pick)
    return "".join(chars)


def _replace(chars, positions, model, rng) -> list[str]:
    """chars with each of `positions` replaced by one of its substitution
    candidates, or by any other inventory character when it has none."""
    out = list(chars)
    for pos in positions:
        char = out[pos]
        candidates = [c for c in model.substitutions.get(char, ()) if c != char]
        if not candidates:
            candidates = [c for c in model.inventory if c != char]
        out[pos] = candidates[rng.integers(len(candidates))]
    return out


def _single_replacement(chars, model, rng):
    return _replace(chars, [int(rng.integers(len(chars)))], model, rng)


def _multi_replacement(chars, model, rng):
    if len(chars) < 2:
        return None
    return _replace(chars, rng.choice(len(chars), size=2, replace=False).tolist(), model, rng)


def _insertion_deletion(chars, model, rng):
    if len(chars) < 2 or rng.random() < 0.5:
        pos = int(rng.integers(len(chars) + 1))
        extra = model.inventory[rng.integers(len(model.inventory))]
        return chars[:pos] + [extra] + chars[pos:]
    pos = int(rng.integers(len(chars)))
    return chars[:pos] + chars[pos + 1:]


def _transposition(chars, model, rng):
    swappable = [i for i in range(len(chars) - 1) if chars[i] != chars[i + 1]]
    if not swappable:
        return None
    i = swappable[rng.integers(len(swappable))]
    out = list(chars)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _decomposition(chars, model, rng):
    spots = [i for i, c in enumerate(chars) if c in model.decompositions]
    if len(chars) < 2 or not spots:
        return None
    i = spots[rng.integers(len(spots))]
    return chars[:i] + list(model.decompositions[chars[i]]) + chars[i + 1:]


def _multi_name(chars, model, rng):
    variant = _single_replacement(chars, model, rng)
    return chars + ["("] + variant + [")"]


# error type -> mechanism; "complex" is two draws of _COMPLEX_STEPS
_MECHANISMS = {"single_replacement": _single_replacement, "multi_replacement": _multi_replacement,
               "insertion_deletion": _insertion_deletion, "transposition": _transposition,
               "multi_name": _multi_name, "decomposition": _decomposition}
_COMPLEX_STEPS = ("single_replacement", "insertion_deletion", "transposition")


def _mechanism(error_type: str, chars: list[str], model, rng) -> tuple[list[str], bool]:
    """(variant, fell_back) of one application of `error_type` to chars: a
    mechanism that cannot act falls back to single replacement."""
    if error_type == "complex":
        steps = _COMPLEX_STEPS
        first, fell_1 = _mechanism(steps[rng.integers(len(steps))], chars, model, rng)
        second, fell_2 = _mechanism(steps[rng.integers(len(steps))], first, model, rng)
        return second, fell_1 or fell_2
    variant = _MECHANISMS[error_type](chars, model, rng)
    if variant is None:
        return _single_replacement(chars, model, rng), True
    return variant, False


def corrupt_name(name: str, error_type: str, model: PositionalNameModel,
                 rng: np.random.Generator) -> tuple[str, bool]:
    """Apply one error mechanism to `name`; returns (variant, fell_back).

    A mechanism that cannot act on the name falls back to single
    replacement and sets the flag, as does one whose variant still equals
    the name after 8 tries. Output is guaranteed to differ from the input.
    """
    chars = logograms(name)
    if not chars:
        raise ValueError("cannot corrupt an empty name")
    if error_type not in ERROR_TYPES:
        raise ValueError(f"unknown error type {error_type!r}")
    fallback = False
    for _ in range(8):
        variant, fell_back = _mechanism(error_type, chars, model, rng)
        fallback |= fell_back
        if variant != chars:
            return "".join(variant), fallback
    return "".join(_single_replacement(chars, model, rng)), True


def _field_cdf(fld: str, card: int) -> np.ndarray | None:
    """The CDF of loc's Zipf-ish location sizes 1..card; None (uniform
    values) for every other field."""
    if fld != "loc":
        return None
    weights = 1.0 / np.arange(1, card + 1)
    weights /= weights.sum()
    return distribution_cdf(weights, "location sizes")


def _sample_field_values(cdf, card: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n values in 1..card, a CDF searched as `Generator.choice` searches it."""
    if cdf is None:
        return rng.integers(1, card + 1, size=n)
    return cdf.searchsorted(rng.random(n), side="right") + 1


def _field_value_str(fld: str, value: int) -> str:
    if fld == "yob":
        return str(1939 + value)
    if fld == "loc":
        return f"L{value:03d}"
    return str(value)


def _redraw_different(current: int, cdf, card: int, rng: np.random.Generator) -> int:
    for _ in range(64):
        new = int(_sample_field_values(cdf, card, 1, rng)[0])
        if new != current:
            return new
    return current % card + 1


@dataclass
class SimResult:
    records_a: dict[str, list[str]]
    records_b: dict[str, list[str]]
    truth: np.ndarray                 # (n, 2) row indices into A and B
    requested_error_types: list[str]  # per corrupted name, in A order
    fallback_count: int


def generate_pair_files(cfg: SimConfig, model: PositionalNameModel) -> SimResult:
    """Sample a base population and its corrupted re-recording.

    File B contains the same individuals in shuffled order; truth maps A
    row indices to B row indices. Fixed seed => byte-identical output.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_records
    names = [sample_name(model, rng) for _ in range(n)]
    cdfs = {f: _field_cdf(f, CARDINALITIES[f]) for f in cfg.fields}
    base_values = {f: _sample_field_values(cdfs[f], CARDINALITIES[f], n, rng)
                   for f in cfg.fields}

    type_names = tuple(ERROR_TYPES)
    type_cdf = distribution_cdf(np.array(list(ERROR_TYPES.values())),
                                "error-type probabilities")

    names_b = []
    requested: list[str] = []
    fallbacks = 0
    values_b = {f: base_values[f].copy() for f in cfg.fields}
    for i in range(n):
        if rng.random() < cfg.name_error_rate:
            etype = type_names[draw(type_cdf, rng)]
            requested.append(etype)
            variant, fell_back = corrupt_name(names[i], etype, model, rng)
            fallbacks += int(fell_back)
            names_b.append(variant)
        else:
            names_b.append(names[i])
        for f in cfg.fields:
            if rng.random() < FIELD_ERROR_RATES[f]:
                values_b[f][i] = _redraw_different(int(values_b[f][i]), cdfs[f],
                                                   CARDINALITIES[f], rng)

    perm = rng.permutation(n)
    truth = np.column_stack([np.arange(n), np.argsort(perm)])  # B row of each A row

    def as_records(names_list, values) -> dict[str, list[str]]:
        recs = {"name": list(names_list)}
        for f in SIM_FIELDS:
            if f in cfg.fields:
                recs[f] = [_field_value_str(f, int(v)) for v in values[f]]
            else:
                recs[f] = [""] * len(names_list)
        return recs

    records_a = as_records(names, base_values)
    records_b = as_records([names_b[i] for i in perm], {f: values_b[f][perm] for f in cfg.fields})
    return SimResult(records_a=records_a, records_b=records_b, truth=truth,
                     requested_error_types=requested, fallback_count=fallbacks)


def write_truth(path: str | Path, truth: np.ndarray) -> None:
    write_csv(path, ("id_a", "id_b"), np.asarray(truth, dtype=np.int64).astype(str).tolist())


def read_truth(path: str | Path) -> np.ndarray:
    """(n, 2) truth links from the id_a and id_b columns of a CSV file; a
    file without links is an InputError, as no ranking can be scored."""
    table = CsvTable(path, {"id_a": int, "id_b": int})
    links = np.array([table.column(c) for c in ("id_a", "id_b")], dtype=np.int64).T
    if not len(links):
        raise InputError(f"{path}: no truth links")
    return links
