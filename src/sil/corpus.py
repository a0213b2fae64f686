"""Annotated inference-strength corpus: parsing, rescaling, truncation, splits.

The on-disk format is a UTF-8 TSV with one header row and one row per
utterance. Columns:

    id, tokens, context_tokens, mean_rating, participant_ratings,
    no_context_mean_rating, partitive, strength, mention, subjecthood,
    modification, some_index, of_partitive_indices, of_other_indices

`tokens` and `context_tokens` are space-joined; `participant_ratings` and
the index lists are comma-joined; `no_context_mean_rating` may be empty.
Context utterances are flattened with the reserved separator token "<SEP>",
which counts toward the context-length budget.

`parse_corpus` reads the file through `read_rows`, as every text input is
read, and `parse_row` is the one check of a row's cells: `sil import`
puts each converted row through it too.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ContractError, ParseError, ValidationError, in_file
from .seeding import rng_for

SEPARATOR_TOKEN = "<SEP>"
MAX_TARGET_TOKENS = 30
MAX_CONTEXT_TOKENS = 150

COLUMNS = [
    "id", "tokens", "context_tokens", "mean_rating", "participant_ratings",
    "no_context_mean_rating", "partitive", "strength", "mention",
    "subjecthood", "modification", "some_index", "of_partitive_indices",
    "of_other_indices",
]


@dataclass
class FeatureVector:
    """The hand-coded predictors for one utterance."""

    partitive: int
    determiner_strength: float
    linguistic_mention: int
    subjecthood: int
    modification: int
    utterance_length: int


@dataclass
class Split:
    train_ids: list[str]
    test_ids: list[str]
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "train_ids": self.train_ids,
             "test_ids": self.test_ids},
            indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Split":
        obj = json.loads(text)
        return cls(list(obj["train_ids"]), list(obj["test_ids"]),
                   int(obj["seed"]))


@dataclass
class UtteranceRecord:
    """One corpus item with ratings, features and token-level markers.

    `some_index` / the `of_*` index lists refer to positions in `tokens`
    and become None / shrink when truncation drops the marked token.
    `utterance_length` inside `features` is always the untruncated count.
    """

    id: str
    tokens: list[str]
    context_tokens: list[str]
    mean_rating: float
    participant_ratings: list[float]
    features: FeatureVector
    some_index: int | None
    of_partitive_indices: list[int] = field(default_factory=list)
    of_other_indices: list[int] = field(default_factory=list)
    no_context_mean_rating: float | None = None


def rescale_rating(r: float) -> float:
    """Map a 1-to-7 rating onto [0, 1]."""
    if not 1.0 <= r <= 7.0:
        raise ContractError(f"rating {r} outside [1, 7]")
    return (r - 1.0) / 6.0


def unscale_rating(s: float) -> float:
    """Inverse of rescale_rating: [0, 1] back to the 1-to-7 scale."""
    return s * 6.0 + 1.0


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _parse_float(cell: str, what: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"cannot parse {what} from {cell!r}", line=row) from None


def _parse_int(cell: str, what: str, row: int) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"cannot parse {what} from {cell!r}", line=row) from None


def _parse_binary(cell: str, what: str, row: int) -> int:
    value = _parse_int(cell, what, row)
    if value not in (0, 1):
        raise ValidationError(f"{what} must be 0 or 1, got {value}", row=row)
    return value


def _parse_int_list(cell: str, what: str, row: int) -> list[int]:
    cell = cell.strip()
    if not cell:
        return []
    return [_parse_int(part, what, row) for part in cell.split(",")]


def _check_rating(value: float, what: str, row: int) -> float:
    if not 1.0 <= value <= 7.0:
        raise ValidationError(f"{what} {value} outside [1, 7]", row=row)
    return value


def _not_utf8(path, data: bytes, exc: UnicodeDecodeError,
              base: int = 0) -> ParseError:
    """The ParseError for `data`, which `exc` failed to decode, naming the
    line of the bad byte; `base` lines come before `data` in the file."""
    head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return ParseError(f"not UTF-8 text ({exc.reason})",
                      line=base + head.count(b"\n") + 1, path=path)


class Parsed(list):
    """A list parsed from one file; `sha256` is the digest of the file's
    bytes, so a run manifest need not read the file again."""

    sha256: str | None = None


def _decoded(path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data, exc) from None


def read_text(path) -> tuple[str, str]:
    """UTF-8 file `path` as text, and the sha256 of the bytes read; a bad
    byte is a ParseError naming it."""
    data = Path(path).read_bytes()
    return _decoded(path, data), hashlib.sha256(data).hexdigest()


def read_rows(path, delimiter: str = ",") -> Parsed:
    """The `csv` rows of text file `path`, read once and hashed; a bad
    byte or a row `csv` rejects (a field over 131 072 characters) is a
    ParseError naming it."""
    data = Path(path).read_bytes()
    reader = csv.reader(io.StringIO(_decoded(path, data), newline=""),
                        delimiter=delimiter)
    try:
        rows = Parsed(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num, path=path) from None
    rows.sha256 = hashlib.sha256(data).hexdigest()
    return rows


def parse_corpus(path) -> Parsed:
    """Read and validate the corpus TSV; one record per row, order kept.

    The file is read once, by `read_rows`; the result's `sha256` is the
    digest of its bytes. Every ParseError and ValidationError it raises
    names the file and the line or row.
    """
    rows = read_rows(path, "\t")
    records = Parsed()
    records.sha256 = rows.sha256
    with in_file(path):
        if not rows:
            raise ParseError("empty corpus file", line=1)
        header = rows[0]
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"missing columns: {', '.join(missing)}")
        col = {name: header.index(name) for name in COLUMNS}
        seen_ids = set()
        for row_num, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}",
                    line=row_num)
            records.append(parse_row(row, col, row_num, seen_ids))
    return records


def parse_row(row, col, row_num, seen_ids) -> UtteranceRecord:
    """The record of one row's cells, every corpus rule checked.

    `col` maps each name of COLUMNS to its cell's position in `row`;
    `seen_ids` holds the ids of the rows before, and gains this one.
    Errors carry `row_num` but no file.
    """
    rid = row[col["id"]].strip()
    if not rid:
        raise ValidationError("empty id", row=row_num)
    if rid in seen_ids:
        raise ValidationError(f"duplicate id {rid!r}", row=row_num)
    seen_ids.add(rid)

    tokens = row[col["tokens"]].split()
    if not tokens:
        raise ValidationError("record has no tokens", row=row_num)
    context_tokens = row[col["context_tokens"]].split()

    participant_cell = row[col["participant_ratings"]].strip()
    participant_ratings = []
    if participant_cell:
        for part in participant_cell.split(","):
            participant_ratings.append(_check_rating(
                _parse_float(part, "participant rating", row_num),
                "participant rating", row_num))

    mean_rating = _check_rating(
        _parse_float(row[col["mean_rating"]], "mean_rating", row_num),
        "mean_rating", row_num)
    if participant_ratings:
        observed = sum(participant_ratings) / len(participant_ratings)
        if abs(observed - mean_rating) > 1e-6:
            raise ValidationError(
                f"mean_rating {mean_rating} != mean of participant ratings "
                f"{observed}", row=row_num)

    nc_cell = row[col["no_context_mean_rating"]].strip()
    no_context = None
    if nc_cell:
        no_context = _check_rating(
            _parse_float(nc_cell, "no_context_mean_rating", row_num),
            "no_context_mean_rating", row_num)

    features = FeatureVector(
        partitive=_parse_binary(row[col["partitive"]], "partitive", row_num),
        determiner_strength=_check_rating(
            _parse_float(row[col["strength"]], "strength", row_num),
            "strength", row_num),
        linguistic_mention=_parse_binary(row[col["mention"]], "mention", row_num),
        subjecthood=_parse_binary(row[col["subjecthood"]], "subjecthood", row_num),
        modification=_parse_binary(
            row[col["modification"]], "modification", row_num),
        utterance_length=len(tokens),
    )

    some_index = _parse_int(row[col["some_index"]], "some_index", row_num)
    if not 0 <= some_index < len(tokens):
        raise ValidationError(
            f"some_index {some_index} outside token range", row=row_num)

    of_partitive = _parse_int_list(
        row[col["of_partitive_indices"]], "of_partitive_indices", row_num)
    of_other = _parse_int_list(
        row[col["of_other_indices"]], "of_other_indices", row_num)
    for idx in of_partitive + of_other:
        if not 0 <= idx < len(tokens):
            raise ValidationError(
                f"of-index {idx} outside token range", row=row_num)
    if set(of_partitive) & set(of_other):
        raise ValidationError(
            "of_partitive_indices and of_other_indices overlap", row=row_num)

    return UtteranceRecord(
        id=rid, tokens=tokens, context_tokens=context_tokens,
        mean_rating=mean_rating, participant_ratings=participant_ratings,
        features=features, some_index=some_index,
        of_partitive_indices=of_partitive, of_other_indices=of_other,
        no_context_mean_rating=no_context)


def _fmt(x: float) -> str:
    """repr-based float formatting; round-trips exactly."""
    return repr(float(x))


def write_corpus(records: list[UtteranceRecord], path) -> None:
    """Serialize records to the corpus TSV format (parse round-trips)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(COLUMNS)
        for r in records:
            writer.writerow([
                r.id,
                " ".join(r.tokens),
                " ".join(r.context_tokens),
                _fmt(r.mean_rating),
                ",".join(_fmt(x) for x in r.participant_ratings),
                "" if r.no_context_mean_rating is None
                else _fmt(r.no_context_mean_rating),
                str(r.features.partitive),
                _fmt(r.features.determiner_strength),
                str(r.features.linguistic_mention),
                str(r.features.subjecthood),
                str(r.features.modification),
                "" if r.some_index is None else str(r.some_index),
                ",".join(str(i) for i in r.of_partitive_indices),
                ",".join(str(i) for i in r.of_other_indices),
            ])


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def truncate(record: UtteranceRecord, *, with_context: bool
             ) -> UtteranceRecord:
    """Return a truncated copy of `record`, or `record` if nothing is cut.

    Without context: keep the first MAX_TARGET_TOKENS target tokens;
    marker indices outside the kept window are dropped. With context: keep
    the last MAX_CONTEXT_TOKENS context tokens (truncating the beginning
    of the context); the target is left alone.
    """
    if with_context:
        if len(record.context_tokens) <= MAX_CONTEXT_TOKENS:
            return record
        return dataclasses.replace(
            record, context_tokens=record.context_tokens[-MAX_CONTEXT_TOKENS:])
    if len(record.tokens) <= MAX_TARGET_TOKENS:
        return record
    some_index = record.some_index
    if some_index is not None and some_index >= MAX_TARGET_TOKENS:
        some_index = None
    return dataclasses.replace(
        record,
        tokens=record.tokens[:MAX_TARGET_TOKENS],
        some_index=some_index,
        of_partitive_indices=[i for i in record.of_partitive_indices
                              if i < MAX_TARGET_TOKENS],
        of_other_indices=[i for i in record.of_other_indices
                          if i < MAX_TARGET_TOKENS],
    )


# ---------------------------------------------------------------------------
# Splits and folds
# ---------------------------------------------------------------------------

def _ids_of(items) -> list[str]:
    return [getattr(item, "id", item) for item in items]


def split(records, train_fraction: float = 0.7, seed: int = 0) -> Split:
    """Deterministic random train/test split.

    The test set gets floor(n * (1 - train_fraction)) items, the train set
    the rest, so e.g. 1362 items at 0.7 give 954/408.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ContractError("train_fraction must be in (0, 1)")
    ids = _ids_of(records)
    if not ids:
        raise ContractError("cannot split an empty record list")
    rng = rng_for(seed, "train-test-split")
    order = rng.permutation(len(ids))
    n_test = int(math.floor(len(ids) * (1.0 - train_fraction)))
    test_ids = sorted(ids[i] for i in order[:n_test])
    train_ids = sorted(ids[i] for i in order[n_test:])
    return Split(train_ids=train_ids, test_ids=test_ids, seed=seed)


def kfold(records, k: int, seed: int = 0) -> list[tuple[list[str], list[str]]]:
    """Partition records into k folds; returns (train_ids, heldout_ids) pairs.

    Fold sizes differ by at most one; every id is held out exactly once.
    """
    ids = _ids_of(records)
    if k < 2 or k > len(ids):
        raise ContractError(f"k must be in [2, {len(ids)}], got {k}")
    rng = rng_for(seed, "kfold")
    order = [ids[i] for i in rng.permutation(len(ids))]
    base, extra = divmod(len(ids), k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        heldout = set(order[start:start + size])
        start += size
        folds.append((sorted(set(ids) - heldout), sorted(heldout)))
    return folds
