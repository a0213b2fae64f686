"""Per-token input vectors: GloVe text tables and precomputed contextual files.

Static tables are loaded from the plain GloVe text format ("token v1 ... vd",
UTF-8). Fields are separated by runs of any whitespace `str.split` splits on,
lines may end in LF, CRLF or CR, and blank lines are skipped. A value is a
number as Python's `float` reads it, written in ASCII and without `_`: an
optional sign, digits with an optional decimal point and exponent ("-0.5",
"5.", ".5", "1e-3", "2.5E+10"); subnormals are kept exactly. A value must
be finite: "inf", "infinity" and "nan" (in any case) and values beyond
the float64 range ("1e400") are rejected as not finite. Digit grouping
("1_0"), non-ASCII digits, hexadecimal floats and "1d5" exponents are
rejected as non-numeric.

A load reads the file once and hashes its bytes as it reads them (the
table's `sha256`). Every row must have as many values as the first, but
only the rows of the tokens a caller asks for (`keep`) are converted, so a
non-numeric or non-finite value on a row outside `keep` is not an error. A
byte that is not UTF-8 is a ParseError naming its line, in either loader.

Contextual embeddings (e.g. transformer or language-model layers) are
computed offline and ingested from a JSON-lines file with one object per
utterance: {"id": str, "layer": int, "vectors": [[float, ...], ...]}.
Their values must be finite too; JSON's `NaN` and `Infinity`, which
Python's `json` reads, are rejected.

Every ParseError from either loader names the file and the line.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import _not_utf8, read_text, truncate
from .errors import ContractError, IntegrityError, ParseError

UNK_TOKEN = "<unk>"
UNK_POLICIES = ("zero_vector", "unk_token", "mean_vector")
# rows per np.loadtxt call when a failed vector file is re-scanned
_RESCAN_BLOCK = 1024
# bytes per read of the streaming pass over a vector file: a block and
# its full-size numpy temporaries stay under glibc's default 128 KiB mmap
# threshold, so they are reused from the heap instead of being mapped and
# faulted in afresh for every block
_READ_CHUNK = 96 << 10


@dataclass
class EmbeddingTable:
    """Immutable static token-vector table with a total lookup."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray
    unk_policy: str = "zero_vector"
    sha256: str | None = None  # of the file the table was loaded from
    _mean: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.unk_policy not in UNK_POLICIES:
            raise ContractError(f"unknown unk_policy {self.unk_policy!r}")
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.dim:
            raise ContractError("matrix width does not match dim")
        if self.vocab and max(self.vocab.values()) >= self.matrix.shape[0]:
            raise ContractError("vocab index outside matrix")
        if self.unk_policy == "unk_token" and UNK_TOKEN not in self.vocab:
            raise ContractError(
                f"unk_token policy requires {UNK_TOKEN!r} in the vocabulary")

    def lookup(self, token: str) -> np.ndarray:
        """Vector for `token`; never fails (unknowns follow unk_policy)."""
        row = self.vocab.get(token)
        if row is not None:
            return self.matrix[row]
        if self.unk_policy == "zero_vector":
            return np.zeros(self.dim)
        if self.unk_policy == "unk_token":
            return self.matrix[self.vocab[UNK_TOKEN]]
        if self._mean is None:
            # cache; cheap relative to load and keeps lookup deterministic
            object.__setattr__(self, "_mean", self.matrix.mean(axis=0))
        return self._mean

    def __contains__(self, token: str) -> bool:
        return token in self.vocab


@dataclass
class PrecomputedEmbeddings:
    """Offline-computed contextual vectors, one row per target token."""

    dim: int
    layer_id: int
    table: dict[str, np.ndarray]
    sha256: str | None = None  # of the file the vectors were loaded from

    def vectors_for(self, utterance_id: str) -> np.ndarray:
        if utterance_id not in self.table:
            raise KeyError(
                f"no precomputed vectors for utterance {utterance_id!r}")
        return self.table[utterance_id]


def load_glove(path, unk_policy: str = "zero_vector",
               keep=None) -> EmbeddingTable:
    """Parse a GloVe text file; duplicate tokens keep the first occurrence.

    One streaming pass over the file's bytes takes their sha256 (the
    table's `sha256`) and keeps the value text of the first row of each
    token in `keep` (every token if None). One `np.loadtxt` call then
    parses all of it in C, with the same correctly rounded conversion as
    `float`; only when that fails are the kept rows re-scanned, to name
    the first bad line. Every row's value count is checked, in the pass
    or by `np.loadtxt`.

    `keep` may be any superset of the tokens the caller looks up. The
    `unk_token` policy also keeps UNK_TOKEN; `mean_vector`, whose mean
    is over every row, ignores `keep`.
    """
    path = Path(path)
    if unk_policy == "mean_vector":
        keep = None
    elif keep is not None:
        keep = {token.encode("utf-8") for token in keep}
        if unk_policy == "unk_token":
            keep.add(UNK_TOKEN.encode("utf-8"))
    with open(path, "rb", buffering=0) as fh:
        reader = _Sha256Reader(fh)
        scan = (_token_pass(_text_lines(path, reader), path) if keep is None
                else _count_pass(_blocks(reader), path, keep))
    if scan.dim is None:
        raise ParseError("empty embedding file", line=1, path=path)
    matrix = _parse_values(scan.rests, scan.dim) if scan.stop is None else None
    if matrix is None:
        _raise_first_bad_row(path, scan.rests, scan.kept_lines, scan.dim,
                             scan.stop)
    _check_finite(matrix, scan.rests, scan.kept_lines, path)
    return EmbeddingTable(dim=scan.dim, vocab=scan.vocab, matrix=matrix,
                          unk_policy=unk_policy,
                          sha256=reader.digest.hexdigest())


@dataclass
class _Scan:
    """What a pass over a vector file found, up to its first bad count."""

    dim: int | None = None
    vocab: dict[str, int] = field(default_factory=dict)
    rests: list[str] = field(default_factory=list)  # kept rows' value text
    kept_lines: list[int] = field(default_factory=list)
    stop: tuple[int, str] | None = None  # (line, message) of a bad count

    def counted(self, line_num: int, got: int, path) -> bool:
        """Check a row's value count against the file's; False if wrong."""
        if self.dim is None:
            if got == 0:
                raise ParseError("line has no vector values",
                                 line=line_num, path=path)
            self.dim = got
        if got != self.dim:
            self.stop = (line_num, f"expected {self.dim} values, got {got}")
            return False
        return True


def _token_pass(lines, path) -> _Scan:
    """Keep the first row of every token; `np.loadtxt` counts its values.

    The other rows (repeated tokens, rows without values) are counted
    here, with `str.split`.
    """
    scan = _Scan()
    vocab, rests, kept_lines = scan.vocab, scan.rests, scan.kept_lines
    for line_num, line in enumerate(lines, start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        token = parts[0]
        if len(parts) == 1 or token in vocab or scan.dim is None:
            got = len(parts[1].split()) if len(parts) == 2 else 0
            if not scan.counted(line_num, got, path):
                break
            if len(parts) == 1 or token in vocab:
                continue
        vocab[token] = len(rests)
        rests.append(parts[1])
        kept_lines.append(line_num)
    return scan


def _count_pass(blocks, path, keep: set[bytes]) -> _Scan:
    """Count every row's values; keep the first row of each token in `keep`.

    Most lines are counted from byte offsets (`_line_offsets`); the rest
    are split by `str.split`, which splits on every whitespace character.
    """
    scan = _Scan()
    base = 0  # lines in the blocks before this one
    for block in blocks:
        block = _checked_text(block, base, path)
        offsets = _line_offsets(block)
        for line_num, start, token_end, end, got, odd in zip(
                range(base + 1, base + len(offsets[0]) + 1),
                *(column.tolist() for column in offsets)):
            if start == end:
                continue
            if odd:
                parts = block[start:end].decode("utf-8").split(None, 1)
                if not parts:
                    continue
                rest = parts[1] if len(parts) == 2 else ""
                token, got = parts[0].encode("utf-8"), len(rest.split())
            else:
                token = block[start:token_end]
            if not scan.counted(line_num, got, path):
                return scan
            if token in keep:
                text = token.decode("utf-8")
                if text not in scan.vocab:
                    if not odd:
                        rest = block[token_end + 1:end].decode("ascii")
                    scan.vocab[text] = len(scan.rests)
                    scan.rests.append(rest)
                    scan.kept_lines.append(line_num)
        base += len(offsets[0])
    return scan


def _line_offsets(block: bytes) -> tuple[np.ndarray, ...]:
    """Per line of `block`: start, token end, end, spaces, needs a split.

    numpy finds them for the whole block at once. A line needs
    `str.split` if it holds a control or non-ASCII byte (a tab, say), a
    run of spaces, or a space at either end. On every other line the
    fields are single-space separated, so its spaces count its values
    and its token ends at its first space.
    """
    # as int8, bytes past ASCII are negative: `< 32` finds them, the
    # control bytes and the newlines in one pass
    a = np.frombuffer(block, dtype=np.int8)
    special = np.flatnonzero(a < 32)
    newline = a[special] == 10
    ends = special[newline]
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    starts = np.concatenate(([0], ends[:-1] + 1))
    space = a == 32
    spaces = np.flatnonzero(space)
    upto = np.searchsorted(spaces, ends)  # spaces before each line's end
    counts = np.diff(upto, prepend=0)
    has = counts > 0
    token_ends = ends.copy()
    token_ends[has] = spaces[(upto - counts)[has]]
    split = np.zeros(len(ends), dtype=bool)
    split[np.searchsorted(ends, special[~newline])] = True
    runs = np.flatnonzero(space[1:] & space[:-1])
    split[np.searchsorted(ends, runs)] = True
    split[has] |= ((token_ends[has] == starts[has])
                   | (spaces[upto[has] - 1] == ends[has] - 1))
    return starts, token_ends, ends, counts, split


class _Sha256Reader(io.RawIOBase):
    """Binary file `fh`, whose every byte read also goes to `digest`."""

    def __init__(self, fh):
        self._fh = fh
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def _blocks(fh):
    """The bytes of binary file `fh` in blocks that end at a newline.

    Each block holds whole lines (the last may lack its newline), so no
    UTF-8 character is cut.
    """
    pending: list[bytes] = []
    while chunk := fh.read(_READ_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, memoryview(chunk)[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    tail = b"".join(pending)
    if tail:
        yield tail


def _checked_text(block: bytes, base: int, path) -> bytes:
    """`block` with CRLF and lone CR made LF, as text-mode reading does.

    Raises ParseError naming the line if it is not UTF-8; `base` is the
    number of lines before the block.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, block, exc, base) from None
    return block


def _text_lines(path: Path, raw=None):
    """The lines of UTF-8 text file `path`, read in text mode.

    Reads the binary file `raw` if given, else opens `path`. A byte that
    is not UTF-8 raises ParseError naming its line.
    """
    with (open(path, encoding="utf-8") if raw is None else io.TextIOWrapper(
            io.BufferedReader(raw, _READ_CHUNK), encoding="utf-8")) as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass  # the decoder works in chunks; find the line below
    read_text(path)  # raises the ParseError naming the bad byte's line


def _parse_values(rests: list[str], dim: int) -> np.ndarray | None:
    """The (len(rests), dim) matrix of the value texts, or None if invalid."""
    if not rests:
        return np.empty((0, dim))
    try:
        matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2,
                            quotechar=None)
    except ValueError:
        return None
    return matrix if matrix.shape == (len(rests), dim) else None


def _is_number(text: str) -> bool:
    """True for the value syntax `np.loadtxt` parses (see module docstring)."""
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _check_finite(matrix, rests, kept_lines, path) -> None:
    """Raise a ParseError naming the first kept line of `matrix` (parsed
    from `rests`) that holds a value that is not finite.

    NaN and +-inf reach the minimum or the maximum, and neither reduction
    makes a temporary array the size of the matrix.
    """
    if matrix.size == 0 or (np.isfinite(matrix.min())
                            and np.isfinite(matrix.max())):
        return
    row, col = np.argwhere(~np.isfinite(matrix))[0]
    raise _not_finite(rests[row].split()[col], kept_lines[row], path)


def _not_finite(value: str, line_num: int, path) -> ParseError:
    return ParseError(f"vector value {value!r} is not a finite number",
                      line=line_num, path=path)


def _raise_first_bad_row(path, rests, kept_lines, dim, stop):
    """Raise the ParseError of the first bad line of a file that failed.

    Blocks of kept rows that parse are checked for non-finite values and
    then skipped; the rows of the first block that does not parse are
    checked one by one.
    """
    for start in range(0, len(rests), _RESCAN_BLOCK):
        block = rests[start:start + _RESCAN_BLOCK]
        lines = kept_lines[start:start + _RESCAN_BLOCK]
        matrix = _parse_values(block, dim)
        if matrix is not None:
            _check_finite(matrix, block, lines, path)
            continue
        for rest, line_num in zip(block, lines):
            values = rest.split()
            if len(values) != dim:
                raise ParseError(f"expected {dim} values, got {len(values)}",
                                 line=line_num, path=path)
            if not all(map(_is_number, values)):
                raise ParseError("non-numeric vector value",
                                 line=line_num, path=path)
            for value in values:
                if not math.isfinite(float(value)):
                    raise _not_finite(value, line_num, path)
    if stop is not None:
        raise ParseError(stop[1], line=stop[0], path=path)
    raise ParseError("vector values could not be parsed", path=path)


def save_glove(table: EmbeddingTable, path) -> None:
    """Write the table in GloVe text format; load_glove round-trips exactly."""
    ordered = sorted(table.vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for token, row in ordered:
            values = " ".join(repr(float(v)) for v in table.matrix[row])
            fh.write(f"{token} {values}\n")


def load_precomputed(path) -> PrecomputedEmbeddings:
    """Read a JSON-lines precomputed-embedding file, validating uniformity.

    The file is read once; its bytes are hashed as they are read (the
    result's `sha256`).
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        reader = _Sha256Reader(fh)
        source = _parse_precomputed(path, _text_lines(path, reader))
    source.sha256 = reader.digest.hexdigest()
    return source


def _parse_precomputed(path: Path, lines) -> PrecomputedEmbeddings:
    table: dict[str, np.ndarray] = {}
    dim = None
    layer_id = None
    for line_num, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ParseError("invalid JSON object", line=line_num,
                             path=path) from None
        try:
            rid = obj["id"]
            layer = int(obj["layer"])
            vectors = obj["vectors"]
        except (KeyError, TypeError, ValueError):
            raise ParseError(
                "object must have id, layer (an integer), vectors",
                line=line_num, path=path) from None
        if not isinstance(rid, str):
            raise ParseError("utterance id must be a string",
                             line=line_num, path=path)
        try:
            arr = np.array(vectors, dtype=float)
        except (TypeError, ValueError):
            arr = None  # ragged rows or non-numeric values
        if arr is None or arr.ndim != 2:
            raise ParseError(
                "vectors must be a non-empty list of equal-length rows "
                "of numbers", line=line_num, path=path)
        if not np.isfinite(arr).all():
            raise ParseError("vectors hold a value that is not a finite "
                             "number", line=line_num, path=path)
        if dim is None:
            dim, layer_id = arr.shape[1], layer
        else:
            if arr.shape[1] != dim:
                raise ParseError(f"dim {arr.shape[1]} != file dim {dim}",
                                 line=line_num, path=path)
            if layer != layer_id:
                raise ParseError(f"layer {layer} != file layer {layer_id}",
                                 line=line_num, path=path)
        if rid in table:
            raise ParseError(f"duplicate utterance id {rid!r}",
                             line=line_num, path=path)
        table[rid] = arr
    if dim is None:
        raise ParseError("empty precomputed-embedding file", line=1, path=path)
    return PrecomputedEmbeddings(dim=dim, layer_id=layer_id, table=table)


def save_precomputed(embeddings: PrecomputedEmbeddings, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for rid in sorted(embeddings.table):
            obj = {"id": rid, "layer": embeddings.layer_id,
                   "vectors": embeddings.table[rid].tolist()}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def input_rows(record, source, with_context: bool = False) -> int:
    """The row count of `embed_utterance(record, source, with_context)`.

    Every check that `embed_utterance` makes is made here, with the same
    error, but no matrix is built.
    """
    return _checked_record(record, source, with_context)[1]


def _checked_record(record, source, with_context: bool):
    """`record` as `corpus.truncate` cuts it, and its input's row count.

    Raises ContractError for with_context on precomputed vectors, and
    IntegrityError for an utterance they lack or hold a wrong row count
    for.
    """
    record = truncate(record, with_context=with_context)
    if isinstance(source, PrecomputedEmbeddings):
        if with_context:
            raise ContractError(
                "precomputed vectors already reflect their context; "
                "with_context applies to GloVe tables only")
        try:
            vectors = source.vectors_for(record.id)
        except KeyError:
            raise IntegrityError(
                f"no precomputed vectors for utterance {record.id!r}") from None
        if vectors.shape[0] != record.features.utterance_length:
            raise IntegrityError(
                f"utterance {record.id!r}: {vectors.shape[0]} precomputed "
                f"vectors for {record.features.utterance_length} tokens")
        return record, len(record.tokens)
    return record, len(record.tokens) + (
        len(record.context_tokens) if with_context else 0)


def embed_utterance(record, source, with_context: bool = False) -> np.ndarray:
    """Input matrix for one record, which `corpus.truncate` cuts first.

    Static tables look up context + target tokens (context prepended when
    with_context is set). Precomputed sources hold one row per token of
    the whole target, computed offline with whatever context the encoder
    saw, so with_context is rejected for them. The rows must number the
    untruncated target's tokens (`features.utterance_length`); a cut
    target takes the rows of the tokens it kept. `input_rows` gives the
    row count, and makes the same checks.
    """
    record, rows = _checked_record(record, source, with_context)
    if isinstance(source, PrecomputedEmbeddings):
        return source.vectors_for(record.id)[:rows]
    tokens = list(record.tokens)
    if with_context:
        tokens = list(record.context_tokens) + tokens
    return np.vstack([source.lookup(t) for t in tokens])


_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that detaches edge punctuation.

    Only for ad-hoc command-line input; corpus files carry token lists
    that are already segmented.
    """
    out: list[str] = []
    for chunk in text.lower().split():
        left: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            left.append(chunk[0])
            chunk = chunk[1:]
        right: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            right.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(left)
        if chunk:
            out.append(chunk)
        out.extend(reversed(right))
    return out
