"""Per-token input vectors: GloVe text tables and precomputed contextual files.

Static tables are loaded from the plain GloVe text format ("token v1 ... vd",
UTF-8). Fields are separated by runs of any whitespace `str.split` splits on,
lines may end in LF or CRLF, and blank lines are skipped. A value is a number
as Python's `float` reads it, written in ASCII and without `_`: an optional
sign, digits with an optional decimal point and exponent ("-0.5", "5.",
".5", "1e-3", "2.5E+10"), or "inf", "infinity" or "nan" in any case. Values
beyond the float64 range read as +-inf; subnormals are kept exactly. Digit
grouping ("1_0"), non-ASCII digits, hexadecimal floats and "1d5" exponents
are rejected as non-numeric.

Contextual embeddings (e.g. transformer or language-model layers) are
computed offline and ingested from a JSON-lines file with one object per
utterance: {"id": str, "layer": int, "vectors": [[float, ...], ...]}.

Every ParseError from either loader names the file and the line.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, IntegrityError, ParseError

UNK_TOKEN = "<unk>"
UNK_POLICIES = ("zero_vector", "unk_token", "mean_vector")
# rows per np.loadtxt call when a failed vector file is re-scanned
_RESCAN_BLOCK = 1024


@dataclass
class EmbeddingTable:
    """Immutable static token-vector table with a total lookup."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray
    unk_policy: str = "zero_vector"
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

    def vectors_for(self, utterance_id: str) -> np.ndarray:
        if utterance_id not in self.table:
            raise KeyError(
                f"no precomputed vectors for utterance {utterance_id!r}")
        return self.table[utterance_id]


def load_glove(path, unk_policy: str = "zero_vector") -> EmbeddingTable:
    """Parse a GloVe text file; duplicate tokens keep the first occurrence.

    A Python pass splits off each line's token and keeps the value text of
    each token's first row; one `np.loadtxt` call then parses all of it in
    C, with the same correctly rounded conversion as `float`. Only when
    that fails are the kept rows re-scanned, to name the first bad line.
    """
    path = Path(path)
    vocab: dict[str, int] = {}
    rests: list[str] = []
    kept_lines: list[int] = []
    dim = None
    stop = None  # (line, message) of a bad row the token pass sees itself
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            if dim is None:
                dim = len(parts[1].split()) if len(parts) == 2 else 0
                if dim == 0:
                    raise ParseError("line has no vector values",
                                     line=line_num, path=path)
            token = parts[0]
            if len(parts) == 1 or token in vocab:
                got = len(parts[1].split()) if len(parts) == 2 else 0
                if got != dim:
                    stop = (line_num, f"expected {dim} values, got {got}")
                    break
                continue
            vocab[token] = len(rests)
            rests.append(parts[1])
            kept_lines.append(line_num)
    if dim is None:
        raise ParseError("empty embedding file", line=1, path=path)
    matrix = _parse_values(rests, dim) if stop is None else None
    if matrix is None:
        _raise_first_bad_row(path, rests, kept_lines, dim, stop)
    return EmbeddingTable(dim=dim, vocab=vocab, matrix=matrix,
                          unk_policy=unk_policy)


def _parse_values(rests: list[str], dim: int) -> np.ndarray | None:
    """The (len(rests), dim) matrix of the value texts, or None if invalid."""
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


def _raise_first_bad_row(path, rests, kept_lines, dim, stop):
    """Raise the ParseError of the first bad line of a file that failed.

    Blocks of kept rows that parse are skipped; the rows of the first
    block that does not are checked one by one.
    """
    for start in range(0, len(rests), _RESCAN_BLOCK):
        block = rests[start:start + _RESCAN_BLOCK]
        if _parse_values(block, dim) is not None:
            continue
        for rest, line_num in zip(block, kept_lines[start:]):
            values = rest.split()
            if len(values) != dim:
                raise ParseError(f"expected {dim} values, got {len(values)}",
                                 line=line_num, path=path)
            if not all(map(_is_number, values)):
                raise ParseError("non-numeric vector value",
                                 line=line_num, path=path)
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
    """Read a JSON-lines precomputed-embedding file, validating uniformity."""
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    dim = None
    layer_id = None
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
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


def embed_utterance(record, source, with_context: bool = False) -> np.ndarray:
    """Input matrix for one (already truncated) record.

    Static tables look up context + target tokens (context prepended when
    with_context is set). Precomputed sources return target vectors only:
    their context was consumed offline, so the stored rows already reflect
    it and must match the target token count exactly.
    """
    if isinstance(source, PrecomputedEmbeddings):
        try:
            vectors = source.vectors_for(record.id)
        except KeyError:
            raise IntegrityError(
                f"no precomputed vectors for utterance {record.id!r}") from None
        if vectors.shape[0] != len(record.tokens):
            raise IntegrityError(
                f"utterance {record.id!r}: {vectors.shape[0]} precomputed "
                f"vectors for {len(record.tokens)} tokens")
        return vectors
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
