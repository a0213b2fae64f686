"""Seeded, paper-shaped inputs for the benchmark.

Everything here is a pure function of the seed and the requested sizes:
the same arguments always give byte-identical files. The program under
test only ever sees the files written by `write_corpus` and
`write_vectors`.

Corpus shape (Schuster, Chen & Degen 2019): 1362 items in the 14-column
TSV, about ten 1-7 participant ratings per item, target sentences whose
length has a tail past the 30-token cap, and `<SEP>`-joined contexts that
range from empty to past the 150-token cap.
"""

from __future__ import annotations

import csv
import json
import string
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 100
N_ITEMS = 1362
SEP = "<SEP>"
COLUMNS = [
    "id", "tokens", "context_tokens", "mean_rating", "participant_ratings",
    "no_context_mean_rating", "partitive", "strength", "mention",
    "subjecthood", "modification", "some_index", "of_partitive_indices",
    "of_other_indices",
]
FUNCTION_WORDS = ["the", "a", "and", "to", "in", "that", "is", "was", "it",
                  "i", "you", "they", "we", "have", "with", "for", "not",
                  "but", ",", ".", "?", "uh", "yeah", "like"]
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]
_PUNCT = set(string.punctuation)


def rng(seed: int, purpose: str) -> np.random.Generator:
    """An independent stream per purpose, so sizes never shift other draws."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


@dataclass
class Item:
    id: str
    tokens: list[str]
    context: list[str]
    ratings: list[float]
    no_context: float | None
    partitive: int
    strength: float
    mention: int
    subjecthood: int
    modification: int
    some_index: int
    of_partitive: list[int] = field(default_factory=list)
    of_other: list[int] = field(default_factory=list)

    @property
    def mean_rating(self) -> float:
        # the same expression the corpus parser checks against
        return sum(self.ratings) / len(self.ratings)


def content_words(seed: int, n: int) -> list[str]:
    """`n` distinct pronounceable pseudo-words of two to four syllables."""
    r = rng(seed, "words")
    words: list[str] = []
    seen = set(FUNCTION_WORDS) | {"some", "of", SEP}
    while len(words) < n:
        k = n - len(words)
        lengths = r.integers(2, 5, k)
        picks = r.integers(0, len(_SYLLABLES), (k, 4))
        for length, row in zip(lengths, picks):
            w = "".join(_SYLLABLES[i] for i in row[:length])
            if w not in seen:
                seen.add(w)
                words.append(w)
    return words


def _sampler(r, words: list[str]):
    """Zipf-like draws over function words followed by content words."""
    vocab = FUNCTION_WORDS + words
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 0.9
    p /= p.sum()
    return lambda n: [vocab[i] for i in r.choice(len(vocab), size=n, p=p)]


def _target_length(r) -> int:
    # lognormal body around 13 tokens with a tail past the 30-token cap
    return int(np.clip(round(r.lognormal(2.55, 0.45)), 4, 48))


def _context_length(r) -> int:
    u = r.random()
    if u < 0.12:
        return 0
    if u < 0.82:
        return int(r.integers(5, 150))
    return int(r.integers(150, 230))  # past the context cap


def make_items(seed: int, n: int = N_ITEMS) -> list[Item]:
    """`n` corpus items; token content, features and ratings follow `seed`.

    Lengths (target, context, number of ratings) come from one fixed
    stream instead, so every seed gives the program the same amount of
    work and run-to-run spread measures the system, not the draw.
    """
    r = rng(seed, "items")
    shape = rng(0, "shape")
    words = content_words(seed, 3000)
    draw = _sampler(r, words)
    items = []
    for k in range(n):
        length = _target_length(shape)
        budget = _context_length(shape)
        n_ratings = int(shape.integers(8, 13))
        partitive = int(r.random() < 0.4)
        tokens = draw(length)
        some = int(r.integers(0, length - 2))
        tokens[some] = "some"
        of_partitive = []
        if partitive:
            tokens[some + 1] = "of"
            tokens[some + 2] = "the"
            of_partitive = [some + 1]
        taken = {some, some + 1, some + 2}
        free = [i for i in range(length) if i not in taken]
        n_other = min(len(free), int(r.choice([0, 0, 0, 1, 1, 2, 3])))
        of_other = sorted(int(i) for i in r.choice(free, n_other,
                                                   replace=False))
        for i in of_other:
            tokens[i] = "of"

        context: list[str] = []
        while len(context) < budget:
            if context:
                context.append(SEP)
            context.extend(draw(int(r.integers(3, 20))))
        context = context[:budget]

        strength = float(np.round(r.uniform(1.0, 7.0), 2))
        mention = int(r.random() < 0.3)
        subjecthood = int(some <= 2)
        modification = int(r.random() < 0.5)
        latent = (3.2 + 1.2 * partitive + 0.25 * (strength - 4.0)
                  - 0.5 * mention + 0.6 * subjecthood - 0.4 * modification
                  - 0.03 * length + r.normal(0.0, 0.6))
        ratings = [float(v) for v in np.clip(
            np.round(latent + r.normal(0.0, 1.3, n_ratings)), 1.0, 7.0)]
        no_context = None
        if r.random() < 0.6:
            no_context = float(np.round(np.clip(
                sum(ratings) / len(ratings) + r.normal(0.0, 0.6), 1.0, 7.0),
                4))
        items.append(Item(
            id=f"item{k:04d}", tokens=tokens, context=context,
            ratings=ratings, no_context=no_context, partitive=partitive,
            strength=strength, mention=mention, subjecthood=subjecthood,
            modification=modification, some_index=some,
            of_partitive=of_partitive, of_other=of_other))
    return items


def write_corpus(items: list[Item], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, delimiter="\t", lineterminator="\n")
        w.writerow(COLUMNS)
        for it in items:
            w.writerow([
                it.id, " ".join(it.tokens), " ".join(it.context),
                repr(it.mean_rating), ",".join(repr(x) for x in it.ratings),
                "" if it.no_context is None else repr(it.no_context),
                it.partitive, repr(it.strength), it.mention, it.subjecthood,
                it.modification, it.some_index,
                ",".join(map(str, it.of_partitive)),
                ",".join(map(str, it.of_other)),
            ])


def write_predictions(seed: int, items: list[Item], path: Path) -> None:
    """An id,score file shaped like cv-predict output, tracking the ratings."""
    r = rng(seed, "predictions")
    noise = r.normal(0.0, 0.05, len(items))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,score\n")
        for it, e in zip(items, noise):
            score = 0.2 + 0.1 * (it.mean_rating - 1.0) + float(e)
            fh.write(f"{it.id},{min(max(score, 0.01), 0.99)!r}\n")


FRAME_COLUMNS = ["frame_id", "subj_premod", "subj_head", "subj_postmod",
                 "obj_premod", "obj_head", "obj_postmod", "verb_active",
                 "verb_passive", "passive_aux", "other_det", "complement"]


def write_frames(seed: int, n: int, path: Path) -> None:
    """`n` minimal-pair frames with one-word slots, 32 variants each."""
    words = content_words(seed, 3000)
    r = rng(seed, "frames")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(FRAME_COLUMNS) + "\n")
        for k in range(n):
            w = [words[i] for i in r.choice(len(words), 7, replace=False)]
            fh.write("\t".join([
                f"g{k:02d}", *w[:6], w[6], w[6], "were", "the", ""]) + "\n")


def write_checkpoint(seed: int, input_dim: int, hidden: int,
                     path: Path) -> None:
    """A seeded attention model in the documented checkpoint format.

    Magic "SIL1", u32 header length, JSON header, then float64 tensors in
    name order; the layout is the 2-layer biLSTM + attention + head.
    """
    r = rng(seed, "checkpoint")
    shapes = {"attn.W": [2 * hidden, hidden], "attn.v": [hidden],
              "head.w": [2 * hidden], "head.b": []}
    for layer in range(2):
        width = input_dim if layer == 0 else 2 * hidden
        for d in ("fw", "bw"):
            shapes[f"lstm.{layer}.{d}.W"] = [4 * hidden, width]
            shapes[f"lstm.{layer}.{d}.U"] = [4 * hidden, hidden]
            shapes[f"lstm.{layer}.{d}.b"] = [4 * hidden]
    names = sorted(shapes)
    header = {
        "config": {"input_dim": input_dim, "hidden_dim": hidden,
                   "num_layers": 2, "dropout_rate": 0.0,
                   "use_attention": True, "attention_dropout": False,
                   "head_dropout": False, "seed": seed},
        "dtype": "<f8", "format_version": 1,
        "params": [{"name": n, "shape": shapes[n]} for n in names],
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"SIL1" + struct.pack("<I", len(blob)) + blob)
        for n in names:
            fh.write(r.normal(0.0, 0.3, shapes[n]).astype("<f8").tobytes())


def corpus_vocab(items: list[Item]) -> list[str]:
    """Every token of every target and context, in first-seen order."""
    seen: dict[str, None] = {}
    for it in items:
        for t in it.context + it.tokens:
            seen.setdefault(t, None)
    return list(seen)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach edge punctuation."""
    out: list[str] = []
    for chunk in text.lower().split():
        left, right = [], []
        while chunk and chunk[0] in _PUNCT:
            left.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in _PUNCT:
            right.append(chunk[-1])
            chunk = chunk[:-1]
        out += left + ([chunk] if chunk else []) + right[::-1]
    return out


def frame_vocab(frames_tsv: Path) -> list[str]:
    """Tokens of every cell of the probe-frame table plus the fixed words."""
    seen: dict[str, None] = {}
    rows = list(csv.reader(frames_tsv.read_text(encoding="utf-8")
                           .splitlines(), delimiter="\t"))
    for row in rows[1:]:
        for cell in row[1:]:
            for t in tokenize(cell):
                seen.setdefault(t, None)
    for t in ("some", "of", "the", "by", "."):
        seen.setdefault(t, None)
    return list(seen)


def vocabulary(seed: int, base: list[str], rows: int) -> list[str]:
    """`base` tokens first, then pseudo-words until there are `rows` rows."""
    vocab = list(dict.fromkeys(base))
    if len(vocab) < rows:
        have = set(vocab)
        extra = [w for w in content_words(seed + 1, rows) if w not in have]
        vocab += extra[:rows - len(vocab)]
    return vocab


def hash_token(token: str) -> int:
    """32-bit FNV-1a; stable across processes, unlike hash()."""
    h = 2166136261
    for b in token.encode("utf-8"):
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h


def write_vectors(seed: int, vocab: list[str], path: Path) -> None:
    """GloVe text format, one 100-d row per token, five decimals.

    A row is two halves picked from seeded pools by the token's hash, so
    a token gets the same vector in every file of a seed and the file is
    written without formatting every value anew.
    """
    r = rng(seed, "vectors")
    half = DIM // 2
    pools = [[" ".join(f"{v:.5f}" for v in row)
              for row in r.normal(0.0, 0.4, size=(4096, half))]
             for _ in range(2)]
    with open(path, "w", encoding="utf-8") as fh:
        for t in vocab:
            h = hash_token(t)
            left, right = pools[0][h & 4095], pools[1][(h >> 12) & 4095]
            fh.write(f"{t} {left} {right}\n")
