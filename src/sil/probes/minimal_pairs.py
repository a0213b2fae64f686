"""Minimal-pair sentence suite: 25 frames x 32 feature combinations.

Each frame supplies an agent NP, a patient NP (each with a prenominal and
a postnominal modifier), a verb in active and passive form, and the
passive auxiliary agreeing with the patient head. Variants toggle five
binary features: some on the subject vs object NP, voice, partitive "of
the", prenominal modifier, postnominal modifier. The non-some NP always
surfaces fully modified with its plain determiner, so toggled material
belongs to the some-NP alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..corpus import MAX_TARGET_TOKENS, Parsed, read_rows, unscale_rating
from ..embeddings import tokenize
from ..errors import ValidationError, in_file
from ..metrics import Interval, bootstrap_ci
from ..model import predict_batch

FRAME_COLUMNS = [
    "frame_id", "subj_premod", "subj_head", "subj_postmod", "obj_premod",
    "obj_head", "obj_postmod", "verb_active", "verb_passive", "passive_aux",
    "other_det", "complement",
]

# odometer bit order, most significant first
FEATURE_BITS = ("some_subject", "passive", "partitive",
                "prenominal_mod", "postnominal_mod")


@dataclass
class SentenceFrame:
    frame_id: str
    subj_premod: str
    subj_head: str
    subj_postmod: str
    obj_premod: str
    obj_head: str
    obj_postmod: str
    verb_active: str
    verb_passive: str
    passive_aux: str
    other_det: str = "the"
    complement: str = ""


@dataclass
class MinimalPairVariant:
    variant_id: str
    frame_id: str
    text: str
    features: dict[str, int]
    _tokens: tuple[str, ...] | None = field(default=None, init=False,
                                            repr=False, compare=False)

    @property
    def some_is_subject(self) -> bool:
        """True when the some-NP is the surface subject of its clause."""
        if self.features["passive"]:
            return not self.features["some_subject"]
        return bool(self.features["some_subject"])

    def tokens(self) -> list[str]:
        """The text's tokens; the text is tokenized on the first call only."""
        if self._tokens is None:
            self._tokens = tuple(tokenize(self.text))
        return list(self._tokens)


def load_frames(path=None) -> Parsed:
    """Read the frame table; defaults to the bundled 25-frame file.

    The file is read once, by `read_rows`; the result's `sha256` is the
    digest of its bytes. Every ValidationError it raises names the file,
    and the row when one is at fault.
    """
    if path is None:
        path = resources.files("sil").joinpath("data/frames.tsv")
    rows = read_rows(path, "\t")
    frames = Parsed()
    frames.sha256 = rows.sha256
    with in_file(path):
        if not rows:
            raise ValidationError("empty frames file")
        header = rows[0]
        missing = [c for c in FRAME_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"frames file missing columns: {missing}")
        col = {name: header.index(name) for name in FRAME_COLUMNS}
        seen = set()
        for i, row in enumerate(rows[1:], start=2):
            if not any(cell.strip() for cell in row):
                continue
            # hand-edited TSVs often drop tabs for trailing empty cells
            row = row + [""] * (len(header) - len(row))
            values = {name: row[col[name]].strip() for name in FRAME_COLUMNS}
            for name, value in values.items():
                if name != "complement" and not value:
                    raise ValidationError(f"empty {name}", row=i)
            key = tuple(values[name] for name in
                        ("verb_active", "subj_head", "obj_head"))
            if key in seen:
                raise ValidationError("duplicate verb/NP combination in "
                                      f"frame {values['frame_id']}", row=i)
            seen.add(key)
            frames.append(SentenceFrame(**values))
    return frames


def _some_np(premod: str, head: str, postmod: str, partitive: int,
             pre_on: int, post_on: int) -> str:
    parts = ["some"]
    if partitive:
        parts.append("of the")
    if pre_on:
        parts.append(premod)
    parts.append(head)
    if post_on:
        parts.append(postmod)
    return " ".join(parts)


def _plain_np(det: str, premod: str, head: str, postmod: str) -> str:
    return " ".join([det, premod, head, postmod])


def realize(frame: SentenceFrame, features: dict[str, int]) -> str:
    """Surface string for one feature combination of a frame."""
    part = features["partitive"]
    pre = features["prenominal_mod"]
    post = features["postnominal_mod"]
    if features["some_subject"]:
        agent = _some_np(frame.subj_premod, frame.subj_head,
                         frame.subj_postmod, part, pre, post)
        patient = _plain_np(frame.other_det, frame.obj_premod, frame.obj_head,
                            frame.obj_postmod)
    else:
        agent = _plain_np(frame.other_det, frame.subj_premod, frame.subj_head,
                          frame.subj_postmod)
        patient = _some_np(frame.obj_premod, frame.obj_head,
                           frame.obj_postmod, part, pre, post)
    if features["passive"]:
        core = f"{patient} {frame.passive_aux} {frame.verb_passive} by {agent}"
    else:
        core = f"{agent} {frame.verb_active} {patient}"
    if frame.complement:
        core = f"{core} {frame.complement}"
    return core[0].upper() + core[1:] + "."


def generate_minimal_pairs(frames: list[SentenceFrame]
                           ) -> list[MinimalPairVariant]:
    """All 32 variants per frame, in frame order then feature-odometer order."""
    variants = []
    for frame in frames:
        for i in range(32):
            bits = [(i >> (4 - b)) & 1 for b in range(5)]
            features = dict(zip(FEATURE_BITS, bits))
            variants.append(MinimalPairVariant(
                variant_id=f"{frame.frame_id}.{i:05b}",
                frame_id=frame.frame_id,
                text=realize(frame, features),
                features=features))
    return variants


def score_variants(variants, params, config, table) -> np.ndarray:
    """Eval-mode model scores in [0, 1] for each variant's tokenization,
    cut to its first MAX_TARGET_TOKENS tokens as `embed_utterance` cuts a
    corpus target."""
    ids = [table.row_ids(variant.tokens()[:MAX_TARGET_TOKENS])
           for variant in variants]
    scores, _ = predict_batch(table.matrix, ids, params, config)
    return scores


def _groupings(variant: MinimalPairVariant) -> list[tuple[str, str]]:
    f = variant.features
    pre = f["prenominal_mod"]
    post = f["postnominal_mod"]
    return [
        ("partitive", "partitive" if f["partitive"] else "no_partitive"),
        ("grammatical_function",
         "subject" if variant.some_is_subject else "other"),
        ("prenominal", "modified" if pre else "unmodified"),
        ("postnominal", "modified" if post else "unmodified"),
        ("modification", "modified" if (pre or post) else "unmodified"),
    ]


def minimal_pair_report(variants, scores, B: int = 1000,
                        seed: int = 0) -> list[Interval]:
    """Group mean predicted ratings (raw 1-7 scale) with bootstrap CIs.

    Groupings: partitive presence, grammatical function of the some-NP,
    prenominal / postnominal modification, and their union ("modification",
    modified = either modifier present, splitting 600/200).

    Returns `bootstrap_ci`'s rows, keyed (grouping, level) and sorted.
    """
    buckets: dict[tuple[str, str], list[float]] = {}
    for variant, score in zip(variants, scores):
        value = unscale_rating(float(score))
        for key in _groupings(variant):
            buckets.setdefault(key, []).append(value)
    return bootstrap_ci(buckets, B=B, seed=seed)
