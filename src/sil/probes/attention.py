"""Attention-weight analyses over corpus records.

All analyses consume per-record attention vectors from eval-mode forwards
on target-only records, which `embed_utterance` truncates, so positions
are 0-based indices into the truncated token list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..embeddings import embed_utterance
from ..errors import ContractError
from ..metrics import Interval, bootstrap_ci
from ..model import predict_batch


def attention_for_records(records, params, config, source) -> dict[str, np.ndarray]:
    """Eval-mode attention weights per record id (target-only inputs).

    Raises ContractError for a model built without attention.
    """
    if not config.use_attention:
        raise ContractError("the model was built without attention, so it "
                            "has no attention weights")
    records = list(records)
    # every record is checked, in order, before the first is scored
    ids = [embed_utterance(record, source) for record in records]
    _, attention = predict_batch(source.matrix, ids, params, config)
    return {record.id: w for record, w in zip(records, attention)}


@dataclass
class AttentionReport:
    """The two positionwise analyses. Each curve is `bootstrap_ci`'s rows,
    keyed (group, position) and sorted."""

    # analysis (a): raw weights, some-token vs all other tokens by position
    position_curves: list[Interval]
    some_mean: float
    other_mean: float
    # analysis (b): some-weight zeroed + renormalized, grouped by subjecthood
    subjecthood_curves: list[Interval]
    n_length_filtered: int
    skipped_missing_some: int


def attention_by_position(records, attention_by_id: dict, max_len: int = 30,
                          B: int = 1000, seed: int = 0) -> AttentionReport:
    """Positionwise attention curves.

    (a) Raw weights: at each position, the mean weight of some-tokens vs
    the mean weight of all other tokens at that position, over every
    record whose truncation kept its some-token. (b) The some-token's
    weight is zeroed, the rest renormalized to sum 1, and records are
    restricted to untruncated length <= max_len, averaged per position
    within subject / non-subject some-NP groups.
    """
    raw_buckets: dict[tuple[str, int], list[float]] = {}
    renorm_buckets: dict[tuple[str, int], list[float]] = {}
    some_values: list[float] = []
    other_values: list[float] = []
    skipped = 0
    n_filtered = 0

    for record in records:
        weights = attention_by_id.get(record.id)
        if weights is None:
            continue
        weights = np.asarray(weights, dtype=np.float64)
        some_index = record.some_index
        if some_index is None or some_index >= len(weights):
            skipped += 1
            continue

        for pos, w in enumerate(weights):
            if pos == some_index:
                raw_buckets.setdefault(("some", pos), []).append(float(w))
                some_values.append(float(w))
            else:
                raw_buckets.setdefault(("other", pos), []).append(float(w))
                other_values.append(float(w))

        if record.features.utterance_length > max_len:
            continue
        rest = weights.copy()
        rest[some_index] = 0.0
        total = rest.sum()
        if total <= 0.0:
            continue  # single-token utterance: nothing left to renormalize
        rest /= total
        n_filtered += 1
        group = "subject" if record.features.subjecthood else "non_subject"
        for pos, w in enumerate(rest):
            if pos != some_index:
                renorm_buckets.setdefault((group, pos), []).append(float(w))

    if not some_values:
        raise ContractError("no record carried a usable some-token index")
    return AttentionReport(
        position_curves=bootstrap_ci(raw_buckets, B=B, seed=seed),
        some_mean=float(np.mean(some_values)),
        other_mean=float(np.mean(other_values)) if other_values else 0.0,
        subjecthood_curves=bootstrap_ci(renorm_buckets, B=B, seed=seed),
        n_length_filtered=n_filtered,
        skipped_missing_some=skipped)


@dataclass
class OfReport:
    """Of-token weights by kind, each mode `bootstrap_ci`'s rows keyed
    (kind,), sorted; a kind with no token has no row."""

    raw: list[Interval]
    normalized: list[Interval]
    n_multi_of: int  # utterances entering the normalized comparison


def partitive_of_analysis(records, attention_by_id: dict, B: int = 1000,
                          seed: int = 0) -> OfReport:
    """Attention mass on partitive vs non-partitive *of* tokens.

    Raw mode pools every of-token's weight. Normalized mode keeps only
    utterances with at least two of-tokens, renormalizes the of-token
    weights within each utterance to sum 1, then pools by class.
    """
    raw_vals: dict[str, list[float]] = {"partitive": [], "other": []}
    norm_vals: dict[str, list[float]] = {"partitive": [], "other": []}
    n_multi = 0

    for record in records:
        weights = attention_by_id.get(record.id)
        if weights is None:
            continue
        weights = np.asarray(weights, dtype=np.float64)
        part_idx = [i for i in record.of_partitive_indices if i < len(weights)]
        other_idx = [i for i in record.of_other_indices if i < len(weights)]
        for i in part_idx:
            raw_vals["partitive"].append(float(weights[i]))
        for i in other_idx:
            raw_vals["other"].append(float(weights[i]))

        all_idx = part_idx + other_idx
        if len(all_idx) < 2:
            continue
        total = float(weights[all_idx].sum())
        if total <= 0.0:
            continue
        n_multi += 1
        for i in part_idx:
            norm_vals["partitive"].append(float(weights[i]) / total)
        for i in other_idx:
            norm_vals["other"].append(float(weights[i]) / total)

    def stats(vals: dict[str, list[float]]) -> list[Interval]:
        return bootstrap_ci({(k,): v for k, v in vals.items() if v}, B=B,
                            seed=seed)

    return OfReport(raw=stats(raw_vals), normalized=stats(norm_vals),
                    n_multi_of=n_multi)
