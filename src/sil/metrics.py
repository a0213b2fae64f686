"""Evaluation statistics: Pearson r, MSE, and the bootstrap estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UndefinedCorrelationError
from .seeding import rng_for


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient.

    Raises UndefinedCorrelationError when either series has zero variance
    (never silently returns 0).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError("pearson expects two 1-D series of equal length")
    if len(x) < 2:
        raise ContractError("pearson needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined: a series has zero variance")
    return float(dx @ dy) / (sx * sy)


def pearson_or_nan(x, y) -> float:
    """`pearson`, or NaN where r is undefined: fewer than 2 points or a
    series with zero variance. Series of different shapes still raise."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape == y.shape and x.ndim == 1 and len(x) < 2:
        return float("nan")
    try:
        return pearson(x, y)
    except UndefinedCorrelationError:
        return float("nan")


def mse(predicted, target) -> float:
    """Mean squared error; NaN for no items."""
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.size == target.size == 0:
        return float("nan")
    return float(np.mean((predicted - target) ** 2))


# bootstrap_ceiling and bootstrap_ci draw about this many resample indices
# at once; it bounds the memory of one block of replicates and never
# changes the result
BOOTSTRAP_BLOCK_DRAWS = 1 << 18


def bootstrap_ceiling(ratings_per_item: list, B: int, seed: int) -> float:
    """Inter-annotator agreement ceiling via rating resampling.

    For each of B replicates, every item's participant ratings are resampled
    with replacement, the resampled per-item means are correlated with the
    original means, and the B correlations are averaged.

    The replicates run in blocks of about BOOTSTRAP_BLOCK_DRAWS draws, so the
    memory of a block is bounded whatever B is. Each block draws its
    indices with one generator call, in the order of a loop over
    replicates, items and ratings, and averages each item's resampled
    ratings in the order a 1-D mean sums them. The result therefore
    equals, bit for bit, that of earlier versions, which drew and averaged
    one item at a time.
    """
    if B < 1:
        raise ContractError("bootstrap replicate count must be >= 1")
    ratings = [np.asarray(r, dtype=np.float64) for r in ratings_per_item]
    for i, r in enumerate(ratings):
        if len(r) < 1:
            raise ContractError(f"item {i} has no participant ratings")
    if len(ratings) < 2:
        raise ContractError("need at least 2 items to correlate")

    original_means = np.array([r.mean() for r in ratings])
    counts = np.array([len(r) for r in ratings])
    starts = np.cumsum(counts) - counts
    flat = np.concatenate(ratings)
    n = len(flat)
    # Items are grouped by their rating count L. `order` lists the ratings
    # group by group, item by item, so that each group's resampled values
    # fill a contiguous column range [lo, hi) of a block.
    groups, order, lo = [], [], 0
    for L in np.unique(counts):
        items = np.flatnonzero(counts == L)
        order.append((starts[items][:, None] + np.arange(L)).ravel())
        groups.append((int(L), items, lo, lo + len(items) * int(L)))
        lo += len(items) * int(L)
    order = np.concatenate(order)
    base = np.repeat(starts, counts)[order]  # each rating's item offset

    rng = rng_for(seed, "bootstrap-ceiling")
    block = max(1, BOOTSTRAP_BLOCK_DRAWS // n)
    highs = np.tile(np.repeat(counts, counts), min(block, B))
    rs = np.empty(B)
    for b0 in range(0, B, block):
        k = min(block, B - b0)
        draws = rng.integers(0, highs[:k * n]).reshape(k, n)
        # np.take returns C-contiguous arrays, so each item's ratings are
        # adjacent and the mean over the last axis sums them as a 1-D
        # mean does
        values = np.take(flat, np.take(draws, order, axis=1) + base)
        resampled = np.empty((k, len(ratings)))
        for L, items, lo, hi in groups:
            resampled[:, items] = (
                values[:, lo:hi].reshape(k, len(items), L).mean(axis=-1))
        for b in range(k):
            rs[b0 + b] = pearson(resampled[b], original_means)
    return float(rs.mean())


# the tail mass on each side of bootstrap_ci's 95% interval; in floating
# point (1 - 0.95) / 2 is 0.025000000000000022, not 0.025, and the
# probes' interval bounds are defined by this value
CI_ALPHA = (1.0 - 0.95) / 2.0


@dataclass(frozen=True)
class Interval:
    """One group's row of a probe summary: its key (a tuple), its size, its
    mean and the bounds of its 95% bootstrap interval."""

    key: tuple
    n: int
    mean: float
    lo: float
    hi: float


def bootstrap_ci(groups: dict, B: int, seed: int = 0) -> list[Interval]:
    """Percentile bootstrap 95% interval of the mean for each group of
    values, keyed by a tuple.

    Returns one Interval per group, sorted by key. The groups are resampled
    in the dict's order, so a group's bounds depend on the groups before
    it, not on the sort. A group of identical values v has
    mean = lo = hi = v.

    A group of n values is resampled in blocks of about
    BOOTSTRAP_BLOCK_DRAWS draws, so its memory is bounded whatever B is.
    Consecutive `integers(0, n, (k, n))` calls draw what one
    `integers(0, n, (B, n))` call does, and each replicate's mean is a
    1-D mean of its own row, so the bounds equal, bit for bit, those of
    drawing all B x n indices at once.
    """
    if B < 1:
        raise ContractError("bootstrap replicate count must be >= 1")
    rows = []
    rng = rng_for(seed, "bootstrap-ci")
    for key in groups:
        values = np.asarray(groups[key], dtype=np.float64)
        if len(values) == 0:
            raise ContractError(f"group {key!r} is empty")
        n = len(values)
        block = max(1, BOOTSTRAP_BLOCK_DRAWS // n)
        means = np.empty(B)
        for b0 in range(0, B, block):
            k = min(block, B - b0)
            means[b0:b0 + k] = values[rng.integers(0, n, size=(k, n))].mean(
                axis=1)
        lo, hi = np.quantile(means, [CI_ALPHA, 1.0 - CI_ALPHA])
        rows.append(Interval(key, n, float(values.mean()), float(lo),
                             float(hi)))
    return sorted(rows, key=lambda row: row.key)
