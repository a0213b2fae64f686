"""Correlation, MSE, and the two bootstrap estimators."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sil import metrics
from sil.errors import ContractError, UndefinedCorrelationError
from sil.metrics import (Interval, bootstrap_ceiling, bootstrap_ci, mse,
                         pearson, pearson_or_nan)
from sil.seeding import derive_seed, rng_for


def test_identity_series_correlate_perfectly():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)


def test_reversed_series_anticorrelate():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_known_small_series_value():
    # sum(dx*dy)=3.5, sd_x=sqrt(5), sd_y=sqrt(4.75); frozen from that
    # hand computation and cross-checked against numpy.corrcoef
    r = pearson([1, 2, 3, 4], [2, 4, 5, 4])
    assert r == pytest.approx(0.7181848464596079, abs=1e-15)
    assert r == pytest.approx(float(np.corrcoef([1, 2, 3, 4],
                                                [2, 4, 5, 4])[0, 1]),
                              abs=1e-12)


def test_zero_variance_raises_rather_than_returning_zero():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [4.0, 4.0, 4.0])


def test_pearson_needs_two_points_and_equal_lengths():
    with pytest.raises(ContractError):
        pearson([1.0], [2.0])
    with pytest.raises(ContractError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(2)
    for trial in range(25):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20) + 0.5 * x
        r = pearson(x, y)
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        a, b = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3.0, 3.0))
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-12)
        # raw 1-7 ratings and their [0,1] rescaling give the same r
        assert pearson(x, (y - 1.0) / 6.0) == pytest.approx(r, abs=1e-12)
    assert abs(r) <= 1.0


def test_pearson_or_nan_is_nan_only_where_r_is_undefined():
    assert math.isnan(pearson_or_nan([], []))
    assert math.isnan(pearson_or_nan([1.0], [2.0]))
    assert math.isnan(pearson_or_nan([1.0, 1.0, 1.0], [1, 2, 3]))
    assert pearson_or_nan([1, 2, 3, 4], [2, 4, 5, 4]) == \
        pearson([1, 2, 3, 4], [2, 4, 5, 4])
    with pytest.raises(ContractError):
        pearson_or_nan([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        pearson_or_nan([1.0], [1.0, 2.0])


def test_mse_basic_cases():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert mse([0.0, 2.0], [1.0, 0.0]) == pytest.approx(2.5)


def test_mse_of_no_items_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(mse([], []))


def test_ceiling_on_identical_ratings_is_one():
    items = [[4.0, 4.0, 4.0], [2.0, 2.0], [6.0, 6.0, 6.0, 6.0]]
    assert bootstrap_ceiling(items, B=50, seed=0) == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_ceiling_validates_inputs():
    with pytest.raises(ContractError):
        bootstrap_ceiling([[1.0], [2.0]], B=0, seed=0)
    with pytest.raises(ContractError):
        bootstrap_ceiling([[1.0, 2.0], []], B=10, seed=0)
    with pytest.raises(ContractError):
        bootstrap_ceiling([[1.0, 2.0]], B=10, seed=0)


def test_ceiling_is_seed_deterministic_and_below_one_with_noise():
    rng = np.random.default_rng(9)
    items = [list(np.clip(rng.normal(m, 1.0, size=8), 1, 7))
             for m in rng.uniform(2, 6, size=40)]
    a = bootstrap_ceiling(items, B=200, seed=3)
    b = bootstrap_ceiling(items, B=200, seed=3)
    assert a == b
    assert 0.5 < a < 1.0


def test_ceiling_rises_with_more_raters():
    rng = np.random.default_rng(4)
    means = rng.uniform(2, 6, size=30)
    few = [list(np.clip(rng.normal(m, 1.5, size=3), 1, 7)) for m in means]
    many = [list(np.clip(rng.normal(m, 1.5, size=30), 1, 7)) for m in means]
    assert bootstrap_ceiling(many, B=200, seed=0) > \
        bootstrap_ceiling(few, B=200, seed=0)


# ---------------------------------------------------------------------------
# the blocked ceiling against the per-item loop it replaced
# ---------------------------------------------------------------------------

def reference_bootstrap_ceiling(ratings_per_item: list, B: int,
                                seed: int) -> float:
    """The per-item loop, kept verbatim as the oracle of bootstrap_ceiling."""
    if B < 1:
        raise ContractError("bootstrap replicate count must be >= 1")
    ratings = [np.asarray(r, dtype=np.float64) for r in ratings_per_item]
    for i, r in enumerate(ratings):
        if len(r) < 1:
            raise ContractError(f"item {i} has no participant ratings")
    if len(ratings) < 2:
        raise ContractError("need at least 2 items to correlate")

    original_means = np.array([r.mean() for r in ratings])
    rng = rng_for(seed, "bootstrap-ceiling")
    rs = np.empty(B)
    for b in range(B):
        resampled = np.array([
            r[rng.integers(0, len(r), size=len(r))].mean() for r in ratings
        ])
        rs[b] = pearson(resampled, original_means)
    return float(rs.mean())


def ragged_items(n_items, max_ratings, seed, integer=True):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_ratings + 1, size=n_items)
    if integer:
        return [list(rng.integers(1, 8, size=k).astype(float)) for k in sizes]
    return [list(rng.uniform(1.0, 7.0, size=k)) for k in sizes]


@pytest.mark.parametrize("integer", [True, False])
def test_ceiling_matches_loop_on_ragged_items(integer):
    # float ratings also catch a change in summation order, which sums of
    # small integers hide
    items = ragged_items(300, 13, seed=1, integer=integer)
    assert {len(r) for r in items} == set(range(1, 14))
    assert bootstrap_ceiling(items, 37, seed=5) == \
        reference_bootstrap_ceiling(items, 37, seed=5)


def test_ceiling_matches_loop_with_one_replicate():
    items = ragged_items(50, 13, seed=2, integer=False)
    assert bootstrap_ceiling(items, 1, seed=0) == \
        reference_bootstrap_ceiling(items, 1, seed=0)


@pytest.mark.parametrize("block_draws", [1, 40, 97, 1000])
def test_ceiling_matches_loop_across_blocks(monkeypatch, block_draws):
    items = ragged_items(30, 13, seed=3, integer=False)
    monkeypatch.setattr(metrics, "BOOTSTRAP_BLOCK_DRAWS", block_draws)
    # 23 replicates never fill a whole number of these blocks
    assert bootstrap_ceiling(items, 23, seed=9) == \
        reference_bootstrap_ceiling(items, 23, seed=9)


def test_ceiling_matches_loop_on_long_items():
    # above 8 ratings a mean sums pairwise, and above 128 in halves
    rng = np.random.default_rng(6)
    items = [list(rng.uniform(1.0, 7.0, size=k))
             for k in (8, 9, 16, 17, 127, 128, 129, 300)]
    assert bootstrap_ceiling(items, 11, seed=4) == \
        reference_bootstrap_ceiling(items, 11, seed=4)


def test_ceiling_matches_loop_on_identical_ratings():
    items = [[4.0] * 3, [2.0] * 2, [6.0] * 4, [5.0], [3.0] * 13]
    assert bootstrap_ceiling(items, 50, seed=0) == \
        reference_bootstrap_ceiling(items, 50, seed=0)


def test_ceiling_matches_loop_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def outcome(fn, *args):
        try:
            return fn(*args)
        except UndefinedCorrelationError as exc:
            return type(exc)

    rating = st.integers(1, 7).map(float) | st.floats(1.0, 7.0)
    items = st.lists(st.lists(rating, min_size=1, max_size=15),
                     min_size=2, max_size=20)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(items=items, B=st.integers(1, 30),
                      seed=st.integers(0, 2 ** 32 - 1),
                      block_draws=st.sampled_from([1, 16, 100, 1 << 18]))
    def check(items, B, seed, block_draws):
        saved = metrics.BOOTSTRAP_BLOCK_DRAWS
        metrics.BOOTSTRAP_BLOCK_DRAWS = block_draws
        try:
            got = outcome(bootstrap_ceiling, items, B, seed)
        finally:
            metrics.BOOTSTRAP_BLOCK_DRAWS = saved
        assert got == outcome(reference_bootstrap_ceiling, items, B, seed)

    check()


def test_ci_of_identical_values_collapses():
    [row] = bootstrap_ci({("g",): [3.0, 3.0, 3.0]}, B=100, seed=0)
    assert row == Interval(("g",), 3, 3.0, 3.0, 3.0)


def test_ci_of_zero_one_group():
    [row] = bootstrap_ci({("g",): [0.0, 1.0]}, B=20000, seed=0)
    # the four equally likely resamples of size 2 average to 0, .5, .5, 1
    assert row.mean == 0.5
    assert row.lo == 0.0
    assert row.hi == 1.0


def test_ci_brackets_the_mean_and_orders():
    rng = np.random.default_rng(8)
    groups = {(f"g{i}",): rng.normal(i, 1.0, size=30) for i in range(3)}
    rows = bootstrap_ci(groups, B=500, seed=1)
    assert [row.key for row in rows] == sorted(groups)
    for row in rows:
        assert row.lo <= row.mean <= row.hi
        assert row.n == 30
        assert row.mean == pytest.approx(float(np.mean(groups[row.key])),
                                         abs=1e-12)


def test_ci_validates_inputs():
    with pytest.raises(ContractError):
        bootstrap_ci({"g": [1.0]}, B=0)
    with pytest.raises(ContractError):
        bootstrap_ci({"g": []}, B=10)


def test_ci_narrows_with_samples():
    rng = np.random.default_rng(12)
    small = {("g",): rng.normal(0, 1, size=10)}
    large = {("g",): rng.normal(0, 1, size=1000)}
    [wide] = bootstrap_ci(small, B=400, seed=2)
    [narrow] = bootstrap_ci(large, B=400, seed=2)
    assert (narrow.hi - narrow.lo) < (wide.hi - wide.lo)


def _stream(seed, purpose):
    """The generator seeded as the seeding module documents: the first 8
    bytes, little-endian, of sha256("<seed>:<purpose>")."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def test_ci_bounds_are_quantiles_of_one_shared_stream():
    # keys out of sorted order: the groups draw from one stream in dict
    # order, and the rows come back sorted
    rng = np.random.default_rng(21)
    groups = {("b",): rng.normal(0, 1, size=7), ("c",): rng.normal(2, 1, 5),
              ("a",): rng.normal(1, 1, size=9)}
    B, seed = 301, 4
    stream = _stream(seed, "bootstrap-ci")
    alpha = (1.0 - 0.95) / 2.0
    expected = {}
    for key, values in groups.items():
        idx = stream.integers(0, len(values), size=(B, len(values)))
        means = values[idx].mean(axis=1)
        expected[key] = Interval(key, len(values), float(values.mean()),
                                 *map(float, np.quantile(
                                     means, [alpha, 1.0 - alpha])))
    assert bootstrap_ci(groups, B=B, seed=seed) == \
        [expected[key] for key in sorted(groups)]



def one_call_bootstrap_ci(groups, B, seed):
    """`bootstrap_ci` as it was before it drew in blocks: all B x n
    indices of a group in one call, then row means and the quantiles."""
    stream = _stream(seed, "bootstrap-ci")
    alpha = (1.0 - 0.95) / 2.0
    rows = []
    for key, values in groups.items():
        values = np.asarray(values, dtype=np.float64)
        n = len(values)
        means = values[stream.integers(0, n, size=(B, n))].mean(axis=1)
        lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
        rows.append(Interval(key, n, float(values.mean()), float(lo),
                             float(hi)))
    return sorted(rows, key=lambda row: row.key)


@pytest.mark.parametrize("sizes, B", [
    ((1,), 50),             # one value: every index is 0
    ((101, 7, 33), 257),    # odd sizes, and B not a multiple of a block
    ((600, 200, 400), 1000),  # the minimal-pair groups: B x 600 > a block
    ((3, 600), 1),          # one replicate
])
def test_ci_equals_the_one_call_draw(sizes, B):
    rng = np.random.default_rng(len(sizes) * B)
    groups = {(f"g{i}",): rng.uniform(1.0, 7.0, size=n)
              for i, n in enumerate(sizes)}
    assert bootstrap_ci(groups, B=B, seed=3) == \
        one_call_bootstrap_ci(groups, B, 3)


@pytest.mark.parametrize("block_draws", [1, 100, 601, 6000])
def test_ci_equals_the_one_call_draw_across_blocks(monkeypatch, block_draws):
    monkeypatch.setattr(metrics, "BOOTSTRAP_BLOCK_DRAWS", block_draws)
    rng = np.random.default_rng(5)
    groups = {("a",): rng.normal(size=600), ("b",): rng.normal(size=13),
              ("c",): rng.normal(size=1)}
    assert bootstrap_ci(groups, B=101, seed=8) == \
        one_call_bootstrap_ci(groups, 101, 8)


def test_ci_memory_does_not_grow_with_replicates():
    values = {("g",): np.random.default_rng(0).uniform(1.0, 7.0, size=600)}

    def peak_of(B):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            bootstrap_ci(values, B=B, seed=0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    # beyond the B means, 10 000 replicates hold what 1000 do; drawn at
    # once they would hold 2 x 8 x 10 000 x 600 bytes
    assert peak_of(10_000) - peak_of(1000) < 1 << 20


# Coverage of the percentile interval. Each group size gets R groups drawn
# from a population whose mean is known, and the share of intervals that
# cover that mean must lie within 3 binomial standard errors of 95%:
# R = 400 gives [0.917, 0.983]. R, B, the seed and the band were fixed
# before the test was first run.
COVERAGE_R = 400
COVERAGE_BAND = (0.95 - 3 * math.sqrt(0.95 * 0.05 / COVERAGE_R),
                 0.95 + 3 * math.sqrt(0.95 * 0.05 / COVERAGE_R))


@pytest.mark.parametrize("n, population", [
    # the minimal-pair groups: raw ratings, uniform on [1, 7], mean 4
    (200, "ratings"), (400, "ratings"), (600, "ratings"),
    # attention-sized groups: weights in (0, 1), skewed, Beta(2, 5),
    # mean 2/7
    (30, "weights"), (80, "weights"), (136, "weights"),
])
def test_ci_covers_the_population_mean(n, population):
    rng = np.random.default_rng(derive_seed(n, population))
    if population == "ratings":
        draws, mean = rng.uniform(1.0, 7.0, size=(COVERAGE_R, n)), 4.0
    else:
        draws, mean = rng.beta(2.0, 5.0, size=(COVERAGE_R, n)), 2.0 / 7.0
    rows = bootstrap_ci({(r,): draws[r] for r in range(COVERAGE_R)},
                        B=1000, seed=n)
    covered = sum(row.lo <= mean <= row.hi for row in rows) / COVERAGE_R
    assert COVERAGE_BAND[0] <= covered <= COVERAGE_BAND[1], covered
