"""Original vs extended rating regression with a paired item bootstrap.

Both models are ordinary least squares on standardized predictors: the
original uses the hand-coded features, the extended adds the encoder's
out-of-fold prediction as one more predictor. For each of B nonparametric
item resamples, both models are refit on the same resample and the
coefficient draws compared pairwise, giving per-predictor
p_shrink = P(|beta_extended| < |beta_original|), with exact ties counted
as one half.

The resamples are refit in blocks of stacked least-squares problems (see
`_bootstrap_draws`); every draw is bit for bit the `np.linalg.lstsq` fit
of its own resample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ValidationError
from ..seeding import rng_for

MAIN_EFFECTS = ("partitive", "strength", "mention", "subjecthood",
                "modification", "utterance_length")
CONTINUOUS = {"strength", "utterance_length", "nn_prediction"}
NN_PREDICTOR = "nn_prediction"

# the bytes of resampled design and response gathered per bootstrap block
_BLOCK_BYTES = 1 << 20


@dataclass
class RegressionSpec:
    """The interaction terms (pairs of MAIN_EFFECTS names) that both models
    add to the main effects."""

    interactions: list = field(default_factory=list)

    def __post_init__(self):
        for a, b in self.interactions:
            if a not in MAIN_EFFECTS or b not in MAIN_EFFECTS:
                raise ContractError(
                    f"interaction ({a}, {b}) references undeclared predictor")


@dataclass
class CoefficientRow:
    predictor: str
    beta_original: float
    beta_extended: float
    ci_original: tuple[float, float]
    ci_extended: tuple[float, float]
    p_shrink: float
    stars: str


@dataclass
class CoefficientComparison:
    rows: list[CoefficientRow]
    n_items: int
    n_bootstrap: int

    def row(self, predictor: str) -> CoefficientRow:
        for r in self.rows:
            if r.predictor == predictor:
                return r
        raise KeyError(predictor)


def _feature_value(record, name: str) -> float:
    f = record.features
    return {
        "partitive": f.partitive,
        "strength": f.determiner_strength,
        "mention": f.linguistic_mention,
        "subjecthood": f.subjecthood,
        "modification": f.modification,
        "utterance_length": f.utterance_length,
    }[name]


def _standardize_column(col: np.ndarray, name: str) -> np.ndarray:
    """`col` centered and, for a continuous predictor, scaled to unit
    variance; a spread that overflows raises ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        centered = col - col.mean()
        std = centered.std() if name in CONTINUOUS else 0.0
    if not math.isfinite(std):
        raise ValidationError(
            f"cannot standardize {name}: its spread is not finite")
    return centered / std if std > 0 else centered


def build_design(records, spec: RegressionSpec, nn_predictions: dict | None
                 ) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Design matrix (intercept first), column names, and raw-scale response.

    The columns are MAIN_EFFECTS, then the spec's interactions, then the
    NN predictor when `nn_predictions` is given. Continuous predictors are
    z-scored, binary ones centered; interaction columns are products of
    the standardized mains.
    """
    if not records:
        raise ContractError("no records for regression")
    y = np.array([r.mean_rating for r in records], dtype=np.float64)
    columns: list[np.ndarray] = [np.ones(len(records))]
    names = ["intercept"]

    transformed: dict[str, np.ndarray] = {}
    for name in MAIN_EFFECTS:
        col = np.array([_feature_value(r, name) for r in records],
                       dtype=np.float64)
        transformed[name] = _standardize_column(col, name)
        columns.append(transformed[name])
        names.append(name)
    for a, b in spec.interactions:
        columns.append(transformed[a] * transformed[b])
        names.append(f"{a}:{b}")
    if nn_predictions is not None:
        missing = [r.id for r in records if r.id not in nn_predictions]
        if missing:
            raise ContractError(
                f"missing NN predictions for {len(missing)} records "
                f"(first: {missing[0]!r})")
        col = np.array([nn_predictions[r.id] for r in records],
                       dtype=np.float64)
        columns.append(_standardize_column(col, NN_PREDICTOR))
        names.append(NN_PREDICTOR)
    return np.column_stack(columns), names, y


def _fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    # minimum-norm least squares; rank issues are checked on the original
    # design only, so a degenerate added column cannot abort the bootstrap
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _raise_lstsq_failure(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stacked(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`np.linalg.lstsq(X[i], y[i], rcond=None)[0]` for every i, in one call.

    `X` is (k, n, p) and `y` is (k, n). This calls the gufunc that `lstsq`
    itself calls, with the same rcond, signature and error state, so each
    matrix goes through the same LAPACK dgelsd and every row of the result
    has the bits of its own `lstsq` call; a failed fit raises LinAlgError.
    """
    from numpy.linalg import _umath_linalg

    n, p = X.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(n, p)
    with np.errstate(call=_raise_lstsq_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        beta, *_ = _umath_linalg.lstsq(X, y[..., None], rcond,
                                       signature="ddd->ddid")
    return beta[..., 0]


def _bootstrap_draws(X: np.ndarray, y: np.ndarray, p_orig: int, B: int,
                     rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient draws of the original and extended models on B item
    resamples: (B, p_orig) and (B, p) arrays.

    `X` is the extended design; the original one is its first `p_orig`
    columns. Draw b resamples the rows `rng.integers(0, n, size=n)` would
    give on the b-th call. A block of k draws takes them with one
    `size=(k, n)` call, which yields the same indices and leaves `rng` in
    the same state, and gathers about _BLOCK_BYTES of design and response,
    so memory grows with neither B nor n.
    """
    n, p = X.shape
    draws_orig = np.empty((B, p_orig))
    draws_ext = np.empty((B, p))
    block = max(1, _BLOCK_BYTES // (X.itemsize * n * (p + 1)))
    for start in range(0, B, block):
        stop = min(start + block, B)
        idx = rng.integers(0, n, size=(stop - start, n))
        Xb, yb = X[idx], y[idx]
        draws_orig[start:stop] = _lstsq_stacked(Xb[..., :p_orig], yb)
        draws_ext[start:stop] = _lstsq_stacked(Xb, yb)
    return draws_orig, draws_ext


def _check_full_rank(X: np.ndarray, names: list[str]) -> None:
    rank = np.linalg.matrix_rank(X)
    if rank >= X.shape[1]:
        return
    culprits = []
    for j in range(1, X.shape[1]):
        reduced = np.delete(X, j, axis=1)
        if np.linalg.matrix_rank(reduced) == rank:
            culprits.append(names[j])
    raise ContractError(
        "singular design matrix; collinear predictors: "
        + (", ".join(culprits) if culprits else "undetermined"))


def _stars(p: float) -> str:
    if p > 0.999:
        return "***"
    if p > 0.99:
        return "**"
    if p > 0.95:
        return "*"
    return ""


def _p_shrink(extended: np.ndarray, original: np.ndarray) -> float:
    """The share of paired draws with |beta_extended| < |beta_original|,
    exact ties counting one half."""
    shrunk = np.abs(extended) < np.abs(original)
    ties = np.abs(extended) == np.abs(original)
    return float((shrunk.sum() + 0.5 * ties.sum()) / len(extended))


def regression_compare(records, nn_predictions: dict, spec: RegressionSpec,
                       B: int = 10000, seed: int = 0) -> CoefficientComparison:
    """Fit original and extended models and bootstrap coefficient shrinkage.

    Returns one row per predictor of the extended model, in design order:
    the intercept, the main effects, the interactions, then
    `nn_prediction`, whose original-model beta, CI and p_shrink are NaN.
    With B=0 only the point fits are reported (CIs collapse to the point
    estimate, p_shrink is NaN).
    """
    X_orig, names_orig, y = build_design(records, spec, None)
    _check_full_rank(X_orig, names_orig)
    X_ext, names_ext, _ = build_design(records, spec, nn_predictions)

    beta_orig = _fit(X_orig, y)
    beta_ext = _fit(X_ext, y)

    n = len(records)
    if B > 0:
        # the extended design is the original one plus the NN column
        draws_orig, draws_ext = _bootstrap_draws(
            X_ext, y, len(names_orig), B,
            rng_for(seed, "regression-bootstrap"))

    nan = float("nan")
    rows = []
    for j, name in enumerate(names_ext):
        # the NN predictor, last, is in the extended model only
        shared = j < len(names_orig)
        b_o = float(beta_orig[j]) if shared else nan
        b_e = float(beta_ext[j])
        ci_o, ci_e, p = (b_o, b_o), (b_e, b_e), nan
        if B > 0:
            e = draws_ext[:, j]
            ci_e = (float(np.quantile(e, 0.025)), float(np.quantile(e, 0.975)))
            if shared:
                o = draws_orig[:, j]
                ci_o = (float(np.quantile(o, 0.025)),
                        float(np.quantile(o, 0.975)))
                p = _p_shrink(e, o)
        rows.append(CoefficientRow(
            predictor=name, beta_original=b_o, beta_extended=b_e,
            ci_original=ci_o, ci_extended=ci_e, p_shrink=p,
            stars="" if math.isnan(p) else _stars(p)))

    return CoefficientComparison(rows=rows, n_items=n, n_bootstrap=B)
