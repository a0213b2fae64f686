"""Training loop (Adam on MSE), 5-fold grid search, out-of-fold prediction.

An example holds its input as row ids into its source's vector matrix,
so a run holds each distinct vector once. Each minibatch is one call of
the batched kernel `model.run_batch`: it gathers and packs the batch's
ragged sequences by length (no padding), runs the biLSTM over whole
sequences and hands out the gradients summed over the batch, which are
averaged before each tensor's Adam update. Evaluation scores examples in
fixed-size chunks through `model.predict_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import kfold, rescale_rating
from .embeddings import embed_utterance
from .errors import ContractError, NumericError
from .metrics import pearson_or_nan
from .model import (ModelConfig, ModelParams, init_params, predict_batch,
                    run_batch)
from .optim import AdamState, adam_step
from .seeding import derive_seed, rng_for


@dataclass
class Example:
    """One training item: its input's row ids plus rescaled target."""

    id: str
    rows: np.ndarray
    target: float


@dataclass
class TrainConfig:
    model: ModelConfig
    epochs: int = 40
    batch_size: int = 32
    lr: float = 0.001
    grad_clip: float | None = None  # off by default
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        for flag, value in (("--lr", self.lr),
                            ("--grad-clip", self.grad_clip)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ContractError(
                    f"{flag} must be a finite number above 0, got {value}")


@dataclass
class EpochStats:
    train_mse: float
    valid_r: float


@dataclass
class LearningCurve:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int | None = None  # 1-based index of checkpointed epoch
    aborted: str | None = None

    def best_valid_r(self) -> float:
        finite = [e.valid_r for e in self.epochs if math.isfinite(e.valid_r)]
        return max(finite) if finite else float("nan")


def examples_from_records(records, source, with_context: bool = False
                          ) -> list[Example]:
    """Each record's row ids in `source` (`embed_utterance` truncates and
    checks it) and rescaled mean rating as an example, in record order."""
    return [Example(id=record.id,
                    rows=embed_utterance(record, source, with_context),
                    target=rescale_rating(record.mean_rating))
            for record in records]


def evaluate(matrix, examples: list[Example], params: ModelParams,
             config: TrainConfig) -> np.ndarray:
    """Eval-mode scores for examples with rows in `matrix`, in order."""
    scores, _ = predict_batch(matrix, [ex.rows for ex in examples], params,
                              config.model)
    return scores


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def train(matrix, train_examples: list[Example],
          valid_examples: list[Example], config: TrainConfig
          ) -> tuple[ModelParams, LearningCurve]:
    """Minibatch Adam on MSE over rescaled ratings of examples with rows
    in `matrix` (a width other than input_dim is a ContractError).

    Shuffles per epoch with a seeded stream, records train MSE and
    validation Pearson r per epoch, and returns the parameters from the
    epoch with the best validation r. With no usable validation signal
    (empty set or undefined r throughout) the final epoch's parameters
    are returned. A non-finite loss or gradient aborts training with a
    diagnostic on the curve, returning the last checkpointed parameters.
    Parameters from the last epoch trained are returned as they are,
    without a copy.

    Without `grad_clip` each tensor takes its Adam update while the
    backward runs (`run_batch`'s `on_grad`), so a step never holds every
    gradient. A non-finite gradient is found only when the backward
    reaches it, so in an aborted step the tensors before it in
    `run_batch`'s gradient order are already updated, and with no
    checkpointed epoch the returned parameters are that partial step.
    Every caller discards them: `sil train` fails on an abort, and `tune`
    and `cv_predict` drop an aborted fold.
    """
    if not train_examples:
        raise ContractError("train set must be nonempty")

    params = init_params(config.model)
    state = AdamState.for_params(params.tensors, lr=config.lr)
    shuffle_rng = rng_for(config.seed, "epoch-shuffle")
    dropout_rng = rng_for(config.seed, "dropout")

    def update(name, g):
        g /= size
        adam_step({name: params.tensors[name]}, {name: g}, state)

    # each tensor is updated as soon as the backward is done with it, so
    # no step holds every gradient at once. Clipping scales by the norm of
    # every gradient, so with it no tensor can be updated before all exist.
    on_grad = update if config.grad_clip is None else None

    curve = LearningCurve()
    best_params: ModelParams | None = None
    best_r = -np.inf
    n = len(train_examples)

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_errors: list[float] = []
        try:
            for start in range(0, n, config.batch_size):
                batch = [train_examples[i]
                         for i in order[start:start + config.batch_size]]
                size = len(batch)
                result = run_batch(
                    matrix, [ex.rows for ex in batch], params, config.model,
                    targets=[ex.target for ex in batch], rng=dropout_rng,
                    names=[ex.id for ex in batch], on_grad=on_grad)
                sq_errors.extend(result.losses.tolist())
                if on_grad is None:
                    grads = result.grads
                    for g in grads.values():
                        g /= size
                    _clip_grads(grads, config.grad_clip)
                    adam_step(params.tensors, grads, state)
                    # freed before the next step's run_batch, not after it
                    del result, grads
        except NumericError as exc:
            curve.aborted = f"epoch {epoch}: {exc}"
            break

        train_mse = float(np.mean(sq_errors))
        if not math.isfinite(train_mse):
            curve.aborted = f"epoch {epoch}: non-finite training loss"
            break
        valid_r = float("nan")
        if valid_examples:
            scores = evaluate(matrix, valid_examples, params, config)
            targets = np.array([ex.target for ex in valid_examples])
            valid_r = pearson_or_nan(scores, targets)
        curve.epochs.append(EpochStats(train_mse=train_mse, valid_r=valid_r))
        if math.isfinite(valid_r) and valid_r > best_r:
            best_r = valid_r
            # the last epoch's parameters are not updated again
            best_params = params if epoch == config.epochs else params.clone()
            curve.best_epoch = epoch

    if best_params is None:
        best_params = params
        curve.best_epoch = len(curve.epochs) if curve.epochs else None
    return best_params, curve


# ---------------------------------------------------------------------------
# Grid search over 5-fold cross-validation
# ---------------------------------------------------------------------------

@dataclass
class GridPoint:
    """One grid configuration: the config its folds train with (`tune`
    gives each fold its own seeds), the name of its vector source and
    whether its inputs carry their contexts."""

    config: TrainConfig
    embedding: str = "glove"
    with_context: bool = False


@dataclass
class TuneResult:
    point: GridPoint
    fold_rs: list[float]
    mean_r: float
    error: str | None = None


def fold_config(config: TrainConfig, seed: int, fold: int) -> TrainConfig:
    """`config` with the model and training seeds of fold `fold` of a
    cross-validation run seeded by `seed`; `tune` and `cv_predict` both
    train their folds with it."""
    fold_seed = derive_seed(seed, f"fold:{fold}")
    return replace(config, seed=fold_seed,
                   model=replace(config.model, seed=fold_seed))


def _train_fold(args) -> tuple[int, int, float, str | None]:
    """Worker task: train one (grid point, fold) pair, return its best r."""
    point_idx, fold_idx, matrix, train_ex, heldout_ex, config = args
    try:
        _, curve = train(matrix, train_ex, heldout_ex, config)
        if curve.aborted:
            return point_idx, fold_idx, float("nan"), curve.aborted
        return point_idx, fold_idx, curve.best_valid_r(), None
    except (NumericError, ContractError) as exc:
        return point_idx, fold_idx, float("nan"), str(exc)


def tune(records, sources: dict, grid: list[GridPoint], folds,
         *, seed: int = 0, workers: int = 1) -> list[TuneResult]:
    """Grid search scored by mean held-out Pearson r over the given folds.

    `records` must already be restricted to the training split (no test
    leakage). `sources` maps embedding names to vector sources; `folds`
    is the kfold output shared by every grid point, and each point's folds
    train with its config under `fold_config`; a fold task carries its
    point's source's matrix and the examples' row ids. Failures are captured
    per configuration without stopping the sweep. Results are sorted by
    mean r descending, ties broken by smaller hidden_dim, lower dropout,
    then grid order. `workers` (--workers) processes run the fold tasks
    in parallel.
    """
    if not grid:
        raise ContractError("grid must be nonempty")
    if workers < 1:
        raise ContractError(f"--workers must be >= 1, got {workers}")

    example_cache: dict[tuple[str, bool], dict[str, Example]] = {}

    def examples_for(point: GridPoint) -> dict[str, Example]:
        key = (point.embedding, point.with_context)
        if key not in example_cache:
            if point.embedding not in sources:
                raise ContractError(
                    f"unknown embedding source {point.embedding!r}")
            built = examples_from_records(
                records, sources[point.embedding], point.with_context)
            example_cache[key] = {ex.id: ex for ex in built}
        return example_cache[key]

    tasks = []
    errors: dict[int, str] = {}
    for p_idx, point in enumerate(grid):
        try:
            pool = examples_for(point)
        except ContractError as exc:
            errors[p_idx] = str(exc)
            continue
        for f_idx, (train_ids, heldout_ids) in enumerate(folds):
            train_ex = [pool[i] for i in train_ids if i in pool]
            heldout_ex = [pool[i] for i in heldout_ids if i in pool]
            tasks.append((p_idx, f_idx, sources[point.embedding].matrix,
                          train_ex, heldout_ex,
                          fold_config(point.config, seed, f_idx)))

    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            outcomes = list(pool_exec.map(_train_fold, tasks))
    else:
        outcomes = [_train_fold(t) for t in tasks]

    fold_rs: dict[int, dict[int, float]] = {}
    for p_idx, f_idx, r, err in outcomes:
        fold_rs.setdefault(p_idx, {})[f_idx] = r
        if err and p_idx not in errors:
            errors[p_idx] = err

    results = []
    for p_idx, point in enumerate(grid):
        per_fold = fold_rs.get(p_idx, {})
        rs = [per_fold[i] for i in sorted(per_fold)]
        finite = [r for r in rs if math.isfinite(r)]
        mean_r = float(np.mean(finite)) if finite and len(finite) == len(rs) \
            else float("nan")
        results.append(TuneResult(point=point, fold_rs=rs, mean_r=mean_r,
                                  error=errors.get(p_idx)))

    order = sorted(
        range(len(results)),
        key=lambda i: (
            -(results[i].mean_r if math.isfinite(results[i].mean_r)
              else -np.inf),
            results[i].point.config.model.hidden_dim,
            results[i].point.config.model.dropout_rate,
            i))
    return [results[i] for i in order]


def cv_predict(matrix, examples: list[Example], config: TrainConfig,
               k: int = 6, seed: int = 0) -> dict[str, float]:
    """One out-of-fold score per example id (rows in `matrix`), for a
    fixed configuration.

    Each fold's model trains on the other folds with no validation set,
    so the final epoch's parameters are used (no held-out peeking).
    """
    by_id = {ex.id: ex for ex in examples}
    if len(by_id) != len(examples):
        raise ContractError("duplicate example ids")
    scores: dict[str, float] = {}
    for f_idx, (train_ids, heldout_ids) in enumerate(kfold(examples, k, seed)):
        fold_cfg = fold_config(config, seed, f_idx)
        params, curve = train(matrix, [by_id[i] for i in train_ids], [],
                              fold_cfg)
        if curve.aborted:
            raise NumericError(
                f"fold {f_idx} aborted: {curve.aborted}")
        heldout = [by_id[i] for i in heldout_ids]
        for ex, score in zip(heldout,
                             evaluate(matrix, heldout, params, fold_cfg)):
            scores[ex.id] = float(score)
    return scores
