"""Training loop, grid search, and cross-validated prediction."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_records, make_table, vocab_of

from sil.corpus import (FeatureVector, UtteranceRecord, kfold,
                        rescale_rating, split)
from sil.autodiff import backward
from sil.errors import ContractError
from sil.metrics import pearson
from sil.model import (ModelConfig, forward, init_params, predict_batch,
                       run_batch)
from sil.optim import ADAM_BLOCK, AdamState, adam_step
from sil.seeding import rng_for
from sil.trainer import (Example, GridPoint, TrainConfig, cv_predict,
                         evaluate, examples_from_records, fold_config, train,
                         tune)


def tiny_train_config(**kw):
    model_kw = dict(input_dim=8, hidden_dim=4, dropout_rate=0.0, seed=0)
    model_kw.update(kw.pop("model_kw", {}))
    base = dict(model=ModelConfig(**model_kw), epochs=3, batch_size=8,
                lr=0.01, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def long_record(n_tokens: int, n_context: int = 0,
                rid: str = "long") -> UtteranceRecord:
    tokens = ["some"] + ["word"] * (n_tokens - 1)
    return UtteranceRecord(
        id=rid, tokens=tokens, context_tokens=["ctx"] * n_context,
        mean_rating=4.0, participant_ratings=[4.0, 4.0],
        features=FeatureVector(partitive=0, determiner_strength=4.0,
                               linguistic_mention=0, subjecthood=0,
                               modification=0, utterance_length=n_tokens),
        some_index=0)


# ---------------------------------------------------------------------------
# examples_from_records
# ---------------------------------------------------------------------------

def test_examples_carry_rescaled_targets(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records, tiny_table)
    assert len(examples) == len(tiny_records)
    for record, ex in zip(tiny_records, examples):
        assert ex.id == record.id
        assert ex.target == rescale_rating(record.mean_rating)
        assert ex.embedded.shape == (len(record.tokens), 8)


def test_examples_truncate_long_targets():
    record = long_record(42)
    table = make_table(["some", "word", "ctx"], dim=6)
    examples = examples_from_records([record], table)
    assert examples[0].embedded.shape == (30, 6)


def test_examples_keep_whole_target_with_context():
    record = long_record(42, n_context=160)
    table = make_table(["some", "word", "ctx"], dim=6)
    examples = examples_from_records([record], table, with_context=True)
    # context capped at its last 150 tokens, target left whole
    assert examples[0].embedded.shape == (150 + 42, 6)


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------

def test_evaluate_preserves_input_order(tiny_records, tiny_table):
    config = tiny_train_config()
    examples = examples_from_records(tiny_records[:5], tiny_table)
    params = init_params(config.model)
    scores = evaluate(examples, params, config)
    assert scores.shape == (5,)
    batch, _ = predict_batch([len(ex.embedded) for ex in examples],
                             lambda i: examples[i].embedded, params,
                             config.model)
    assert scores.tobytes() == batch.tobytes()
    for ex, score in zip(examples, scores):
        direct = forward(ex.embedded, params, config.model).score.value
        assert abs(float(direct) - float(score)) <= 1e-12


def test_memorizes_a_handful_of_items(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:8], tiny_table)
    config = tiny_train_config(model_kw=dict(hidden_dim=16), epochs=200)
    params, curve = train(examples, [], config)
    assert curve.aborted is None
    assert curve.epochs[-1].train_mse < 1e-3
    scores = evaluate(examples, params, config)
    targets = np.array([ex.target for ex in examples])
    assert float(np.mean((scores - targets) ** 2)) < 1e-3


def test_training_is_bit_deterministic(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records, tiny_table)
    runs = []
    for _ in range(2):
        config = tiny_train_config(model_kw=dict(dropout_rate=0.2), seed=11)
        params, curve = train(examples[:10], examples[10:14], config)
        runs.append((params, curve))
    a, b = runs
    assert [e.train_mse for e in a[1].epochs] == \
        [e.train_mse for e in b[1].epochs]
    assert [e.valid_r for e in a[1].epochs] == \
        [e.valid_r for e in b[1].epochs]
    for name in a[0].names():
        assert a[0].tensors[name].tobytes() == b[0].tensors[name].tobytes()


def test_curve_length_matches_epochs(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:6], tiny_table)
    params, curve = train(examples, [], tiny_train_config(epochs=1))
    assert len(curve.epochs) == 1
    assert curve.best_epoch == 1


def test_best_epoch_tracks_peak_validation_r(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records, tiny_table)
    config = tiny_train_config(epochs=6, seed=2)
    params, curve = train(examples[:16], examples[16:], config)
    rs = [e.valid_r for e in curve.epochs]
    assert all(math.isfinite(r) for r in rs)
    assert curve.best_epoch == rs.index(max(rs)) + 1


def test_no_validation_signal_keeps_final_epoch(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:6], tiny_table)
    params, curve = train(examples, [], tiny_train_config(epochs=4))
    assert curve.best_epoch == 4
    assert all(math.isnan(e.valid_r) for e in curve.epochs)


@pytest.mark.parametrize("epochs", [3, 2])
def test_best_epoch_parameters_are_that_epochs_snapshot(tiny_records,
                                                        tiny_table,
                                                        monkeypatch, epochs):
    # validation r peaks at epoch 2 of 3 under this seed and rate
    import sil.trainer
    snapshots = []
    real = sil.trainer.evaluate

    def snapshot_then_evaluate(examples, params, config):
        snapshots.append(params.clone())
        return real(examples, params, config)

    monkeypatch.setattr(sil.trainer, "evaluate", snapshot_then_evaluate)
    examples = examples_from_records(tiny_records, tiny_table)
    config = tiny_train_config(epochs=epochs, lr=0.05, seed=1)
    params, curve = train(examples[:16], examples[16:], config)
    assert curve.best_epoch == 2
    best, last = snapshots[1], snapshots[-1]
    for name in best.names():
        assert params.tensors[name].tobytes() == best.tensors[name].tobytes()
    if epochs == 3:
        assert any(params.tensors[n].tobytes() != last.tensors[n].tobytes()
                   for n in last.names())


def test_no_validation_returns_the_final_parameters(tiny_records, tiny_table,
                                                    monkeypatch):
    import sil.trainer
    # each tensor's bytes after its latest update; a step updates its
    # tensors one `adam_step` call at a time
    after_step = {}
    real = sil.trainer.adam_step

    def step_then_snapshot(params, grads, state):
        real(params, grads, state)
        after_step.update({n: a.tobytes() for n, a in params.items()})

    monkeypatch.setattr(sil.trainer, "adam_step", step_then_snapshot)
    examples = examples_from_records(tiny_records, tiny_table)
    params, curve = train(examples[:16], [], tiny_train_config(epochs=2))
    assert curve.best_epoch == 2
    assert {n: a.tobytes() for n, a in params.tensors.items()} == after_step


def test_empty_train_set_rejected(tiny_table):
    with pytest.raises(ContractError):
        train([], [], tiny_train_config())


def test_width_mismatch_rejected(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:4], tiny_table)
    config = tiny_train_config(model_kw=dict(input_dim=9))
    with pytest.raises(ContractError, match="width"):
        train(examples, [], config)


def test_nonfinite_input_aborts_with_diagnostic():
    bad = Example(id="x", embedded=np.full((3, 8), np.nan), target=0.5)
    params, curve = train([bad], [], tiny_train_config())
    assert curve.aborted is not None
    assert "epoch 1" in curve.aborted
    assert curve.epochs == []


def test_nonfinite_loss_names_the_example(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records, tiny_table)
    examples[5].embedded[2, 0] = np.nan
    _, curve = train(examples, [], tiny_train_config())
    assert curve.aborted == ("epoch 1: loss value is non-finite for item "
                             f"{examples[5].id!r}")


def test_nonfinite_gradient_names_parameter_and_batch(tiny_records,
                                                      tiny_table):
    # an infinite input saturates every gate it reaches, so the scores
    # and losses stay finite while 0 * inf poisons the input weights'
    # gradients
    examples = examples_from_records(tiny_records, tiny_table)
    examples[5].embedded[2, 0] = np.inf
    with np.errstate(invalid="ignore"):
        _, curve = train(examples, [], tiny_train_config(
            batch_size=len(examples)))
    head, named = curve.aborted.split(" in a batch of items ")
    assert head == "epoch 1: non-finite gradient for parameter 'lstm.0.fw.W'"
    # one batch holds every example, in its shuffled order
    assert sorted(named.split(", ")) == sorted(repr(ex.id) for ex in examples)


@pytest.mark.parametrize("field, value, flag", [
    ("lr", float("nan"), "--lr"), ("lr", float("inf"), "--lr"),
    ("lr", -1.0, "--lr"), ("lr", 0.0, "--lr"),
    ("grad_clip", float("nan"), "--grad-clip"),
    ("grad_clip", float("inf"), "--grad-clip"),
    ("grad_clip", 0.0, "--grad-clip"), ("grad_clip", -1.0, "--grad-clip"),
])
def test_train_config_rejects_bad_step_sizes(field, value, flag):
    with pytest.raises(ContractError, match=f"{flag} must be a finite "
                                            f"number above 0, got {value}"):
        tiny_train_config(**{field: value})


def test_only_one_gradient_set_is_alive_as_each_step_starts(monkeypatch):
    # numpy's traced bytes as each run_batch starts: the parameters, Adam's
    # two moments and its two block-sized scratch buffers, never also the
    # previous step's gradients
    config = tiny_train_config(model_kw=dict(input_dim=16, hidden_dim=64),
                               epochs=1, batch_size=4)
    rng = np.random.default_rng(0)
    examples = [Example(id=f"e{k}", embedded=rng.standard_normal((6, 16)),
                        target=0.5) for k in range(12)]
    param_bytes = sum(a.nbytes
                      for a in init_params(config.model).tensors.values())
    alive = []

    def traced_run_batch(*args, **kw):
        alive.append(tracemalloc.get_traced_memory()[0] - base)
        return run_batch(*args, **kw)

    monkeypatch.setattr("sil.trainer.run_batch", traced_run_batch)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(examples, [], config)
    finally:
        if started:
            tracemalloc.stop()
    expected = 3 * param_bytes + 2 * ADAM_BLOCK * 8
    assert len(alive) == 3
    for nbytes in alive[1:]:
        assert expected <= nbytes < expected + param_bytes / 2


@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_streamed_updates_equal_one_update_over_all_tensors(pooling):
    # a clip norm no gradient reaches takes the collected path, where one
    # adam_step updates every tensor, and never scales a gradient
    records = make_records(14, seed=2, with_context=True)
    table = make_table(sorted(vocab_of(records)))
    examples = examples_from_records(records, table, with_context=True)
    config = tiny_train_config(
        model_kw=dict(hidden_dim=5, dropout_rate=0.2,
                      use_attention=pooling == "attention"),
        epochs=3, batch_size=4, seed=3)
    runs = [train(examples[:10], examples[10:], replace(config,
                                                        grad_clip=clip))
            for clip in (None, 1e300)]
    (streamed, s_curve), (collected, c_curve) = runs
    assert s_curve == c_curve
    for name in collected.names():
        assert streamed.tensors[name].tobytes() == \
            collected.tensors[name].tobytes(), name


def test_a_step_never_holds_every_gradient(monkeypatch):
    # numpy's traced peak of each step above the parameters, Adam's
    # moments and scratch: the live gradients and the activations. One
    # update over all tensors holds every gradient at once, so the
    # parameter bytes and more (1.19x them here); updated as the backward
    # goes, a step holds the activations (0.31x) and one tensor's
    # gradient at a time, 0.56x them at the largest
    config = tiny_train_config(model_kw=dict(input_dim=16, hidden_dim=64),
                               epochs=1, batch_size=4)
    rng = np.random.default_rng(0)
    examples = [Example(id=f"e{k}", embedded=rng.standard_normal((6, 16)),
                        target=0.5) for k in range(12)]
    param_bytes = sum(a.nbytes
                      for a in init_params(config.model).tensors.values())
    peaks = []

    def traced_run_batch(*args, **kw):
        # the peak since the previous step started, then a fresh one
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.reset_peak()
        return run_batch(*args, **kw)

    monkeypatch.setattr("sil.trainer.run_batch", traced_run_batch)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(examples, [], config)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if started:
            tracemalloc.stop()
    alive = 3 * param_bytes + 2 * ADAM_BLOCK * 8
    assert len(peaks) == 4
    for peak in peaks[2:]:  # steps 2 and 3, once every buffer exists
        assert alive < peak < alive + param_bytes


def _tape_train(train_examples, valid_examples, config):
    """The per-item tape training loop `train` replaced, as a reference."""
    params = init_params(config.model)
    state = AdamState(lr=config.lr)
    shuffle_rng = rng_for(config.seed, "epoch-shuffle")
    dropout_rng = rng_for(config.seed, "dropout")
    curve, best, best_r = [], None, -np.inf
    n = len(train_examples)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        sq_errors = []
        for start in range(0, n, config.batch_size):
            batch = [train_examples[i]
                     for i in order[start:start + config.batch_size]]
            summed = {}
            for ex in batch:
                fp = forward(ex.embedded, params, config.model, train=True,
                             rng=dropout_rng)
                err = fp.score - ex.target
                loss = err * err
                sq_errors.append(float(loss.value))
                for name, g in backward(loss).items():
                    summed[name] = summed.get(name, 0.0) + g
            adam_step(params.tensors,
                      {name: g / len(batch) for name, g in summed.items()},
                      state)
        valid_r = float("nan")
        if valid_examples:
            scores = np.array([
                float(forward(ex.embedded, params, config.model).score.value)
                for ex in valid_examples])
            valid_r = pearson(scores, np.array([ex.target
                                                for ex in valid_examples]))
        curve.append((float(np.mean(sq_errors)), valid_r))
        if valid_r > best_r:
            best_r, best = valid_r, params.clone()
    return best or params, curve


@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_train_matches_tape_reference_loop(pooling):
    records = make_records(14, seed=2, with_context=True)
    table = make_table(sorted(vocab_of(records)))
    examples = examples_from_records(records, table, with_context=True)
    config = tiny_train_config(
        model_kw=dict(hidden_dim=5, dropout_rate=0.2,
                      use_attention=pooling == "attention"),
        epochs=5, batch_size=4, seed=3)
    # with validation: the curve and the best epoch's parameters
    params, curve = train(examples[:10], examples[10:], config)
    ref_params, ref_curve = _tape_train(examples[:10], examples[10:], config)
    assert curve.aborted is None
    assert len(curve.epochs) == len(ref_curve) == 5
    for stats, (mse, r) in zip(curve.epochs, ref_curve):
        assert abs(stats.train_mse - mse) <= 1e-9
        assert abs(stats.valid_r - r) <= 1e-9
    # without: the parameters after the fifth epoch
    final, _ = train(examples[:10], [], config)
    ref_final, _ = _tape_train(examples[:10], [], config)
    for got, want in ((params, ref_params), (final, ref_final)):
        for name in want.names():
            np.testing.assert_allclose(got.tensors[name], want.tensors[name],
                                       rtol=0, atol=1e-9, err_msg=name)


def test_inactive_grad_clip_changes_nothing(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:8], tiny_table)
    plain, _ = train(examples, [], tiny_train_config())
    clipped, _ = train(examples, [], tiny_train_config(grad_clip=1e9))
    for name in plain.names():
        assert plain.tensors[name].tobytes() == clipped.tensors[name].tobytes()


def test_label_shuffle_control_ranks_true_labels_first():
    # permuting targets destroys the signal a real fit picks up
    records = make_records(24, seed=7)
    table = make_table(sorted(vocab_of(records)))
    examples = examples_from_records(records, table)
    train_ex, valid_ex = examples[:16], examples[16:]
    targets = np.array([ex.target for ex in valid_ex])

    def heldout_r(train_set):
        config = TrainConfig(
            model=ModelConfig(input_dim=8, hidden_dim=8, dropout_rate=0.0,
                              seed=0),
            epochs=30, batch_size=8, lr=0.01, seed=0)
        params, _ = train(train_set, [], config)
        return pearson(evaluate(valid_ex, params, config), targets)

    perm = np.random.default_rng(0).permutation(len(train_ex))
    shuffled = [replace(ex, target=train_ex[j].target)
                for ex, j in zip(train_ex, perm)]
    true_r = heldout_r(train_ex)
    shuffled_r = heldout_r(shuffled)
    assert true_r > shuffled_r + 0.2
    assert abs(shuffled_r) < 0.45


def test_active_grad_clip_alters_updates(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:8], tiny_table)
    plain, plain_curve = train(examples, [], tiny_train_config())
    clipped, clipped_curve = train(
        examples, [], tiny_train_config(grad_clip=1e-4))
    assert clipped_curve.aborted is None
    assert any(plain.tensors[n].tobytes() != clipped.tensors[n].tobytes()
               for n in plain.names())


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def grid_fixture(seed=3, n=16, k=2):
    records = make_records(n, seed=seed)
    table = make_table(sorted(vocab_of(records)))
    folds = kfold(records, k, seed=seed)
    return records, {"glove": table}, folds


def grid_point(hidden_dim, dropout_rate, embedding="glove", **train_kw):
    """A grid point training a model on grid_fixture's 8-d vectors."""
    return GridPoint(tiny_train_config(
        model_kw=dict(hidden_dim=hidden_dim, dropout_rate=dropout_rate),
        **train_kw), embedding)


def test_tune_reports_every_grid_point():
    records, sources, folds = grid_fixture()
    grid = [grid_point(4, 0.0), grid_point(3, 0.1)]
    results = tune(records, sources, grid, folds, seed=0)
    assert len(results) == 2
    assert {(r.point.config.model.hidden_dim,
             r.point.config.model.dropout_rate) for r in results} == \
        {(4, 0.0), (3, 0.1)}
    for result in results:
        assert result.error is None
        assert len(result.fold_rs) == 2
        assert result.mean_r == pytest.approx(
            float(np.mean(result.fold_rs)))
    assert results[0].mean_r >= results[1].mean_r


def test_tune_is_deterministic():
    outcomes = []
    for _ in range(2):
        records, sources, folds = grid_fixture()
        grid = [grid_point(4, 0.2, epochs=2), grid_point(2, 0.0, epochs=2)]
        results = tune(records, sources, grid, folds, seed=9)
        outcomes.append([(r.point.config.model.hidden_dim, r.fold_rs,
                          r.mean_r) for r in results])
    assert outcomes[0] == outcomes[1]


def test_tune_captures_bad_embedding_without_stopping():
    records, sources, folds = grid_fixture()
    grid = [grid_point(9, 0.0, "missing", epochs=2),
            grid_point(3, 0.0, epochs=2)]
    results = tune(records, sources, grid, folds, seed=0)
    good = [r for r in results if r.error is None]
    bad = [r for r in results if r.error is not None]
    assert len(good) == 1 and len(bad) == 1
    assert "missing" in bad[0].error
    assert math.isnan(bad[0].mean_r)
    assert bad[0].fold_rs == []
    # failed points sink below scored ones
    assert results[-1] is bad[0]


def test_tune_tie_break_prefers_smaller_model():
    records, sources, folds = grid_fixture()
    # both fail, so both carry nan mean_r and tie; smaller hidden_dim wins
    grid = [grid_point(9, 0.0, "nope", epochs=1),
            grid_point(2, 0.0, "nope", epochs=1)]
    results = tune(records, sources, grid, folds, seed=0)
    assert [r.point.config.model.hidden_dim for r in results] == [2, 9]


def test_tune_rejects_empty_grid():
    records, sources, folds = grid_fixture()
    with pytest.raises(ContractError):
        tune(records, sources, [], folds)


def test_tune_rejects_a_nan_learning_rate():
    records, sources, folds = grid_fixture()
    # a grid point's TrainConfig refuses the rate before any fold trains
    with pytest.raises(ContractError, match="--lr must be a finite number"):
        tune(records, sources, [grid_point(2, 0.0, lr=float("nan"))], folds)


def test_tune_fold_scores_do_not_depend_on_grid_position():
    records, sources, folds = grid_fixture()
    point = grid_point(3, 0.0, epochs=2)
    alone = tune(records, sources, [point], folds, seed=4)
    paired = tune(records, sources, [grid_point(2, 0.1, epochs=2), point],
                  folds, seed=4)
    same = [r for r in paired if r.point == point]
    assert same[0].fold_rs == alone[0].fold_rs


# ---------------------------------------------------------------------------
# cross-validated prediction
# ---------------------------------------------------------------------------

def test_cv_predict_scores_every_item_once(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:12], tiny_table)
    config = tiny_train_config(model_kw=dict(hidden_dim=3), epochs=2)
    scores = cv_predict(examples, config, k=6, seed=0)
    assert sorted(scores) == sorted(ex.id for ex in examples)
    assert all(0.0 < s < 1.0 for s in scores.values())


def test_cv_predict_deterministic(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:12], tiny_table)
    config = tiny_train_config(model_kw=dict(hidden_dim=3), epochs=2)
    a = cv_predict(examples, config, k=4, seed=1)
    b = cv_predict(examples, config, k=4, seed=1)
    assert a == b


def test_cv_predict_rejects_duplicate_ids(tiny_records, tiny_table):
    examples = examples_from_records(tiny_records[:4], tiny_table)
    examples.append(examples[0])
    with pytest.raises(ContractError, match="duplicate"):
        cv_predict(examples, tiny_train_config(), k=2)


def test_cv_predict_holds_out_each_fold(tiny_records, tiny_table):
    # an item's score must come from a model that never saw the item;
    # a memorizing configuration scores training items near-perfectly,
    # so held-out scores should miss by more than train scores do
    examples = examples_from_records(tiny_records[:12], tiny_table)
    config = tiny_train_config(model_kw=dict(hidden_dim=16), epochs=150)
    heldout = cv_predict(examples, config, k=2, seed=0)
    params, _ = train(examples, [], config)
    fit = evaluate(examples, params, config)
    targets = {ex.id: ex.target for ex in examples}
    fit_mse = float(np.mean(
        [(s - ex.target) ** 2 for ex, s in zip(examples, fit)]))
    heldout_mse = float(np.mean(
        [(heldout[i] - targets[i]) ** 2 for i in heldout]))
    assert fit_mse < 1e-3
    assert heldout_mse > fit_mse * 10


def test_split_then_tune_sees_no_test_ids(tiny_records, tiny_table):
    result = split(tiny_records, 0.5, seed=0)
    by_id = {r.id: r for r in tiny_records}
    folds = kfold([by_id[i] for i in result.train_ids], 2, seed=0)
    test_ids = set(result.test_ids)
    for train_ids, heldout_ids in folds:
        assert not (set(train_ids) | set(heldout_ids)) & test_ids


def test_fold_config_seeds_each_fold_by_its_index():
    # the documented derivation: sha256("<seed>:fold:<fold>"), first 8
    # bytes little-endian, seeds both the model and the training stream
    config = tiny_train_config(seed=3, model_kw={"seed": 5})
    seeds = []
    for fold in range(3):
        digest = hashlib.sha256(f"11:fold:{fold}".encode("utf-8")).digest()
        expected = int.from_bytes(digest[:8], "little")
        got = fold_config(config, 11, fold)
        assert (got.seed, got.model.seed) == (expected, expected)
        assert got.model == replace(config.model, seed=expected)
        seeds.append(expected)
    assert len(set(seeds)) == 3

