"""Encoder model: init, fused LSTM cell, forward pass, pooling, batched
kernel, checkpoints."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import make_records, vocab_of, write_glove

from sil.autodiff import backward, constant, finite_diff_check, parameter
from sil.cli import main
from sil.corpus import write_corpus
from sil.errors import ContractError, IntegrityError, NumericError
from sil.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, PREDICT_CHUNK,
                       ModelConfig, ModelParams, forward, init_params,
                       load_checkpoint, lstm_cell, param_shapes,
                       predict_batch, run_batch, save_checkpoint, sigmoid)


def small_config(**kw):
    base = dict(input_dim=3, hidden_dim=4, num_layers=2, dropout_rate=0.0,
                use_attention=True, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_shapes():
    config = ModelConfig(input_dim=100, hidden_dim=100)
    params = init_params(config)
    for direction in ("fw", "bw"):
        assert params.tensors[f"lstm.0.{direction}.W"].shape == (400, 100)
        assert params.tensors[f"lstm.0.{direction}.U"].shape == (400, 100)
        assert params.tensors[f"lstm.0.{direction}.b"].shape == (400,)
        # layer 1 consumes the concatenated directions
        assert params.tensors[f"lstm.1.{direction}.W"].shape == (400, 200)
    assert params.tensors["attn.W"].shape == (200, 100)
    assert params.tensors["attn.v"].shape == (100,)
    assert params.tensors["head.w"].shape == (200,)
    assert params.tensors["head.b"].shape == ()


def test_init_biases_zero_except_forget_gate():
    config = small_config()
    params = init_params(config)
    H = config.hidden_dim
    b = params.tensors["lstm.0.fw.b"]
    assert np.all(b[H:2 * H] == 1.0)
    assert np.all(b[:H] == 0.0)
    assert np.all(b[2 * H:] == 0.0)
    assert float(params.tensors["head.b"]) == 0.0


def test_init_deterministic_per_seed():
    a = init_params(small_config(seed=7))
    b = init_params(small_config(seed=7))
    c = init_params(small_config(seed=8))
    for name in a.names():
        assert a.tensors[name].tobytes() == b.tensors[name].tobytes()
    assert any(a.tensors[n].tobytes() != c.tensors[n].tobytes()
               for n in a.names())


def test_init_weights_within_xavier_bound():
    config = ModelConfig(input_dim=10, hidden_dim=6)
    params = init_params(config)
    W = params.tensors["lstm.0.fw.W"]
    limit = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
    assert np.all(np.abs(W) <= limit)
    assert W.std() > 0


def test_no_attention_params_when_pooling_disabled():
    params = init_params(small_config(use_attention=False))
    assert "attn.W" not in params.tensors
    assert "attn.v" not in params.tensors


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(input_dim=0, hidden_dim=4)
    with pytest.raises(ContractError):
        ModelConfig(input_dim=3, hidden_dim=4, dropout_rate=1.0)
    with pytest.raises(ContractError):
        ModelConfig(input_dim=3, hidden_dim=4, num_layers=0)


def test_config_dict_round_trip():
    config = small_config(hidden_dim=9, dropout_rate=0.3, seed=5)
    assert ModelConfig.from_dict(config.to_dict()) == config


def _select_sigmoid(x):
    """The earlier two-branch formula, kept as the reference."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def test_sigmoid_bytes_match_the_select_formula():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      1e-320, -1e-320, 36.8, -36.8, 710.0, -710.0,
                      745.0, -745.0])
    spread = np.random.default_rng(4).standard_normal(5_000_000) * 20.0
    for x in (edges, spread, spread.reshape(1000, 5000), np.array(-3.5),
              np.array(2.0)):
        with np.errstate(over="ignore"):
            got, ref = sigmoid(x), _select_sigmoid(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# fused LSTM cell
# ---------------------------------------------------------------------------

def _composed_cell(x, h_prev, c_prev, W, U, b, H):
    """The same step built from primitive graph ops."""
    z = W @ x + U @ h_prev + b
    i = z.slice(0, H).sigmoid()
    f = z.slice(H, 2 * H).sigmoid()
    g = z.slice(2 * H, 3 * H).tanh()
    o = z.slice(3 * H, 4 * H).sigmoid()
    c = f * c_prev + i * g
    h = o * c.tanh()
    return h, c


def _random_cell_inputs(rng, H, D):
    return {
        "x": rng.standard_normal(D),
        "h": rng.standard_normal(H),
        "c": rng.standard_normal(H),
        "W": rng.standard_normal((4 * H, D)),
        "U": rng.standard_normal((4 * H, H)),
        "b": rng.standard_normal(4 * H),
    }


def test_fused_cell_matches_composed_ops():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        H, D = 5, 3
        vals = _random_cell_inputs(rng, H, D)

        fused_leaves = {k: parameter(v.copy(), k) for k, v in vals.items()}
        hc = lstm_cell(fused_leaves["x"], fused_leaves["h"],
                       fused_leaves["c"], fused_leaves["W"],
                       fused_leaves["U"], fused_leaves["b"])
        ref_leaves = {k: parameter(v.copy(), k) for k, v in vals.items()}
        h_ref, c_ref = _composed_cell(ref_leaves["x"], ref_leaves["h"],
                                      ref_leaves["c"], ref_leaves["W"],
                                      ref_leaves["U"], ref_leaves["b"], H)

        np.testing.assert_allclose(hc.value[:H], h_ref.value,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(hc.value[H:], c_ref.value,
                                   rtol=0, atol=1e-14)

        weights = rng.standard_normal(2 * H)
        grads_fused = backward((hc * constant(weights)).sum())
        ref_cat = (h_ref * constant(weights[:H])).sum() \
            + (c_ref * constant(weights[H:])).sum()
        grads_ref = backward(ref_cat)
        for name in vals:
            np.testing.assert_allclose(
                grads_fused[name], grads_ref[name], rtol=1e-12, atol=1e-12,
                err_msg=f"trial {trial}, leaf {name}")


def test_fused_cell_finite_differences():
    rng = np.random.default_rng(99)
    H, D = 4, 3
    vals = _random_cell_inputs(rng, H, D)
    mix = rng.standard_normal(2 * H)

    def builder(overrides):
        use = overrides or vals
        leaves = {k: parameter(use[k], k) for k in vals}
        hc = lstm_cell(leaves["x"], leaves["h"], leaves["c"],
                       leaves["W"], leaves["U"], leaves["b"])
        return (hc * constant(mix)).sum().tanh(), leaves

    assert finite_diff_check(builder) < 1e-5


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_score_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    config = small_config()
    params = init_params(config)
    for _ in range(10):
        T = int(rng.integers(1, 7))
        fp = forward(rng.standard_normal((T, 3)) * 5, params, config)
        assert 0.0 < float(fp.score.value) < 1.0


def test_single_token_attention_is_one():
    config = small_config()
    params = init_params(config)
    fp = forward(np.random.default_rng(0).standard_normal((1, 3)),
                 params, config)
    np.testing.assert_allclose(fp.attention, [1.0], rtol=0, atol=1e-15)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(2)
    config = small_config()
    params = init_params(config)
    for _ in range(20):
        T = int(rng.integers(1, 12))
        fp = forward(rng.standard_normal((T, 3)), params, config)
        assert abs(fp.attention.sum() - 1.0) <= 1e-9
        assert np.all(fp.attention >= 0)


def test_all_zero_parameters_give_half():
    config = small_config()
    params = init_params(config)
    for name in params.tensors:
        params.tensors[name] = np.zeros_like(params.tensors[name])
    fp = forward(np.zeros((4, 3)), params, config)
    assert float(fp.score.value) == 0.5


def test_empty_input_rejected():
    config = small_config()
    params = init_params(config)
    with pytest.raises(ContractError):
        forward(np.zeros((0, 3)), params, config)
    with pytest.raises(ContractError):
        forward(np.zeros(3), params, config)


def test_width_mismatch_rejected():
    config = small_config()
    params = init_params(config)
    with pytest.raises(ContractError, match="input_dim"):
        forward(np.zeros((2, 5)), params, config)


def test_eval_mode_is_deterministic():
    rng = np.random.default_rng(3)
    config = small_config(dropout_rate=0.4)
    params = init_params(config)
    x = rng.standard_normal((5, 3))
    a = forward(x, params, config, train=False)
    b = forward(x, params, config, train=False)
    assert float(a.score.value) == float(b.score.value)
    assert a.attention.tobytes() == b.attention.tobytes()


def test_train_mode_needs_rng_and_varies():
    config = small_config(dropout_rate=0.5)
    params = init_params(config)
    x = np.random.default_rng(4).standard_normal((6, 3))
    with pytest.raises(ContractError, match="rng"):
        forward(x, params, config, train=True)
    rng = np.random.default_rng(0)
    scores = {float(forward(x, params, config, train=True,
                            rng=rng).score.value) for _ in range(8)}
    assert len(scores) > 1
    # identical dropout stream reproduces the stochastic score
    s1 = forward(x, params, config, train=True,
                 rng=np.random.default_rng(42)).score.value
    s2 = forward(x, params, config, train=True,
                 rng=np.random.default_rng(42)).score.value
    assert float(s1) == float(s2)


def test_zero_dropout_train_equals_eval():
    config = small_config(dropout_rate=0.0)
    params = init_params(config)
    x = np.random.default_rng(5).standard_normal((4, 3))
    tr = forward(x, params, config, train=True,
                 rng=np.random.default_rng(1))
    ev = forward(x, params, config, train=False)
    assert float(tr.score.value) == float(ev.score.value)


def test_hidden_states_shape():
    config = small_config(hidden_dim=6)
    params = init_params(config)
    fp = forward(np.zeros((7, 3)), params, config)
    assert fp.hidden.shape == (7, 12)


def test_final_state_pooling_uses_edge_states():
    config = small_config(use_attention=False)
    params = init_params(config)
    x = np.random.default_rng(6).standard_normal((5, 3))
    fp = forward(x, params, config)
    assert fp.attention is None
    # the forward direction's last state and the backward direction's first
    H = config.hidden_dim
    pooled = np.concatenate([fp.hidden[-1, :H], fp.hidden[0, H:]])
    w = params.tensors["head.w"]
    b = float(params.tensors["head.b"])
    expected = 1.0 / (1.0 + np.exp(-(w @ pooled + b)))
    assert float(fp.score.value) == pytest.approx(expected, abs=1e-12)


def test_final_state_sensitive_to_token_order():
    # the recurrence makes edge states order-dependent for nonzero
    # weights; with all-zero weights permutation cannot matter
    config = small_config(use_attention=False)
    params = init_params(config)
    x = np.random.default_rng(13).standard_normal((5, 3))
    swapped = x.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    original = forward(x, params, config)
    permuted = forward(swapped, params, config)
    assert float(original.score.value) != float(permuted.score.value)

    for name in params.tensors:
        params.tensors[name] = np.zeros_like(params.tensors[name])
    a = forward(x, params, config)
    b = forward(swapped, params, config)
    assert float(a.score.value) == float(b.score.value)


def test_head_bias_raises_score_monotonically():
    config = small_config()
    params = init_params(config)
    x = np.random.default_rng(8).standard_normal((4, 3))
    scores = []
    for bias in (-2.0, 0.0, 2.0):
        params.tensors["head.b"] = np.array(bias)
        scores.append(float(forward(x, params, config).score.value))
    assert scores[0] < scores[1] < scores[2]


def test_full_model_gradients_both_poolings():
    # central differences against the tape, a few coordinates per tensor
    for trial, pooling in enumerate(["attention", "final_state"] * 2):
        rng = np.random.default_rng(trial)
        config = small_config(hidden_dim=3,
                              use_attention=pooling == "attention",
                              seed=trial)
        base = init_params(config)
        x = rng.standard_normal((3, 3))

        def loss_value():
            score = forward(x, base, config).score.value
            return (float(score) - 0.25) ** 2

        fp = forward(x, base, config)
        diff = fp.score - constant(np.array(0.25))
        grads = backward(diff * diff)
        eps = 1e-6
        for name, arr in base.tensors.items():
            flat = arr.reshape(-1)
            g = grads[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(3, flat.size),
                               replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_value()
                flat[idx] = orig - eps
                dn = loss_value()
                flat[idx] = orig
                numeric = (up - dn) / (2 * eps)
                err = abs(numeric - float(g[idx]))
                assert err / max(abs(numeric), 1e-8) < 1e-4, \
                    f"{pooling} {name}[{idx}]"


def test_predict_report_shapes():
    config = small_config()
    params = init_params(config)
    x = np.random.default_rng(11).standard_normal((4, 3))
    scores, attention = predict_batch([len(x)], [x].__getitem__, params,
                                      config)
    assert scores.shape == (1,)
    assert 0.0 < scores[0] < 1.0
    assert len(attention[0]) == 4


# ---------------------------------------------------------------------------
# batched kernel against the per-item tape
# ---------------------------------------------------------------------------

RAGGED_LENGTHS = (1, 2, 7, 30)


def _ragged_batch(seed, dim=3, lengths=RAGGED_LENGTHS):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((T, dim)) for T in lengths]
    return inputs, rng.uniform(0.1, 0.9, size=len(lengths))


def _tape_batch(inputs, targets, params, config, rng):
    """Per-item tape forwards and backwards, gradients summed in order."""
    scores, attention, summed = [], [], {}
    for x, target in zip(inputs, targets):
        fp = forward(x, params, config, train=True, rng=rng)
        err = fp.score - float(target)
        scores.append(float(fp.score.value))
        attention.append(fp.attention)
        for name, g in backward(err * err).items():
            summed[name] = summed.get(name, 0.0) + g
    return np.array(scores), attention, summed


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_kernel_matches_tape_on_ragged_batch(pooling, dropout):
    config = small_config(hidden_dim=5, dropout_rate=dropout,
                          use_attention=pooling == "attention", seed=2)
    params = init_params(config)
    inputs, targets = _ragged_batch(0)
    # equal seeds give equal masks: the kernel draws in the tape's order
    ref_scores, ref_attn, ref_grads = _tape_batch(
        inputs, targets, params, config, np.random.default_rng(5))
    res = run_batch(inputs, params, config, targets=targets,
                    rng=np.random.default_rng(5))

    np.testing.assert_allclose(res.scores, ref_scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.losses, (ref_scores - targets) ** 2,
                               rtol=0, atol=1e-12)
    if pooling == "attention":
        for got, want in zip(res.attention, ref_attn):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert res.attention is None
    assert sorted(res.grads) == sorted(ref_grads)
    for name, g in ref_grads.items():
        assert res.grads[name].shape == params.tensors[name].shape
        np.testing.assert_allclose(res.grads[name], g, rtol=0, atol=1e-10,
                                   err_msg=name)


@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_kernel_eval_is_the_tape_forward(pooling):
    config = small_config(hidden_dim=5, dropout_rate=0.3,
                          use_attention=pooling == "attention", seed=3)
    params = init_params(config)
    inputs, _ = _ragged_batch(1)
    scores, attention = predict_batch([len(x) for x in inputs],
                                      inputs.__getitem__, params, config)
    for i, x in enumerate(inputs):
        fp = forward(x, params, config)
        assert abs(scores[i] - float(fp.score.value)) <= 1e-12
        if pooling == "attention":
            np.testing.assert_allclose(attention[i], fp.attention, rtol=0,
                                       atol=1e-12)
    assert (attention is None) == (pooling == "final_state")


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_kernel_gradients_match_finite_differences(pooling, dropout):
    config = small_config(hidden_dim=3, dropout_rate=dropout,
                          use_attention=pooling == "attention", seed=4)
    params = init_params(config)
    inputs, targets = _ragged_batch(2, lengths=(1, 2, 5))

    def run():
        return run_batch(inputs, params, config, targets=targets,
                         rng=np.random.default_rng(9))

    grads = run().grads
    rng = np.random.default_rng(0)
    eps = 1e-5
    worst = 0.0
    for name, arr in params.tensors.items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = run().losses.sum()
            flat[idx] = orig - eps
            dn = run().losses.sum()
            flat[idx] = orig
            numeric = (up - dn) / (2 * eps)
            analytic = float(grads[name].reshape(-1)[idx])
            worst = max(worst, abs(numeric - analytic)
                        / max(abs(numeric), abs(analytic), 1e-6))
    assert worst <= 1e-5


@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_kernel_train_and_eval_share_arithmetic(pooling):
    config = small_config(hidden_dim=5, dropout_rate=0.0,
                          use_attention=pooling == "attention", seed=6)
    params = init_params(config)
    inputs, targets = _ragged_batch(3)
    trained = run_batch(inputs, params, config, targets=targets)
    scored = run_batch(inputs, params, config)
    assert trained.scores.tobytes() == scored.scores.tobytes()
    if pooling == "attention":
        for got, want in zip(trained.attention, scored.attention):
            assert got.tobytes() == want.tobytes()


def test_kernel_eval_is_batch_invariant():
    config = small_config(hidden_dim=6)
    params = init_params(config)
    rng = np.random.default_rng(7)
    # more items than one chunk, so some share a chunk and some do not
    lengths = rng.integers(1, 25, size=PREDICT_CHUNK + 9)
    inputs = [rng.standard_normal((int(T), 3)) for T in lengths]
    scores, attention = predict_batch([len(x) for x in inputs],
                                      inputs.__getitem__, params, config)
    for i in (0, 5, len(inputs) - 1):
        alone = run_batch([inputs[i]], params, config)
        pair = run_batch([inputs[i - 1], inputs[i]], params, config)
        for score, weights in ((pair.scores[1], pair.attention[1]),
                               (scores[i], attention[i])):
            assert abs(score - alone.scores[0]) <= 1e-12
            np.testing.assert_allclose(weights, alone.attention[0], rtol=0,
                                       atol=1e-12)
    reordered, _ = predict_batch([len(x) for x in inputs[::-1]],
                                 inputs[::-1].__getitem__, params, config)
    np.testing.assert_allclose(reordered[::-1], scores, rtol=0, atol=1e-12)


@pytest.mark.parametrize("pooling", ["attention", "final_state"])
def test_predict_batch_is_run_batch_over_sorted_chunks(pooling):
    config = small_config(hidden_dim=5, use_attention=pooling == "attention",
                          seed=8)
    params = init_params(config)
    rng = np.random.default_rng(13)
    # ragged, with ties, and not a whole number of chunks
    lengths = rng.integers(1, 40, size=2 * PREDICT_CHUNK + 11)
    inputs = [rng.standard_normal((int(T), 3)) for T in lengths]
    built = []

    def build(i):
        built.append(i)
        return inputs[i]

    scores, attention = predict_batch(lengths, build, params, config)
    # the chunks by hand: a stable sort by decreasing length, cut every 32
    order = sorted(range(len(inputs)), key=lambda i: -len(inputs[i]))
    assert built == order  # each input built once, in the chunks' order
    for start in range(0, len(order), PREDICT_CHUNK):
        idx = order[start:start + PREDICT_CHUNK]
        res = run_batch([inputs[i] for i in idx], params, config)
        assert scores[idx].tobytes() == res.scores.tobytes()
        if pooling == "attention":
            for i, w in zip(idx, res.attention):
                assert attention[i].tobytes() == w.tobytes()
    assert (attention is None) == (pooling == "final_state")


def test_predict_batch_holds_one_chunk_of_inputs():
    config = small_config(input_dim=100, hidden_dim=4, seed=2)
    params = init_params(config)
    T = 10

    def peak_of(n):
        def build(i):
            return np.full((T, 100), i / n)

        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            predict_batch([T] * n, build, params, config)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    extra = (640 - 64) * T * 100 * 8  # the extra inputs, all embedded
    assert peak_of(640) - peak_of(64) < 0.1 * extra


def test_predict_batch_rejects_a_wrong_row_count():
    config = small_config()
    params = init_params(config)
    inputs = [np.zeros((3, 3)), np.zeros((2, 3))]
    with pytest.raises(ContractError,
                       match="input 1 has 2 rows, but 4 were given"):
        predict_batch([3, 4], inputs.__getitem__, params, config)


def test_kernel_rejects_bad_batches():
    config = small_config(dropout_rate=0.5)
    params = init_params(config)
    x = np.zeros((2, 3))
    with pytest.raises(ContractError):
        run_batch([], params, config)
    with pytest.raises(ContractError, match="input_dim"):
        run_batch([x, np.zeros((2, 4))], params, config)
    with pytest.raises(ContractError):
        run_batch([x, np.zeros((0, 3))], params, config)
    with pytest.raises(ContractError, match="rng"):
        run_batch([x], params, config, targets=[0.5])
    with pytest.raises(ContractError, match="target"):
        run_batch([x], params, config, targets=[0.5, 0.5],
                  rng=np.random.default_rng(0))


def test_kernel_nonfinite_values_raise_numeric_error():
    config = small_config()
    params = init_params(config)
    x = np.random.default_rng(0).standard_normal((3, 3))
    with pytest.raises(NumericError, match="loss"):
        run_batch([x, np.full((2, 3), np.nan)], params, config,
                  targets=[0.5, 0.5])
    # a saturated head keeps the loss finite while 0 * inf poisons the
    # gradients below it
    params.tensors["head.w"][0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="non-finite gradient for parameter 'attn"):
        run_batch([x], params, config, targets=[0.5])


@pytest.mark.parametrize("use_attention", [True, False])
def test_streamed_gradients_equal_the_collected_ones(use_attention):
    config = small_config(dropout_rate=0.3, use_attention=use_attention)
    params = init_params(config)
    rng = np.random.default_rng(2)
    inputs = [rng.standard_normal((T, 3)) for T in (4, 1, 6)]
    targets = rng.random(3)
    collected = run_batch(inputs, params, config, targets=targets,
                          rng=np.random.default_rng(3))
    streamed = []
    res = run_batch(inputs, params, config, targets=targets,
                    rng=np.random.default_rng(3),
                    on_grad=lambda name, g: streamed.append((name, g)))
    assert res.grads is None
    assert res.losses.tobytes() == collected.losses.tobytes()
    # head, attention, then each layer from the top, fw before bw
    order = ["head.w", "head.b"] + (["attn.v", "attn.W"] if use_attention
                                    else [])
    order += [f"lstm.{layer}.{d}.{t}" for layer in (1, 0)
              for d in ("fw", "bw") for t in "WUb"]
    assert [name for name, _ in streamed] == list(collected.grads) == order
    for name, g in streamed:
        assert g.tobytes() == collected.grads[name].tobytes(), name


def test_train_mode_run_batch_peak_memory():
    """numpy's traced peak of one train-mode call at a fixed shape.

    The backward writes its factors and gate gradients over the gates and
    frees each layer's saved state once that layer's backward ends, for a
    peak of about 5.8 MB. The bound sits below the 8.3 MB taken when every
    layer is kept to the end and each direction allocates two more
    (rows x 4H) arrays.
    """
    config = ModelConfig(input_dim=16, hidden_dim=32, dropout_rate=0.2,
                         seed=0)
    params = init_params(config)
    rng = np.random.default_rng(5)
    inputs = [rng.standard_normal((T, 16))
              for T in (20, 34, 48, 62, 77, 91, 105, 120)]
    targets = rng.random(len(inputs))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_batch(inputs, params, config, targets=targets,
                  rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 7.0e6


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    config = small_config(hidden_dim=5, seed=3)
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    loaded_params, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert loaded_params.names() == params.names()
    for name in params.names():
        assert loaded_params.tensors[name].tobytes() == \
            params.tensors[name].tobytes()


def test_checkpoint_bytes_are_reproducible(tmp_path):
    config = small_config(seed=4)
    params = init_params(config)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, config, p1)
    save_checkpoint(params, config, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == CHECKPOINT_MAGIC


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(IntegrityError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    config = small_config()
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(IntegrityError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    config = small_config()
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IntegrityError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("use_attention", [True, False])
def test_param_shapes_match_init(use_attention):
    config = small_config(num_layers=3, use_attention=use_attention)
    params = init_params(config)
    assert {n: a.shape for n, a in params.tensors.items()} == \
        param_shapes(config)


def drop_tensor(params, name):
    del params.tensors[name]


def widen_tensor(params, name):
    params.tensors[name] = np.zeros((8, 5))


def add_tensor(params, name):
    params.tensors[name] = np.zeros(3)


@pytest.mark.parametrize("name, edit, named", [
    ("attn.v", drop_tensor, "lacks tensors: attn.v"),
    ("attn.W", widen_tensor, "'attn.W' has shape (8, 5), but its config "
                             "needs (8, 4)"),
    ("extra.w", add_tensor, "unexpected tensor 'extra.w'"),
])
def test_checkpoint_tensors_checked_against_config(tmp_path, name, edit,
                                                   named):
    config = small_config()
    params = init_params(config)
    edit(params, name)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    with pytest.raises(IntegrityError, match="m.bin") as exc:
        load_checkpoint(path)
    assert named in str(exc.value)


def test_checkpoint_bad_params_list_rejected(tmp_path):
    config = small_config()
    path = tmp_path / "m.bin"
    save_checkpoint(init_params(config), config, path)
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + length])
    first = header["params"][0]
    header["params"].insert(0, first)
    tensors = blob[8 + length:]
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new
                     + tensors[:8 * int(np.prod(first["shape"]))] + tensors)
    with pytest.raises(IntegrityError, match="'attn.W' appears twice"):
        load_checkpoint(path)

    header["params"] = 5
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new)
    with pytest.raises(IntegrityError, match="params must be a list"):
        load_checkpoint(path)


def _read_header(path):
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + length]), blob[8 + length:]


def test_checkpoint_dead_config_keys_dropped(tmp_path):
    config = small_config(seed=7)
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    header, tensors = _read_header(path)
    assert "attention_dropout" not in header["config"]
    assert "head_dropout" not in header["config"]

    # every checkpoint written before these keys were dropped carries them
    header["config"].update(attention_dropout=True, head_dropout=False)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new
                     + tensors)
    loaded_params, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    for name in params.names():
        assert loaded_params.tensors[name].tobytes() == \
            params.tensors[name].tobytes()


def test_checkpoint_loaded_params_run(tmp_path):
    config = small_config()
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    loaded_params, loaded_config = load_checkpoint(path)
    x = np.random.default_rng(12).standard_normal((3, 3))
    original = float(forward(x, params, config).score.value)
    reloaded = float(forward(x, loaded_params, loaded_config).score.value)
    assert original == reloaded


# ---------------------------------------------------------------------------
# the one-read loader against the previous whole-blob parser
# ---------------------------------------------------------------------------

def reference_parse_checkpoint(blob: bytes) -> tuple[ModelParams, ModelConfig]:
    """The loader's parser before it read into one buffer, kept verbatim:
    it slices the file's bytes and copies each tensor out of them."""
    if blob[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError("not a model checkpoint (bad magic)")
    if len(blob) < 8:
        raise IntegrityError("checkpoint truncated in its header")
    (header_len,) = struct.unpack("<I", blob[4:8])
    try:
        header = json.loads(blob[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise IntegrityError("corrupt checkpoint header") from None
    if not isinstance(header, dict):
        raise IntegrityError("corrupt checkpoint header")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise IntegrityError(
            f"unsupported checkpoint version {header.get('format_version')}")
    missing = [k for k in ("config", "params") if k not in header]
    if missing:
        raise IntegrityError(
            f"checkpoint header has missing keys: {', '.join(missing)}")
    if not isinstance(header["params"], list):
        raise IntegrityError("checkpoint header params must be a list")
    config = ModelConfig.from_dict(header["config"])
    expected = param_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    offset = 8 + header_len
    for entry in header["params"]:
        try:
            name, shape = entry["name"], tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError):
            raise IntegrityError(
                f"bad tensor entry {entry!r} in checkpoint header") from None
        if not isinstance(name, str) or name not in expected:
            raise IntegrityError(f"unexpected tensor {name!r} for its config")
        if name in tensors:
            raise IntegrityError(f"tensor {name!r} appears twice")
        if shape != expected[name]:
            raise IntegrityError(
                f"tensor {name!r} has shape {shape}, but its config "
                f"needs {expected[name]}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise IntegrityError(f"checkpoint truncated at tensor {name!r}")
        tensors[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise IntegrityError("trailing bytes after checkpoint tensors")
    missing = [n for n in expected if n not in tensors]
    if missing:
        raise IntegrityError(f"checkpoint lacks tensors: {', '.join(missing)}")
    # the finite check, which the loader has had since
    for name, tensor in tensors.items():
        if not np.isfinite(tensor).all():
            raise IntegrityError(
                f"tensor {name!r} holds a value that is not finite")
    return ModelParams(tensors), config


def load_outcome(load, *args):
    """(config, [(name, shape, bytes)]) of a load, or its error message."""
    try:
        params, config = load(*args)
    except IntegrityError as exc:
        return str(exc)
    return config, [(n, a.shape, a.tobytes())
                    for n, a in params.tensors.items()]


def assert_loads_as_reference(path):
    """load_checkpoint(path) gives the reference parser's tensors, or an
    IntegrityError naming the file with the reference's message."""
    ours = load_outcome(load_checkpoint, path)
    ref = load_outcome(reference_parse_checkpoint, path.read_bytes())
    if isinstance(ref, str):
        assert ours == f"{path}: {ref}"
    else:
        assert ours == ref


@pytest.mark.parametrize("kw", [dict(), dict(use_attention=False),
                                dict(num_layers=3, hidden_dim=5)])
def test_checkpoint_load_matches_reference_parser(tmp_path, kw):
    config = small_config(seed=9, **kw)
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    assert_loads_as_reference(path)
    loaded, _ = load_checkpoint(path)
    assert loaded.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    buffer = loaded.tensors["head.b"].base
    assert buffer.size == sum(p.size for p in params.tensors.values())
    for name, tensor in loaded.tensors.items():
        assert tensor.base is buffer
        assert tensor.dtype == np.float64
        assert tensor.flags.c_contiguous and tensor.flags.aligned
        assert tensor.flags.writeable
    # the tensors share one buffer but no bytes: writing one moves no other
    for name, tensor in loaded.tensors.items():
        tensor[...] = -1.0
        for other, value in loaded.tensors.items():
            if other != name:
                assert value.tobytes() == params.tensors[other].tobytes()
        tensor[...] = params.tensors[name]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["lstm.0.fw.W", "attn.v", "head.b"])
def test_checkpoint_non_finite_tensor_names_file_and_tensor(tmp_path, name,
                                                            bad):
    config = small_config()
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", blob[4:8])
    offset = 8 + header_len
    for n in params.names():
        if n == name:
            break
        offset += params.tensors[n].nbytes
    last = offset + params.tensors[name].nbytes - 8  # the tensor's last value
    blob[last:last + 8] = struct.pack("<d", bad)
    path.write_bytes(blob)
    with pytest.raises(IntegrityError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == \
        f"{path}: tensor {name!r} holds a value that is not finite"
    assert_loads_as_reference(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_non_finite_tensor_is_not_written(tmp_path, bad):
    config = small_config()
    params = init_params(config)
    params.tensors["head.b"][...] = bad
    path = tmp_path / "m.bin"
    with pytest.raises(NumericError, match="tensor 'head.b' holds a value "
                                           "that is not finite"):
        save_checkpoint(params, config, path)
    assert not path.exists()


def test_checkpoint_infinite_shape_is_a_bad_entry(tmp_path):
    config = small_config()
    path = tmp_path / "m.bin"
    save_checkpoint(init_params(config), config, path)
    header, tensors = _read_header(path)
    header["params"][0]["shape"] = [float("inf"), 3]  # JSON Infinity
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new
                     + tensors)
    with pytest.raises(IntegrityError, match="m.bin: bad tensor entry"):
        load_checkpoint(path)


def test_checkpoint_truncated_inside_each_tensor_names_it(tmp_path):
    config = small_config()
    params = init_params(config)
    path = tmp_path / "m.bin"
    save_checkpoint(params, config, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    start = 8 + header_len
    for name in params.names():
        nbytes = params.tensors[name].nbytes
        for cut in (start, start + nbytes // 2, start + nbytes - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(IntegrityError) as exc:
                load_checkpoint(path)
            assert str(exc.value) == \
                f"{path}: checkpoint truncated at tensor {name!r}"
        start += nbytes
    assert start == len(blob)


def test_damaged_checkpoint_property(tmp_path, capsys):
    """A checkpoint cut at any byte or with any one bit flipped loads as the
    reference parser decodes it or fails with an IntegrityError naming the
    file, and `sil eval` on it exits 0 or 1 without a traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    records = make_records(6, seed=2)
    corpus, glove = tmp_path / "corpus.tsv", tmp_path / "vectors.txt"
    write_corpus(records, corpus)
    write_glove(glove, vocab_of(records), dim=8)
    config = small_config(input_dim=8, hidden_dim=2)
    good = tmp_path / "good.bin"
    save_checkpoint(init_params(config), config, good)
    blob = good.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    path = tmp_path / "m.bin"
    # half the draws land in the prefix and header, where the checks are
    bits = st.one_of(st.integers(0, 8 * len(blob) - 1),
                     st.integers(0, 8 * (8 + header_len) - 1))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(cut=st.booleans(), bit=bits)
    def check(cut, bit):
        data = bytearray(blob)
        if cut:
            del data[bit // 8:]
        else:
            data[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(data)
        assert_loads_as_reference(path)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            rc = main(["eval", "--model", str(path), "--corpus", str(corpus),
                       "--glove", str(glove),
                       "--out", str(tmp_path / "e.csv")])
        err = capsys.readouterr().err
        assert rc in (0, 1), err
        assert "Traceback" not in err
        if rc == 1 and isinstance(load_outcome(load_checkpoint, path), str):
            assert str(path) in err

    check()
