"""Adam updates: reference trace, invariants, determinism."""

import numpy as np
import pytest

from sil.errors import ContractError
from sil.optim import ADAM_BLOCK, AdamState, adam_step

# 5 steps from 0.0 with constant gradient 1.0 at default hyperparameters,
# frozen from an independent scalar evaluation of the update equations
REFERENCE_TRACE = [
    -0.0009999999900000003,
    -0.001999999979999993,
    -0.0029999999699999932,
    -0.003999999959999988,
    -0.004999999949999986,
]


def test_first_step_magnitude_nearly_lr():
    params = {"w": np.array(0.0)}
    state = AdamState()
    adam_step(params, {"w": np.array(1.0)}, state)
    assert float(params["w"]) == pytest.approx(-0.001, rel=1e-6)
    assert state.t == 1


def test_five_step_reference_trace():
    params = {"w": np.array(0.0)}
    state = AdamState()
    trace = []
    for _ in range(5):
        adam_step(params, {"w": np.array(1.0)}, state)
        trace.append(float(params["w"]))
    np.testing.assert_allclose(trace, REFERENCE_TRACE, rtol=0, atol=1e-18)


def test_zero_gradients_leave_parameters_unchanged():
    params = {"w": np.array([1.0, -2.0]), "b": np.array(0.5)}
    state = AdamState()
    adam_step(params, {"w": np.zeros(2), "b": np.array(0.0)}, state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert float(params["b"]) == 0.5
    assert state.t == 1


def test_shape_mismatch_rejected():
    params = {"w": np.zeros(3)}
    state = AdamState()
    with pytest.raises(ContractError, match="shape"):
        adam_step(params, {"w": np.zeros(2)}, state)


def test_updates_are_in_place():
    w = np.zeros(2)
    params = {"w": w}
    adam_step(params, {"w": np.ones(2)}, AdamState())
    assert params["w"] is w
    assert np.all(w != 0.0)


def test_bit_determinism_across_runs():
    rng = np.random.default_rng(11)
    grads_seq = [{"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
                 for _ in range(10)]

    def run():
        params = {"w": np.ones((3, 2)), "b": np.zeros(2)}
        state = AdamState(lr=0.01)
        for g in grads_seq:
            adam_step(params, {k: v.copy() for k, v in g.items()}, state)
        return params

    a, b = run(), run()
    assert a["w"].tobytes() == b["w"].tobytes()
    assert a["b"].tobytes() == b["b"].tobytes()


def test_constant_gradient_steps_shrink_monotonically():
    # with a constant gradient the bias-corrected step decays toward lr
    params = {"w": np.array(0.0)}
    state = AdamState()
    prev = 0.0
    deltas = []
    for _ in range(10):
        adam_step(params, {"w": np.array(1.0)}, state)
        deltas.append(prev - float(params["w"]))
        prev = float(params["w"])
    assert all(d > 0 for d in deltas)
    assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_descends_a_quadratic():
    params = {"w": np.array(5.0)}
    state = AdamState(lr=0.05)
    for _ in range(2000):
        g = 2.0 * params["w"]  # d/dw (w^2)
        adam_step(params, {"w": np.array(g)}, state)
    assert abs(float(params["w"])) < 1e-3


def test_moment_buffers_created_per_parameter():
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    state = AdamState()
    adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, state)
    assert set(state.m) == {"a", "b"}
    assert state.m["a"].shape == (2,)
    assert state.v["b"].shape == (3,)


def _reference_adam_step(params, grads, state):
    """The original expression-per-line update, kept verbatim as oracle."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def test_in_place_update_is_bit_identical_to_reference_formula():
    rng = np.random.default_rng(5)
    shapes = {"lstm.0.fw.W": (12, 5), "attn.v": (7,), "head.b": ()}
    ours = {n: rng.standard_normal(s) for n, s in shapes.items()}
    ref = {n: p.copy() for n, p in ours.items()}
    state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
    for step in range(6):
        scale = 10.0 ** (step - 3)
        grads = {n: np.asarray(rng.standard_normal(s) * scale)
                 for n, s in shapes.items()}
        adam_step(ours, grads, state)
        _reference_adam_step(ref, grads, ref_state)
        for n in shapes:
            assert ours[n].shape == shapes[n]
            assert ours[n].tobytes() == ref[n].tobytes(), n
            assert state.m[n].tobytes() == ref_state.m[n].tobytes(), n
            assert state.v[n].tobytes() == ref_state.v[n].tobytes(), n


def test_blocked_update_is_bit_identical_at_block_boundaries():
    rng = np.random.default_rng(8)
    shapes = {"below": (ADAM_BLOCK - 1,), "one": (ADAM_BLOCK,),
              "above": (ADAM_BLOCK + 1,), "several": (7, ADAM_BLOCK // 2 + 3),
              "scalar": ()}
    ours = {n: rng.standard_normal(s) for n, s in shapes.items()}
    ours["below"][:50] = -0.0
    ref = {n: p.copy() for n, p in ours.items()}
    state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
    for step in range(6):
        grads = {n: np.asarray(rng.standard_normal(s) * 10.0 ** (step - 3))
                 for n, s in shapes.items()}
        for g in grads.values():
            g[rng.random(g.shape) < 0.1] = -0.0
        # a gradient need not be C-contiguous; only parameters are updated
        grads["several"] = np.asfortranarray(grads["several"])
        adam_step(ours, grads, state)
        _reference_adam_step(ref, grads, ref_state)
        for n in shapes:
            assert ours[n].tobytes() == ref[n].tobytes(), (step, n)
            assert state.m[n].tobytes() == ref_state.m[n].tobytes(), (step, n)
            assert state.v[n].tobytes() == ref_state.v[n].tobytes(), (step, n)
    assert all(buf.size == ADAM_BLOCK for buf in state.scratch)


@pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T])
def test_non_contiguous_parameter_rejected_not_lost(view):
    base = np.zeros((4, 6))
    p = view(base)
    with pytest.raises(ContractError, match="'w' is not C-contiguous"):
        adam_step({"w": p}, {"w": np.ones(p.shape)}, AdamState())
    assert not base.any()


def test_per_tensor_calls_match_one_call_over_all_tensors():
    # each tensor's bias correction counts its own updates, so a step taken
    # one tensor at a time, on a state made before the first step, gives
    # the bytes of one call over every tensor on a lazily built state
    rng = np.random.default_rng(12)
    shapes = {"lstm.0.fw.W": (12, 5), "several": (3, ADAM_BLOCK // 2 + 3),
              "head.b": ()}
    one = {n: rng.standard_normal(s) for n, s in shapes.items()}
    each = {n: p.copy() for n, p in one.items()}
    state = AdamState(lr=0.01)
    early = AdamState.for_params(each, lr=0.01)
    assert sorted(early.m) == sorted(early.v) == sorted(shapes)
    assert all(buf.size == ADAM_BLOCK for buf in early.scratch)
    for step in range(1, 7):
        grads = {n: np.asarray(rng.standard_normal(s) * 10.0 ** (step - 3))
                 for n, s in shapes.items()}
        adam_step(one, grads, state)
        for n in shapes:
            adam_step({n: each[n]}, {n: grads[n]}, early)
        assert state.t == early.t == step
        assert early.steps == dict.fromkeys(shapes, step)
        for n in shapes:
            assert each[n].tobytes() == one[n].tobytes(), (step, n)
            assert early.m[n].tobytes() == state.m[n].tobytes(), (step, n)
            assert early.v[n].tobytes() == state.v[n].tobytes(), (step, n)
