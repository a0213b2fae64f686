"""Sentence-encoder regressor.

Embedded tokens feed a 2-layer bidirectional LSTM; the top layer's states
are pooled either by single-head additive self-attention (a weighted
average with weights softmax(v . tanh(W h_t))) or by concatenating the
two directions' final states; an affine head with a logistic sigmoid maps
the pooled vector to a score in (0, 1). `ModelConfig.use_attention`
alone decides the pooling, so a loaded model pools as it was trained.

`run_batch` is the production path. Its inputs are arrays of row ids
into one vector matrix (`embeddings.embed_utterance` makes them), and
one call gathers a batch's rows straight into a packed layout of ragged
sequences, then runs forward and, in train mode, hand-written backward
code over whole sequences, with the same products in both modes.
`forward` builds the same model per item on the autodiff tape from a
T x input_dim matrix, and is kept as the reference that tests compare
the kernel against (to 1e-12: a product over a batch rounds differently
from one over a single item).
The tape is imported only inside `forward` and `lstm_cell`, so no
command that scores or trains loads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ContractError, IntegrityError, NumericError
from .seeding import rng_for

CHECKPOINT_MAGIC = b"SIL1"
CHECKPOINT_VERSION = 1


def softmax(x, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax along `axis`; rows sum to 1 without overflow."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[axis] == 0:
        raise ContractError("softmax over an empty axis")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, exp(min(x, 0)) / (1 + exp(-|x|)).

    Neither exp overflows. Below 0 the numerator is exp(x) = exp(-|x|),
    and at or above 0 it is exp(0) = 1, so this is bit for bit the
    select of 1 / d and exp(-|x|) / d, with one divide and no mask.
    `fmin` maps NaN to 0 in the numerator, so a NaN comes out of the
    denominator alone, with the select's sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.asarray(np.exp(np.fmin(x, 0.0)) / (1.0 + np.exp(-np.abs(x))))


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int
    num_layers: int = 2
    dropout_rate: float = 0.2
    use_attention: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1 or self.num_layers < 1:
            raise ContractError("model dimensions must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim, "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers, "dropout_rate": self.dropout_rate,
            "use_attention": self.use_attention, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        """Config from a checkpoint header; keys absent there take defaults.

        Unknown keys, missing keys without a default, values of the wrong
        type and values the config rejects raise IntegrityError. The legacy
        keys `attention_dropout` and `head_dropout`, which nothing ever
        read, are accepted and dropped.
        """
        if not isinstance(obj, dict):
            raise IntegrityError("config must be a JSON object")
        obj = {k: v for k, v in obj.items() if k not in _LEGACY_CONFIG_KEYS}
        spec = {f.name: f for f in fields(cls)}
        unknown = sorted(set(obj) - set(spec))
        missing = [n for n, f in spec.items()
                   if f.default is MISSING and n not in obj]
        if unknown or missing:
            raise IntegrityError("config has " + "; ".join(
                f"{what} keys: {', '.join(keys)}" for what, keys in
                (("unknown", unknown), ("missing", missing)) if keys))
        for name, value in obj.items():
            if not _CONFIG_TYPES[spec[name].type](value):
                raise IntegrityError(
                    f"config {name} must be {spec[name].type}, got {value!r}")
        try:
            return cls(**obj)
        except ContractError as exc:
            raise IntegrityError(f"invalid config: {exc}") from None


_LEGACY_CONFIG_KEYS = ("attention_dropout", "head_dropout")

_CONFIG_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
}


@dataclass
class ModelParams:
    """All trainable tensors, keyed by dotted names (e.g. "lstm.0.fw.W")."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    sha256: str | None = None  # of the checkpoint the tensors were read from

    def clone(self) -> "ModelParams":
        return ModelParams({n: a.copy() for n, a in self.tensors.items()})

    def names(self) -> list[str]:
        return sorted(self.tensors)


@dataclass
class ForwardPass:
    """One forward evaluation; `score` is a live graph node for training."""

    score: Node
    attention: np.ndarray | None
    hidden: np.ndarray  # top-layer states, (T, 2*hidden_dim)


def _xavier(rng, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's name and shape, in initialisation order.

    `init_params` builds from this table and `load_checkpoint` checks a
    file's tensors against it, so the two cannot drift apart.
    """
    H = config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(config.num_layers):
        in_dim = config.input_dim if layer == 0 else 2 * H
        for direction in ("fw", "bw"):
            prefix = f"lstm.{layer}.{direction}"
            shapes[f"{prefix}.W"] = (4 * H, in_dim)
            shapes[f"{prefix}.U"] = (4 * H, H)
            shapes[f"{prefix}.b"] = (4 * H,)
    if config.use_attention:
        # stored as (2H x A) so scoring is a single matrix product
        shapes["attn.W"] = (2 * H, H)
        shapes["attn.v"] = (H,)
    shapes["head.w"] = (2 * H,)
    shapes["head.b"] = ()
    return shapes


def init_params(config: ModelConfig) -> ModelParams:
    """Deterministic init: Xavier-uniform weights, zero biases, forget bias 1.

    Each tensor draws from its own name-derived stream, so the layout of
    one tensor never perturbs another.
    """
    H = config.hidden_dim
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            tensor = np.zeros(shape)
            if name.startswith("lstm."):
                tensor[H:2 * H] = 1.0  # forget gate opens at init
        elif len(shape) == 2:
            tensor = _xavier(rng_for(config.seed, f"init:{name}"), *shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + 1))
            tensor = rng_for(config.seed, f"init:{name}").uniform(
                -limit, limit, size=shape[0])
        tensors[name] = tensor
    return ModelParams(tensors)


def lstm_cell(x: Node, h_prev: Node, c_prev: Node,
              W: Node, U: Node, b: Node) -> Node:
    """One LSTM step as a single fused graph node returning [h; c].

    Gate order (i, f, g, o); c = f*c_prev + i*g; h = o*tanh(c). Fusing the
    step keeps the tape short: the hand-written backward below is checked
    against finite differences and against a composed-ops reference.
    """
    from .autodiff import Node, _accum

    H = h_prev.value.shape[0]
    z = W.value @ x.value + U.value @ h_prev.value + b.value
    i = sigmoid(z[:H])
    f = sigmoid(z[H:2 * H])
    g = np.tanh(z[2 * H:3 * H])
    o = sigmoid(z[3 * H:])
    c = f * c_prev.value + i * g
    tc = np.tanh(c)
    out = Node(np.concatenate([o * tc, c]), (x, h_prev, c_prev, W, U, b),
               "lstm_cell")

    def bw():
        grad = out.grad
        gh = grad[:H]
        gc = grad[H:] + gh * o * (1.0 - tc * tc)
        dz = np.concatenate([
            (gc * g) * i * (1.0 - i),
            (gc * c_prev.value) * f * (1.0 - f),
            (gc * i) * (1.0 - g * g),
            (gh * tc) * o * (1.0 - o),
        ])
        _accum(W, np.outer(dz, x.value))
        _accum(U, np.outer(dz, h_prev.value))
        _accum(b, dz)
        _accum(x, W.value.T @ dz)
        _accum(h_prev, U.value.T @ dz)
        _accum(c_prev, gc * f)

    out._backward = bw
    return out


def _attention_nodes(h_mat: Node, attn_w: Node, attn_v: Node):
    scores = (h_mat @ attn_w).tanh() @ attn_v
    weights = scores.softmax()
    pooled = weights @ h_mat
    return weights, pooled


def forward(embedded: np.ndarray, params: ModelParams, config: ModelConfig,
            train: bool = False, rng=None) -> ForwardPass:
    """Run the encoder on one utterance's embedding matrix (T x input_dim).

    Reference implementation on the autodiff tape; `run_batch` computes
    the same model for production callers. Train mode applies inverted
    dropout to the outputs of every non-final biLSTM layer and requires an
    rng; eval mode is deterministic. The model pools by attention if
    `config.use_attention`, else by the final states.
    """
    from .autodiff import concat, constant, parameter, stack

    embedded = np.asarray(embedded, dtype=np.float64)
    if embedded.ndim != 2 or embedded.shape[0] < 1:
        raise ContractError("embedded input must be a nonempty T x D matrix")
    if embedded.shape[1] != config.input_dim:
        raise ContractError(
            f"embedding width {embedded.shape[1]} != input_dim "
            f"{config.input_dim}")
    if train and config.dropout_rate > 0.0 and rng is None:
        raise ContractError("train-mode forward needs an rng for dropout")

    H = config.hidden_dim
    T = embedded.shape[0]
    nodes = {name: parameter(arr, name) for name, arr in params.tensors.items()}

    inputs = [constant(embedded[t]) for t in range(T)]
    fw_states: list[Node] = []
    bw_states: list[Node] = []
    for layer in range(config.num_layers):
        W_f = nodes[f"lstm.{layer}.fw.W"]
        U_f = nodes[f"lstm.{layer}.fw.U"]
        b_f = nodes[f"lstm.{layer}.fw.b"]
        W_b = nodes[f"lstm.{layer}.bw.W"]
        U_b = nodes[f"lstm.{layer}.bw.U"]
        b_b = nodes[f"lstm.{layer}.bw.b"]

        h = constant(np.zeros(H))
        c = constant(np.zeros(H))
        fw_states = []
        for t in range(T):
            hc = lstm_cell(inputs[t], h, c, W_f, U_f, b_f)
            h = hc.slice(0, H)
            c = hc.slice(H, 2 * H)
            fw_states.append(h)

        h = constant(np.zeros(H))
        c = constant(np.zeros(H))
        bw_states = [None] * T
        for t in reversed(range(T)):
            hc = lstm_cell(inputs[t], h, c, W_b, U_b, b_b)
            h = hc.slice(0, H)
            c = hc.slice(H, 2 * H)
            bw_states[t] = h

        outputs = [concat([fw_states[t], bw_states[t]]) for t in range(T)]
        if layer < config.num_layers - 1 and train and config.dropout_rate > 0:
            p = config.dropout_rate
            outputs = [
                out * constant((rng.random(2 * H) >= p) / (1.0 - p))
                for out in outputs
            ]
        inputs = outputs

    h_mat = stack(inputs)
    if config.use_attention:
        weights, pooled = _attention_nodes(h_mat, nodes["attn.W"],
                                           nodes["attn.v"])
        attention = weights.value.copy()
    else:
        pooled = concat([fw_states[-1], bw_states[0]])
        attention = None

    score = (nodes["head.w"] @ pooled + nodes["head.b"]).sigmoid()
    return ForwardPass(score=score, attention=attention,
                       hidden=h_mat.value.copy())


# ---------------------------------------------------------------------------
# Batched kernel: packed whole-sequence biLSTM with hand-written BPTT
# ---------------------------------------------------------------------------

# items per `run_batch` call in `predict_batch`; bounds the packed
# activations (rows x 4H floats per layer and direction) an eval keeps
PREDICT_CHUNK = 32


@dataclass
class BatchPass:
    """One `run_batch` result; every per-item field is in input order."""

    scores: np.ndarray                  # (N,) sigmoid outputs
    attention: list[np.ndarray] | None  # (T_i,) weights; None for final_state
    losses: np.ndarray | None = None    # (N,) squared errors, train mode
    grads: dict[str, np.ndarray] | None = None  # summed over items, train mode


class _Packing:
    """Time-major packed layout of a batch sorted by decreasing length.

    Row `offsets[t] + k` holds timestep t of the k-th longest item. Items
    alive at step t are the first `active[t]` of that order, so a finished
    sequence drops off the end of every later step and no padded timestep
    is computed. Each direction's steps are (rows, predecessor rows, m):
    the first m rows continue a sequence from the predecessor step and the
    rest start from a zero state.
    """

    def __init__(self, lengths: np.ndarray):
        self.order = np.argsort(-lengths, kind="stable")
        sorted_len = lengths[self.order]
        T = int(sorted_len[0])
        active = (sorted_len[None, :] > np.arange(T)[:, None]).sum(axis=1)
        off = np.concatenate([[0], np.cumsum(active)])
        self.total = int(off[-1])
        self.item_rows = [off[:L] + k for k, L in enumerate(sorted_len)]

        def rows(t):
            return slice(int(off[t]), int(off[t] + active[t]))

        def prev(t, tp):
            if not 0 <= tp < T:
                return rows(t), None, 0
            m = int(min(active[t], active[tp]))
            return rows(t), slice(int(off[tp]), int(off[tp]) + m), m

        self.steps = {"fw": [prev(t, t - 1) for t in range(T)],
                      "bw": [prev(t, t + 1) for t in reversed(range(T))]}

    def gather(self, matrix, ids: list[np.ndarray]) -> np.ndarray:
        """The packed input: `matrix` indexed once by every input's row
        ids (`ids[i]`, in input order), each at its packed rows."""
        packed = np.empty(self.total, dtype=np.intp)
        for k, i in enumerate(self.order):
            packed[self.item_rows[k]] = ids[i]
        return np.asarray(matrix[packed], dtype=np.float64)

    def predecessor(self, direction: str, values: np.ndarray) -> np.ndarray:
        """Each row's value at its sequence's previous step, zero at the first."""
        out = np.zeros_like(values)
        for r, rp, m in self.steps[direction]:
            if m:
                out[r.start:r.start + m] = values[rp]
        return out


def _lstm_forward(X, W, U, b, steps, h_out, C, TC) -> np.ndarray:
    """Run one direction's recurrence over packed rows.

    Returns the activated gates (i, f, g, o) of every row; `h_out`, `C`
    and `TC` receive h, c and tanh(c). The arithmetic follows the tape's
    `lstm_cell`: z = (W x + U h) + b.
    """
    H = U.shape[1]
    G = X @ W.T
    for r, rp, m in steps:
        z = G[r]
        if m:
            z[:m] += h_out[rp] @ U.T
        z += b
        g = np.tanh(z[:, 2 * H:3 * H])
        z[...] = sigmoid(z)
        z[:, 2 * H:3 * H] = g
        c = C[r]
        np.multiply(z[:, :H], g, out=c)
        if m:
            c[:m] += z[:m, H:2 * H] * C[rp]
        np.tanh(c, out=TC[r])
        np.multiply(z[:, 3 * H:], TC[r], out=h_out[r])
    return G


def _lstm_backward(dH, G, C, TC, U, packing, direction) -> np.ndarray:
    """BPTT for one direction: gradient w.r.t. the gate pre-activations.

    `dH` is the loss gradient w.r.t. this direction's h outputs (packed);
    the recurrent gradients are carried row by row from step to step.
    `G` is consumed: its activated gates are overwritten by per-row
    factors `Q` and then, step by step, by the returned gradients, so the
    result is `G`'s buffer and no other (rows x 4H) array is allocated.
    """
    steps = packing.steps[direction]
    total, H = C.shape
    gates = G.reshape(total, 4, H)
    i, f, g, o = (gates[:, k] for k in range(4))
    # per-row factors of dz that do not depend on the carried gradients,
    # written over the gates they are made of. Q[:, 0] needs g and i and
    # Q[:, 2] needs i and g, so Q[:, 2] waits in a temporary; o_dtanh
    # reads o before Q[:, 3] overwrites it; the carry keeps a copy of f
    o_dtanh = o * (1.0 - TC * TC)
    f_carry = f.copy()
    q2 = i * (1.0 - g * g)
    np.multiply(g, i * (1.0 - i), out=i)
    g[...] = q2
    del q2
    c_prev = packing.predecessor(direction, C)
    np.multiply(c_prev, f * (1.0 - f), out=f)
    del c_prev
    np.multiply(TC, o * (1.0 - o), out=o)

    n_max = max(r.stop - r.start for r, _, _ in steps)
    carry_h = np.zeros((n_max, H))
    carry_c = np.zeros((n_max, H))
    for r, _, m in reversed(steps):
        n = r.stop - r.start
        dh = dH[r] + carry_h[:n]
        dc = dh * o_dtanh[r]
        dc += carry_c[:n]
        dz = gates[r]  # Q of these rows in, their dz out
        np.multiply(dc[:, None, :], dz[:, :3], out=dz[:, :3])
        np.multiply(dh, dz[:, 3], out=dz[:, 3])
        if m:
            np.dot(dz[:m].reshape(m, 4 * H), U, out=carry_h[:m])
            np.multiply(dc[:m], f_carry[r][:m], out=carry_c[:m])
    return G


def run_batch(matrix, ids, params: ModelParams, config: ModelConfig,
              targets=None, rng=None, names=None, on_grad=None) -> BatchPass:
    """Score a batch of ragged inputs in one pass.

    Input i is `matrix[ids[i]]`, the rows at its nonempty array of row ids
    of a (V x input_dim) float64 matrix, such as a vector source's
    `matrix`; one indexing gathers them straight into the packed batch.

    With `targets` the call runs in train mode: inverted dropout on every
    non-final biLSTM layer (masks drawn item by item in batch order, one
    `rng.random((T_i, 2H))` per layer, the per-item tape's stream order),
    squared-error losses, and the gradients of their sum w.r.t. every
    parameter. `config.use_attention` selects the pooling. Raises
    NumericError for a non-finite loss, naming the item, or gradient,
    naming the parameter and every item of the batch; `names` name the
    inputs there (default: their batch positions).

    Gradients go out in a fixed order: head.w and head.b, attn.v and
    attn.W, then each `lstm.{l}.{d}` W, U and b from the top layer down,
    fw before bw. Each is checked as it goes, so the parameter named is
    the first non-finite one in that order. Without `on_grad` they are
    collected in `BatchPass.grads`. With it, `on_grad(name, grad)`
    receives each as soon as the backward stops reading that parameter,
    and `grads` is None: the caller may update the parameter in place
    then, and at most one gradient tensor is alive at a time.

    Eval mode computes no gradients. Both modes run the same whole-batch
    products: with dropout off they give the same scores bit for bit,
    and a score moves with the rest of the batch only in rounding (within
    1e-12 of the per-item tape).

    Train mode keeps each layer's packed input and output and each
    direction's gates, cells and tanh(cells) until that layer's backward
    has run, then frees them; each dropout mask is written straight into
    its packed rows as it is drawn. `_lstm_backward` writes its gradients
    over the gates, so a direction's backward allocates no (rows x 4H)
    array.
    """
    ids = [np.asarray(item, dtype=np.intp) for item in ids]
    if not ids:
        raise ContractError("run_batch needs at least one input")
    if any(item.ndim != 1 or len(item) == 0 for item in ids):
        raise ContractError("each input needs a nonempty 1-D array of row ids")
    names = list(range(len(ids)) if names is None else names)
    if len(names) != len(ids):
        raise ContractError("need exactly one name per input")
    train = targets is not None
    if train:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (len(ids),):
            raise ContractError("need exactly one target per input")
    p = config.dropout_rate
    use_dropout = train and p > 0.0 and config.num_layers > 1
    if use_dropout and rng is None:
        raise ContractError("train-mode forward needs an rng for dropout")

    P = params.tensors
    H = config.hidden_dim
    L = config.num_layers
    lengths = [len(item) for item in ids]
    packing = _Packing(np.array(lengths))
    order, item_rows = packing.order, packing.item_rows
    X = packing.gather(matrix, ids)
    if X.shape[1] != config.input_dim:
        raise ContractError(
            f"embedding width {X.shape[1]} != input_dim {config.input_dim}")
    if use_dropout:
        masks = np.empty((L - 1, packing.total, 2 * H))
        rank = np.argsort(order)  # each input's place in the packing order
        for i, T in enumerate(lengths):
            for mask in masks:
                mask[item_rows[rank[i]]] = (
                    (rng.random((T, 2 * H)) >= p) / (1.0 - p))

    # train mode keeps, per layer, the input, the output and each
    # direction's (G, C, TC) until that layer's backward has run; eval
    # keeps nothing
    layers = []
    for layer in range(L):
        out = np.empty((packing.total, 2 * H))
        states = {}
        for d, cols in (("fw", slice(0, H)), ("bw", slice(H, 2 * H))):
            prefix = f"lstm.{layer}.{d}"
            C = np.empty((packing.total, H))
            TC = np.empty((packing.total, H))
            G = _lstm_forward(X, P[f"{prefix}.W"], P[f"{prefix}.U"],
                              P[f"{prefix}.b"], packing.steps[d],
                              out[:, cols], C, TC)
            if train:
                states[d] = (G, C, TC)
        if train:
            layers.append((X, out, states))
        X = out * masks[layer] if use_dropout and layer < L - 1 else out
    top = X

    N = len(ids)
    attend = config.use_attention
    if attend:
        # scores over all packed rows at once; an item's rows are strided,
        # so only its softmax and weighted sum run per item
        A = np.tanh(top @ P["attn.W"])
        e = A @ P["attn.v"]
        weights = [softmax(e[rows]) for rows in item_rows]
        pooled = np.array([w @ top[rows]
                           for w, rows in zip(weights, item_rows)])
    else:
        last = np.array([rows[-1] for rows in item_rows])
        first = np.array([rows[0] for rows in item_rows])
        pooled = np.hstack([top[last, :H], top[first, H:]])
    sorted_scores = sigmoid(pooled @ P["head.w"] + P["head.b"])

    scores = np.empty(N)
    scores[order] = sorted_scores
    attention = None
    if attend:
        attention = [None] * N
        for k, w in zip(order, weights):
            attention[k] = w
    if not train:
        return BatchPass(scores=scores, attention=attention)

    err = sorted_scores - targets[order]
    sorted_losses = err * err
    losses = np.empty(N)
    losses[order] = sorted_losses
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise NumericError(
            f"loss value is non-finite for item {names[bad[0]]!r}")

    grads: dict[str, np.ndarray] = {}

    def emit(name, grad):
        if not math.isfinite(float(np.sum(grad))):
            raise NumericError(
                f"non-finite gradient for parameter '{name}' in a batch "
                f"of items {', '.join(map(repr, names))}")
        if on_grad is None:
            grads[name] = grad
        else:
            on_grad(name, grad)

    d_logit = (err + err) * sorted_scores * (1.0 - sorted_scores)
    d_pooled = d_logit[:, None] * P["head.w"]
    emit("head.w", pooled.T @ d_logit)
    emit("head.b", np.asarray(d_logit.sum()))
    dH = np.zeros_like(top)
    if attend:
        d_e = np.empty(packing.total)
        for k, (w, rows) in enumerate(zip(weights, item_rows)):
            dw = top[rows] @ d_pooled[k]
            d_e[rows] = w * (dw - dw @ w)
            dH[rows] += np.outer(w, d_pooled[k])
        dS = np.outer(d_e, P["attn.v"])
        emit("attn.v", A.T @ d_e)
        dS *= 1.0 - A * A
        del A
        dH += dS @ P["attn.W"].T
        emit("attn.W", top.T @ dS)
        del dS
    else:
        dH[last, :H] += d_pooled[:, :H]
        dH[first, H:] += d_pooled[:, H:]

    # each layer's saved state, its predecessor states and its gate
    # gradients are freed as soon as its backward no longer reads them; a
    # direction's parameter gradients go out once its dX share has read W
    # (and `_lstm_backward` has read U)
    del top
    for layer in reversed(range(L)):
        X, out, states = layers.pop()
        for d, cols in (("fw", slice(0, H)), ("bw", slice(H, 2 * H))):
            prefix = f"lstm.{layer}.{d}"
            W, U = P[f"{prefix}.W"], P[f"{prefix}.U"]
            dZ = _lstm_backward(dH[:, cols], *states.pop(d), U, packing, d)
            if layer > 0:
                if d == "fw":
                    dX = dZ @ W
                else:
                    dX += dZ @ W
            emit(f"{prefix}.W", dZ.T @ X)
            emit(f"{prefix}.U", dZ.T @ packing.predecessor(d, out[:, cols]))
            emit(f"{prefix}.b", dZ.sum(axis=0))
            del dZ
        if layer > 0:
            if use_dropout:
                dX *= masks[layer - 1]
            dH = dX

    return BatchPass(scores=scores, attention=attention, losses=losses,
                     grads=grads if on_grad is None else None)


def predict_batch(matrix, ids, params: ModelParams, config: ModelConfig
                  ) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Eval-mode scores and attention weights for any number of inputs.

    Input i is `matrix[ids[i]]`, as in `run_batch`. The inputs are sorted
    by row count and run `PREDICT_CHUNK` at a time, so each chunk packs
    items of similar length, and only one chunk's rows are gathered at
    once. Results come back in input order. Attention is None for a model
    built without attention.
    """
    order = sorted(range(len(ids)), key=lambda i: -len(ids[i]))
    scores = np.empty(len(ids))
    attention = [None] * len(ids) if config.use_attention else None
    for start in range(0, len(order), PREDICT_CHUNK):
        idx = order[start:start + PREDICT_CHUNK]
        res = run_batch(matrix, [ids[i] for i in idx], params, config)
        scores[idx] = res.scores
        if attention is not None:
            for i, w in zip(idx, res.attention):
                attention[i] = w
    return scores, attention


# ---------------------------------------------------------------------------
# Checkpoints: magic, u32 header length, JSON header, float64 blobs
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, config: ModelConfig, path) -> None:
    """Write a versioned binary checkpoint; byte-identical for equal inputs.

    Each tensor goes to the file from its own buffer, not through a bytes
    copy. Raises NumericError, and writes nothing, if a tensor holds a
    value that is not finite.
    """
    names = params.names()
    for n in names:
        if not _all_finite(params.tensors[n]):
            raise NumericError(f"tensor {n!r} holds a value that is not "
                               "finite; the checkpoint is not written")
    header = {
        "config": config.to_dict(),
        "dtype": "<f8",
        "format_version": CHECKPOINT_VERSION,
        "params": [{"name": n, "shape": list(params.tensors[n].shape)}
                   for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for n in names:
            fh.write(memoryview(np.ascontiguousarray(
                params.tensors[n], dtype="<f8")))


def _all_finite(values: np.ndarray) -> bool:
    """True if no value is NaN or infinite. Either reaches the minimum or
    the maximum, and neither reduction makes a temporary array."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Read a checkpoint; a malformed one raises IntegrityError naming it.

    The file is read once. The prefix and the JSON header come first, and
    every tensor entry is checked against the config and the file's size
    before any tensor byte is read. The tensor bytes are then read straight
    into one aligned float64 buffer, and every tensor is a reshaped view of
    that shared buffer: C-contiguous, aligned and writable. Every byte read
    also goes to sha256, whose digest is the params' `sha256`. A tensor
    that holds a value that is not finite is an IntegrityError naming it.
    """
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except IntegrityError as exc:
            raise IntegrityError(f"{path}: {exc}") from None


def _read_checkpoint(fh) -> tuple[ModelParams, ModelConfig]:
    size = os.fstat(fh.fileno()).st_size
    digest = hashlib.sha256()
    prefix = fh.read(8)
    digest.update(prefix)
    if prefix[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError("not a model checkpoint (bad magic)")
    if len(prefix) < 8:
        raise IntegrityError("checkpoint truncated in its header")
    (header_len,) = struct.unpack("<I", prefix[4:])
    # a header length past the end of the file reads only what is there
    header_bytes = fh.read(max(0, min(header_len, size - 8)))
    digest.update(header_bytes)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
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
    layout: dict[str, slice] = {}  # each tensor's values in the buffer
    stored = size - 8 - header_len  # bytes after the header
    total = 0  # values in the tensors so far
    for entry in header["params"]:
        try:
            name, shape = entry["name"], tuple(int(d) for d in entry["shape"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise IntegrityError(
                f"bad tensor entry {entry!r} in checkpoint header") from None
        if not isinstance(name, str) or name not in expected:
            raise IntegrityError(f"unexpected tensor {name!r} for its config")
        if name in layout:
            raise IntegrityError(f"tensor {name!r} appears twice")
        if shape != expected[name]:
            raise IntegrityError(
                f"tensor {name!r} has shape {shape}, but its config "
                f"needs {expected[name]}")
        layout[name] = slice(total, total + math.prod(shape))
        total = layout[name].stop
        if 8 * total > stored:
            raise IntegrityError(f"checkpoint truncated at tensor {name!r}")
    if 8 * total != stored:
        raise IntegrityError("trailing bytes after checkpoint tensors")
    missing = [n for n in expected if n not in layout]
    if missing:
        raise IntegrityError(f"checkpoint lacks tensors: {', '.join(missing)}")
    values = np.empty(total, dtype="<f8")
    if fh.readinto(values) != values.nbytes:
        raise IntegrityError("checkpoint changed while it was read")
    digest.update(values)
    if not _all_finite(values):
        name = next(name for name, span in layout.items()
                    if not _all_finite(values[span]))
        raise IntegrityError(
            f"tensor {name!r} holds a value that is not finite")
    tensors = {name: values[span].reshape(expected[name])
               for name, span in layout.items()}
    return ModelParams(tensors, sha256=digest.hexdigest()), config
