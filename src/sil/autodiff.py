"""Tape-based reverse-mode automatic differentiation on dense float64 arrays.

A computation builds an acyclic graph of `Node`s; `backward` walks it in
reverse topological order and accumulates gradients in place. Graphs are
built fresh for every forward pass, are single-threaded per graph, and
hold no global state.

The tape now serves only the per-item reference forward, `model.forward`,
and `finite_diff_check`: tests compare the batched kernel in
`model.run_batch`, which has hand-written backward code, against them.
Training and inference never build a graph.

Values are numpy float64 arrays throughout. Scalars are 0-d arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, NumericError
from .model import sigmoid, softmax

__all__ = [
    "Node",
    "constant",
    "parameter",
    "concat",
    "stack",
    "backward",
    "finite_diff_check",
    "softmax",
    "sigmoid",
]


# ---------------------------------------------------------------------------
# Graph nodes
# ---------------------------------------------------------------------------

class Node:
    """One value in the differentiation graph.

    `grad` is populated by `backward` and has the same shape as `value`.
    `op` names the operation that produced the node ("leaf" for inputs);
    `parents` records provenance. `_backward` pushes this node's grad into
    its parents' grads via in-place accumulation.
    """

    __slots__ = ("value", "grad", "parents", "op", "name", "_backward")

    def __init__(self, value, parents=(), op="leaf", name=None,
                 backward_fn: Callable[[], None] | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self.name = name
        self._backward = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Node(op={self.op!r}, shape={self.value.shape}{tag})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_node(other)
        out = Node(self.value + other.value, (self, other), "add")

        def bw():
            _accum(self, out.grad)
            _accum(other, out.grad)
        out._backward = bw
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_node(other)
        out = Node(self.value - other.value, (self, other), "sub")

        def bw():
            _accum(self, out.grad)
            _accum(other, -out.grad)
        out._backward = bw
        return out

    def __rsub__(self, other):
        return _as_node(other) - self

    def __mul__(self, other):
        other = _as_node(other)
        out = Node(self.value * other.value, (self, other), "mul")

        def bw():
            _accum(self, out.grad * other.value)
            _accum(other, out.grad * self.value)
        out._backward = bw
        return out

    __rmul__ = __mul__

    def __neg__(self):
        out = Node(-self.value, (self,), "neg")

        def bw():
            _accum(self, -out.grad)
        out._backward = bw
        return out

    def __matmul__(self, other):
        a, b = self, _as_node(other)
        out = Node(a.value @ b.value, (a, b), "matmul")
        a_is_vec = a.value.ndim == 1
        b_is_vec = b.value.ndim == 1

        def bw():
            g = out.grad
            if a_is_vec and b_is_vec:          # dot product, g scalar
                _accum(a, g * b.value)
                _accum(b, g * a.value)
            elif b_is_vec:                     # [m,n] @ [n] -> [m]
                _accum(a, np.outer(g, b.value))
                _accum(b, a.value.T @ g)
            elif a_is_vec:                     # [n] @ [n,p] -> [p]
                _accum(a, b.value @ g)
                _accum(b, np.outer(a.value, g))
            else:                              # [m,n] @ [n,p] -> [m,p]
                _accum(a, g @ b.value.T)
                _accum(b, a.value.T @ g)
        out._backward = bw
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self):
        out = Node(self.value.sum(), (self,), "sum")

        def bw():
            _accum(self, np.broadcast_to(out.grad, self.value.shape))
        out._backward = bw
        return out

    def mean(self):
        n = self.value.size
        out = Node(self.value.mean(), (self,), "mean")

        def bw():
            _accum(self, np.broadcast_to(out.grad / n, self.value.shape))
        out._backward = bw
        return out

    # -- elementwise nonlinearities ------------------------------------------

    def tanh(self):
        y = np.tanh(self.value)
        out = Node(y, (self,), "tanh")

        def bw():
            _accum(self, out.grad * (1.0 - y * y))
        out._backward = bw
        return out

    def sigmoid(self):
        y = sigmoid(self.value)
        out = Node(y, (self,), "sigmoid")

        def bw():
            _accum(self, out.grad * y * (1.0 - y))
        out._backward = bw
        return out

    def softmax(self):
        """Softmax over a 1-D node."""
        if self.value.ndim != 1:
            raise ContractError("node softmax expects a 1-D value")
        y = softmax(self.value)
        out = Node(y, (self,), "softmax")

        def bw():
            g = out.grad
            _accum(self, y * (g - np.dot(g, y)))
        out._backward = bw
        return out

    # -- indexing -----------------------------------------------------------

    def slice(self, start: int, stop: int):
        """Contiguous slice of a 1-D node."""
        out = Node(self.value[start:stop], (self,), "slice")

        def bw():
            if self.grad is None:
                self.grad = np.zeros_like(self.value)
            self.grad[start:stop] += out.grad
        out._backward = bw
        return out

    def row(self, i: int):
        """Row i of a 2-D node as a 1-D node."""
        out = Node(self.value[i], (self,), "row")

        def bw():
            if self.grad is None:
                self.grad = np.zeros_like(self.value)
            self.grad[i] += out.grad
        out._backward = bw
        return out


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(np.asarray(x, dtype=np.float64), op="const")


def _accum(node: Node, g) -> None:
    """Add `g` into node.grad, reducing over broadcast dimensions."""
    v = node.value
    g = np.asarray(g)
    if g.shape != v.shape:
        # only scalar-vs-array broadcasting is supported by the op set
        g = g.sum() if v.ndim == 0 else np.broadcast_to(g, v.shape)
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)  # copy: g may be shared
    else:
        node.grad += g


def constant(value) -> Node:
    """Leaf node that never receives a name (inputs, masks, targets)."""
    return Node(value, op="const")


def parameter(value, name: str) -> Node:
    """Named leaf node; `backward` reports its gradient under `name`."""
    return Node(value, op="param", name=name)


def concat(nodes: Iterable[Node]) -> Node:
    """Concatenate 1-D nodes into one 1-D node."""
    nodes = list(nodes)
    sizes = [n.value.shape[0] for n in nodes]
    out = Node(np.concatenate([n.value for n in nodes]), tuple(nodes), "concat")

    def bw():
        offset = 0
        for n, size in zip(nodes, sizes):
            _accum(n, out.grad[offset:offset + size])
            offset += size
    out._backward = bw
    return out


def stack(nodes: Iterable[Node]) -> Node:
    """Stack 1-D nodes of equal length into a 2-D node, one per row."""
    nodes = list(nodes)
    out = Node(np.stack([n.value for n in nodes]), tuple(nodes), "stack")

    def bw():
        for i, n in enumerate(nodes):
            _accum(n, out.grad[i])
    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> dict[str, np.ndarray]:
    """Backpropagate from a scalar loss; return gradients of named leaves.

    Every node reachable from `loss` gets its `grad` set (the loss itself
    gets 1). Raises ContractError for a non-scalar loss and NumericError,
    naming the originating op, if a non-finite value shows up.
    """
    if loss.value.size != 1:
        raise ContractError(
            f"backward needs a scalar loss, got shape {loss.value.shape}")
    if not math.isfinite(float(loss.value)):
        raise NumericError(
            f"loss value is non-finite (produced by op '{loss.op}')")

    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)

    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward()

    grads: dict[str, np.ndarray] = {}
    bad = False
    for node in order:
        if node.name is not None and not node.parents:
            g = node.grad if node.grad is not None else np.zeros_like(node.value)
            grads[node.name] = g
            if not math.isfinite(float(np.sum(g))):
                bad = True
    if bad:
        _raise_naming_nan_origin(order)
    return grads


def _raise_naming_nan_origin(order: list[Node]) -> None:
    # scan in propagation order so the first offender is the origin
    for node in reversed(order):
        if node.grad is not None and not math.isfinite(float(np.sum(node.grad))):
            raise NumericError(
                f"non-finite gradient encountered at op '{node.op}'")
    raise NumericError("non-finite gradient encountered")


# ---------------------------------------------------------------------------
# Finite-difference verification oracle
# ---------------------------------------------------------------------------

def finite_diff_check(builder: Callable, eps: float = 1e-6) -> float:
    """Compare analytic gradients with central finite differences.

    `builder(overrides)` must deterministically construct a fresh graph and
    return `(loss_node, params)` where params maps name -> leaf Node. When
    `overrides` (name -> array) is given, those parameter values are used
    instead of the defaults. Returns the max over all parameter components
    of |analytic - numeric| / max(|numeric|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    loss, params = builder(None)
    loss_again, _ = builder(None)
    if float(loss.value) != float(loss_again.value):
        raise ContractError(
            "builder is non-deterministic: loss value changed between builds "
            f"({float(loss.value)!r} vs {float(loss_again.value)!r})")
    if not params:
        return 0.0

    analytic = backward(loss)
    base = {name: node.value.copy() for name, node in params.items()}

    worst = 0.0
    for name, arr in base.items():
        for idx in np.ndindex(arr.shape):
            bumped = {k: v.copy() for k, v in base.items()}
            bumped[name][idx] += eps
            f_plus = float(builder(bumped)[0].value)
            bumped[name][idx] -= 2 * eps
            f_minus = float(builder(bumped)[0].value)
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(float(analytic[name][idx]) - numeric)
            rel = err / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
