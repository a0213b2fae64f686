"""Adam with bias correction, operating on name -> array parameter maps."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# values per block of `adam_step`: a block of p, g, m, v and the two
# scratch buffers is 1.5 MB, inside a typical L2 or L3 cache
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counters.

    Defaults are the standard ones (lr=0.001, beta1=0.9, beta2=0.999,
    eps=1e-8). `steps` counts the updates each tensor has had, as
    `torch.optim.Adam` keeps a step per parameter, and its bias correction
    uses that count. So one `adam_step` over every tensor and one call per
    tensor do the same arithmetic. `t` is the largest count: once every
    tensor of a step is updated, it counts completed steps. `scratch`
    holds the two block-sized work buffers `adam_step` reuses across
    blocks, parameters and steps.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    steps: dict = field(default_factory=dict)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: dict, **hyper) -> "AdamState":
        """A state whose moment and scratch buffers exist before the first
        step. A step that updates tensor by tensor during its backward
        then allocates none of them among its activations, where they
        would split the heap that later steps reuse. np.zeros maps large
        buffers lazily, so they take memory only once a step writes them.
        """
        state = cls(**hyper)
        _add_buffers(state, params)
        return state


def _add_buffers(state: AdamState, params: dict) -> None:
    """Create the scratch and each tensor's moments where they are missing.

    np.zeros maps large buffers lazily, so the first block pass of
    `adam_step`, not a separate fill, touches their pages.
    """
    if not state.scratch:
        state.scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, dtype=p.dtype)
            state.v[name] = np.zeros(p.shape, dtype=p.dtype)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update of each tensor in `params`, in place.

    `params` maps name -> C-contiguous float64 array (a non-contiguous one
    raises ContractError), `grads` supplies a same-shaped gradient for every
    parameter; `params` may hold any subset of the model's tensors. A
    tensor's moment buffers are created on its first update unless
    `AdamState.for_params` made them. Each flattened tensor is updated in
    blocks of `ADAM_BLOCK` values, so a block of p, g, m and v stays in
    cache through the whole update and the two scratch buffers are
    block-sized. In each block the update runs the
    operations of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order;
    every operation is elementwise, so it is bit-identical to evaluating
    that expression over the whole tensor. Bit-deterministic for identical
    inputs.
    """
    _add_buffers(state, params)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' shape {p.shape}")
        if not p.flags.c_contiguous:
            # reshape(-1) would copy it, and the update would be lost
            raise ContractError(f"parameter '{name}' is not C-contiguous")
        t = state.steps[name] = state.steps.get(name, 0) + 1
        state.t = max(state.t, t)
        bc1 = 1.0 - state.beta1 ** t
        bc2 = 1.0 - state.beta2 ** t
        flat = [x.reshape(-1) for x in (p, g, state.m[name], state.v[name])]
        for start in range(0, p.size, ADAM_BLOCK):
            pb, gb, mb, vb = (x[start:start + ADAM_BLOCK] for x in flat)
            a, b = (buf[:pb.size] for buf in state.scratch)
            mb *= state.beta1
            mb += np.multiply(gb, 1.0 - state.beta1, out=a)
            vb *= state.beta2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - state.beta2
            vb += a
            np.divide(mb, bc1, out=a)
            a *= state.lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            pb -= a
