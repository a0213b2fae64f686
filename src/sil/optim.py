"""Adam with bias correction, operating on name -> array parameter maps."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# values per block of `adam_step`: a block of p, g, m, v and the two
# scratch buffers is 1.5 MB, inside a typical L2 or L3 cache
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter.

    Defaults are the standard ones (lr=0.001, beta1=0.9, beta2=0.999,
    eps=1e-8). `t` counts completed steps and increments by exactly one
    per `adam_step`. `scratch` holds the two block-sized work buffers
    `adam_step` reuses across blocks, parameters and steps.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: tuple = field(default=(), init=False, repr=False, compare=False)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place on the arrays in `params`.

    `params` maps name -> C-contiguous float64 array (a non-contiguous one
    raises ContractError), `grads` supplies a same-shaped gradient for every
    parameter. Moment buffers are created lazily on the first step. Each
    flattened tensor is updated in blocks of `ADAM_BLOCK` values, so a block
    of p, g, m and v stays in cache through the whole update and the two
    scratch buffers are block-sized. In each block the update runs the
    operations of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order;
    every operation is elementwise, so it is bit-identical to evaluating
    that expression over the whole tensor. Bit-deterministic for identical
    inputs.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    if not state.scratch:
        state.scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' shape {p.shape}")
        if not p.flags.c_contiguous:
            # reshape(-1) would copy it, and the update would be lost
            raise ContractError(f"parameter '{name}' is not C-contiguous")
        m = state.m.get(name)
        if m is None:
            # np.zeros maps large buffers lazily, so the first block pass,
            # not a separate fill, touches their pages
            m = state.m[name] = np.zeros(p.shape, dtype=p.dtype)
            state.v[name] = np.zeros(p.shape, dtype=p.dtype)
        flat = [x.reshape(-1) for x in (p, g, m, state.v[name])]
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
