"""Adam with bias correction, operating on name -> array parameter maps."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter.

    Defaults are the standard ones (lr=0.001, beta1=0.9, beta2=0.999,
    eps=1e-8). `t` counts completed steps and increments by exactly one
    per `adam_step`. `scratch` holds the two work buffers `adam_step`
    reuses across parameters and steps.
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

    `params` maps name -> float64 array, `grads` supplies a same-shaped
    gradient for every parameter. Moment buffers are created lazily on the
    first step. The update runs in two scratch buffers with the operations
    of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order, so it is
    bit-identical to evaluating that expression. Bit-deterministic for
    identical inputs.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    largest = max((p.size for p in params.values()), default=0)
    if not state.scratch or state.scratch[0].size < largest:
        state.scratch = (np.empty(largest), np.empty(largest))
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' shape {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        a, b = (buf[:p.size].reshape(p.shape) for buf in state.scratch)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - state.beta2
        v += a
        np.divide(m, bc1, out=a)
        a *= state.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        p -= a
