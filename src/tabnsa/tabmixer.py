"""Token/channel mixer block: Z = SiLU(GELU(MLP1(X^T))^T * MLP2(X)) + X.

Applied per sample on the (N, D) token-embedding matrix. MLP1 mixes along
the token axis (so it acts on X^T and its weight is N x N), MLP2 along the
channel axis (D x D). Each MLP is a single affine layer over a layer-normed
input with its own norm parameters.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LN_EPS = 1e-5


def tabmixer_param_specs(n: int, d: int) -> dict[str, tuple]:
    """name -> (shape, init) for n tokens of width d, as in
    `nsa_attention.nsa_param_specs`; the norms start as the identity."""
    return {
        "w1": ((n, n), n),
        "b1": ((n,), 0.0),
        "ln1_scale": ((n,), 1.0),
        "ln1_shift": ((n,), 0.0),
        "w2": ((d, d), d),
        "b2": ((d,), 0.0),
        "ln2_scale": ((d,), 1.0),
        "ln2_shift": ((d,), 0.0),
    }


def init_tabmixer_params(n_tokens: int, dim: int, rng: np.random.Generator) -> dict[str, Tensor]:
    return ad.make_leaves(tabmixer_param_specs(n_tokens, dim), rng)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis to mean 0, variance 1 (eps 1e-5), then affine."""
    return ad.layer_norm(x, scale, shift, LN_EPS)


def _affine_mix(x: Tensor, w: Tensor, b: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    # x: (..., K); w: (K, K) applied as LayerNorm(x) @ w^T + b
    return ad.linear(layer_norm(x, scale, shift), w.swapaxes(-1, -2), b)


def tabmixer_forward(x: Tensor, params: dict) -> Tensor:
    """x: (B, N, D) batch of per-sample token matrices; output same shape."""
    xt = x.swapaxes(-1, -2)  # (B, D, N): last axis is tokens
    token_mix = _affine_mix(xt, params["w1"], params["b1"], params["ln1_scale"], params["ln1_shift"])
    channel_mix = _affine_mix(x, params["w2"], params["b2"], params["ln2_scale"], params["ln2_shift"])
    fused = ad.silu(ad.gelu(token_mix).swapaxes(-1, -2) * channel_mix)
    return fused + x
