"""Instrumented straight-line mirror of the model forward pass.

Re-executes the whole computation in plain numpy and charges FLOPs from the
shapes of the arrays actually produced, under the package's documented
conventions. Index helpers (block grids, window positions, the selection
count matrix) are borrowed from the package because they contribute zero
FLOPs; every arithmetic site is re-implemented here so the closed-form
counter is validated against real execution.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from tabnsa.autodiff import NEG_INF
from tabnsa.model import (
    ACT_FLOPS_PER_ELEMENT,
    MAC_FLOPS,
    NORM_FLOPS_PER_ELEMENT,
    SOFTMAX_FLOPS_PER_ELEMENT,
    ModelConfig,
)
from tabnsa.nsa_attention import selection_map_matrix, window_indices


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class FlopMeter:
    """Accumulates charges per component key, from executed array shapes."""

    def __init__(self):
        self.by_component: dict[str, int] = {}

    def charge(self, component: str, amount: int) -> None:
        self.by_component[component] = self.by_component.get(component, 0) + int(amount)

    @property
    def total(self) -> int:
        return sum(self.by_component.values())

    def mm(self, component: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a @ b
        self.charge(component, MAC_FLOPS * out.size * a.shape[-1])
        return out

    def ew(self, component: str, out: np.ndarray) -> np.ndarray:
        # one element-wise add/mul/div already performed on `out`
        self.charge(component, out.size)
        return out

    def act(self, component: str, fn, x: np.ndarray) -> np.ndarray:
        self.charge(component, ACT_FLOPS_PER_ELEMENT * x.size)
        return fn(x)

    def softmax(self, component: str, logits: np.ndarray, valid) -> np.ndarray:
        self.charge(component, SOFTMAX_FLOPS_PER_ELEMENT * logits.size)
        z = logits if valid is None else np.where(valid, logits, NEG_INF)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        if valid is not None:
            y = y * valid.any(axis=-1, keepdims=True)
        return y

    def layer_norm(self, component: str, x, scale, shift) -> np.ndarray:
        self.charge(component, NORM_FLOPS_PER_ELEMENT * x.size)
        mu = x.mean(axis=-1, keepdims=True)
        c = x - mu
        var = (c * c).mean(axis=-1, keepdims=True)
        return c / np.sqrt(var + 1e-5) * scale + shift

    def mean(self, component: str, x: np.ndarray, axis: int) -> np.ndarray:
        out = x.mean(axis=axis)
        self.charge(component, out.size * x.shape[axis])
        return out


def _compress(mt, kv, cfg, p, prefix):
    b, h, n, dh = kv.shape
    l, d = cfg.compress_block, cfg.compress_stride
    m = cfg.n_compressed(n)
    if n >= l:
        idx = np.arange(m)[:, None] * d + np.arange(l)[None, :]
        blk = kv[:, :, idx, :]
    else:
        idx = np.concatenate([np.arange(n), np.zeros(l - n, dtype=np.intp)])[None, :]
        keep = np.zeros((1, l, 1))
        keep[0, :n, 0] = 1.0
        blk = mt.ew("compression_phi", kv[:, :, idx, :] * keep)
    blk = mt.ew("compression_phi", blk + p[prefix + "pos"])
    flat = blk.reshape(b, h, m, l * dh)
    hid = mt.mm("compression_phi", flat, p[prefix + "w1"])
    hid = mt.ew("compression_phi", hid + p[prefix + "b1"])
    hid = mt.act("compression_phi", _gelu, hid)
    out = mt.mm("compression_phi", hid, p[prefix + "w2"])
    return mt.ew("compression_phi", out + p[prefix + "b2"])


def _branch_attention(mt, component, q, keys, values, valid):
    b, h, n, dh = q.shape
    s = keys.shape[3]
    logits = mt.mm(component, q.reshape(b, h, n, 1, dh), keys.swapaxes(-1, -2)).reshape(b, h, n, s)
    logits = mt.ew(component, logits * (1.0 / np.sqrt(dh)))
    att = mt.softmax(component, logits, valid)
    return mt.mm(component, att.reshape(b, h, n, 1, s), values).reshape(b, h, n, dh)


def _nsa_block(mt, x, p, cfg):
    b, n, _ = x.shape
    h, dh = cfg.heads, cfg.head_dim

    def heads(w):
        return mt.mm("qkv_proj", x, w).reshape(b, n, h, dh).swapaxes(1, 2)

    q, k, v = heads(p["w_q"]), heads(p["w_k"]), heads(p["w_v"])

    k_cmp = _compress(mt, k, cfg, p, "phi_k_")
    v_cmp = _compress(mt, v, cfg, p, "phi_v_")
    m = k_cmp.shape[2]
    cmp_valid = None
    if cfg.causal:
        if n >= cfg.compress_block:
            block_end = np.arange(m) * cfg.compress_stride + cfg.compress_block
            cmp_valid = block_end[None, :] <= np.arange(1, n + 1)[:, None]
        else:
            cmp_valid = np.ones((n, 1), dtype=bool)
    logits = mt.mm("attention_compression", q, k_cmp.swapaxes(-1, -2))
    logits = mt.ew("attention_compression", logits * (1.0 / np.sqrt(dh)))
    p_cmp = mt.softmax("attention_compression", logits, cmp_valid)
    cmp_out = mt.mm("attention_compression", p_cmp, v_cmp)

    n_slc = cfg.n_select_blocks(n)
    p_slc = mt.mm("selection_scoring", p_cmp, selection_map_matrix(cfg, m, n_slc))
    scores = mt.mean("selection_scoring", p_slc, axis=1)
    if cfg.causal:
        visible = (np.arange(n_slc) * cfg.select_block)[None, None, :] <= np.arange(n)[None, :, None]
        scores = np.where(visible, scores, -np.inf)
    n_eff = min(cfg.num_selected, n_slc)
    blocks = np.sort(np.argsort(-scores, axis=-1, kind="stable")[..., :n_eff], axis=-1)
    tok = (blocks[..., :, None] * cfg.select_block + np.arange(cfg.select_block)).reshape(b, n, n_eff * cfg.select_block)
    tok_valid = tok < n
    if cfg.causal:
        tok_valid = tok_valid & (tok <= np.arange(n)[None, :, None])
    tok_safe = np.clip(tok, 0, n - 1)
    ti = tok_safe[:, None, :, :, None]
    k_slc = np.take_along_axis(k[:, :, None, :, :], ti, axis=3)
    v_slc = np.take_along_axis(v[:, :, None, :, :], ti, axis=3)
    slc_out = _branch_attention(mt, "attention_selection", q, k_slc, v_slc, tok_valid[:, None, :, :])

    win_idx, win_valid = window_indices(n, cfg.window, cfg.causal)
    win_mask = None if win_valid.all() else win_valid[None, None, :, :]
    win_out = _branch_attention(mt, "attention_window", q, k[:, :, win_idx, :], v[:, :, win_idx, :], win_mask)

    def merge(t):
        return t.swapaxes(1, 2).reshape(b, n, h * dh)

    glog = mt.mm("gate_mlp", x, p["gate_w"])
    glog = mt.ew("gate_mlp", glog + p["gate_b"])
    gates = mt.act("gate_mlp", _sigmoid, glog)
    combined = mt.ew("branch_combine", gates[:, :, 0:1] * merge(cmp_out))
    for j, branch in ((1, slc_out), (2, win_out)):
        term = mt.ew("branch_combine", gates[:, :, j:j + 1] * merge(branch))
        combined = mt.ew("branch_combine", combined + term)
    out = mt.mm("output_proj", combined, p["w_o"])
    return mt.ew("output_proj", out + p["b_o"])


def _tabmixer(mt, x, p):
    xt = x.swapaxes(-1, -2)
    tm = mt.layer_norm("tabmixer", xt, p["ln1_scale"], p["ln1_shift"])
    tm = mt.mm("tabmixer", tm, p["w1"].swapaxes(-1, -2))
    tm = mt.ew("tabmixer", tm + p["b1"])
    tm = mt.act("tabmixer", _gelu, tm)
    cm = mt.layer_norm("tabmixer", x, p["ln2_scale"], p["ln2_shift"])
    cm = mt.mm("tabmixer", cm, p["w2"].swapaxes(-1, -2))
    cm = mt.ew("tabmixer", cm + p["b2"])
    prod = mt.ew("tabmixer", tm.swapaxes(-1, -2) * cm)
    fused = mt.act("tabmixer", lambda t: t * _sigmoid(t), prod)
    return mt.ew("tabmixer", fused + x)


def _fuse(mt, y, z, variant, p):
    if variant == "o":
        return mt.ew("fusion", y + z)
    if variant == "m":
        s = mt.ew("fusion", y + z)
        hid = mt.mm("fusion", s, p["fuse.w1"])
        hid = mt.ew("fusion", hid + p["fuse.b1"])
        hid = mt.act("fusion", _gelu, hid)
        out = mt.mm("fusion", hid, p["fuse.w2"])
        return mt.ew("fusion", out + p["fuse.b2"])
    if variant == "c":
        cat = np.concatenate([y, z], axis=-1)
        out = mt.mm("fusion", cat, p["fuse.w"])
        return mt.ew("fusion", out + p["fuse.b"])
    raise ValueError(variant)


def instrumented_forward(x: np.ndarray, params: dict, config: ModelConfig):
    """Returns (logits, FlopMeter). `params` maps path -> numpy array."""
    mt = FlopMeter()
    x = np.asarray(x, dtype=np.float64)
    tok = mt.ew("embedding", x[:, :, None] * params["embed.weight"])
    tok = mt.ew("embedding", tok + params["embed.bias"])
    if config.feature_id_embedding:
        tok = mt.ew("embedding", tok + params["feature_id"])
    for i in range(config.num_blocks):
        sub = {k[len(f"blocks.{i}."):]: v for k, v in params.items() if k.startswith(f"blocks.{i}.")}
        nsa_p = {k[4:]: v for k, v in sub.items() if k.startswith("nsa.")}
        mix_p = {k[6:]: v for k, v in sub.items() if k.startswith("mixer.")}
        y = _nsa_block(mt, tok, nsa_p, config.nsa)
        if config.fusion == "r":
            tok = _tabmixer(mt, y, mix_p)
        else:
            z = _tabmixer(mt, tok, mix_p)
            tok = _fuse(mt, y, z, config.fusion, sub)
    pooled = mt.mean("pool", tok, axis=1)
    hid = mt.mm("head", pooled, params["head.w1"])
    hid = mt.ew("head", hid + params["head.b1"])
    hid = mt.act("head", _gelu, hid)
    logits = mt.mm("head", hid, params["head.w2"])
    logits = mt.ew("head", logits + params["head.b2"])
    return logits, mt
