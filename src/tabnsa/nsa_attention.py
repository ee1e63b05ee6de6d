"""Sparse attention over feature tokens.

Three branches per query: compressed-block attention, top-n selected-block
attention, and a sliding window, combined by per-token sigmoid gates and an
output projection. `nsa_forward` returns the layer's output alone; the
selected blocks, gates and branch weights are what its stage functions
return. Features are unordered, so the default is non-causal:
every query sees all N tokens. causal=True keeps the prefix-masked variant
for fidelity tests.

Gate order convention everywhere: index 0 = compression, 1 = selection,
2 = window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class NSAConfig:
    """One attention layer's geometry; the defaults are the package's default
    geometry. Two fields are derived when left None: `dim` becomes
    heads * head_dim, and `compress_stride` becomes
    gcd(compress_block, select_block), the largest stride dividing both
    block sizes. An explicit value is checked by the same rules."""

    dim: int | None = None
    heads: int = 2
    head_dim: int = 8
    window: int = 3
    compress_block: int = 4
    compress_stride: int | None = None
    select_block: int = 2
    num_selected: int = 2
    causal: bool = False

    def __post_init__(self):
        if self.dim is None:
            object.__setattr__(self, "dim", self.heads * self.head_dim)
        if self.compress_stride is None:
            object.__setattr__(self, "compress_stride", math.gcd(self.compress_block, self.select_block))
        if self.dim != self.heads * self.head_dim:
            raise ValueError(f"dim {self.dim} != heads {self.heads} * head_dim {self.head_dim}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.compress_stride <= self.compress_block:
            raise ValueError("need 1 <= compress_stride <= compress_block")
        if not 2 <= self.select_block <= self.compress_block:
            raise ValueError("need 2 <= select_block <= compress_block")
        if self.num_selected < 1:
            raise ValueError("num_selected must be >= 1")
        if self.compress_block % self.compress_stride != 0:
            raise ValueError("compress_block must be a multiple of compress_stride")
        if self.select_block % self.compress_stride != 0:
            raise ValueError("select_block must be a multiple of compress_stride")

    def n_compressed(self, n_tokens: int) -> int:
        if n_tokens < self.compress_block:
            return 1  # single zero-padded block spanning all tokens
        return (n_tokens - self.compress_block) // self.compress_stride + 1

    def n_select_blocks(self, n_tokens: int) -> int:
        return -(-n_tokens // self.select_block)

    def effective_selected(self, n_tokens: int) -> int:
        """Blocks each query selects: num_selected, clamped to the blocks there are."""
        return min(self.num_selected, self.n_select_blocks(n_tokens))


def nsa_param_specs(cfg: NSAConfig) -> dict[str, tuple]:
    """name -> (shape, init): an int init is the fan-in of a
    Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) draw, a float a constant fill."""
    d, h, dh, l = cfg.dim, cfg.heads, cfg.head_dim, cfg.compress_block
    k = l * dh
    specs = {
        "w_q": ((d, h * dh), d),
        "w_k": ((d, h * dh), d),
        "w_v": ((d, h * dh), d),
        "w_o": ((h * dh, d), h * dh),
        "b_o": ((d,), 0.0),
        "gate_w": ((d, 3), d),
        "gate_b": ((3,), 0.0),
    }
    for branch in ("k", "v"):
        specs[f"phi_{branch}_w1"] = ((h, k, k), k)
        specs[f"phi_{branch}_b1"] = ((h, 1, k), 0.0)
        specs[f"phi_{branch}_w2"] = ((h, k, dh), k)
        specs[f"phi_{branch}_b2"] = ((h, 1, dh), 0.0)
        specs[f"phi_{branch}_pos"] = ((l, dh), dh)
    return specs


def init_nsa_params(cfg: NSAConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    return ad.make_leaves(nsa_param_specs(cfg), rng)


def _phi(params: dict, which: str) -> dict:
    return {key: params[f"phi_{which}_{key}"] for key in ("w1", "b1", "w2", "b2", "pos")}


def project_qkv(x: Tensor, params: dict, cfg: NSAConfig):
    """(B, N, D) -> three C-contiguous (B, H, N, D_H) projections, bias-free."""
    _, _, d = x.shape
    if d != cfg.dim:
        raise ValueError(f"input width {d} != config dim {cfg.dim}")
    return tuple(ad.split_heads(x @ params[w], cfg.heads) for w in ("w_q", "w_k", "w_v"))


def _checked_plan(idx: np.ndarray, n_tokens: int) -> np.ndarray:
    """`idx`, made read-only, once every entry is a token position in
    [0, n_tokens): the gathers clip an index outside instead of raising."""
    if idx.min() < 0 or idx.max() >= n_tokens:
        raise IndexError(f"token index plan leaves [0, {n_tokens})")
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=256)
def compression_indices(cfg: NSAConfig, n_tokens: int) -> np.ndarray:
    """Token positions (M, l) of each compressed block: block i covers
    [i*d, i*d + l). When N < l, one block lists the N tokens and then
    token 0 as padding. Cached per argument tuple and read-only."""
    l, d = cfg.compress_block, cfg.compress_stride
    if n_tokens >= l:
        idx = np.arange(cfg.n_compressed(n_tokens))[:, None] * d + np.arange(l)[None, :]
    else:
        idx = np.concatenate([np.arange(n_tokens), np.zeros(l - n_tokens, dtype=np.intp)])[None, :]
    return _checked_plan(idx, n_tokens)


def compress_tokens(kv: Tensor, cfg: NSAConfig, phi: dict) -> Tensor:
    """Aggregate the token blocks of `compression_indices` into compressed
    tokens with phi, the per-head MLP parameter dict; when N < l the single
    block's padding slots are zeroed first."""
    b, h, n, dh = kv.shape
    l = cfg.compress_block
    blocks = ad.gather_blocks(kv, compression_indices(cfg, n))  # (B, H, M, l, Dh)
    if n < l:
        keep = np.zeros((1, l, 1))
        keep[0, :n, 0] = 1.0
        blocks = blocks * Tensor(keep)
    m = blocks.shape[2]
    blocks = blocks + phi["pos"]  # (l, Dh) broadcasts over (B, H, M, l, Dh)
    flat = blocks.reshape(b, h, m, l * dh)
    hidden = ad.gelu(ad.linear(flat, phi["w1"], phi["b1"]))  # per-head weights (H, K, K)
    return ad.linear(hidden, phi["w2"], phi["b2"])


def compression_scores(q: Tensor, k_cmp: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """softmax(q k_cmp^T / sqrt(D_H)) over the compressed keys marked valid;
    rows sum to 1, or are all zeros where no key is valid."""
    return ad.attention_weights(q, k_cmp, valid)


@lru_cache(maxsize=256)
def selection_map_matrix(cfg: NSAConfig, n_cmp: int, n_slc: int) -> np.ndarray:
    """(n_cmp, n_slc) weights: entry [i, j] counts the (m, n) pairs with
    (l'/d)*j - m - n = i, m < l'/d, n < l/d. Out-of-range compressed indices
    contribute nothing, so a padded tail selection block scores 0. Cached
    per argument tuple and read-only."""
    ratio_sel = cfg.select_block // cfg.compress_stride
    ratio_cmp = cfg.compress_block // cfg.compress_stride
    w = np.zeros((n_cmp, n_slc))
    for j in range(n_slc):
        for m in range(ratio_sel):
            for n in range(ratio_cmp):
                i = ratio_sel * j - m - n
                if 0 <= i < n_cmp:
                    w[i, j] += 1.0
    w.flags.writeable = False
    return w


def map_selection_scores(p_cmp: np.ndarray, cfg: NSAConfig, n_tokens: int) -> np.ndarray:
    """Map compressed-block scores (B,H,N,N_cmp) to selection-block scores
    (B,H,N,N_slc). Identity when l' = l = d and the block grids coincide."""
    n_cmp = p_cmp.shape[-1]
    n_slc = cfg.n_select_blocks(n_tokens)
    return p_cmp @ selection_map_matrix(cfg, n_cmp, n_slc)


def select_blocks(
    p_slc: np.ndarray,
    k: Tensor,
    v: Tensor,
    cfg: NSAConfig,
    block_visible: np.ndarray | None = None,
):
    """Pick the top-n selection blocks per (batch, query) and gather their tokens.

    Scores are head-averaged first so all heads share one index set; ties
    break toward the lower block index; chosen blocks are gathered in
    ascending order so token order is preserved. Returns
    (indices (B,1,N,n), k_slc, v_slc (B,H,N,n*l',Dh), token positions
    (B,N,n*l'), token validity): a padded tail block's positions run past
    N, where the gathered slots are zeros and invalid.
    When every query selects every block and nothing is masked, each sees
    all N tokens in order, so this returns (all indices, k, v, None, None)
    and the branch is full attention over the shared keys.
    """
    b, _, n_q, n_slc = p_slc.shape
    n_tokens = k.shape[2]
    n_eff = cfg.effective_selected(n_tokens)
    if n_eff == n_slc and block_visible is None and not cfg.causal:
        return np.broadcast_to(np.arange(n_slc), (b, 1, n_q, n_slc)).copy(), k, v, None, None
    scores = p_slc.mean(axis=1)  # (B, N, N_slc)
    if block_visible is not None:
        scores = np.where(block_visible, scores, -np.inf)
    top = np.argsort(-scores, axis=-1, kind="stable")[..., :n_eff]
    blocks = np.sort(top, axis=-1)  # (B, N, n_eff)
    lp = cfg.select_block
    tok = blocks[..., :, None] * lp + np.arange(lp)  # (B, N, n_eff, l')
    tok = tok.reshape(b, n_q, n_eff * lp)
    valid = tok < n_tokens
    if cfg.causal:
        valid &= tok <= np.arange(n_q)[None, :, None]
    k_slc = ad.gather_selected(k, blocks, lp)
    v_slc = ad.gather_selected(v, blocks, lp)
    return blocks[:, None, :, :], k_slc, v_slc, tok, valid


@lru_cache(maxsize=256)
def window_indices(n_tokens: int, w: int, causal: bool):
    """Per-query window token positions (N, w_eff) plus validity mask.

    Causal: tokens [max(0, t-w+1), t]. Non-causal: w tokens centered at t,
    shifted to stay inside [0, N); with w >= N every token is visible.
    Cached per argument tuple; both arrays are read-only.
    """
    w_eff = min(w, n_tokens)
    t = np.arange(n_tokens)[:, None]
    s = np.arange(w_eff)[None, :]
    if causal:
        pos = t - (w_eff - 1) + s
        idx, valid = np.maximum(pos, 0), pos >= 0
    else:
        start = np.clip(t - (w_eff - 1) // 2, 0, n_tokens - w_eff)
        idx, valid = start + s, np.ones((n_tokens, w_eff), dtype=bool)
    valid.flags.writeable = False
    return _checked_plan(idx, n_tokens), valid


def _per_query_attention(q: Tensor, keys: Tensor, values: Tensor, valid: np.ndarray | None):
    """q: (B,H,N,Dh); keys/values: (B,H,S,Dh) shared by every query, or
    (B,H,N,S,Dh) gathered per query. Returns ((B,H,N,Dh), weights array)."""
    if keys.ndim == 4:
        p = ad.attention_weights(q, keys, valid)
        return p @ values, p.data
    return ad.attend(q, keys, values, valid)


def gated_combine(branches: tuple, params: dict, x: Tensor):
    """gates = sigmoid(x gate_w + gate_b); output = W_o(sum_c g_c * branch_c) + b_o."""
    gates = ad.sigmoid(ad.linear(x, params["gate_w"], params["gate_b"]))  # (B, N, 3)
    combined = (
        gates[:, :, 0:1] * branches[0] + gates[:, :, 1:2] * branches[1] + gates[:, :, 2:3] * branches[2]
    )
    return ad.linear(combined, params["w_o"], params["b_o"]), gates


def nsa_forward(x: Tensor, params: dict, cfg: NSAConfig) -> Tensor:
    """(B, N, D) tokens -> the layer's (B, N, D) output."""
    b, n, _ = x.shape
    q, k, v = project_qkv(x, params, cfg)

    # compression branch; its attention weights also drive selection
    k_cmp = compress_tokens(k, cfg, _phi(params, "k"))
    v_cmp = compress_tokens(v, cfg, _phi(params, "v"))
    n_cmp = k_cmp.shape[2]
    cmp_valid = None
    if cfg.causal:
        block_end = np.arange(n_cmp) * cfg.compress_stride + cfg.compress_block
        cmp_valid = (block_end[None, :] <= np.arange(1, n + 1)[:, None]) if n >= cfg.compress_block else np.ones(
            (n, 1), dtype=bool
        )
    p_cmp = compression_scores(q, k_cmp, cmp_valid)
    cmp_out = p_cmp @ v_cmp

    # selection branch: indices come from detached compression scores
    p_slc = map_selection_scores(p_cmp.data, cfg, n)
    block_visible = None
    if cfg.causal:
        n_slc = cfg.n_select_blocks(n)
        block_visible = (np.arange(n_slc) * cfg.select_block)[None, None, :] <= np.arange(n)[None, :, None]
        block_visible = np.broadcast_to(block_visible, (b, n, n_slc))
    _, k_slc, v_slc, _, tok_valid = select_blocks(p_slc, k, v, cfg, block_visible)
    slc_mask = None if tok_valid is None else tok_valid[:, None, :, :]
    slc_out, _ = _per_query_attention(q, k_slc, v_slc, slc_mask)
    del k_slc, v_slc  # without a tape this frees them before the window gathers

    # sliding-window branch
    win_idx, win_valid = window_indices(n, cfg.window, cfg.causal)
    win_mask = None if win_valid.all() else win_valid[None, None, :, :]
    win_out, _ = _per_query_attention(q, ad.gather_blocks(k, win_idx), ad.gather_blocks(v, win_idx), win_mask)

    branches = (ad.merge_heads(cmp_out), ad.merge_heads(slc_out), ad.merge_heads(win_out))
    output, _ = gated_combine(branches, params, x)
    return output
