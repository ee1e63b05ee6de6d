"""Dense softmax attention over all keys: the reference the sparse branches
are checked against. Built on the compression-weights node, so only tests
carry it. Also the block-mean compressor, a parameter-free stand-in for the
compression MLP, and the gathered form of a selection branch that selects
every block, against which its shared-key product is checked."""

import numpy as np

from tabnsa import autodiff as ad
from tabnsa.autodiff import Tensor
from tabnsa.nsa_attention import NSAConfig, compression_indices, compression_scores, select_blocks


def block_mean_tokens(kv: Tensor, cfg: NSAConfig) -> Tensor:
    """The blocks `compress_tokens` gathers, each averaged over its l slots;
    when N < l the padding slots count as zeros."""
    n, l = kv.shape[2], cfg.compress_block
    blocks = ad.gather_blocks(kv, compression_indices(cfg, n))
    if n < l:
        blocks = blocks * Tensor((np.arange(l) < n)[None, :, None].astype(np.float64))
    return blocks.mean(axis=3)


def full_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(q k^T / sqrt(D_H)) v over all (or, causal, prefix) keys."""
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError("q, k, v must share shape")
    n = q.shape[2]
    valid = np.tril(np.ones((n, n), dtype=bool)) if causal else None
    return compression_scores(q, k, valid) @ v


def gathered_select_all(p_slc: np.ndarray, k: Tensor, v: Tensor, cfg: NSAConfig, block_visible=None):
    """`select_blocks` with every query that selects every selection block
    taken the gathered way: each query gathers all n_slc blocks with
    `gather_selected`, and the padded tail block's slots past N are masked.
    Any other selection is `select_blocks`' own gathered path."""
    b, _, n_q, n_slc = p_slc.shape
    n = k.shape[2]
    if cfg.effective_selected(n) < n_slc or block_visible is not None or cfg.causal:
        return select_blocks(p_slc, k, v, cfg, block_visible)
    blocks = np.broadcast_to(np.arange(n_slc), (b, n_q, n_slc))
    tok = np.broadcast_to(np.arange(n_slc * cfg.select_block), (b, n_q, n_slc * cfg.select_block))
    k_slc, v_slc = (ad.gather_selected(t, blocks, cfg.select_block) for t in (k, v))
    return blocks[:, None], k_slc, v_slc, tok, tok < n
