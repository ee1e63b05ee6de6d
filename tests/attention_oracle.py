"""Dense softmax attention over all keys: the reference the sparse branches
are checked against. Built on the compression-weights node, so only tests
carry it. Also the block-mean compressor, a parameter-free stand-in for the
compression MLP."""

import numpy as np

from tabnsa import autodiff as ad
from tabnsa.autodiff import Tensor
from tabnsa.nsa_attention import NSAConfig, compression_indices, compression_scores


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
