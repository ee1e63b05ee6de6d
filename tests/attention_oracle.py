"""Dense softmax attention over all keys: the reference the sparse branches
are checked against. Built on the compression-weights node, so only tests
carry it."""

import numpy as np

from tabnsa.autodiff import Tensor
from tabnsa.nsa_attention import compression_scores


def full_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(q k^T / sqrt(D_H)) v over all (or, causal, prefix) keys."""
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError("q, k, v must share shape")
    n = q.shape[2]
    valid = np.tril(np.ones((n, n), dtype=bool)) if causal else None
    return compression_scores(q, k, valid) @ v
