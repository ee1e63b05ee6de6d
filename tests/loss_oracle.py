"""Class-weighted cross-entropy composed from generic tape ops: the
reference the fused `training.weighted_cross_entropy` node must match bit
for bit, in value and in gradient."""

import numpy as np

from tabnsa.autodiff import Tensor
from tape_ops import exp, log


def composed_weighted_cross_entropy(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean over the batch of w_{y_b} * (-log softmax(logits_b)[y_b]),
    shifted by the per-row max (held constant)."""
    labels = np.asarray(labels, dtype=np.intp)
    b = logits.shape[0]
    z = logits - Tensor(logits.data.max(axis=1, keepdims=True))
    nll = log(exp(z).sum(axis=1)) - z[np.arange(b), labels]
    if weights is not None:
        nll = nll * Tensor(np.asarray(weights, dtype=np.float64)[labels])
    return nll.mean()
