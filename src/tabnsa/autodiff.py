"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor records the operations that produced it; backward() walks the tape
in reverse topological order. A leaf (a tensor no recorded operation made)
accumulates its gradient into .grad across backward calls. A non-leaf
node's .grad is set back to None as soon as its VJP has run, so a walk holds
only the gradients still waiting to be passed on, and a later backward
through the same graph counts each path once. The saved activations live as
long as the graph does: drop the last reference to the output to free them.
Only the primitives needed by this package are provided.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit, ndtr

# logit of a masked key: its exp underflows to exactly 0
NEG_INF = -1e30
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc serves a block above its mmap threshold (128 KiB at start) by mmap,
# and when such a block is freed it raises that threshold to the block's size
# and the heap's trim threshold to twice it, up to a 32 MiB cap (mallopt(3),
# M_MMAP_THRESHOLD). Importing this module frees one untouched block of this
# size, so the arrays of up to this size in a training step's tape or a
# scoring tile come from the heap, and their pages stay resident for the next
# step or tile instead of being unmapped or trimmed and faulted back in.
HEAP_RESERVE = 4 << 20
np.empty(HEAP_RESERVE, dtype=np.uint8)


class _ThreadState(threading.local):
    """Whether ops record a tape, per thread, so concurrent fits and
    tape-free forwards cannot interfere."""

    def __init__(self):
        self.grad_enabled = True


_STATE = _ThreadState()


def _grad_enabled() -> bool:
    return _STATE.grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the with-block."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph engine --------------------------------------------------

    def backward(self, grad=None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed shape {grad.shape} != output shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            # a non-leaf gradient is spent once its VJP has run
            g, node.grad = node.grad, None
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_ensure(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or not isinstance(shape[0], (tuple, list)) else tuple(shape[0]))

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)


def make_leaves(specs: dict, rng: np.random.Generator | int) -> dict[str, Tensor]:
    """Trainable leaves from a `name -> (shape, init)` spec, in spec order.

    A float `init` fills the leaf with that constant. Any other `init` is a
    fan-in: the leaf is drawn from Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)),
    so only those entries consume draws from `rng` (a Generator or a seed).
    """
    rng = np.random.default_rng(rng)
    leaves = {}
    for name, (shape, init) in specs.items():
        if isinstance(init, float):
            data = np.full(shape, init)
        else:
            bound = np.sqrt(1.0 / init)
            data = rng.uniform(-bound, bound, size=shape)
        leaves[name] = Tensor(data, requires_grad=True)
    return leaves


def alias_leaves(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Leaves over the same arrays as `params`, each with a `.grad` of its
    own, so several tapes can run over one set of weights at once."""
    return {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}


def flatten(arrays: Iterable[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """The flat parameter layout: the arrays raveled and concatenated in
    order into one new vector, or into `out` when it is given."""
    return np.concatenate([np.ravel(a) for a in arrays], out=out)


def unflatten(params: dict[str, Tensor], vector: np.ndarray) -> None:
    """The inverse of `flatten` over `params` in dict order: each leaf's
    slice of `vector` is written into its existing `.data` in place."""
    offset = 0
    for p in params.values():
        size = p.data.size
        p.data[...] = vector[offset:offset + size].reshape(p.data.shape)
        offset += size
    if offset != len(vector):
        raise ValueError(f"vector has {len(vector)} entries but the parameters hold {offset}")


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    if _STATE.grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data)
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        return out
    return Tensor(data)


# -- arithmetic ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data + b.data
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data * b.data
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    data = a.data @ b.data

    def vjp(g):
        ga = _matmul_to(g, b.data.swapaxes(-1, -2), a.data.shape)
        gb = _matmul_to(a.data.swapaxes(-1, -2), g, b.data.shape)
        return ga, gb

    return _node(data, (a, b), vjp)


def _matmul_to(x: np.ndarray, y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """x @ y summed down to an operand's `shape`.

    Leading batch axes that `shape` lacks are moved next to the contraction
    axis and folded into it, so one batched GEMM does the sum and the
    broadcast product is never materialised. Other broadcast patterns
    (size-1 axes, unequal ranks) reduce the full product.
    """
    e = x.ndim - len(shape)
    if e <= 0 or x.shape[:-2] != y.shape[:-2] or x.shape[e:-2] != shape[:-2]:
        return _unbroadcast(x @ y, shape)
    n = x.ndim
    xf = x.transpose(*range(e, n - 1), *range(e), n - 1).reshape(*shape[:-1], -1)
    yf = y.transpose(*range(e, n - 2), *range(e), n - 2, n - 1).reshape(*shape[:-2], -1, shape[-1])
    return xf @ yf


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node. w is (K, P), or (H, K, P) per-head weights
    under a (B, H, M, K) input; b broadcasts over the product."""
    x, w, b = _ensure(x), _ensure(w), _ensure(b)
    data = x.data @ w.data
    data += b.data

    def vjp(g):
        gx = _matmul_to(g, w.data.swapaxes(-1, -2), x.data.shape)
        gw = _matmul_to(x.data.swapaxes(-1, -2), g, w.data.shape)
        return gx, gw, _unbroadcast(g, b.data.shape)

    return _node(data, (x, w, b), vjp)


def layer_norm(x, scale, shift, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * scale + shift over the last axis, as one node."""
    x, scale, shift = _ensure(x), _ensure(scale), _ensure(shift)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered / std
    data = xhat * scale.data + shift.data

    def vjp(g):
        gx = g * scale.data
        gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        return gx / std, _unbroadcast(g * xhat, scale.data.shape), _unbroadcast(g, shift.data.shape)

    return _node(data, (x, scale, shift), vjp)


# -- elementwise nonlinearities ------------------------------------------


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    data = expit(a.data)
    return _node(data, (a,), lambda g: (g * data * (1.0 - data),))


def gelu(a) -> Tensor:
    """Exact x * Phi(x), Phi the standard normal CDF; not the tanh approximation."""
    a = _ensure(a)
    x = a.data
    cdf = ndtr(x)
    data = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _node(data, (a,), vjp)


def silu(a) -> Tensor:
    a = _ensure(a)
    s = expit(a.data)
    data = a.data * s

    def vjp(g):
        return (g * s * (1.0 + a.data * (1.0 - s)),)

    return _node(data, (a,), vjp)


# -- reductions and shape ops --------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        return (_spread(g, a.data.shape, axis, keepdims),)

    return _node(data, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod([a.data.shape[i] for i in _norm_axes(axis, a.data.ndim)])

    def vjp(g):
        return (_spread(g, a.data.shape, axis, keepdims) / count,)

    return _node(data, (a,), vjp)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g.item())
    if not keepdims:
        for ax in sorted(_norm_axes(axis, len(shape))):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    orig = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _ensure(a)
    return _node(a.data.swapaxes(ax1, ax2), (a,), lambda g: (g.swapaxes(ax1, ax2),))


def split_heads(flat, heads: int) -> Tensor:
    """(B, N, H*Dh) -> C-contiguous (B, H, N, Dh), one transpose copy."""
    flat = _ensure(flat)
    b, n, width = flat.data.shape
    data = np.ascontiguousarray(flat.data.reshape(b, n, heads, width // heads).transpose(0, 2, 1, 3))
    return _node(data, (flat,), lambda g: (g.transpose(0, 2, 1, 3).reshape(b, n, width),))


def merge_heads(t) -> Tensor:
    """(B, H, N, Dh) -> C-contiguous (B, N, H*Dh), the inverse of split_heads."""
    t = _ensure(t)
    b, h, n, dh = t.data.shape
    data = np.ascontiguousarray(t.data.transpose(0, 2, 1, 3)).reshape(b, n, h * dh)
    return _node(data, (t,), lambda g: (g.reshape(b, n, h, dh).transpose(0, 2, 1, 3),))


def concatenate(tensors: Iterable, axis: int = -1) -> Tensor:
    ts = [_ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(data, ts, vjp)


def getitem(a, key) -> Tensor:
    """Index a tensor. Supports slices, ints and integer arrays (no newaxis)."""
    a = _ensure(a)
    data = a.data[key]
    shape = a.data.shape

    def vjp(g):
        out = np.zeros(shape, dtype=np.float64)
        np.add.at(out, key, g)
        return (out,)

    return _node(data, (a,), vjp)


# -- token gathers for sparse attention -----------------------------------


def gather_blocks(t, idx: np.ndarray) -> Tensor:
    """Gather (possibly overlapping) token blocks shared across batch and head.

    t: (B, H, N, Dh); idx: int array (M, L) of token positions in [0, N).
    Returns a C-contiguous (B, H, M, L, Dh) with out[b,h,m,j] = t[b,h,idx[m,j]].
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    data = t.data.take(idx, axis=2)
    B, H, N, Dh = t.data.shape

    def vjp(g):
        onehot = (np.arange(N)[:, None] == idx.reshape(-1)).astype(np.float64)  # (N, M*L)
        return (onehot @ g.reshape(B, H, -1, Dh),)

    return _node(data, (t,), vjp)


def gather_selected(t, idx: np.ndarray) -> Tensor:
    """Gather per-sample, per-query token positions, shared across heads.

    t: (B, H, N, Dh); idx: int array (B, T, S) of token positions in [0, N)
    for each of T queries. Returns a C-contiguous (B, H, T, S, Dh) with
    out[b,h,t,s] = t[b,h,idx[b,t,s]]: one `take` of Dh-wide rows at flat
    offsets (b*H + h)*N + idx[b,t,s] of the contiguous (B*H*N, Dh) layout.
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    B, H, N, Dh = t.data.shape
    _, T, S = idx.shape
    offsets = (np.arange(B)[:, None] * H + np.arange(H)) * N  # (B, H)
    rows = np.ascontiguousarray(t.data).reshape(B * H * N, Dh)
    data = rows.take(offsets[:, :, None, None] + idx[:, None], axis=0)

    def vjp(g):
        onehot = (np.arange(N)[:, None] == idx.reshape(B, 1, 1, T * S)).astype(np.float64)  # (B, 1, N, T*S)
        return (onehot @ g.reshape(B, H, T * S, Dh),)

    return _node(data, (t,), vjp)


# -- softmax attention ----------------------------------------------------


def _masked_softmax(logits: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis without the keys outside `valid`, computed
    in place in `logits`, which the caller must own; a row with no valid key
    is all zeros. Max and sum run over slices of the last axis, which beats
    numpy's reductions along a short axis severalfold."""
    if valid is not None:
        np.copyto(logits, NEG_INF, where=~valid)
    top = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j], out=top)
    logits -= top[..., None]
    e = np.exp(logits, out=logits)
    total = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        total += e[..., j]
    e /= total[..., None]
    if valid is not None:
        any_valid = valid.any(axis=-1, keepdims=True)
        if not any_valid.all():
            e *= any_valid
    return e


def attention_weights(q, k, valid: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(Dh)) over the keys marked valid, as one node.

    q: (..., T, Dh); k: (..., S, Dh); valid: bool broadcastable to
    (..., T, S), or None for all keys. A row with no valid key is all zeros.
    """
    q, k = _ensure(q), _ensure(k)
    scale = 1.0 / np.sqrt(q.data.shape[-1])
    logits = q.data @ k.data.swapaxes(-1, -2)
    logits *= scale
    p = _masked_softmax(logits, valid)

    def vjp(g):
        ds = p * (g - (g * p).sum(axis=-1, keepdims=True)) * scale
        return _matmul_to(ds, k.data, q.data.shape), _matmul_to(ds.swapaxes(-1, -2), q.data, k.data.shape)

    return _node(p, (q, k), vjp)


def attend(q, keys, values, valid: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Softmax attention of each query over its own gathered keys, as one node.

    q: (B, H, T, Dh); keys, values: (B, H, T, S, Dh), the S keys each query
    sees; valid: bool broadcastable to (B, H, T, S), or None for all keys.
    Returns the (B, H, T, Dh) output and the (B, H, T, S) weights; a row
    with no valid key outputs zeros. The backward is the closed form of
    FlashAttention-2 (Dao, arXiv 2307.08691): dS = P * (dP - rowsum(dO * O)).
    """
    q, keys, values = _ensure(q), _ensure(keys), _ensure(values)
    # einsum is several times faster when its operands share one C layout
    qd, kd, vd = (np.ascontiguousarray(t.data) for t in (q, keys, values))
    scale = 1.0 / np.sqrt(qd.shape[-1])
    logits = np.einsum("...d,...sd->...s", qd, kd)
    logits *= scale
    p = _masked_softmax(logits, valid)
    out = np.einsum("...s,...sd->...d", p, vd)

    def vjp(g):
        g = np.ascontiguousarray(g)
        dp = np.einsum("...d,...sd->...s", g, vd)
        ds = p * (dp - np.einsum("...d,...d->...", g, out)[..., None]) * scale
        gq = np.einsum("...s,...sd->...d", ds, kd)
        return gq, np.einsum("...s,...d->...sd", ds, qd), np.einsum("...s,...d->...sd", p, g)

    return _node(out, (q, keys, values), vjp), p
