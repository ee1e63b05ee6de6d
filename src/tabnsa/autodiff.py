"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor records the operations that produced it; backward() walks the tape
in reverse topological order. A leaf (a tensor no recorded operation made)
accumulates its gradient into .grad across backward calls. A non-leaf
node's .grad is set back to None as soon as its VJP has run, so a walk holds
only the gradients still waiting to be passed on, and a later backward
through the same graph counts each path once. The saved activations live as
long as the graph does: drop the last reference to the output to free them.
Only the primitives needed by this package are provided.

Inside `workspace(...)`, ops record no tape and write their larger results
into arrays that the calling thread keeps from one call to the next, so a
repeated tape-free forward of one shape touches no fresh pages.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import sys
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import expit, ndtr

# logit of a masked key: its exp underflows to exactly 0
NEG_INF = -1e30
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# row counts of one key whose arrays a workspace keeps: a full tile and the
# last partial one
_WORKSPACE_ROW_COUNTS = 2


class Workspace:
    """Flat buffers that tape-free ops write their results into.

    `empty` hands out the smallest pooled buffer that is large enough and
    that nothing outside the pool refers to any more (no Tensor, view or
    local), as a view of the requested shape, or else a new buffer. So a
    buffer in use is never overwritten, and the pool grows to about one
    call's live set, not to every array the call allocates. Pools are kept
    per key and row count; see `use`.
    """

    def __init__(self):
        self.key = None
        self.pools: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        self.sizes: list[int] = []  # of the current pool's buffers, ascending
        self.buffers: list[np.ndarray] = []

    def use(self, key, rows: int) -> None:
        """Draw from the pool of `rows`-row calls under `key`. A new key drops
        every pool; under one key only the pools of the last two row counts
        are kept."""
        if key != self.key:
            self.key, self.pools = key, {}
        self.pools[rows] = self.sizes, self.buffers = self.pools.pop(rows, ([], []))
        if len(self.pools) > _WORKSPACE_ROW_COUNTS:
            del self.pools[next(iter(self.pools))]

    def empty(self, shape: tuple) -> np.ndarray:
        size, buffers = math.prod(shape), self.buffers
        first = bisect.bisect_left(self.sizes, size)
        for i in range(first, len(buffers)):
            # the pool's reference and getrefcount's argument: nothing else
            if sys.getrefcount(buffers[i]) == 2:
                return buffers[i][:size].reshape(shape)
        self.sizes.insert(first, size)
        buffers.insert(first, np.empty(size))
        return buffers[first].reshape(shape)

    def like(self, a: np.ndarray) -> np.ndarray | None:
        """An array for an elementwise result of `a`, in the memory order
        numpy would give it (C, or C with the last two axes swapped, as for
        a swapaxes view); None for any other order, which numpy allocates."""
        if a.flags.c_contiguous:
            return self.empty(a.shape)
        if a.ndim >= 2 and a.swapaxes(-1, -2).flags.c_contiguous:
            return self.empty(a.swapaxes(-1, -2).shape).swapaxes(-1, -2)
        return None

    def broadcast(self, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        """An array for an elementwise result of x and y when numpy would
        give it C order: both operands are C-contiguous, or one of them is
        and has the result's shape. None otherwise."""
        shape = x.shape if x.shape == y.shape else np.broadcast(x, y).shape
        if x.flags.c_contiguous and (y.flags.c_contiguous or x.shape == shape):
            return self.empty(shape)
        if y.flags.c_contiguous and y.shape == shape:
            return self.empty(shape)
        return None

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """An array for x @ y, which numpy gives C order."""
        batch = x.shape[:-2]
        if y.ndim > 2 and y.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, y.shape[:-2])
        return self.empty(batch + (x.shape[-2], y.shape[-1]))


class _ThreadState(threading.local):
    """Per-thread switches, so concurrent fits and tape-free forwards cannot
    interfere: whether ops record a tape, this thread's workspace (built on
    its first `workspace` block) and whether ops write into it now."""

    def __init__(self):
        self.grad_enabled = True
        self.workspace: Workspace | None = None
        self.active: Workspace | None = None


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


@contextlib.contextmanager
def workspace(key, rows: int):
    """Record no tape inside the with-block, and write op results into this
    thread's workspace, drawing from its pool for `rows`-row calls under
    `key` (see `Workspace.use`). The arrays are reused by later blocks on
    this thread, so a result that must outlive the block is copied out."""
    ws = _STATE.workspace
    if ws is None:
        ws = _STATE.workspace = Workspace()
    ws.use(key, rows)
    prev = _STATE.active
    _STATE.active = ws
    try:
        with no_grad():
            yield
    finally:
        _STATE.active = prev


def _copy(a: np.ndarray, ws: Workspace | None) -> np.ndarray:
    """A C-contiguous copy of `a`, into an array of `ws` if there is one."""
    if ws is None:
        return a.copy()
    out = ws.empty(a.shape)
    out[...] = a
    return out


def _contiguous(a: np.ndarray, ws: Workspace | None) -> np.ndarray:
    """np.ascontiguousarray(a), copying into an array of `ws` if needed."""
    return a if a.flags.c_contiguous else _copy(a, ws)


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
    ws = _STATE.active
    data = a.data + b.data if ws is None else np.add(a.data, b.data, out=ws.broadcast(a.data, b.data))
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    ws = _STATE.active
    data = a.data * b.data if ws is None else np.multiply(a.data, b.data, out=ws.broadcast(a.data, b.data))
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    ws = _STATE.active
    data = a.data @ b.data if ws is None else np.matmul(a.data, b.data, out=ws.matmul(a.data, b.data))

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
    ws = _STATE.active
    data = x.data @ w.data if ws is None else np.matmul(x.data, w.data, out=ws.matmul(x.data, w.data))
    data += b.data

    def vjp(g):
        gx = _matmul_to(g, w.data.swapaxes(-1, -2), x.data.shape)
        gw = _matmul_to(x.data.swapaxes(-1, -2), g, w.data.shape)
        return gx, gw, _unbroadcast(g, b.data.shape)

    return _node(data, (x, w, b), vjp)


def layer_norm(x, scale, shift, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * scale + shift over the last axis, as one node."""
    x, scale, shift = _ensure(x), _ensure(scale), _ensure(shift)
    xd, ws = x.data, _STATE.active
    mean = xd.mean(axis=-1, keepdims=True)
    centered = xd - mean if ws is None else np.subtract(xd, mean, out=ws.like(xd))
    square = centered * centered if ws is None else np.multiply(centered, centered, out=ws.like(xd))
    std = np.sqrt(square.mean(axis=-1, keepdims=True) + eps)
    del square  # so that a workspace can reuse it for xhat
    xhat = centered / std if ws is None else np.divide(centered, std, out=ws.like(xd))
    data = xhat * scale.data if ws is None else np.multiply(xhat, scale.data, out=ws.like(xd))
    data += shift.data

    def vjp(g):
        gx = g * scale.data
        gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        return gx / std, _unbroadcast(g * xhat, scale.data.shape), _unbroadcast(g, shift.data.shape)

    return _node(data, (x, scale, shift), vjp)


# -- elementwise nonlinearities ------------------------------------------


def sigmoid(a) -> Tensor:
    a, ws = _ensure(a), _STATE.active
    data = expit(a.data) if ws is None else expit(a.data, out=ws.like(a.data))
    return _node(data, (a,), lambda g: (g * data * (1.0 - data),))


def gelu(a) -> Tensor:
    """Exact x * Phi(x), Phi the standard normal CDF; not the tanh approximation."""
    a, ws = _ensure(a), _STATE.active
    x = a.data
    cdf = ndtr(x) if ws is None else ndtr(x, out=ws.like(x))
    data = x * cdf if ws is None else np.multiply(x, cdf, out=ws.like(x))

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _node(data, (a,), vjp)


def silu(a) -> Tensor:
    a, ws = _ensure(a), _STATE.active
    s = expit(a.data) if ws is None else expit(a.data, out=ws.like(a.data))
    data = a.data * s if ws is None else np.multiply(a.data, s, out=ws.like(a.data))

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
    data = _contiguous(flat.data.reshape(b, n, heads, width // heads).transpose(0, 2, 1, 3), _STATE.active)
    return _node(data, (flat,), lambda g: (g.transpose(0, 2, 1, 3).reshape(b, n, width),))


def merge_heads(t) -> Tensor:
    """(B, H, N, Dh) -> C-contiguous (B, N, H*Dh), the inverse of split_heads."""
    t = _ensure(t)
    b, h, n, dh = t.data.shape
    data = _contiguous(t.data.transpose(0, 2, 1, 3), _STATE.active).reshape(b, n, h * dh)
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

    t: (B, H, N, Dh); idx: int array (M, L) of token positions in [0, N),
    which the caller guarantees: an index outside is clipped, not rejected.
    Returns a C-contiguous (B, H, M, L, Dh) with out[b,h,m,j] = t[b,h,idx[m,j]].
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    B, H, N, Dh = t.data.shape
    ws = _STATE.active
    # "clip" because `take` buffers `out` in its default "raise" mode
    out = None if ws is None else ws.empty((B, H) + idx.shape + (Dh,))
    data = t.data.take(idx, axis=2, out=out, mode="clip")

    def vjp(g):
        onehot = (np.arange(N)[:, None] == idx.reshape(-1)).astype(np.float64)  # (N, M*L)
        return (onehot @ g.reshape(B, H, -1, Dh),)

    return _node(data, (t,), vjp)


def gather_selected(t, idx: np.ndarray) -> Tensor:
    """Gather per-sample, per-query token positions, shared across heads.

    t: (B, H, N, Dh); idx: int array (B, T, S) of token positions in [0, N)
    for each of T queries, as in `gather_blocks` guaranteed by the caller.
    Returns a C-contiguous (B, H, T, S, Dh) with
    out[b,h,t,s] = t[b,h,idx[b,t,s]]: one `take` of Dh-wide rows at flat
    offsets (b*H + h)*N + idx[b,t,s] of the contiguous (B*H*N, Dh) layout.
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    B, H, N, Dh = t.data.shape
    _, T, S = idx.shape
    offsets = (np.arange(B)[:, None] * H + np.arange(H)) * N  # (B, H)
    rows = np.ascontiguousarray(t.data).reshape(B * H * N, Dh)
    ws = _STATE.active
    out = None if ws is None else ws.empty((B, H, T, S, Dh))
    data = rows.take(offsets[:, :, None, None] + idx[:, None], axis=0, out=out, mode="clip")

    def vjp(g):
        onehot = (np.arange(N)[:, None] == idx.reshape(B, 1, 1, T * S)).astype(np.float64)  # (B, 1, N, T*S)
        return (onehot @ g.reshape(B, H, T * S, Dh),)

    return _node(data, (t,), vjp)


# -- softmax attention ----------------------------------------------------


def _masked_softmax(logits: np.ndarray, valid: np.ndarray | None, ws: Workspace | None) -> np.ndarray:
    """Softmax over the last axis without the keys outside `valid`, computed
    in place in `logits`, which the caller must own; a row with no valid key
    is all zeros. Max and sum run over slices of the last axis, which beats
    numpy's reductions along a short axis severalfold."""
    if valid is not None:
        np.copyto(logits, NEG_INF, where=~valid)
    top = _copy(logits[..., 0], ws)
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j], out=top)
    logits -= top[..., None]
    e = np.exp(logits, out=logits)
    total = _copy(e[..., 0], ws)
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
    kt, ws = k.data.swapaxes(-1, -2), _STATE.active
    logits = q.data @ kt if ws is None else np.matmul(q.data, kt, out=ws.matmul(q.data, kt))
    logits *= scale
    p = _masked_softmax(logits, valid, ws)

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
    ws = _STATE.active
    qd, kd, vd = (_contiguous(t.data, ws) for t in (q, keys, values))
    scale = 1.0 / np.sqrt(qd.shape[-1])
    logits = np.einsum("...d,...sd->...s", qd, kd, out=None if ws is None else ws.empty(kd.shape[:-1]))
    logits *= scale
    p = _masked_softmax(logits, valid, ws)
    out = np.einsum("...s,...sd->...d", p, vd, out=None if ws is None else ws.empty(qd.shape))

    def vjp(g):
        g = np.ascontiguousarray(g)
        dp = np.einsum("...d,...sd->...s", g, vd)
        ds = p * (dp - np.einsum("...d,...d->...", g, out)[..., None]) * scale
        gq = np.einsum("...s,...sd->...d", ds, kd)
        return gq, np.einsum("...s,...d->...sd", ds, qd), np.einsum("...s,...d->...sd", p, g)

    return _node(out, (q, keys, values), vjp), p
