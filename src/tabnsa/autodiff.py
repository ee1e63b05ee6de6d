"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor records the operations that produced it; backward() walks the tape
in reverse topological order and accumulates gradients into .grad. Only the
primitives needed by this package are provided.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

# per-thread so concurrent fits and no-grad evaluations cannot interfere
_GRAD_STATE = threading.local()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the with-block."""
    prev = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


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
            for parent, pg in zip(node._parents, node._backward(node.grad)):
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

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, p):
        return power(self, p)

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


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    if _grad_enabled() and any(p.requires_grad for p in parents):
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


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data / b.data
    return _node(
        data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def power(a, p: float) -> Tensor:
    a = _ensure(a)
    p = float(p)
    data = a.data**p
    return _node(data, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


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


# -- elementwise nonlinearities ------------------------------------------


def exp(a) -> Tensor:
    a = _ensure(a)
    data = np.exp(a.data)
    return _node(data, (a,), lambda g: (g * data,))


def log(a) -> Tensor:
    a = _ensure(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = _ensure(a)
    data = np.sqrt(a.data)
    return _node(data, (a,), lambda g: (g * 0.5 / data,))


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    data = _sigmoid(a.data)
    return _node(data, (a,), lambda g: (g * data * (1.0 - data),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gelu(a) -> Tensor:
    """Exact Gaussian-error-function form, not the tanh approximation."""
    a = _ensure(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _node(data, (a,), vjp)


def silu(a) -> Tensor:
    a = _ensure(a)
    s = _sigmoid(a.data)
    data = a.data * s

    def vjp(g):
        return (g * s * (1.0 + a.data * (1.0 - s)),)

    return _node(data, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - inner),)

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

    t: (B, H, N, Dh); idx: int array (M, L) of token positions.
    Returns (B, H, M, L, Dh) with out[b,h,m,j] = t[b,h,idx[m,j]].
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    data = t.data[:, :, idx, :]
    B, H, N, Dh = t.data.shape

    def vjp(g):
        onehot = (np.arange(N)[:, None] == idx.reshape(-1)).astype(np.float64)  # (N, M*L)
        return (onehot @ g.reshape(B, H, -1, Dh),)

    return _node(data, (t,), vjp)


def gather_selected(t, idx: np.ndarray) -> Tensor:
    """Gather per-sample, per-query token positions, shared across heads.

    t: (B, H, N, Dh); idx: int array (B, T, S) of token positions for each of
    T queries. Returns (B, H, T, S, Dh) with out[b,h,t,s] = t[b,h,idx[b,t,s]].
    """
    t = _ensure(t)
    idx = np.asarray(idx, dtype=np.intp)
    B, H, N, Dh = t.data.shape
    data = t.data[np.arange(B)[:, None, None, None], np.arange(H)[None, :, None, None], idx[:, None]]

    def vjp(g):
        onehot = np.arange(N)[:, None] == idx.reshape(B, 1, 1, -1)  # (B, 1, N, T*S)
        return (onehot.astype(np.float64) @ g.reshape(B, H, -1, Dh),)

    return _node(data, (t,), vjp)
