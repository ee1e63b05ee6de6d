"""Losses and the trainer over the flat parameter-dict representation.

`fit` is the one driver. It early-stops on validation loss and restores the
best-validation-loss weights; between validations it runs epochs of the
configured optimizer: a seeded shuffled mini-batch pass of AdamW (decoupled
weight decay), or one accepted step of full-batch L-BFGS (scipy's L-BFGS-B
with its strong-Wolfe line search). The target picks the loss:
class-weighted cross-entropy for a label, MSE for a number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .data import DatasetSplit, FeatureMatrix, LabelVector, class_weights
from .model import ModelConfig, forward

OPTIMIZERS = ("adamw", "lbfgs")


class NanLossError(RuntimeError):
    """Training aborted because a mini-batch loss went non-finite, or, with
    no batch index, because no epoch up to `epoch` had a finite validation
    loss."""

    def __init__(self, epoch: int, batch_index: int | None = None):
        if batch_index is None:
            message = f"non-finite validation loss in every epoch through epoch {epoch}"
        else:
            message = f"non-finite training loss at epoch {epoch}, batch {batch_index}"
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass(frozen=True)
class AdamWConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


@dataclass(frozen=True)
class LBFGSConfig:
    history: int = 10
    max_line_search: int = 25
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.history < 1:
            raise ValueError("history must be >= 1")
        if self.max_line_search < 1:
            raise ValueError("max_line_search must be >= 1")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adamw"
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    adamw: AdamWConfig = field(default_factory=AdamWConfig)
    lbfgs: LBFGSConfig = field(default_factory=LBFGSConfig)

    def __post_init__(self):
        # accept dict forms so configs survive a JSON round trip
        if isinstance(self.adamw, dict):
            object.__setattr__(self, "adamw", AdamWConfig(**self.adamw))
        if isinstance(self.lbfgs, dict):
            object.__setattr__(self, "lbfgs", LBFGSConfig(**self.lbfgs))
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}")
        # lr = 0 stays legal as the degenerate no-op step
        if not (0.0 <= self.lr < 1.0):
            raise ValueError("lr must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list
    val_loss: list
    val_metric: list
    best_epoch: int  # 1-based epoch whose weights were returned
    stopped_early: bool

    def __post_init__(self):
        if not (len(self.train_loss) == len(self.val_loss) == len(self.val_metric)):
            raise ValueError("history columns must have equal length")
        if self.train_loss and not (1 <= self.best_epoch <= len(self.train_loss)):
            raise ValueError("best_epoch out of range")

    def to_jsonl(self) -> str:
        def clean(v):
            return float(v) if np.isfinite(v) else None

        lines = []
        for i, (tl, vl, vm) in enumerate(zip(self.train_loss, self.val_loss, self.val_metric), start=1):
            rec = {"epoch": i, "train_loss": clean(tl), "val_loss": clean(vl), "val_metric": clean(vm)}
            lines.append(json.dumps(rec, sort_keys=True))
        return "".join(line + "\n" for line in lines)


# -- losses --------------------------------------------------------------------


def weighted_cross_entropy(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean over the batch of w_{y_b} * (-log softmax(logits_b)[y_b]), as one node.

    The log-sum-exp is shifted by the per-row max (held constant) so the
    loss and its gradient stay finite for any finite logits. The gradient
    is the closed form w_{y_b}/B * (softmax(logits_b) - onehot(y_b)),
    evaluated in the order the composed exp/sum/log/gather graph would.
    """
    if not np.isfinite(logits.data).all():
        raise ValueError("non-finite logits")
    labels = np.asarray(labels, dtype=np.intp)
    b, c = logits.shape
    if b == 0:
        raise ValueError("empty batch has no defined loss")
    if labels.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label outside [0, num_classes)")
    row_weight = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (c,):
            raise ValueError(f"expected {c} class weights, got shape {w.shape}")
        row_weight = w[labels]
    rows = np.arange(b)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    nll = np.log(total) - z[rows, labels]
    if row_weight is not None:
        nll = nll * row_weight
    data = nll.mean()

    def vjp(g):
        gn = np.broadcast_to(g, (b,)) / b
        if row_weight is not None:
            gn = gn * row_weight
        gz = (gn / total)[:, None] * e
        gz[rows, labels] -= gn
        return (gz,)

    return ad._node(data, (logits,), vjp)


def mse_loss(pred: Tensor, targets) -> Tensor:
    """Mean squared error; gradient w.r.t. pred is 2(pred - y)/B."""
    t = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(pred.data).all() or not np.isfinite(t).all():
        raise ValueError("non-finite prediction or target")
    if pred.ndim == 2 and pred.shape[1] == 1:
        pred = pred.reshape((pred.shape[0],))
    if pred.shape != t.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {t.shape}")
    diff = pred - Tensor(t)
    return (diff * diff).mean()


def grad_or_zero(p: Tensor) -> np.ndarray:
    """Unused parameters carry no gradient entry; treat that as zero."""
    return np.zeros_like(p.data) if p.grad is None else p.grad


# -- optimizers ------------------------------------------------------------------


class AdamW:
    """Adam moment estimates with decoupled weight decay:
    p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p).

    One step copies the gradients and parameters into persistent flat
    buffers, updates them in place in chunks of `CHUNK` elements, then
    writes the parameters back into each `p.data` in place. Each element
    sees the same float operations, in the same order, as a per-parameter
    loop. A step allocates nothing parameter-sized: the moments, the flat
    gradient and parameter buffers and the chunk scratch are one zeroed
    block made here."""

    CHUNK = 32768

    def __init__(self, params: dict[str, Tensor], lr: float, cfg: AdamWConfig | None = None):
        self.params = params
        self.lr = float(lr)
        self.cfg = cfg or AdamWConfig()
        self.t = 0
        n = sum(p.data.size for p in params.values())
        c = min(n, self.CHUNK)
        block = np.zeros(4 * n + 2 * c)
        self.m, self.v, self._grad, self._flat = block[:4 * n].reshape(4, n)
        self._scratch = block[4 * n:].reshape(2, c)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2, eps, wd, lr = self.cfg.beta1, self.cfg.beta2, self.cfg.eps, self.cfg.weight_decay, self.lr
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        ad.flatten((grad_or_zero(p) for p in self.params.values()), out=self._grad)
        ad.flatten((p.data for p in self.params.values()), out=self._flat)
        for lo in range(0, self._flat.size, self.CHUNK):
            hi = lo + self.CHUNK
            m, v, g, x = self.m[lo:hi], self.v[lo:hi], self._grad[lo:hi], self._flat[lo:hi]
            t1, t2 = self._scratch[:, :x.size]
            m *= b1  # m = b1 * m + (1 - b1) * g
            m += np.multiply(g, 1.0 - b1, out=t1)
            v *= b2  # v = b2 * v + (1 - b2) * g * g
            np.multiply(g, 1.0 - b2, out=t1)
            v += np.multiply(t1, g, out=t1)
            np.sqrt(np.divide(v, c2, out=t2), out=t2)  # sqrt(v_hat)
            t2 += eps
            np.divide(np.divide(m, c1, out=t1), t2, out=t1)  # m_hat / (sqrt(v_hat) + eps)
            t1 += np.multiply(x, wd, out=t2)
            x -= np.multiply(t1, lr, out=t1)
        ad.unflatten(self.params, self._flat)


class EarlyStopper:
    """Strict-improvement tracking with a snapshot of the best weights."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = 0
        self.bad_epochs = 0
        self.snapshot: np.ndarray | None = None  # flat parameter vector

    def update(self, epoch: int, val_loss: float, params: dict[str, Tensor]) -> bool:
        """Record this epoch; True means patience is exhausted."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            self.snapshot = ad.flatten(p.data for p in params.values())
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience

    def restore(self, params: dict[str, Tensor]) -> None:
        if self.snapshot is not None:
            ad.unflatten(params, self.snapshot)


# -- shared fit plumbing ---------------------------------------------------------


def _loss_tensor(logits: Tensor, labels: LabelVector, rows, weights) -> Tensor:
    if labels.task == "regression":
        return mse_loss(logits, labels.labels[rows])
    return weighted_cross_entropy(logits, labels.labels[rows], weights)


def _softmax_np(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(params: dict, model_cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """(B, C) class probabilities, no gradient tracking."""
    with ad.no_grad():
        logits = forward(x, params, model_cfg)
    return _softmax_np(logits.data)


def predict_values(params: dict, model_cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """(B,) regression predictions, no gradient tracking."""
    with ad.no_grad():
        out = forward(x, params, model_cfg)
    return out.data.reshape(-1)


def evaluation_report(params: dict, model_cfg: ModelConfig, x: FeatureMatrix, labels: LabelVector):
    """Score encoded rows against their labels: a regression report for a
    regression model, else a classification report from class probabilities."""
    if model_cfg.regression:
        return metrics.regression_report(predict_values(params, model_cfg, x.values), labels.labels)
    probs = predict_proba(params, model_cfg, x.values)
    return metrics.classification_report(probs, labels.labels, model_cfg.num_classes)


def evaluate_loss_metric(params, model_cfg, x, labels: LabelVector, weights):
    """Validation loss plus the task metric (AUC for binary, macro-F1 for
    multi-class, RMSE for regression). Non-finite logits yield an infinite
    loss so the caller's early stopping can react instead of crashing."""
    with ad.no_grad():
        logits = forward(x, params, model_cfg)
    z = logits.data
    if not np.isfinite(z).all():
        return np.inf, float("nan")
    rows = np.arange(x.shape[0])
    with ad.no_grad():
        loss = float(_loss_tensor(logits, labels, rows, weights).item())
    if labels.task == "regression":
        metric = metrics.rmse(z.reshape(-1), labels.labels)
    elif labels.num_classes == 2:
        if np.unique(labels.labels).size < 2:
            metric = float("nan")
        else:
            metric = metrics.roc_auc(_softmax_np(z)[:, 1], labels.labels)
    else:
        metric = metrics.macro_f1(z.argmax(axis=1), labels.labels, labels.num_classes)
    return loss, metric


# -- the driver ------------------------------------------------------------------


def _check_model_shape(model_cfg: ModelConfig, split: DatasetSplit) -> None:
    derived = split.model_shape()
    # regression first: a task mismatch also changes the output width
    built = {
        "regression": model_cfg.regression,
        "num_tokens": model_cfg.num_tokens,
        "num_classes": model_cfg.output_dim,
    }
    for name, value in built.items():
        if value != derived[name]:
            raise ValueError(f"model {name} is {value!r} but the training data needs {derived[name]!r}")


def _batch_loss(params, model_cfg, x, y, rows, weights) -> Tensor | None:
    """The loss on `rows` (features `x`), or None on divergence: non-finite
    logits or loss. Any other error is the caller's and propagates."""
    logits = forward(x, params, model_cfg)
    if not np.isfinite(logits.data).all():
        return None
    loss = _loss_tensor(logits, y, rows, weights)
    return loss if np.isfinite(loss.item()) else None


def _adamw_step(opt: AdamW, params, model_cfg, x, y, rows, weights) -> float | None:
    """One AdamW step on `rows`; returns the batch loss, or None on
    divergence. The step's tape is unreachable once this returns, so no
    two steps' graphs are ever alive together."""
    loss = _batch_loss(params, model_cfg, x, y, rows, weights)
    if loss is None:
        return None
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.item())


def _adamw_epochs(params, model_cfg, x, y, weights, cfg: TrainConfig, end_epoch) -> None:
    """One seeded shuffled mini-batch pass per epoch."""
    opt = AdamW(params, cfg.lr, cfg.adamw)
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        running = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            rows = perm[start:start + cfg.batch_size]
            loss = _adamw_step(opt, params, model_cfg, x[rows], y, rows, weights)
            if loss is None:
                raise NanLossError(epoch, bi)
            running += loss * rows.size
        if end_epoch(epoch, running / n):
            return


class _NonFiniteProbe(Exception):
    """A full-batch loss probe went non-finite."""


def _lbfgs_epochs(params, model_cfg, x, y, weights, cfg: TrainConfig, end_epoch) -> None:
    """One accepted full-batch step of scipy's L-BFGS-B per epoch. A
    non-finite loss before the first accepted step is divergence in the
    first batch of epoch 1; after it, such a loss just ends training."""
    from scipy import optimize  # only L-BFGS fits pay for importing it

    rows = np.arange(x.shape[0])
    epochs = 0

    def closure(vec):
        ad.unflatten(params, vec)
        for p in params.values():
            p.grad = None
        loss = _batch_loss(params, model_cfg, x, y, rows, weights)
        if loss is None:
            raise _NonFiniteProbe
        loss.backward()
        return float(loss.item()), ad.flatten(grad_or_zero(p) for p in params.values())

    def on_step(intermediate_result):
        nonlocal epochs
        epochs += 1
        ad.unflatten(params, intermediate_result.x)
        if end_epoch(epochs, float(intermediate_result.fun)):
            raise StopIteration

    lbfgs = cfg.lbfgs
    options = {
        "maxcor": lbfgs.history,
        "maxls": lbfgs.max_line_search,
        "gtol": lbfgs.tolerance,
        "ftol": 0.0,  # no stop on a small relative decrease
        "maxiter": cfg.max_epochs,
        # scipy's default cap of 15000 evaluations would end a long fit silently
        "maxfun": cfg.max_epochs * (lbfgs.max_line_search + 1),
    }
    x0 = ad.flatten(p.data for p in params.values())
    try:
        optimize.minimize(closure, x0, jac=True, method="L-BFGS-B", callback=on_step, options=options)
    except _NonFiniteProbe:
        if epochs == 0:
            raise NanLossError(1, 0) from None


def fit(params: dict, model_cfg: ModelConfig, split: DatasetSplit, cfg: TrainConfig):
    """Train with `cfg.optimizer`, validating after each epoch; returns
    (params, TrainHistory) with the best-validation-loss weights restored in
    place. Training stops after `cfg.max_epochs` epochs, after `cfg.patience`
    epochs without strict improvement, or when L-BFGS stops: its largest
    absolute gradient entry falls to `cfg.lbfgs.tolerance`, its line search
    finds no step, or a probe's loss goes non-finite after the first epoch."""
    _check_model_shape(model_cfg, split)
    x_tr, y_tr = split.train[0].values, split.train[1]
    x_va, y_va = split.val[0].values, split.val[1]
    weights = class_weights(y_tr) if y_tr.task == "classification" else None
    stopper = EarlyStopper(cfg.patience)
    train_hist, val_hist, metric_hist = [], [], []

    def end_epoch(epoch: int, train_loss: float) -> bool:
        """Validate the weights after `epoch`; True means stop."""
        val_loss, val_metric = evaluate_loss_metric(params, model_cfg, x_va, y_va, weights)
        train_hist.append(train_loss)
        val_hist.append(val_loss)
        metric_hist.append(val_metric)
        return stopper.update(epoch, val_loss, params)

    run_epochs = _lbfgs_epochs if cfg.optimizer == "lbfgs" else _adamw_epochs
    run_epochs(params, model_cfg, x_tr, y_tr, weights, cfg, end_epoch)
    if train_hist and stopper.best_epoch == 0:
        raise NanLossError(len(train_hist))
    stopper.restore(params)
    stopped = stopper.bad_epochs >= cfg.patience
    return params, TrainHistory(train_hist, val_hist, metric_hist, stopper.best_epoch, stopped)
