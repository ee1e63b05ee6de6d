"""Training tests: loss closed forms, optimizer update algebra, early
stopping, the mini-batch driver, and full-batch L-BFGS fits."""

import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_param_check
from loss_oracle import composed_weighted_cross_entropy
from tabnsa import autodiff as ad
from tabnsa import forking, hyperopt, model, training
from tabnsa.autodiff import Tensor
from tabnsa.data import DatasetSplit, FeatureMatrix, LabelVector, class_weights, make_two_gaussians
from tabnsa.model import TILE_ROWS, ModelConfig, forward, init_model_params
from tabnsa.nsa_attention import NSAConfig
from tabnsa.training import (
    AdamW,
    AdamWConfig,
    EarlyStopper,
    LBFGSConfig,
    NanLossError,
    TrainConfig,
    TrainHistory,
    evaluate_loss_metric,
    fit,
    grad_or_zero,
    mse_loss,
    weighted_cross_entropy,
)


def np_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ce_reference(z, labels, weights=None):
    """Straight-line numpy cross entropy for oracle comparisons."""
    p = np_softmax(z)
    nll = -np.log(p[np.arange(len(labels)), labels])
    if weights is not None:
        nll = nll * np.asarray(weights)[labels]
    return nll.mean()


class TestWeightedCrossEntropy:
    def test_uniform_logits_closed_form(self):
        logits = Tensor(np.zeros((3, 2)), requires_grad=True)
        loss = weighted_cross_entropy(logits, [0, 1, 0])
        assert abs(loss.item() - np.log(2.0)) < 1e-15
        loss4 = weighted_cross_entropy(Tensor(np.full((2, 4), 7.0)), [2, 3])
        assert abs(loss4.item() - np.log(4.0)) < 1e-15

    def test_confident_correct_loss_vanishes(self):
        z = np.array([[50.0, 0.0], [0.0, 50.0]])
        loss = weighted_cross_entropy(Tensor(z), [0, 1])
        assert 0.0 <= loss.item() < 1e-20

    def test_matches_numpy_reference_with_weights(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        w = np.array([2.0, 0.5, 1.25])
        loss = weighted_cross_entropy(Tensor(z), labels, w)
        assert abs(loss.item() - ce_reference(z, labels, w)) < 1e-12

    def test_closed_form_gradient(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        w = np.array([1.0, 2.0, 0.5, 3.0])
        logits = Tensor(z, requires_grad=True)
        weighted_cross_entropy(logits, labels, w).backward()
        onehot = np.eye(4)[labels]
        expect = (w[labels] / 5.0)[:, None] * (np_softmax(z) - onehot)
        assert np.allclose(logits.grad, expect, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        logits = Tensor(z.copy(), requires_grad=True)
        weighted_cross_entropy(logits, labels).backward()
        h = 1e-6
        for i in range(4):
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                num = (
                    weighted_cross_entropy(Tensor(zp), labels).item()
                    - weighted_cross_entropy(Tensor(zm), labels).item()
                ) / (2 * h)
                assert abs(logits.grad[i, j] - num) < 1e-6

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 5.0]])
        logits = Tensor(z, requires_grad=True)
        loss = weighted_cross_entropy(logits, [0, 0])
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.isfinite(logits.grad).all()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_fused_node_is_bit_identical_to_composed_ops(self, weighted):
        rng = np.random.default_rng(3 + weighted)
        for case in range(100):
            b, c = rng.integers(1, 40), rng.integers(2, 6)
            z = rng.uniform(-1.0, 1.0, size=(b, c)) * 10.0 ** rng.uniform(-2.0, np.log10(300.0))
            labels = rng.integers(0, c, size=b)
            w = rng.uniform(0.1, 3.0, size=c) if weighted else None
            results = []
            for loss_fn in (weighted_cross_entropy, composed_weighted_cross_entropy):
                logits = Tensor(z.copy(), requires_grad=True)
                loss = loss_fn(logits, labels, w)
                loss.backward()
                results.append((loss.data, logits.grad))
            (fused, fused_grad), (composed, composed_grad) = results
            np.testing.assert_array_equal(fused, composed, err_msg=f"case {case}")
            np.testing.assert_array_equal(fused_grad, composed_grad, err_msg=f"case {case}")

    def test_fused_node_is_one_tape_node_with_finite_difference_gradient(self):
        rng = np.random.default_rng(5)
        params = {"logits": Tensor(rng.normal(size=(6, 3)), requires_grad=True)}
        labels, w = rng.integers(0, 3, size=6), np.array([0.5, 2.0, 1.25])
        loss = weighted_cross_entropy(params["logits"], labels, w)
        assert loss._parents == (params["logits"],)
        fd_param_check(lambda: weighted_cross_entropy(params["logits"], labels, w), params, rng, samples=None,
                       h=1e-6, tol=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.array([[np.nan, 0.0]])), [0])
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.zeros((2, 2))), [0, 2])
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.zeros((0, 2))), [])
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], np.ones(3))


class TestMSELoss:
    def test_exact_match_is_zero(self):
        assert mse_loss(Tensor(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]).item() == 0.0

    def test_arithmetic_example(self):
        assert mse_loss(Tensor(np.array([1.0, 3.0])), [1.0, 1.0]).item() == 2.0

    def test_column_predictions_accepted(self):
        loss = mse_loss(Tensor(np.array([[1.0], [3.0]])), [1.0, 1.0])
        assert loss.item() == 2.0

    def test_closed_form_gradient(self):
        rng = np.random.default_rng(3)
        p, t = rng.normal(size=7), rng.normal(size=7)
        pred = Tensor(p.copy(), requires_grad=True)
        mse_loss(pred, t).backward()
        assert np.allclose(pred.grad, 2.0 * (p - t) / 7.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        p, t = rng.normal(size=5), rng.normal(size=5)
        pred = Tensor(p.copy(), requires_grad=True)
        mse_loss(pred, t).backward()
        h = 1e-6
        for i in range(5):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            num = (mse_loss(Tensor(pp), t).item() - mse_loss(Tensor(pm), t).item()) / (2 * h)
            assert abs(pred.grad[i] - num) < 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.array([np.inf])), [0.0])
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros(3)), [0.0, 0.0])


class TestBackwardContract:
    def test_untouched_parameters_read_as_zero_gradient(self):
        w = Tensor(np.ones(4), requires_grad=True)
        loss = (Tensor(np.full(3, 2.0)) * Tensor(np.ones(3))).sum()
        loss.backward()
        assert w.grad is None
        assert np.array_equal(grad_or_zero(w), np.zeros(4))

    def test_linear_regression_gradient_closed_form(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=9)
        w0 = rng.normal(size=(4, 1))
        w = Tensor(w0.copy(), requires_grad=True)
        mse_loss(Tensor(x) @ w, y).backward()
        expect = 2.0 * x.T @ ((x @ w0).ravel() - y) / 9.0
        assert np.allclose(w.grad, expect[:, None], atol=1e-12)


class TestAdamW:
    def test_single_step_closed_form(self):
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01)
        p.grad = np.array([0.3])
        opt.step()
        g, b1, b2, eps, wd = 0.3, 0.9, 0.999, 1e-8, 0.01
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expect = 0.7 - 0.01 * (m_hat / (np.sqrt(v_hat) + eps) + wd * 0.7)
        assert abs(p.data[0] - expect) < 1e-12

    def test_zero_betas_reduce_to_rms_scaled_sgd(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        cfg = AdamWConfig(beta1=0.0, beta2=0.0, weight_decay=0.0)
        opt = AdamW({"p": p}, lr=0.1, cfg=cfg)
        p.grad = np.array([-0.5])
        opt.step()
        expect = 2.0 - 0.1 * (-0.5 / (0.5 + 1e-8))
        assert abs(p.data[0] - expect) < 1e-15

    def test_decay_is_decoupled_from_gradient(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, cfg=AdamWConfig(weight_decay=0.5))
        p.grad = np.array([0.0])
        opt.step()
        assert abs(p.data[0] - 4.0 * (1.0 - 0.1 * 0.5)) < 1e-15

    def test_missing_gradient_applies_decay_only(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.2)
        opt.step()
        assert abs(p.data[0] - (1.0 - 0.2 * 0.01)) < 1e-15

    def test_five_steps_match_a_per_parameter_loop_bit_for_bit(self):
        self.check_against_per_parameter_loop({"w": (3, 4), "b": (4,), "unused": (2, 1, 3), "s": ()})

    def test_multi_chunk_steps_match_a_per_parameter_loop_bit_for_bit(self):
        # 2 full chunks and an uneven third; "w" and "unused" straddle chunk edges
        shapes = {"w": (300, 250), "b": (7,), "unused": (4, 1000), "s": ()}
        total = sum(int(np.prod(shape)) for shape in shapes.values())
        assert 2 * AdamW.CHUNK < total < 3 * AdamW.CHUNK
        self.check_against_per_parameter_loop(shapes)

    @staticmethod
    def check_against_per_parameter_loop(shapes):
        rng = np.random.default_rng(8)
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        cfg = AdamWConfig(beta1=0.8, beta2=0.95, eps=1e-6, weight_decay=0.1)
        opt = AdamW(params, lr=0.03, cfg=cfg)
        ref = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=shape) for k, shape in shapes.items() if k != "unused"}
            opt.zero_grad()
            for k, g in grads.items():
                params[k].grad = g.copy()
            opt.step()
            c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            for k in ref:
                g = grads.get(k, np.zeros_like(ref[k]))  # `unused` keeps .grad None
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v2[k] = cfg.beta2 * v2[k] + (1.0 - cfg.beta2) * g * g
                ref[k] -= 0.03 * ((m[k] / c1) / (np.sqrt(v2[k] / c2) + cfg.eps) + cfg.weight_decay * ref[k])
        assert params["unused"].grad is None
        for k in ref:
            assert params[k].data.shape == shapes[k]
            assert params[k].data.tobytes() == ref[k].tobytes(), k

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamWConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamWConfig(eps=0.0)
        with pytest.raises(ValueError):
            AdamWConfig(weight_decay=-0.1)


class TestEarlyStopper:
    def test_patience_rule_trace(self):
        params = {"w": Tensor(np.zeros(2), requires_grad=True)}
        stop = EarlyStopper(patience=2)
        outcomes = []
        for epoch, loss in enumerate([1.0, 0.9, 0.95, 0.97], start=1):
            params["w"].data[...] = epoch
            outcomes.append(stop.update(epoch, loss, params))
        assert outcomes == [False, False, False, True]
        assert stop.best_epoch == 2
        stop.restore(params)
        assert np.array_equal(params["w"].data, [2.0, 2.0])

    def test_equal_loss_is_not_improvement(self):
        stop = EarlyStopper(patience=2)
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        assert not stop.update(1, 0.5, params)
        assert not stop.update(2, 0.5, params)
        assert stop.update(3, 0.5, params)
        assert stop.best_epoch == 1


class TestTrainConfig:
    def test_bounds(self):
        TrainConfig(lr=0.0)  # degenerate no-op step stays constructible
        with pytest.raises(ValueError):
            TrainConfig(lr=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgd")
        with pytest.raises(ValueError):
            LBFGSConfig(history=-1)
        with pytest.raises(ValueError, match="history"):
            LBFGSConfig(history=0)  # scipy's L-BFGS-B needs at least one pair

    def test_history_validation_and_jsonl(self):
        hist = TrainHistory([1.0, 0.5], [1.1, 0.6], [0.7, float("nan")], 2, False)
        lines = hist.to_jsonl().strip().split("\n")
        assert [json.loads(s)["epoch"] for s in lines] == [1, 2]
        assert json.loads(lines[1])["val_metric"] is None
        assert json.loads(lines[0])["val_loss"] == 1.1
        with pytest.raises(ValueError):
            TrainHistory([1.0], [1.0, 2.0], [0.0], 1, False)
        with pytest.raises(ValueError):
            TrainHistory([1.0], [1.0], [0.0], 2, False)


def tiny_model_config(n_tokens=4, regression=False):
    nsa = NSAConfig(
        dim=8, heads=2, head_dim=4, window=3,
        compress_block=4, compress_stride=2, select_block=2, num_selected=2,
    )
    return ModelConfig(
        nsa=nsa, num_tokens=n_tokens,
        num_classes=1 if regression else 2, regression=regression, hidden_head=8,
    )


def make_split(x, y, task="classification", seed=0):
    n = len(y)
    tr = np.arange(0, int(0.7 * n))
    va = np.arange(int(0.7 * n), int(0.85 * n))
    te = np.arange(int(0.85 * n), n)
    fm = FeatureMatrix(np.asarray(x, dtype=np.float64), [f"f{i}" for i in range(x.shape[1])])
    if task == "classification":
        lv = LabelVector(np.asarray(y, dtype=np.int64), task, num_classes=2, class_names=["c0", "c1"])
    else:
        lv = LabelVector(np.asarray(y, dtype=np.float64), task)
    return DatasetSplit(
        (fm.take(tr), lv.take(tr)), (fm.take(va), lv.take(va)), (fm.take(te), lv.take(te)),
        seed, indices=(tr, va, te),
    )


class TestFitAdamW:
    def setup_method(self):
        x, y = make_two_gaussians(80, 4, seed=6)
        self.split = make_split(x, y)
        self.model_cfg = tiny_model_config()

    def run_fit(self, seed=7, **over):
        cfg_kw = {"lr": 5e-3, "batch_size": 32, "max_epochs": 20, "patience": 20, "seed": 1}
        cfg_kw.update(over)
        params = init_model_params(self.model_cfg, np.random.default_rng(seed))
        return fit(params, self.model_cfg, self.split, TrainConfig(**cfg_kw))

    def test_loss_decreases_and_metric_improves(self):
        params, hist = self.run_fit()
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.val_metric[hist.best_epoch - 1] >= 0.9

    def test_zero_lr_is_a_no_op(self):
        params = init_model_params(self.model_cfg, np.random.default_rng(8))
        before = {k: p.data.copy() for k, p in params.items()}
        _, hist = fit(
            params, self.model_cfg, self.split,
            TrainConfig(lr=0.0, batch_size=32, max_epochs=50, patience=3, seed=2),
        )
        for k, p in params.items():
            assert np.array_equal(p.data, before[k])
        assert len(set(hist.train_loss)) == 1
        assert len(set(hist.val_loss)) == 1
        assert hist.stopped_early
        assert hist.best_epoch == 1
        assert len(hist.train_loss) == 1 + 3  # first epoch improves over +inf, then patience runs out

    def test_deterministic_given_seed(self):
        p1, h1 = self.run_fit(seed=9)
        p2, h2 = self.run_fit(seed=9)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert h1.best_epoch == h2.best_epoch
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_nan_loss_aborts_with_batch_diagnostic(self):
        params = init_model_params(self.model_cfg, np.random.default_rng(10))
        params["embed.weight"].data[...] = np.nan
        with pytest.raises(NanLossError, match=r"epoch 1, batch 0"):
            fit(params, self.model_cfg, self.split, TrainConfig(batch_size=32, max_epochs=3, seed=3))

    @pytest.mark.parametrize("optimizer", ["adamw", "lbfgs"])
    @pytest.mark.parametrize("case", ["caller_bug", "infinite_start", "second_shard"])
    def test_only_non_finite_values_count_as_divergence(self, optimizer, case, monkeypatch, tmp_path):
        cfg = TrainConfig(optimizer=optimizer, batch_size=32, max_epochs=3, seed=3)
        if case == "caller_bug":
            # parameters of another model: forward's error propagates, it is not divergence
            other = dataclasses.replace(self.model_cfg, feature_id_embedding=False)
            with pytest.raises(ValueError, match="feature_id"):
                fit(init_model_params(other, np.random.default_rng(10)), self.model_cfg, self.split, cfg)
            return
        params = init_model_params(self.model_cfg, np.random.default_rng(10))
        split = self.split
        if case == "infinite_start":
            params["head.b2"].data[...] = np.inf
        else:
            # every step in two half-batch tapes, and one finite feature whose
            # logit overflows in the second half of the first batch only
            monkeypatch.setattr(training, "SHARD_FLOPS", 0)
            x, y = make_two_gaussians(80, 4, seed=6)  # the rows of self.split
            n = split.train[0].values.shape[0]  # its training rows are the first n
            batch = np.random.default_rng(cfg.seed).permutation(n)[:32] if optimizer == "adamw" else np.arange(n)
            x[batch[-1], 0] = 1e300
            split = make_split(x, y)
            log = tmp_path / "shards"  # one line per half, from whichever process ran it
            log.touch()
            caller, real_loss = os.getpid(), training._batch_loss

            def batch_loss(*args):
                loss = real_loss(*args)
                with open(log, "a") as fh:
                    fh.write(f"{'caller' if os.getpid() == caller else 'helper'} {loss is not None}\n")
                return loss

            monkeypatch.setattr(training, "_batch_loss", batch_loss)
        with pytest.raises(NanLossError, match=r"epoch 1, batch 0") as err:
            fit(params, self.model_cfg, split, cfg)
        assert (err.value.epoch, err.value.batch_index) == (1, 0)
        if case == "second_shard":
            # the first half's loss was finite; on two cores the helper ran the second
            second = "helper" if forking.usable_cores() > 1 else "caller"
            assert sorted(log.read_text().splitlines()) == sorted(["caller True", f"{second} False"])

    def test_returned_weights_reproduce_best_val_loss(self):
        params, hist = self.run_fit(seed=11, max_epochs=12, patience=4)
        y_tr = self.split.train[1]
        val_loss, _ = evaluate_loss_metric(
            params, self.model_cfg, self.split.val[0].values, self.split.val[1], class_weights(y_tr)
        )
        assert val_loss == hist.val_loss[hist.best_epoch - 1]
        assert hist.val_loss[hist.best_epoch - 1] == min(hist.val_loss)

    def test_early_stop_epoch_count(self):
        _, hist = self.run_fit(seed=12, max_epochs=200, patience=3)
        if hist.stopped_early:
            assert len(hist.val_loss) == hist.best_epoch + 3

    def test_model_shape_mismatch_rejected(self):
        # a classification model on numeric labels names the field before any
        # step, instead of failing the first loss as a NanLossError
        rng = np.random.default_rng(13)
        reg_split = make_split(rng.normal(size=(40, 4)), rng.normal(size=40), task="regression")
        three_way = dataclasses.replace(self.model_cfg, num_classes=3)
        params = init_model_params(self.model_cfg, np.random.default_rng(13))
        before = {k: p.data.copy() for k, p in params.items()}
        for optimizer in ("adamw", "lbfgs"):
            train_cfg = TrainConfig(optimizer=optimizer, max_epochs=2)
            with pytest.raises(ValueError, match="regression"):
                fit(params, self.model_cfg, reg_split, train_cfg)
            with pytest.raises(ValueError, match="num_tokens"):
                fit(params, tiny_model_config(n_tokens=5), self.split, train_cfg)
            with pytest.raises(ValueError, match="num_classes"):
                fit(init_model_params(three_way, np.random.default_rng(13)), three_way, self.split, train_cfg)
        for k, p in params.items():
            assert np.array_equal(p.data, before[k])

    @pytest.mark.parametrize("optimizer", ["adamw", "lbfgs"])
    def test_no_finite_validation_loss_raises_nan_loss(self, optimizer, monkeypatch):
        monkeypatch.setattr(training, "evaluate_loss_metric", lambda *a: (np.inf, float("nan")))
        params = init_model_params(self.model_cfg, np.random.default_rng(17))
        cfg = TrainConfig(optimizer=optimizer, lr=5e-3, max_epochs=6, patience=2, seed=3)
        with pytest.raises(NanLossError, match="validation loss") as err:
            fit(params, self.model_cfg, self.split, cfg)
        assert err.value.epoch == 2  # patience ran out after two non-finite epochs
        assert err.value.batch_index is None

    def test_clamped_selection_fits_silently_and_matches_explicit_count(self):
        # 4 tokens in selection blocks of 2 leave 2 blocks, so num_selected 4 clamps to 2
        explicit = tiny_model_config()
        with pytest.warns(UserWarning, match="clamping"):
            clamped = dataclasses.replace(explicit, nsa=dataclasses.replace(explicit.nsa, num_selected=4))
        runs = []
        for cfg in (explicit, clamped):
            params = init_model_params(cfg, np.random.default_rng(16))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(fit(params, cfg, self.split, TrainConfig(lr=5e-3, batch_size=16, max_epochs=3, seed=5)))
        (p1, h1), (p2, h2) = runs
        assert h1 == h2
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_regression_fit_runs_and_improves(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(60, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.05 * rng.normal(size=60)
        split = make_split(x, y, task="regression")
        cfg = tiny_model_config(regression=True)
        params = init_model_params(cfg, np.random.default_rng(15))
        _, hist = fit(params, cfg, split, TrainConfig(lr=5e-3, batch_size=16, max_epochs=15, patience=15, seed=4))
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert np.isfinite(hist.val_metric[-1])  # rmse recorded


class TestFitLBFGS:
    """`fit` with the lbfgs optimizer: one accepted step per epoch."""

    def test_full_batch_training_improves(self):
        x, y = make_two_gaussians(70, 4, seed=17)
        split = make_split(x, y)
        cfg = tiny_model_config()
        params = init_model_params(cfg, np.random.default_rng(18))
        _, hist = fit(
            params, cfg, split,
            TrainConfig(optimizer="lbfgs", max_epochs=30, patience=10, seed=5),
        )
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.val_metric[hist.best_epoch - 1] >= 0.9
        assert hist.best_epoch == int(np.argmin(hist.val_loss)) + 1

    def test_training_loss_decreases_every_epoch(self):
        x, y = make_two_gaussians(70, 4, seed=17)
        split = make_split(x, y)
        cfg = tiny_model_config()
        params = init_model_params(cfg, np.random.default_rng(18))
        x_tr, y_tr = split.train[0].values, split.train[1]
        rows = np.arange(x_tr.shape[0])
        start = training._batch_loss(params, cfg, x_tr, y_tr, rows, class_weights(y_tr)).item()
        _, hist = fit(params, cfg, split, TrainConfig(optimizer="lbfgs", max_epochs=15, patience=15, seed=5))
        assert len(hist.train_loss) == 15  # one accepted step per epoch, none skipped
        losses = [start] + hist.train_loss
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_non_finite_probe_after_first_epoch_ends_the_fit(self, monkeypatch):
        x, y = make_two_gaussians(70, 4, seed=17)
        split = make_split(x, y)
        cfg = tiny_model_config()
        validated = []  # one entry per epoch validated
        real_eval, real_loss = training.evaluate_loss_metric, training._batch_loss

        def counting_eval(*args):
            validated.append(True)
            return real_eval(*args)

        def poisoned_loss(*args):
            return None if len(validated) >= 3 else real_loss(*args)

        monkeypatch.setattr(training, "evaluate_loss_metric", counting_eval)
        monkeypatch.setattr(training, "_batch_loss", poisoned_loss)
        params = init_model_params(cfg, np.random.default_rng(18))
        _, hist = fit(params, cfg, split, TrainConfig(optimizer="lbfgs", max_epochs=30, patience=10, seed=5))
        assert len(hist.train_loss) == 3  # the poisoned probe records no epoch
        assert not hist.stopped_early
        assert all(np.isfinite(p.data).all() for p in params.values())
        val_loss, _ = real_eval(params, cfg, split.val[0].values, split.val[1], class_weights(split.train[1]))
        assert val_loss == hist.val_loss[hist.best_epoch - 1] == min(hist.val_loss)

    def test_deterministic(self):
        x, y = make_two_gaussians(50, 4, seed=19)
        split = make_split(x, y)
        cfg = tiny_model_config()
        runs = []
        for _ in range(2):
            params = init_model_params(cfg, np.random.default_rng(20))
            _, hist = fit(params, cfg, split, TrainConfig(optimizer="lbfgs", max_epochs=10, seed=6))
            runs.append((hist.train_loss, {k: p.data.copy() for k, p in params.items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k])


def benchmark_config(regression=False, heads=2, head_dim=8, compress_block=4):
    """15 tokens, fusion o: the benchmark's default geometry unless resized."""
    nsa = NSAConfig(
        dim=heads * head_dim, heads=heads, head_dim=head_dim, window=3,
        compress_block=compress_block, compress_stride=2, select_block=2, num_selected=2,
    )
    return ModelConfig(nsa=nsa, num_tokens=15, num_classes=1 if regression else 2, regression=regression)


def serial_tiles(x, params, cfg):
    """The tiled forward's reference: `_forward` on each TILE_ROWS slice in
    order on the calling thread, concatenated."""
    with ad.no_grad():
        tiles = [model._forward(x[i:i + TILE_ROWS], params, cfg).data for i in range(0, len(x), TILE_ROWS)]
    return np.concatenate(tiles)


TILE_CONFIGS = {
    "default": benchmark_config(),
    "mid": benchmark_config(False, 4, 24, 8),
    "fusion_m": dataclasses.replace(benchmark_config(), fusion="m"),
    "fusion_c": dataclasses.replace(benchmark_config(), fusion="c"),
    "fusion_r": dataclasses.replace(benchmark_config(), fusion="r"),
    "two_blocks": dataclasses.replace(benchmark_config(), num_blocks=2),
    "regression": benchmark_config(True),
}


@contextlib.contextmanager
def usable_cores(cores):
    """Run tiled forwards as if the process had `cores` usable cores, with a
    tile pool of their own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forking, "usable_cores", lambda: cores)
        mp.setattr(model, "_TILE_POOL", None)
        try:
            yield
        finally:
            if model._TILE_POOL is not None:
                model._TILE_POOL.shutdown()


class TestTiledInference:
    """A tape-free forward runs in tiles of TILE_ROWS rows, spread over one
    thread per usable core; a grad-mode forward over the same rows is one
    un-tiled pass."""

    @pytest.mark.parametrize("regression", [False, True], ids=["proba", "values"])
    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 300, 1024])
    def test_predictions_match_one_untiled_pass(self, rows, regression):
        cfg = benchmark_config(regression)
        params = init_model_params(cfg, 0)
        x = np.random.default_rng(rows).normal(size=(rows, 15))
        logits = forward(x, params, cfg).data  # grad mode: one pass
        predict = training.predict_values if regression else training.predict_proba
        got = predict(params, cfg, x)
        want = logits.reshape(-1) if regression else np_softmax(logits)
        assert got.shape == want.shape == ((rows,) if regression else (rows, 2))
        assert np.abs(got - want).max(initial=0.0) <= 1e-12
        assert np.array_equal(got, predict(params, cfg, x))

    @pytest.mark.parametrize("name", list(TILE_CONFIGS))
    def test_scores_are_bit_identical_to_the_serial_tile_loop(self, name):
        cfg = TILE_CONFIGS[name]
        params = init_model_params(cfg, 5)
        x = np.random.default_rng(6).normal(size=(2048, 15))
        for rows in (129, 300, 1000, 2048):
            want = serial_tiles(x[:rows], params, cfg)
            for cores in (1, 2, 3):
                with usable_cores(cores), ad.no_grad():
                    # the second request runs in the arrays the first left
                    got = [forward(x[:rows], params, cfg).data for _ in range(2)]
                    assert (model._TILE_POOL is None) == (cores == 1)
                assert np.array_equal(got[0], want) and np.array_equal(got[1], want), (rows, cores)

    def test_every_tile_runs_without_a_tape_on_a_pool_thread(self, monkeypatch):
        cfg = benchmark_config()
        params = init_model_params(cfg, 0)
        seen = []
        real = model._forward

        def spy(x, *args):
            out = real(x, *args)
            seen.append((threading.get_ident(), ad._grad_enabled(), out.requires_grad, out._parents))
            return out

        monkeypatch.setattr(model, "_forward", spy)
        x = np.random.default_rng(7).normal(size=(5 * TILE_ROWS + 3, 15))
        with usable_cores(2):
            probs = training.predict_proba(params, cfg, x)
        assert probs.shape == (x.shape[0], 2)
        assert len(seen) == 6
        assert {(grad, tape, parents) for _, grad, tape, parents in seen} == {(False, False, ())}
        assert threading.get_ident() not in {thread for thread, *_ in seen}
        assert ad._grad_enabled()

    def test_concurrent_callers_get_the_bytes_of_serial_calls(self):
        """More clients than cores share the one pool, with thread switches
        forced often."""
        cfg = benchmark_config()
        params = init_model_params(cfg, 8)
        xs = [np.random.default_rng(seed).normal(size=(1000, 15)) for seed in (9, 10, 11)]
        want = [training.predict_proba(params, cfg, x).tobytes() for x in xs]
        got = [[] for _ in xs]
        start = threading.Barrier(len(xs))

        def client(i):
            start.wait(timeout=60)
            for _ in range(3):
                got[i].append(training.predict_proba(params, cfg, xs[i]).tobytes())

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]

    def test_concurrent_callers_with_different_configs_get_the_serial_bytes(self):
        """Pool threads switch between two configs while both callers
        score."""
        cfgs = [TILE_CONFIGS["default"], TILE_CONFIGS["mid"]]
        params = [init_model_params(cfg, 12) for cfg in cfgs]
        x = np.random.default_rng(13).normal(size=(1000, 15))
        want = [serial_tiles(x, p, cfg) for p, cfg in zip(params, cfgs)]
        got = [[] for _ in cfgs]
        start = threading.Barrier(len(cfgs))

        def client(i):
            start.wait(timeout=60)
            for _ in range(3):
                with ad.no_grad():
                    got[i].append(forward(x, params[i], cfgs[i]).data)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with usable_cores(2):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(len(cfgs)):
            assert len(got[i]) == 3 and all(np.array_equal(g, want[i]) for g in got[i])

    def test_a_held_result_survives_the_next_request(self):
        cfg = benchmark_config()
        params = init_model_params(cfg, 14)
        x1, x2 = (np.random.default_rng(seed).normal(size=(1000, 15)) for seed in (15, 16))
        with usable_cores(2):
            probs = training.predict_proba(params, cfg, x1)
            with ad.no_grad():
                logits = forward(x1, params, cfg)
            kept = probs.copy(), logits.data.copy()
            training.predict_proba(params, cfg, x2)
            with ad.no_grad():
                forward(x2, params, cfg)
        assert np.array_equal(probs, kept[0]) and np.array_equal(logits.data, kept[1])

    @pytest.mark.parametrize("geometry", [(2, 8, 4), (4, 24, 8)], ids=["default", "mid"])
    def test_a_repeated_request_allocates_only_its_result(self, geometry):
        """Once the pool threads have run this config, a request of full
        tiles, and then one of full tiles and a partial one, leave nothing
        allocated when they return but their probabilities and at most
        16 KiB of bookkeeping (1.1-2.6 KiB measured): no tile array outlives
        its request. One 128-row tile's attention output alone is 240 KiB at
        the default geometry. The peak while the tiles run is bounded by
        `test_peak_memory_does_not_grow_with_the_request`."""
        allowance = 16 * 2**10
        cfg = benchmark_config(False, *geometry)
        params = init_model_params(cfg, 0)
        x = np.random.default_rng(17).normal(size=(8 * TILE_ROWS, 15))
        with usable_cores(2):
            for _ in range(3):
                training.predict_proba(params, cfg, x)
            for rows in (8 * TILE_ROWS, 300):
                tracemalloc.start()
                try:
                    probs = training.predict_proba(params, cfg, x[:rows])
                    held = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                assert held <= probs.nbytes + allowance, f"{rows} rows: {held} bytes held"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap reserve acts on glibc's malloc")
    def test_a_repeated_request_faults_in_no_fresh_pages(self):
        """With only numpy and tabnsa imported, a default-geometry request
        after three of 1024 rows, of 1024 rows and then of a full tile and a
        partial one, runs its tiles in pages that are already resident.
        Without the heap reserve each took thousands of minor faults."""
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from tabnsa import model, training
            from tabnsa.nsa_attention import NSAConfig

            assert "scipy.stats" not in sys.modules
            cfg = model.ModelConfig(nsa=NSAConfig(), num_tokens=15)
            params = model.init_model_params(cfg, 0)
            x = np.random.default_rng(17).normal(size=(1024, 15))
            for _ in range(3):
                training.predict_proba(params, cfg, x)
            faults = []
            for rows in (1024, 300):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                training.predict_proba(params, cfg, x[:rows])
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(*faults)
        """)
        src = str(Path(model.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=180)
        assert done.returncode == 0, done.stderr
        faults = dict(zip((1024, 300), map(int, done.stdout.split())))
        assert max(faults.values()) < 500, f"minor faults per request, by rows: {faults}"

    @pytest.mark.parametrize("row", [150, -1], ids=["middle_tile", "last_row"])
    def test_non_finite_feature_fails_before_any_tile_runs(self, row, monkeypatch):
        cfg = benchmark_config()
        params = init_model_params(cfg, 0)
        x = np.random.default_rng(3).normal(size=(300, 15))
        x[row, 4] = np.inf
        ran = []
        monkeypatch.setattr(model, "_forward", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="feature matrix contains non-finite values"):
            training.predict_proba(params, cfg, x)
        assert ran == []

    def test_forked_child_scores_with_a_pool_of_its_own(self):
        """A `fork` child inherits the parent's pool object but none of its
        threads; it must build its own and score the same bytes. On one
        core the tiles run on the forking thread."""
        template = textwrap.dedent("""
            import multiprocessing
            import numpy as np
            from tabnsa import forking, model, training
            from test_training import benchmark_config

            cores = {cores}
            forking.usable_cores = lambda: cores  # a pool even on one core
            cfg = benchmark_config()
            params = model.init_model_params(cfg, 0)
            x = np.random.default_rng(11).normal(size=(1000, 15))
            parent = training.predict_proba(params, cfg, x).tobytes()
            assert (model._TILE_POOL is None) == (cores == 1)

            def child(conn):
                conn.send((model._TILE_POOL is None, training.predict_proba(params, cfg, x).tobytes()))

            ctx = multiprocessing.get_context("fork")
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,))
            proc.start()
            answered = receive.poll(60)
            fresh_pool, scores = receive.recv() if answered else (None, None)
            proc.join(5)
            if proc.is_alive():
                proc.kill()
            print(answered, fresh_pool, scores == parent)
        """)
        src = str(Path(model.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
        for cores in (1, 2):
            script = template.replace("{cores}", str(cores))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=180)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["True", "True", "True"], cores

    def test_validation_loss_matches_one_untiled_pass(self):
        cfg = benchmark_config()
        params = init_model_params(cfg, 1)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(300, 15)), rng.integers(0, 2, size=300)
        labels = LabelVector(y, "classification", num_classes=2, class_names=["c0", "c1"])
        weights = np.array([0.8, 1.2])
        loss, _ = evaluate_loss_metric(params, cfg, x, labels, weights)
        want = weighted_cross_entropy(forward(x, params, cfg), y, weights).item()
        assert abs(loss - want) <= 1e-12

    def test_non_finite_feature_in_last_tile_is_rejected(self):
        cfg = benchmark_config()
        params = init_model_params(cfg, 0)
        x = np.random.default_rng(3).normal(size=(300, 15))
        x[-1, 4] = np.nan
        with pytest.raises(ValueError, match="feature matrix contains non-finite values"):
            training.predict_proba(params, cfg, x)

    @pytest.mark.parametrize("geometry", [(2, 8, 4), (4, 24, 8)], ids=["default", "mid"])
    def test_peak_memory_does_not_grow_with_the_request(self, geometry):
        """At most one tile per pool thread is in flight, so no request peaks
        above W one-tile peaks for W threads. A W-tile request reaches that
        only when its tiles overlap in time, so it is no stable baseline."""
        cfg = benchmark_config(False, *geometry)
        params = init_model_params(cfg, 0)
        workers = forking.usable_cores()
        sizes = (TILE_ROWS, 4 * TILE_ROWS) if workers == 1 else (TILE_ROWS, workers * TILE_ROWS, 16 * TILE_ROWS)
        x = np.random.default_rng(4).normal(size=(sizes[-1], 15))
        training.predict_proba(params, cfg, x[:2 * TILE_ROWS])  # builds the index plans and the pool
        peaks = []
        for rows in sizes:
            tracemalloc.start()
            try:
                training.predict_proba(params, cfg, x[:rows])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.1 * workers * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]


class TestOneTapePerStep:
    """An AdamW fit holds at most one step's graph at a time."""

    def test_step_graph_is_freed_before_the_next_forward(self, monkeypatch):
        x, y = make_two_gaussians(80, 4, seed=6)
        split = make_split(x, y)
        cfg = tiny_model_config()
        refs, alive_at_entry = [], []
        real_forward = training.forward

        def spy(*args, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in refs))
            logits = real_forward(*args, **kwargs)
            if logits.requires_grad:
                refs.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(training, "forward", spy)
        gc.disable()  # the graph must die by reference counting alone
        try:
            fit(init_model_params(cfg, 0), cfg, split, TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=1))
        finally:
            gc.enable()
        assert len(refs) == 2 * 4  # 56 training rows in batches of 16, two epochs
        assert alive_at_entry == [0] * len(alive_at_entry)

    def test_fit_peak_stays_within_two_tapes_at_the_mid_geometry(self):
        cfg = benchmark_config(False, 4, 24, 8)
        x, y = make_two_gaussians(200, 15, seed=3)
        split = make_split(x, y)
        x_tr, y_tr = split.train
        weights = class_weights(y_tr)
        params = init_model_params(cfg, 0)
        forward(x_tr.values[:64], params, cfg)  # builds the cached index plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = weighted_cross_entropy(forward(x_tr.values[:64], params, cfg), y_tr.labels[:64], weights)
            tape = tracemalloc.get_traced_memory()[0] - base
            del loss
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fit(params, cfg, split, TrainConfig(batch_size=64, max_epochs=2, patience=2, seed=1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tape > 20 * 2**20  # the mid geometry keeps tens of MiB per batch of 64
        assert peak <= 2.0 * tape, f"fit peak {peak / 2**20:.1f} MiB, one tape {tape / 2**20:.1f} MiB"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap reserve acts on glibc's malloc")
    def test_later_fits_reuse_resident_memory(self):
        """With only numpy and tabnsa imported, a fit after the first keeps
        its steps' tapes in pages that are already resident: without the
        heap reserve every step's tape is unmapped and faulted back in. The
        default geometry's steps shard, so on two cores each fit forks a
        helper, and the fit and its helper each copy the pages they write
        once after the fork; more epochs must add no faults in either."""
        script = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from tabnsa import data, model, training
            from tabnsa.nsa_attention import NSAConfig

            assert "scipy.stats" not in sys.modules
            x, y = data.make_two_gaussians(500, 15, seed=0)
            table = data.FeatureMatrix(x, [f"f{i}" for i in range(15)])
            labels = data.LabelVector(y, "classification", num_classes=2, class_names=["c0", "c1"])
            tr, va = np.arange(400), np.arange(400, 500)
            val = (table.take(va), labels.take(va))
            split = data.DatasetSplit((table.take(tr), labels.take(tr)), val, val, 0)
            cfg = model.ModelConfig(nsa=NSAConfig(), num_tokens=15)
            def faults():
                return [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

            counts = []
            for epochs in (3, 3, 6):
                params = model.init_model_params(cfg, 0)
                before = faults()
                training.fit(params, cfg, split, training.TrainConfig(max_epochs=epochs, patience=epochs))
                counts.append([after - b for after, b in zip(faults(), before)])
            print(*counts[1], *counts[2])
        """)
        src = str(Path(model.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=180)
        assert done.returncode == 0, done.stderr
        fit3, helper3, fit6, helper6 = map(int, done.stdout.split())
        assert fit6 - fit3 < 500, f"the second fit took {fit3} minor faults over 3 epochs, the third {fit6} over 6"
        assert helper6 - helper3 < 500, f"its helpers took {helper3} and {helper6}"


class TestShardedStep:
    """A step whose half batch reaches SHARD_FLOPS forward FLOPs runs as two
    half-batch tapes, the second on a helper process or inline; their
    size-weighted sum is one tape's loss and gradient up to rounding,
    wherever the shards run."""

    @staticmethod
    def batch(regression, rows, seed=21):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 4))
        if regression:
            return x, LabelVector(rng.normal(size=rows), "regression"), None
        labels = LabelVector(rng.integers(0, 2, rows), "classification", num_classes=2, class_names=["c0", "c1"])
        return x, labels, np.array([0.7, 1.6])

    @pytest.mark.parametrize("case", ["weighted_ce", "regression", "odd_batch"])
    def test_two_half_tapes_match_one_tape(self, case, monkeypatch):
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        regression = case == "regression"
        cfg = tiny_model_config(regression=regression)
        rows = 31 if case == "odd_batch" else 32
        x, y, weights = self.batch(regression, rows)
        params = init_model_params(cfg, 22)
        first = training._first_shard(cfg, rows)
        assert first == (rows + 1) // 2
        runs = []
        for shard in (rows, first):
            loss = training._loss_and_grads(params, cfg, x, y, np.arange(rows), weights, shard)
            runs.append((loss, ad.flatten(grad_or_zero(p) for p in params.values())))
        (one_loss, one_grad), (two_loss, two_grad) = runs
        assert two_loss == pytest.approx(one_loss, rel=1e-12, abs=0.0)
        # scaled by the largest entry: a gradient that is zero in exact
        # arithmetic (the key compressor's output bias, under a shift-invariant
        # softmax) holds rounding noise on both paths
        np.testing.assert_allclose(two_grad, one_grad, rtol=1e-12, atol=1e-12 * np.abs(one_grad).max())

    def test_a_batch_of_one_never_shards(self, monkeypatch):
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        cfg = tiny_model_config()
        assert [training._first_shard(cfg, rows) for rows in (1, 2, 3)] == [1, 1, 2]

    def test_default_geometry_batch_32_and_mid_steps_shard_on_the_helper(self):
        assert training._first_shard(benchmark_config(), 8) == 8  # 0.55 MFLOP per half
        assert training._first_shard(benchmark_config(), 32) == 16  # 2.2 MFLOP per half
        assert training._first_shard(benchmark_config(False, 4, 24, 8), 64) == 32
        x, y, weights = self.batch(False, 32)
        params = init_model_params(benchmark_config(), 0)
        with usable_cores(2):
            for batch, forks in ((8, False), (32, True)):
                with training._second_halves(params, benchmark_config(), x, y, weights, batch) as helper:
                    assert (helper is not None) == forks
                    assert multiprocessing.active_children() == ([helper.proc] if forks else [])

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_in_either_shard_propagates_after_both_finish(self, failing, monkeypatch, tmp_path):
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        cfg = tiny_model_config()
        x, y, weights = self.batch(False, 32)
        params = init_model_params(cfg, 22)
        finished = tmp_path / "finished"  # written by the helper for shard 1
        finished.touch()
        real_loss = training._batch_loss

        def batch_loss(params, model_cfg, x, y, rows, weights):
            shard = int(rows[0] != 0)
            if shard == failing:
                raise RuntimeError(f"shard {shard} failed")
            time.sleep(0.2)  # still running when the other shard fails
            loss = real_loss(params, model_cfg, x, y, rows, weights)
            with open(finished, "a") as fh:
                fh.write(f"{shard}\n")
            return loss

        monkeypatch.setattr(training, "_batch_loss", batch_loss)
        with usable_cores(2), training._second_halves(params, cfg, x, y, weights, 32) as helper:
            with pytest.raises(RuntimeError, match=f"shard {failing} failed"):
                training._loss_and_grads(params, cfg, x, y, np.arange(32), weights, 16, helper)
            assert finished.read_text().split() == [str(1 - failing)]

    def test_a_fit_aborted_from_the_optimizer_step_leaves_no_child(self, monkeypatch):
        """perfbench's `stop_at` ends a timed fit by raising from a wrapped
        `AdamW.step`; the helper must go with the fit, and the next fit run."""
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        x, y = make_two_gaussians(80, 4, seed=6)
        split = make_split(x, y)
        cfg = tiny_model_config()
        train_cfg = TrainConfig(lr=5e-3, batch_size=16, max_epochs=2, patience=2, seed=1)
        helpers = []  # the children alive at each step
        step = AdamW.step

        class TimeUp(Exception):
            pass

        def stop_at_third(opt):
            step(opt)
            helpers.append(len(multiprocessing.active_children()))
            if opt.t == 3:
                raise TimeUp

        with usable_cores(2):
            monkeypatch.setattr(AdamW, "step", stop_at_third)
            with pytest.raises(TimeUp):
                fit(init_model_params(cfg, 0), cfg, split, train_cfg)
            assert helpers == [1, 1, 1]
            assert multiprocessing.active_children() == []
            monkeypatch.setattr(AdamW, "step", step)
            _, hist = fit(init_model_params(cfg, 0), cfg, split, train_cfg)
        assert len(hist.train_loss) == 2

    def test_a_helper_that_dies_mid_step_fails_the_step_promptly(self, monkeypatch):
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        x, y = make_two_gaussians(80, 4, seed=6)
        split = make_split(x, y)
        cfg = tiny_model_config()
        caller, real_loss = os.getpid(), training._batch_loss

        def batch_loss(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_loss(*args)

        monkeypatch.setattr(training, "_batch_loss", batch_loss)
        start = time.perf_counter()
        with usable_cores(2), pytest.raises(ChildProcessError, match=r"tabnsa-shard \(pid \d+\) exited with code -9"):
            fit(init_model_params(cfg, 0), cfg, split, TrainConfig(batch_size=16, max_epochs=2, seed=1))
        assert time.perf_counter() - start < 10
        # a child that exits in silence while another process holds its pipe open
        conn, child_end = forking.FORK.Pipe()
        proc = forking.FORK.Process(target=os._exit, args=(3,), name="silent")
        proc.start()
        start = time.perf_counter()
        with pytest.raises(ChildProcessError, match=r"silent \(pid \d+\) exited with code 3 before it replied"):
            forking.receive(proc, conn)
        assert time.perf_counter() - start < 10
        conn.close()
        child_end.close()

    @pytest.mark.parametrize("optimizer", ["adamw", "lbfgs"])
    def test_fit_bytes_depend_on_neither_cores_nor_thread(self, optimizer, monkeypatch):
        monkeypatch.setattr(training, "SHARD_FLOPS", 0)
        x, y = make_two_gaussians(80, 4, seed=6)
        split = make_split(x, y)
        cfg = tiny_model_config()
        train_cfg = TrainConfig(optimizer=optimizer, lr=5e-3, batch_size=16, max_epochs=3, patience=3, seed=1)
        taped = []  # one entry per forward with a tape that this process runs
        real_forward = training.forward

        def spy(*args, **kwargs):
            if ad._grad_enabled():
                taped.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", spy)

        def run(out, fit=fit):
            params = init_model_params(cfg, 0)
            _, hist = fit(params, cfg, split, train_cfg)
            out.append((ad.flatten(p.data for p in params.values()).tobytes(), hist.to_jsonl()))

        def trial(out):  # a trial thread of a parallel search with a budget of one core
            hyperopt._TRIAL.cores = 1
            run(out, hyperopt.fit)

        runs, tapes = {}, {}
        for where in (1, 2, 3, "thread", "trial"):
            taped.clear()
            out = []
            # a trial child counts the cores of its own budget
            cores = contextlib.nullcontext() if where == "trial" else usable_cores(2 if where == "thread" else where)
            with cores:
                if where in ("thread", "trial"):
                    worker = threading.Thread(target=run if where == "thread" else trial, args=(out,))
                    worker.start()
                    worker.join(timeout=120)
                    assert not worker.is_alive()
                else:
                    run(out)
            (runs[where],) = out
            tapes[where] = len(taped)
        # the helper runs every second half on 2 and 3 cores; a trial child runs them all
        assert {where: n / tapes[1] for where, n in tapes.items()} == {1: 1, 2: 0.5, 3: 0.5, "thread": 1, "trial": 0}
        assert all(r == runs[1] for r in runs.values())
