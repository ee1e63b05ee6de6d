"""Search tests: sampling distributions, trial reproducibility, log resume,
leakage instrumentation, and the refit protocol."""

import dataclasses
import json
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import tabnsa.hyperopt as hyperopt
import tabnsa.training as training
from tabnsa.data import make_two_gaussians
from tabnsa.hyperopt import (
    SearchSpace,
    TrialRecord,
    best_so_far_curve,
    derive_trial_seed,
    load_trial_log,
    refit_best,
    run_search,
    run_trial,
    sample_config,
)
from tabnsa.model import ModelConfig, count_flops, count_params, param_shapes
from tabnsa.training import NanLossError, TrainConfig

from test_training import make_split


POINT_SPACE = SearchSpace(
    head_dim=(8, 8), heads=(2, 2), window=(3, 3),
    compress_block=(4, 4), select_block_min=4, num_selected=(2, 2),
    lr=(3e-4, 3e-4), batch_size=(32, 32),
)

# kept small so every sampled model trains in milliseconds
NARROW_SPACE = SearchSpace(
    head_dim=(4, 6), heads=(1, 2), window=(2, 4),
    compress_block=(4, 6), select_block_min=2, num_selected=(1, 2),
    lr=(2e-3, 8e-3), batch_size=(16, 32),
)


class TestSearchSpace:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(head_dim=(10, 9))
        with pytest.raises(ValueError):
            SearchSpace(heads=(0, 4))
        with pytest.raises(ValueError):
            SearchSpace(lr=(1e-4, 1.5))
        with pytest.raises(ValueError):
            SearchSpace(select_block_min=1)
        with pytest.raises(ValueError):
            SearchSpace(compress_block=(4, 8), select_block_min=5)


class TestSampleConfig:
    def test_degenerate_space_is_deterministic(self):
        nsa, train = sample_config(POINT_SPACE, np.random.default_rng(0))
        assert (nsa.heads, nsa.head_dim, nsa.dim) == (2, 8, 16)
        assert (nsa.window, nsa.compress_block, nsa.select_block) == (3, 4, 4)
        assert nsa.compress_stride == 4  # gcd of the two block sizes
        assert nsa.num_selected == 2
        assert train.lr == pytest.approx(3e-4, rel=1e-12)
        assert train.batch_size == 32

    def test_draws_respect_ranges_and_divisibility(self):
        rng = np.random.default_rng(1)
        space = SearchSpace()
        for _ in range(1000):
            nsa, train = sample_config(space, rng)
            assert 8 <= nsa.head_dim <= 46
            assert 1 <= nsa.heads <= 8
            assert nsa.dim == nsa.heads * nsa.head_dim
            assert 1 <= nsa.window <= 8
            assert 4 <= nsa.compress_block <= 16
            assert 2 <= nsa.select_block <= nsa.compress_block
            assert nsa.compress_block % nsa.compress_stride == 0
            assert nsa.select_block % nsa.compress_stride == 0
            assert 1 <= nsa.num_selected <= 4
            assert 1e-4 <= train.lr <= 1e-3
            assert 32 <= train.batch_size <= 128

    def test_lr_is_log_uniform(self):
        rng = np.random.default_rng(2)
        draws = [sample_config(SearchSpace(), rng)[1].lr for _ in range(10000)]
        median = float(np.median(draws))
        assert 2.5e-4 <= median <= 4.5e-4  # geometric midpoint of [1e-4, 1e-3]

    def test_base_train_fields_carry_through(self):
        base = TrainConfig(max_epochs=7, patience=3, optimizer="adamw")
        _, train = sample_config(POINT_SPACE, np.random.default_rng(3), base)
        assert train.max_epochs == 7
        assert train.patience == 3
        assert train.lr == pytest.approx(3e-4, rel=1e-12)


class TestTrialSeeds:
    def test_stable_and_distinct(self):
        a = derive_trial_seed(42, 0)
        assert a == derive_trial_seed(42, 0)
        assert a != derive_trial_seed(42, 1)
        assert a != derive_trial_seed(43, 0)
        assert 0 <= a < 2**63

    def test_frozen_reference_value(self):
        # regression anchor: the derivation must never drift between runs
        assert derive_trial_seed(0, 0) == 357981108133820196


class TestTrialRecord:
    def test_json_round_trip(self):
        rec = TrialRecord(3, {"fusion": "c"}, {"lr": 1e-3}, 0.75, 99, wall_seconds=1.25)
        assert "wall_seconds" not in json.loads(rec.to_json())
        back = TrialRecord.from_json(rec.to_json())
        assert back == dataclasses.replace(rec, wall_seconds=None)

    def test_metric_bounds_enforced(self):
        with pytest.raises(ValueError):
            TrialRecord(0, {}, {}, 1.5, 0)
        with pytest.raises(ValueError):
            TrialRecord(0, {}, {}, -0.1, 0)


@pytest.fixture(scope="module")
def gaussian_split():
    x, y = make_two_gaussians(100, 5, seed=21)
    return make_split(x, y)


FAST_TRAIN = TrainConfig(max_epochs=15, patience=5, batch_size=32)


class TestRunSearch:
    def test_budget_one_returns_only_trial(self, gaussian_split):
        best, records = run_search(gaussian_split, NARROW_SPACE, 1, seed=5, base_train=FAST_TRAIN)
        assert len(records) == 1
        assert best == records[0]

    def test_trials_reproducible_and_order_free(self, gaussian_split, monkeypatch):
        best1, recs1 = run_search(gaussian_split, NARROW_SPACE, 4, seed=6, base_train=FAST_TRAIN)
        monkeypatch.setenv(hyperopt.THREADS_ENV_VAR, "3")
        best2, recs2 = run_search(gaussian_split, NARROW_SPACE, 4, seed=6, base_train=FAST_TRAIN)
        assert [r.trial_id for r in recs1] == [0, 1, 2, 3]
        for a, b in zip(recs1, recs2):
            assert a.model == b.model
            assert a.train == b.train
            assert a.val_metric == b.val_metric
            assert a.seed == b.seed
        assert best1.trial_id == best2.trial_id

    @pytest.mark.parametrize("source, value", [("argument", 0), ("argument", -2), ("env", "0")])
    def test_non_positive_worker_count_fails_before_any_trial(self, source, value, gaussian_split, monkeypatch):
        ran = []
        monkeypatch.setattr(hyperopt, "run_trial", lambda trial_id, *a, **kw: ran.append(trial_id))
        kwargs = {}
        if source == "argument":
            kwargs["max_workers"] = value
            message = f"max_workers must be a positive integer, got {value!r}"
        else:
            monkeypatch.setenv(hyperopt.THREADS_ENV_VAR, value)
            message = f"{hyperopt.THREADS_ENV_VAR} must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=message):
            run_search(gaussian_split, NARROW_SPACE, 2, seed=6, base_train=FAST_TRAIN, **kwargs)
        assert ran == []

    def test_best_so_far_curve_monotone(self, gaussian_split):
        _, records = run_search(gaussian_split, NARROW_SPACE, 5, seed=7, base_train=FAST_TRAIN)
        curve = best_so_far_curve(records)
        assert len(curve) == 5
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == max(r.val_metric for r in records)

    def test_ties_go_to_earlier_trial_and_log_resume(self, gaussian_split, tmp_path):
        log = tmp_path / "trials.jsonl"
        run_search(gaussian_split, NARROW_SPACE, 3, seed=8, base_train=FAST_TRAIN, log_path=str(log))
        tied = [dataclasses.replace(rec, val_metric=0.5) for rec in load_trial_log(str(log))]
        log.write_text("".join(rec.to_json() + "\n" for rec in tied))
        best, records = run_search(
            gaussian_split, NARROW_SPACE, 3, seed=8, base_train=FAST_TRAIN, log_path=str(log)
        )
        assert [r.trial_id for r in records] == [0, 1, 2]
        assert all(r.val_metric == 0.5 for r in records)  # reused, not recomputed
        assert best.trial_id == 0

    def test_resume_runs_only_missing_trials(self, gaussian_split, tmp_path, monkeypatch):
        log = tmp_path / "trials.jsonl"
        _, first = run_search(gaussian_split, NARROW_SPACE, 4, seed=9, base_train=FAST_TRAIN, log_path=str(log))
        lines = open(log).read().strip().split("\n")
        assert len(lines) == 4
        with open(log, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
        executed = []
        real = hyperopt.run_trial

        def counting(trial_id, *a, **kw):
            executed.append(trial_id)
            return real(trial_id, *a, **kw)

        monkeypatch.setattr(hyperopt, "run_trial", counting)
        _, resumed = run_search(gaussian_split, NARROW_SPACE, 4, seed=9, base_train=FAST_TRAIN, log_path=str(log))
        assert sorted(executed) == [2, 3]
        assert [r.to_json() for r in resumed] == [r.to_json() for r in first]
        assert [r.wall_seconds is None for r in resumed] == [True, True, False, False]
        assert len(load_trial_log(str(log))) == 4

    def test_log_is_in_trial_order_when_trials_finish_out_of_order(self, gaussian_split, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        run_search(gaussian_split, NARROW_SPACE, 4, seed=10, base_train=FAST_TRAIN, log_path=str(serial))
        real = hyperopt.run_trial
        finished = []
        trial_one_done = threading.Event()

        def trial_zero_last(trial_id, *a, **kw):
            if trial_id == 0:
                assert trial_one_done.wait(timeout=60)
            rec = real(trial_id, *a, **kw)
            finished.append(trial_id)
            if trial_id == 1:
                trial_one_done.set()
            return rec

        monkeypatch.setattr(hyperopt, "run_trial", trial_zero_last)
        run_search(gaussian_split, NARROW_SPACE, 4, seed=10, base_train=FAST_TRAIN, log_path=str(parallel),
                   max_workers=2)
        assert finished[0] == 1
        assert parallel.read_bytes() == serial.read_bytes()

    def test_ordered_log_under_many_workers_stress(self, gaussian_split, tmp_path, monkeypatch):
        budget, log = 60, tmp_path / "trials.jsonl"
        rng = np.random.default_rng(3)
        delays = rng.uniform(0.0, 0.004, size=budget)

        def fake_trial(trial_id, *a, **kw):
            time.sleep(delays[trial_id])
            return TrialRecord(trial_id, {}, {}, float(delays[trial_id]) * 100.0, trial_id)

        monkeypatch.setattr(hyperopt, "run_trial", fake_trial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, records = run_search(gaussian_split, NARROW_SPACE, budget, seed=0, log_path=str(log), max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        logged = [json.loads(line)["trial_id"] for line in log.read_text().splitlines()]
        assert logged == list(range(budget))
        assert [r.trial_id for r in records] == list(range(budget))

    def test_drawn_num_selected_is_clamped_silently(self):
        # 4 tokens leave at most 2 selection blocks, below most num_selected draws
        x, y = make_two_gaussians(60, 4, seed=22)
        space = dataclasses.replace(NARROW_SPACE, num_selected=(1, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, records = run_search(make_split(x, y), space, 6, seed=12, base_train=FAST_TRAIN)
        for rec in records:
            nsa = ModelConfig.from_dict(rec.model).nsa
            assert nsa.num_selected <= nsa.n_select_blocks(4)

    def test_changed_search_config_recomputes_logged_trials(self, gaussian_split, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        first_space = dataclasses.replace(NARROW_SPACE, heads=(1, 1), head_dim=(8, 8))
        second_space = dataclasses.replace(NARROW_SPACE, heads=(2, 2), head_dim=(9, 9))
        run_search(gaussian_split, first_space, 2, seed=3, base_train=TrainConfig(max_epochs=2), log_path=log)
        _, records = run_search(gaussian_split, second_space, 2, seed=3, base_train=TrainConfig(max_epochs=5), log_path=log)
        drawn = [(r.model["nsa"]["heads"], r.model["nsa"]["head_dim"], r.train["max_epochs"]) for r in records]
        assert drawn == [(2, 9, 5), (2, 9, 5)]
        assert len(load_trial_log(log)) == 4

    def test_changed_model_template_recomputes_logged_trials(self, gaussian_split, tmp_path):
        log = str(tmp_path / "trials.jsonl")
        nsa, _ = sample_config(POINT_SPACE, np.random.default_rng(0))
        additive = ModelConfig(nsa=nsa, fusion="o", **gaussian_split.model_shape())
        train = TrainConfig(max_epochs=2)
        run_search(gaussian_split, NARROW_SPACE, 2, seed=3, model_template=additive, base_train=train, log_path=log)
        _, same = run_search(gaussian_split, NARROW_SPACE, 2, seed=3, model_template=additive, base_train=train, log_path=log)
        assert [r.wall_seconds for r in same] == [None, None]  # both reused
        concat = dataclasses.replace(additive, fusion="c")
        _, records = run_search(gaussian_split, NARROW_SPACE, 2, seed=3, model_template=concat, base_train=train, log_path=log)
        assert all(r.wall_seconds is not None for r in records)  # both recomputed
        assert [r.model["fusion"] for r in records] == ["c", "c"]
        assert len(load_trial_log(log)) == 4

    def test_old_format_log_line_is_recomputed(self, gaussian_split, tmp_path):
        log = tmp_path / "trials.jsonl"
        train = TrainConfig(max_epochs=2)
        _, first = run_search(gaussian_split, NARROW_SPACE, 1, seed=3, base_train=train, log_path=str(log))
        old = dict(json.loads(log.read_text()), wall_seconds=1.0)
        old["nsa"] = old.pop("model")["nsa"]
        log.write_text(json.dumps(old) + "\n")
        _, records = run_search(gaussian_split, NARROW_SPACE, 1, seed=3, base_train=train, log_path=str(log))
        assert records[0].wall_seconds is not None
        assert records[0].to_json() == first[0].to_json()
        assert len(log.read_text().splitlines()) == 2

    def test_stale_log_entries_are_ignored(self, gaussian_split, tmp_path):
        log = tmp_path / "trials.jsonl"
        with open(log, "w") as fh:
            fh.write(TrialRecord(0, {}, {}, 0.9, 12345).to_json() + "\n")  # wrong seed
        _, records = run_search(gaussian_split, NARROW_SPACE, 1, seed=10, base_train=FAST_TRAIN, log_path=str(log))
        assert records[0].val_metric != 0.9 or records[0].seed == derive_trial_seed(10, 0)

    def test_diverged_trial_scores_zero_and_search_continues(self, gaussian_split, monkeypatch):
        real_fit = hyperopt.fit

        def exploding(params, model_cfg, split, cfg):
            if cfg.seed == derive_trial_seed(11, 1):
                raise NanLossError(1, 0)
            return real_fit(params, model_cfg, split, cfg)

        monkeypatch.setattr(hyperopt, "fit", exploding)
        best, records = run_search(gaussian_split, NARROW_SPACE, 3, seed=11, base_train=FAST_TRAIN)
        assert records[1].val_metric == 0.0
        assert best.trial_id != 1

    def test_non_finite_validation_scores_zero(self, gaussian_split, monkeypatch):
        monkeypatch.setattr(training, "evaluate_loss_metric", lambda *a: (np.inf, float("nan")))
        rec = run_trial(0, gaussian_split, NARROW_SPACE, seed=4, base_train=FAST_TRAIN)
        assert rec.val_metric == 0.0

    def test_no_test_access_during_search(self, gaussian_split):
        before = gaussian_split.test_access_count
        run_search(gaussian_split, NARROW_SPACE, 2, seed=12, base_train=FAST_TRAIN)
        assert gaussian_split.test_access_count == before

    def test_input_validation(self, gaussian_split):
        with pytest.raises(ValueError):
            run_search(gaussian_split, NARROW_SPACE, 0, seed=0)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 3))
        reg_split = make_split(x, rng.normal(size=40), task="regression")
        with pytest.raises(ValueError):
            run_search(reg_split, NARROW_SPACE, 1, seed=0)

    def test_easy_data_reaches_high_auc(self):
        # full default space, so drawn models can be large; the short fit
        # budget is enough because the classes are trivially separable
        x, y = make_two_gaussians(80, 5, seed=22)
        split = make_split(x, y)
        best, _ = run_search(
            split, SearchSpace(), 10, seed=14,
            base_train=TrainConfig(max_epochs=15, patience=4),
        )
        assert best.val_metric >= 0.95


class TestRefitBest:
    def test_protocol_and_report_contents(self, gaussian_split):
        best, _ = run_search(gaussian_split, NARROW_SPACE, 3, seed=15, base_train=FAST_TRAIN)
        before = gaussian_split.test_access_count
        report, params = refit_best(best, gaussian_split, seed=1)
        assert gaussian_split.test_access_count == before + 1

        cfg = ModelConfig.from_dict(report["config"]["model"])
        assert report["param_count"] == count_params(cfg)
        total, breakdown = count_flops(cfg, batch_size=1)
        assert report["flops_per_row"] == total
        assert report["flops_breakdown"] == breakdown
        assert set(params) == set(param_shapes(cfg))
        assert report["test"]["auc"] is not None
        assert 0.0 <= report["test"]["auc"] <= 1.0
        assert report["test"]["confusion"] is not None

    def test_deterministic_given_seed(self, gaussian_split):
        best, _ = run_search(gaussian_split, NARROW_SPACE, 2, seed=16, base_train=FAST_TRAIN)
        r1, p1 = refit_best(best, gaussian_split, seed=2)
        r2, p2 = refit_best(best, gaussian_split, seed=2)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

