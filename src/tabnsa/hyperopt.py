"""Random hyperparameter search over the sparse-attention architecture.

Stage 1 samples architectures and training settings uniformly (log-uniform
for the learning rate), fits each candidate, and keeps the one with the best
validation metric. Stage 2 (`refit_best`) retrains the winner from a fresh
initialization and touches the test split exactly once.

Trials are reproducible in isolation: every trial's seed is derived from
(search seed, trial id) with a stable hash, so records can be replayed or
recomputed in any order, including across worker threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import DatasetSplit
from .model import ModelConfig, count_flops, count_params, init_model_params
from .nsa_attention import NSAConfig
from .training import NanLossError, TrainConfig, evaluation_report, fit

THREADS_ENV_VAR = "TABNSA_THREADS"


def _int_range(name: str, lo: int, hi: int, floor: int) -> None:
    if lo < floor or hi < lo:
        raise ValueError(f"{name} range [{lo}, {hi}] must satisfy {floor} <= lo <= hi")


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive integer ranges plus a log-uniform learning-rate interval.

    `select_block` has no fixed upper bound: its ceiling is whatever
    compress_block value was sampled for the same trial. Collapsing every
    range to a point makes sampling deterministic.
    """

    head_dim: tuple = (8, 46)
    heads: tuple = (1, 8)
    window: tuple = (1, 8)
    compress_block: tuple = (4, 16)
    select_block_min: int = 2
    num_selected: tuple = (1, 4)
    lr: tuple = (1e-4, 1e-3)
    batch_size: tuple = (32, 128)

    def __post_init__(self):
        _int_range("head_dim", *self.head_dim, floor=1)
        _int_range("heads", *self.heads, floor=1)
        _int_range("window", *self.window, floor=1)
        _int_range("compress_block", *self.compress_block, floor=2)
        _int_range("num_selected", *self.num_selected, floor=1)
        _int_range("batch_size", *self.batch_size, floor=1)
        if self.select_block_min < 2 or self.select_block_min > self.compress_block[0]:
            raise ValueError("select_block_min must lie in [2, min compress_block]")
        lo, hi = self.lr
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError("lr interval must satisfy 0 < lo <= hi < 1")


def sample_config(space: SearchSpace, rng: np.random.Generator, base_train: TrainConfig | None = None):
    """Draw one (NSAConfig, TrainConfig) pair from the space.

    `NSAConfig` derives the compression stride as the largest value dividing
    both block sizes, so every draw satisfies its divisibility rules.
    """
    heads = int(rng.integers(space.heads[0], space.heads[1] + 1))
    head_dim = int(rng.integers(space.head_dim[0], space.head_dim[1] + 1))
    window = int(rng.integers(space.window[0], space.window[1] + 1))
    compress_block = int(rng.integers(space.compress_block[0], space.compress_block[1] + 1))
    select_block = int(rng.integers(space.select_block_min, compress_block + 1))
    num_selected = int(rng.integers(space.num_selected[0], space.num_selected[1] + 1))
    lr = float(np.exp(rng.uniform(np.log(space.lr[0]), np.log(space.lr[1]))))
    batch_size = int(rng.integers(space.batch_size[0], space.batch_size[1] + 1))
    nsa = NSAConfig(
        heads=heads,
        head_dim=head_dim,
        window=window,
        compress_block=compress_block,
        select_block=select_block,
        num_selected=num_selected,
    )
    base = base_train if base_train is not None else TrainConfig()
    train = dataclasses.replace(base, lr=lr, batch_size=batch_size)
    return nsa, train


@dataclass(frozen=True)
class TrialRecord:
    """One scored trial. `model` is the `ModelConfig.to_dict()` it trained.
    `wall_seconds` is this process's timing of the trial, None for a record
    read back from a log; the log holds only the deterministic fields."""

    trial_id: int
    model: dict
    train: dict
    val_metric: float
    seed: int
    wall_seconds: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.val_metric <= 1.0:
            raise ValueError(f"val_metric {self.val_metric} outside [0, 1]")

    def to_json(self) -> str:
        record = dataclasses.asdict(self)
        del record["wall_seconds"]
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord | None":
        """The record a log line holds, or None for a line in another format."""
        record = json.loads(line)
        logged = {f.name for f in dataclasses.fields(cls)} - {"wall_seconds"}
        return cls(**record) if set(record) == logged else None


def derive_trial_seed(seed: int, trial_id: int) -> int:
    """Stable 63-bit seed for one trial; never uses process-salted hashing."""
    digest = hashlib.sha256(f"trial:{seed}:{trial_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def fit_model(model_cfg: ModelConfig, split: DatasetSplit, train_cfg: TrainConfig, rng):
    """Initialize parameters from `rng` (a Generator or an int seed) and fit
    them; returns (params, TrainHistory).

    `fit` is looked up in this module at call time, so a caller can
    substitute it here.
    """
    return fit(init_model_params(model_cfg, rng), model_cfg, split, train_cfg)


def _draw_trial(
    trial_id: int,
    split: DatasetSplit,
    space: SearchSpace,
    seed: int,
    model_template: ModelConfig | None,
    base_train: TrainConfig | None,
):
    """A trial's (rng, ModelConfig, TrainConfig): the drawn attention config
    in `model_template` (or default model fields) at the split's shape, with
    `num_selected` clamped to the selection blocks there are. The returned
    generator goes on to initialize the trial's parameters."""
    trial_seed = derive_trial_seed(seed, trial_id)
    rng = np.random.default_rng(trial_seed)
    nsa, train_cfg = sample_config(space, rng, base_train)
    shape = split.model_shape()
    nsa = dataclasses.replace(nsa, num_selected=nsa.effective_selected(shape["num_tokens"]))
    if model_template is None:
        model_cfg = ModelConfig(nsa=nsa, **shape)
    else:
        model_cfg = dataclasses.replace(model_template, nsa=nsa, **shape)
    return rng, model_cfg, dataclasses.replace(train_cfg, seed=trial_seed)


def run_trial(
    trial_id: int,
    split: DatasetSplit,
    space: SearchSpace,
    seed: int,
    model_template: ModelConfig | None = None,
    base_train: TrainConfig | None = None,
) -> TrialRecord:
    """Sample, fit, and score one candidate; a diverging fit scores 0."""
    rng, model_cfg, train_cfg = _draw_trial(trial_id, split, space, seed, model_template, base_train)
    start = time.perf_counter()
    try:
        _, hist = fit_model(model_cfg, split, train_cfg, rng)
        metric = hist.val_metric[hist.best_epoch - 1] if hist.val_metric else 0.0
        if not np.isfinite(metric):
            metric = 0.0
    except NanLossError:
        metric = 0.0
    return TrialRecord(
        trial_id=trial_id,
        model=model_cfg.to_dict(),
        train=dataclasses.asdict(train_cfg),
        val_metric=float(metric),
        seed=train_cfg.seed,
        wall_seconds=time.perf_counter() - start,
    )


def load_trial_log(path: str) -> list[TrialRecord]:
    """The log's records; lines in another record format are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        records = [TrialRecord.from_json(line) for line in fh if line.strip()]
    return [rec for rec in records if rec is not None]


def best_so_far_curve(records: list[TrialRecord]) -> list[float]:
    """Running maximum of the validation metric in trial-id order."""
    curve = []
    best = float("-inf")
    for rec in sorted(records, key=lambda r: r.trial_id):
        best = max(best, rec.val_metric)
        curve.append(best)
    return curve


def _worker_count(max_workers: int | None) -> int:
    """`max_workers` if given, else THREADS_ENV_VAR, else 1; either must be
    a positive integer."""
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
        return max_workers
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
    return workers


def run_search(
    split: DatasetSplit,
    space: SearchSpace,
    budget: int,
    seed: int,
    model_template: ModelConfig | None = None,
    base_train: TrainConfig | None = None,
    log_path: str | None = None,
    max_workers: int | None = None,
):
    """Run `budget` independent trials and return (best record, all records).

    Ties on the metric go to the earlier trial. A trial logged in
    `log_path` is reused instead of recomputed when this search draws the
    same seed, model config and training config for its id, so an
    interrupted search resumes where it stopped and a changed one starts
    over.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if split.train[1].task != "classification":
        raise ValueError("search maximizes a classification metric; got a regression task")
    workers = _worker_count(max_workers)

    def drawn_again(rec: TrialRecord) -> bool:
        if not 0 <= rec.trial_id < budget:
            return False
        _, model_cfg, train_cfg = _draw_trial(rec.trial_id, split, space, seed, model_template, base_train)
        drawn = (train_cfg.seed, model_cfg.to_dict(), dataclasses.asdict(train_cfg))
        return (rec.seed, rec.model, rec.train) == drawn

    done: dict[int, TrialRecord] = {}
    if log_path and os.path.exists(log_path):
        done = {rec.trial_id: rec for rec in load_trial_log(log_path) if drawn_again(rec)}
    pending = [t for t in range(budget) if t not in done]

    def execute(trial_id: int) -> TrialRecord:
        return run_trial(trial_id, split, space, seed, model_template, base_train)

    fresh = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # both maps yield in trial-id order, whatever order trials finish in;
        # the builtin one keeps a lone worker's trials on this thread
        parallel = workers > 1 and len(pending) > 1
        for rec in (pool.map if parallel else map)(execute, pending):
            if log_path:
                with open(log_path, "a", encoding="utf-8") as fh:
                    fh.write(rec.to_json() + "\n")
            fresh.append(rec)
    records = sorted(list(done.values()) + fresh, key=lambda r: r.trial_id)
    return max(records, key=lambda r: r.val_metric), records


def refit_best(
    record: TrialRecord,
    split: DatasetSplit,
    seed: int = 0,
) -> tuple[dict, dict]:
    """Retrain the winning config from a fresh init and score the test split.

    The test rows are read exactly once, here. Returns (report, fitted
    params); the report carries the evaluated config, parameter count, and
    per-row forward FLOPs so the result is self-describing.
    """
    refit_seed = derive_trial_seed(seed, -1)
    train_cfg = dataclasses.replace(TrainConfig(**record.train), seed=refit_seed)
    model_cfg = ModelConfig.from_dict(record.model)
    params, hist = fit_model(model_cfg, split, train_cfg, refit_seed)
    report = evaluation_report(params, model_cfg, *split.test)
    total_flops, flop_breakdown = count_flops(model_cfg, batch_size=1)
    return {
        "config": {"model": model_cfg.to_dict(), "train": dataclasses.asdict(train_cfg)},
        "seed": seed,
        "val_metric_search": record.val_metric,
        "val_metric_refit": hist.val_metric[hist.best_epoch - 1] if hist.val_metric else None,
        "test": dataclasses.asdict(report),
        "param_count": count_params(model_cfg),
        "flops_per_row": total_flops,
        "flops_breakdown": flop_breakdown,
    }, params
