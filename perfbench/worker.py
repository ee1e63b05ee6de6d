"""Runs one benchmark workload in a fresh process and prints one JSON line.

`run.py` starts this file once per set-up measurement and once for the
measured run, so set-up time and peak RSS belong to one workload alone.
Roles:

  --prepare     train and save the checkpoint the `score` workload loads
  --setup-only  do the workload's set-up, report its time and exit
  (default)     set up, run the timed loop, check outputs, report metrics

With --trace 1 the run also records spans around calls into the package
(see tracer.py), alternates traced and untraced repetitions of the loop to
measure the tracing overhead, and ends with a probe phase that calls every
layer once more at the workload's shapes, so each layer metric exists on
every workload. A layer metric is taken from the first phase that called
the layer, in the order loop, setup, eval, probe.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from tracer import Tracer  # noqa: E402

TARGET = "class"
FRESH_ROWS = 2048  # rows scored by `score` and used for held-out AUC
CHUNK = 1024  # batch of the throughput requests
SEARCH_SEED = 0  # fixed, so every data seed runs the same trial configs
SEARCH_BUDGET = 4
TRACE_BLOCK = 256  # batch-1 requests per block; with tracing, blocks alternate traced and untraced
PROBE_REPS = 3
PHASES = ("loop", "setup", "eval", "probe")  # where a layer metric is taken from, in order
OP_SPAN = {"fit": "training.fit", "score": "training.predict_proba", "tune": "hyperopt.run_search"}


@dataclass(frozen=True)
class Workload:
    kind: str  # fit, score or tune
    heads: int
    head_dim: int
    compress_block: int
    batch: int  # training batch (fit), throughput batch (score), probe batch (tune)
    epochs: int  # per fit repetition (fit), checkpoint training (score), per trial (tune)


WORKLOADS = {
    "fit_default": Workload("fit", 2, 8, 4, 32, 20),
    "fit_mid": Workload("fit", 4, 24, 8, 64, 8),
    "score": Workload("score", 2, 8, 4, CHUNK, 10),
    "tune": Workload("tune", 2, 8, 4, 32, 6),
}


class CheckFailed(Exception):
    pass


class TimeUp(Exception):
    """Stops a repetition that runs past the end of the timed loop."""


def stop_at(step, deadline: float):
    def step_until(opt):
        step(opt)
        if time.perf_counter() > deadline:
            raise TimeUp

    return step_until


def import_tabnsa():
    """Import the package from this checkout's src/ and time the import."""
    src = ROOT / "src"
    if not (src / "tabnsa" / "__init__.py").is_file():
        raise SystemExit(f"tabnsa sources not found under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tabnsa
    from tabnsa import autodiff, data, hyperopt, metrics, model, nsa_attention, tabmixer, training  # noqa: F401

    import_s = time.perf_counter() - start
    if Path(tabnsa.__file__).resolve().parent != (src / "tabnsa").resolve():
        raise SystemExit(f"imported tabnsa from {tabnsa.__file__}, not from {src}")
    return tabnsa, import_s


def model_config(tabnsa, wl: Workload, num_tokens: int):
    """The workload's geometry; every other setting is the package default."""
    nsa = tabnsa.nsa_attention.NSAConfig(
        dim=wl.heads * wl.head_dim, heads=wl.heads, head_dim=wl.head_dim, window=3,
        compress_block=wl.compress_block, compress_stride=2, select_block=2, num_selected=2,
    )
    return tabnsa.model.ModelConfig(nsa=nsa, num_tokens=num_tokens)


def train_config(tabnsa, epochs: int, **kwargs):
    """Exactly `epochs` epochs: patience never stops the fit early."""
    return tabnsa.training.TrainConfig(max_epochs=epochs, patience=epochs, **kwargs)


def copy_params(tabnsa, params: dict) -> dict:
    Tensor = tabnsa.autodiff.Tensor
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def tape_nodes(args, kwargs) -> dict:
    """Nodes reachable from the tensor a backward starts at."""
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return {"tape_nodes": len(seen)}


@contextlib.contextmanager
def instrumented(tracer: Tracer, tabnsa, full: bool, phase: str):
    """Wrap the package's functions for one stretch of the run.

    Without `full`, only the fit entry, the optimizer step and the epoch
    evaluation are wrapped: their span ends give per-step and per-epoch
    times. `full` adds spans at every layer boundary.
    """
    t = tabnsa
    tracer.phase = phase
    tracer.wrap(t.training, "fit", "training.fit")
    tracer.wrap(t.training.AdamW, "step", "training.adamw_step")
    tracer.wrap(t.training, "evaluate_loss_metric", "training.eval")
    if full:
        grad_enabled = t.autodiff._grad_enabled

        def forward_name(x, *args, **kwargs):
            return "model.forward" if grad_enabled() else f"model.forward_nograd_b{np.shape(x)[0]}"

        for name in ("load_csv", "prepare_dataset", "apply_preprocess"):
            tracer.wrap(t.data, name, f"data.{name}")
        tracer.wrap(t.metrics, "classification_report", "metrics.report")
        tracer.wrap(t.metrics, "roc_auc", "metrics.roc_auc")
        tracer.wrap(t.model, "load_checkpoint", "model.load_checkpoint")
        tracer.wrap(t.model, "save_checkpoint", "model.save_checkpoint")
        tracer.wrap(t.model, "forward", forward_name)
        tracer.wrap(t.training, "forward", forward_name)
        tracer.wrap(t.model, "embed_features", "model.embed_features")
        tracer.wrap(t.model, "nsa_forward", "nsa_attention.forward")
        tracer.wrap(t.model, "tabmixer_forward", "tabmixer.forward")
        tracer.wrap(t.model, "fuse", "model.fuse")
        tracer.wrap(t.model, "mean_pool", "model.mean_pool")
        for name in probes.CAPTURED:
            tracer.wrap(t.nsa_attention, name, f"nsa_attention.{name.lstrip('_')}")
        tracer.wrap(t.autodiff.Tensor, "backward", "autodiff.backward", attrs_fn=tape_nodes)
        tracer.wrap(t.training, "weighted_cross_entropy", "training.loss")
        tracer.wrap(t.training, "predict_proba", "training.predict_proba")
        tracer.wrap(t.hyperopt, "fit", "training.fit")
        tracer.wrap(t.hyperopt, "run_search", "hyperopt.run_search")
        tracer.wrap(t.hyperopt, "run_trial", "hyperopt.run_trial")
    try:
        yield
    finally:
        tracer.uninstall()


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def check_probs(probs: np.ndarray) -> None:
    if not np.isfinite(probs).all():
        raise CheckFailed("non-finite probabilities")
    gap = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if gap > 1e-12:
        raise CheckFailed(f"probability rows sum to 1 only within {gap:.3g}")


class Run:
    """State of one workload run: inputs, counters and the tracer."""

    def __init__(self, tabnsa, name: str, args):
        self.tabnsa = tabnsa
        self.wl = WORKLOADS[name]
        self.args = args
        self.seed = args.seed
        self.workdir = Path(args.workdir)
        self.tracer = Tracer()
        self.trace = bool(args.trace)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency = {"loop": [], "clock": []}  # op latencies (s) by traced / untraced
        self.e2e: dict[str, float] = {}
        self.info: dict[str, tuple[float, str]] = {}
        self.records = []  # trial records of the traced (or only) search

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def reps(self, seconds: float):
        """Repetition indices until the time is spent; with tracing every
        other repetition is traced, so at least two run."""
        start = time.perf_counter()
        rep = 0
        while rep < (2 if self.trace else 1) or time.perf_counter() - start < seconds:
            yield rep, self.trace and rep % 2 == 1
            rep += 1

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        t = self.tabnsa
        with instrumented(self.tracer, t, self.trace, "setup"):
            if self.wl.kind == "score":
                self.raw = t.data.load_csv(self.workdir / "fresh.csv", TARGET)
                with open(self.workdir / "preprocess.json", encoding="utf-8") as fh:
                    self.state = t.data.PreprocessState.from_json(fh.read())
                features, self.labels = t.data.apply_preprocess(self.raw, self.state)
                self.x = features.values
                self.params, self.cfg = t.model.load_checkpoint(str(self.workdir / "checkpoint.bin"))
            else:
                raw = t.data.load_csv(self.workdir / "train.csv", TARGET)
                self.split, self.state = t.data.prepare_dataset(raw, self.seed)
                self.cfg = model_config(t, self.wl, self.split.train[0].values.shape[1])
                self.params = t.model.init_model_params(self.cfg, self.seed)

    # -- timed loops -----------------------------------------------------------

    def loop_fit(self, seconds: float) -> None:
        t = self.tabnsa
        tcfg = train_config(t, self.wl.epochs, seed=self.seed, batch_size=self.wl.batch)
        n_train = self.split.train[0].values.shape[0]
        deadline = time.perf_counter() + seconds
        first = None
        for rep, traced in self.reps(seconds):
            params = copy_params(t, self.params)
            phase = "loop" if traced else "clock"
            before = len(self.tracer.named("training.adamw_step"))
            try:
                with instrumented(self.tracer, t, traced, phase):
                    step = t.training.AdamW.step
                    # the first repetition gives the AUC and the first traced
                    # one whole traced epochs, so only later ones are cut short
                    if rep > (1 if self.trace else 0):
                        t.training.AdamW.step = stop_at(step, deadline)
                    try:
                        _, hist = t.training.fit(params, self.cfg, self.split, tcfg)
                    finally:
                        t.training.AdamW.step = step
            except TimeUp:
                self.attempted += len(self.tracer.named("training.adamw_step")) - before
                continue
            except t.training.NanLossError as err:
                steps = len(self.tracer.named("training.adamw_step")) - before + 1
                self.attempted += steps
                self.fail(steps, f"repetition {rep}: {err}")
                continue
            steps = len(self.tracer.named("training.adamw_step")) - before
            self.attempted += steps
            losses = np.asarray(hist.train_loss)
            if not np.isfinite(losses).all():
                self.fail(steps, f"repetition {rep}: non-finite epoch loss")
            elif first is None:
                first = hist
                self.trained, self.trained_cfg = params, self.cfg
            elif hist.train_loss != first.train_loss or hist.val_loss != first.val_loss:
                self.fail(steps, f"repetition {rep}: losses differ from repetition 0")
        if first is None:
            raise CheckFailed("no fit repetition completed")
        for phase in ("loop", "clock"):
            step_s, epoch_s = self.fit_times(phase)
            self.latency[phase] = step_s
            if phase == "clock":
                self.e2e["rows_per_s"] = n_train / statistics.median(epoch_s)
                self.info["epochs_timed"] = (len(epoch_s), "count")

    def fit_times(self, phase: str):
        """Per-step and per-epoch wall times from the span ends of each fit."""
        step_s, epoch_s = [], []
        spans = [s for s in self.tracer.spans if s.phase == phase]
        for fit in (s for s in spans if s.name == "training.fit"):
            edge = epoch_edge = fit.start
            inner = sorted(
                (s for s in spans if s.name in ("training.adamw_step", "training.eval")
                 and fit.start <= s.start and s.end <= fit.end),
                key=lambda s: s.end,
            )
            for s in inner:
                if s.name == "training.adamw_step":
                    step_s.append(s.end - edge)
                else:
                    epoch_s.append(s.end - epoch_edge)
                    epoch_edge = s.end
                edge = s.end
        return step_s, epoch_s

    def loop_score(self, seconds: float) -> None:
        """One closed-loop client alternating a block of batch-1 requests
        with one batch-1024 request per chunk of the fresh rows, so both
        request kinds sample the whole run."""
        t = self.tabnsa
        ref = np.load(self.workdir / "reference.npy")
        n_rows = self.x.shape[0]
        n_chunks = n_rows // CHUNK
        b1 = np.full((CHUNK, 2), np.nan)
        big = {"loop": [], "clock": []}
        scored = np.full((n_rows, 2), np.nan)
        start = time.perf_counter()
        i = block = 0
        while i < CHUNK or time.perf_counter() - start < seconds:
            traced = self.trace and block % 2 == 1
            phase = "loop" if traced else "clock"
            with instrumented(self.tracer, t, traced, phase):
                for _ in range(TRACE_BLOCK):
                    t0 = time.perf_counter()
                    probs = t.training.predict_proba(self.params, self.cfg, self.x[i % n_rows:i % n_rows + 1])
                    self.latency[phase].append(time.perf_counter() - t0)
                    self.attempted += 1
                    try:
                        check_probs(probs)
                    except CheckFailed as err:
                        self.fail(1, f"batch-1 request {i}: {err}")
                    if i < CHUNK:
                        b1[i] = probs[0]
                    i += 1
                for c in range(n_chunks):
                    rows = slice(c * CHUNK, (c + 1) * CHUNK)
                    t0 = time.perf_counter()
                    probs = t.training.predict_proba(self.params, self.cfg, self.x[rows])
                    big[phase].append(time.perf_counter() - t0)
                    self.attempted += 1
                    try:
                        check_probs(probs)
                        if not np.array_equal(probs, ref[rows]):
                            raise CheckFailed("scores from the loaded checkpoint differ from in-memory scores")
                    except CheckFailed as err:
                        self.fail(1, f"batch-{CHUNK} request on chunk {c}: {err}")
                    scored[rows] = probs
            block += 1
        gap = float(np.abs(scored[:CHUNK] - b1).max())
        if not gap <= 1e-12:
            self.fail(1, f"batch-1 and batch-{CHUNK} scores of the same rows differ by {gap:.3g}")
        self.scored = scored
        self.e2e["rows_per_s"] = CHUNK / statistics.median(big["clock"])
        self.info["score_b1_ms_p99"] = (pct(self.latency["clock"], 99) * 1e3, "ms")
        self.info["batch1_requests"] = (len(self.latency["clock"]), "count")

    def search(self, split, space, budget: int, epochs: int, log_path: Path):
        t = self.tabnsa
        base = train_config(t, epochs)
        log_path.unlink(missing_ok=True)  # a leftover log would resume instead of run
        best, records = t.hyperopt.run_search(
            split, space, budget, SEARCH_SEED, base_train=base, log_path=str(log_path), max_workers=self.args.workers
        )
        if len(records) != budget:
            raise CheckFailed(f"search returned {len(records)} records for budget {budget}")
        bad = [r.trial_id for r in records if not 0.0 <= r.val_metric <= 1.0]
        if bad:
            raise CheckFailed(f"trials {bad} have a metric outside [0, 1]")
        metrics = [r.val_metric for r in records]
        if best is not records[int(np.argmax(metrics))]:
            raise CheckFailed("search did not pick the earliest best trial")
        with open(log_path, encoding="utf-8") as fh:
            if sum(1 for line in fh if line.strip()) != budget:
                raise CheckFailed("trial log does not hold one line per trial")
        return best, records

    def loop_tune(self, seconds: float) -> None:
        t = self.tabnsa
        # narrow only heads and head_dim, so trials take seconds; the block and
        # num_selected ranges stay wide, so the num_selected clamp still fires
        space = t.hyperopt.SearchSpace(head_dim=(8, 16), heads=(1, 2))
        budget = SEARCH_BUDGET
        n_train = self.split.train[0].values.shape[0]
        first = None
        rates = []
        fitted = {}  # trial seed -> (params, config) of the first search, for held-out AUC
        fit = t.hyperopt.fit

        def keep_fitted(params, model_cfg, split, cfg):
            fitted[cfg.seed] = (params, model_cfg)
            return fit(params, model_cfg, split, cfg)

        for rep, traced in self.reps(seconds):
            phase = "loop" if traced else "clock"
            self.attempted += budget
            if first is None:
                t.hyperopt.fit = keep_fitted
            try:
                with instrumented(self.tracer, t, traced, phase):
                    start = time.perf_counter()
                    best, records = self.search(self.split, space, budget, self.wl.epochs,
                                                self.workdir / f"trials-{rep}.jsonl")
                    wall = time.perf_counter() - start
            except CheckFailed as err:
                self.fail(budget, f"search {rep}: {err}")
                continue
            finally:
                t.hyperopt.fit = fit
            stripped = [dataclasses.replace(r, wall_seconds=0.0) for r in records]
            if first is None:
                first = (best, stripped)
            elif stripped != first[1]:
                self.fail(budget, f"search {rep}: trial records differ from search 0")
                continue
            self.latency[phase].extend(r.wall_seconds for r in records)
            if traced or not self.trace:
                self.records.extend(records)
            if not traced:
                rates.append((budget / wall, budget * self.wl.epochs * n_train / wall))
        if first is None:
            raise CheckFailed("no search completed")
        self.trained, self.trained_cfg = fitted[first[0].seed]
        self.e2e["rows_per_s"] = statistics.median(r for _, r in rates)
        self.info["trials_per_min"] = (statistics.median(t for t, _ in rates) * 60.0, "1/min")

    # -- evaluation ------------------------------------------------------------

    def evaluate(self) -> None:
        """AUC on 2048 fresh rows of the fitted model (fit), of the best
        trial's fitted model (tune) or of the checkpoint (score). Also loads
        the fresh rows the probes use."""
        t = self.tabnsa
        with instrumented(self.tracer, t, self.trace, "eval"):
            if self.wl.kind == "score":
                probs = self.scored
            else:
                self.raw = t.data.load_csv(self.workdir / "fresh.csv", TARGET)
                features, self.labels = t.data.apply_preprocess(self.raw, self.state)
                self.x = features.values
                probs = np.concatenate([
                    t.training.predict_proba(self.trained, self.trained_cfg, self.x[i:i + CHUNK])
                    for i in range(0, self.x.shape[0], CHUNK)
                ])
            check_probs(probs)
            self.e2e["auc"] = float(t.metrics.classification_report(probs, self.labels.labels, 2).auc)

    # -- layer metrics ----------------------------------------------------------

    def probe(self) -> dict[str, float]:
        """Call every layer once more at the workload's shapes, then time the
        attention and mixer components in isolation."""
        t = self.tabnsa
        wl = self.wl
        with instrumented(self.tracer, t, True, "probe"):
            split, state = t.data.prepare_dataset(self.raw, self.seed)
            t.data.apply_preprocess(self.raw, state)
            params = copy_params(t, self.trained if wl.kind == "fit" else self.params)
            x_tr, y_tr = split.train
            batch = min(wl.batch, x_tr.values.shape[0])
            xb, yb = x_tr.values[:batch], y_tr.labels[:batch]
            weights = t.data.class_weights(y_tr)
            opt = t.training.AdamW(params, 1e-3)
            ckpt = self.workdir / "probe_checkpoint.bin"
            for _ in range(PROBE_REPS):
                loss = t.training.weighted_cross_entropy(t.model.forward(xb, params, self.cfg), yb, weights)
                opt.zero_grad()
                loss.backward()
                opt.step()
                t.training.evaluate_loss_metric(params, self.cfg, split.val[0].values, split.val[1], weights)
                t.training.predict_proba(params, self.cfg, self.x[:1])
                probs = t.training.predict_proba(params, self.cfg, self.x[:CHUNK])
                t.metrics.classification_report(probs, self.labels.labels[:CHUNK], 2)
                t.model.save_checkpoint(str(ckpt), params, self.cfg)
                t.model.load_checkpoint(str(ckpt))
            if wl.kind != "tune":
                space = t.hyperopt.SearchSpace(
                    head_dim=(wl.head_dim,) * 2, heads=(wl.heads,) * 2, window=(3, 3),
                    compress_block=(wl.compress_block,) * 2, num_selected=(2, 2), batch_size=(batch,) * 2,
                )
                _, self.records = self.search(split, space, 2, 1, self.workdir / "probe_trials.jsonl")
        return probes.component_metrics(t, xb, params, self.cfg)

    def span_values(self, name: str, attr: str | None = None) -> list[float]:
        for phase in PHASES:
            spans = self.tracer.named(name, phase)
            if spans:
                return [s.attrs[attr] if attr else s.duration for s in spans]
        raise CheckFailed(f"no {name} span in any phase")

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        ms = {}

        def median_ms(name):
            return statistics.median(self.span_values(name)) * 1e3

        ms["tabnsa.import_s"] = import_s
        for name in ("load_csv", "prepare_dataset", "apply_preprocess"):
            ms[f"data.{name}_ms"] = median_ms(f"data.{name}")
        ms["metrics.report_ms"] = median_ms("metrics.report")
        ms["model.forward_ms"] = median_ms("model.forward")
        ms["model.forward_nograd_b1_ms"] = median_ms("model.forward_nograd_b1")
        ms[f"model.forward_nograd_b{CHUNK}_ms"] = median_ms(f"model.forward_nograd_b{CHUNK}")
        ms["model.load_checkpoint_ms"] = median_ms("model.load_checkpoint")
        ms["autodiff.backward_ms"] = median_ms("autodiff.backward")
        ms["autodiff.tape_nodes"] = statistics.median(self.span_values("autodiff.backward", "tape_nodes"))
        ms["training.adamw_step_ms"] = median_ms("training.adamw_step")
        ms["training.eval_ms"] = median_ms("training.eval")
        ms["hyperopt.trial_s_p50"] = statistics.median(self.span_values("hyperopt.run_trial"))
        busy = sum(self.span_values("hyperopt.run_trial"))
        wall = sum(self.span_values("hyperopt.run_search"))
        ms["hyperopt.worker_busy_share"] = busy / (self.args.workers * wall)
        ok = sum(1 for r in self.records if r.val_metric > 0.0)
        ms["hyperopt.trials_ok_share"] = ok / len(self.records)
        ms["trace.span_coverage"] = self.tracer.coverage(OP_SPAN[self.wl.kind], "loop")
        ms["trace.overhead_ratio"] = statistics.median(self.latency["loop"]) / statistics.median(self.latency["clock"])
        return ms


def prepare_score(tabnsa, args) -> None:
    """Train the checkpoint `score` loads and keep its in-memory scores."""
    t = tabnsa
    wl = WORKLOADS["score"]
    work = Path(args.workdir)
    raw = t.data.load_csv(work / "train.csv", TARGET)
    split, state = t.data.prepare_dataset(raw, args.seed)
    cfg = model_config(t, wl, split.train[0].values.shape[1])
    params = t.model.init_model_params(cfg, args.seed)
    t.training.fit(params, cfg, split, train_config(t, wl.epochs, seed=args.seed))
    features, _ = t.data.apply_preprocess(t.data.load_csv(work / "fresh.csv", TARGET), state)
    x = features.values
    ref = np.concatenate([t.training.predict_proba(params, cfg, x[i:i + CHUNK]) for i in range(0, x.shape[0], CHUNK)])
    np.save(work / "reference.npy", ref)
    t.model.save_checkpoint(str(work / "checkpoint.bin"), params, cfg)
    with open(work / "preprocess.json", "w", encoding="utf-8") as fh:
        fh.write(state.to_json())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--smoke", action="store_true", help="one-epoch fits, for the schema smoke test")
    parser.add_argument("--spans", help="with --trace 1, write the recorded spans to this JSON-lines file")
    role = parser.add_mutually_exclusive_group()
    role.add_argument("--prepare", action="store_true")
    role.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        WORKLOADS[args.workload] = dataclasses.replace(WORKLOADS[args.workload], epochs=1)
    tabnsa, import_s = import_tabnsa()
    if args.prepare:
        prepare_score(tabnsa, args)
        print(json.dumps({"prepared": True}))
        return 0
    run = Run(tabnsa, args.workload, args)
    run.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    kind = run.wl.kind
    try:
        getattr(run, f"loop_{kind}")(args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.evaluate()
        clock = run.latency["clock"]
        run.e2e["op_ms_p50"] = pct(clock, 50) * 1e3
        run.e2e["op_ms_p90"] = pct(clock, 90) * 1e3
        run.e2e["peak_rss_mib"] = peak_rss_mib
        metrics = run.e2e
        if run.trace:
            components = run.probe()
            metrics = {**run.layer_metrics(import_s), **components}
            if args.spans:
                run.tracer.dump(args.spans)
    except CheckFailed as err:
        run.fail(max(1, run.attempted - run.failed), str(err))
        metrics = {}
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
        "info": run.info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
