"""Command-line surface: train, tune, eval, transfer, ablate, flops.

All commands consume one versioned JSON config (flags override file fields)
and write deterministic artifacts: rerunning a command with the same config
and seeds reproduces every output byte for byte, except the timestamps that
live only in manifest.json.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import (
    DatasetSplit,
    PreprocessState,
    apply_preprocess,
    load_csv,
    prepare_dataset,
    transfer_split,
)
from .hyperopt import (
    SearchSpace,
    best_so_far_curve,
    fit_model,
    refit_best,
    run_search,
)
from .metrics import METRIC_NAMES
from .model import (
    FUSION_VARIANTS,
    ModelConfig,
    count_flops,
    count_params,
    dense_attention_flops,
    load_checkpoint,
    save_checkpoint,
)
from .nsa_attention import NSAConfig
from .training import OPTIMIZERS, NanLossError, TrainConfig, evaluation_report

CONFIG_VERSION = 1

ABLATE_AXES = ("fusion", "blocks", "optimizer", "sparse_params")

# one-at-a-time sweep grids for the sparse_params ablation axis
SPARSE_SWEEPS = {
    "window": (1, 2, 4, 8),
    "compress_block": (4, 8, 16),
    "select_block": (2, 4),
    "num_selected": (1, 2, 4),
}

# model fields that a null value leaves to be derived from the dataset
SHAPE_FIELDS = ("num_tokens", "num_classes", "regression")

# the leaves that may be null, where null means "derive" or "not given",
# and the JSON type each takes otherwise
NULLABLE = {
    "data.csv": "string", "data.target": "string", "data.schema": "object", "model.nsa.compress_stride": "integer",
    "model.num_tokens": "integer", "model.num_classes": "integer", "model.regression": "boolean",
}


class ConfigError(Exception):
    """Invalid config input; `field` is the dotted path of the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def default_config() -> dict:
    return {
        "version": CONFIG_VERSION,
        "data": {"csv": None, "target": None, "schema": None},
        "model": {
            # NSAConfig derives dim, and the CLI runs only the non-causal variant
            "nsa": {k: v for k, v in dataclasses.asdict(NSAConfig()).items() if k not in ("dim", "causal")},
            **dict.fromkeys(SHAPE_FIELDS),
            **{f.name: f.default for f in dataclasses.fields(ModelConfig) if f.name not in ("nsa", *SHAPE_FIELDS)},
        },
        # each command sets the training seed itself (--seeds, trial seeds)
        "train": {k: v for k, v in dataclasses.asdict(TrainConfig()).items() if k != "seed"},
        "search": {
            "budget": 50,
            "seed": 0,
            "space": dataclasses.asdict(SearchSpace()),
        },
    }


def _merge(base: dict, override: dict, path: str) -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown config field")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _json_type(value) -> str:
    """The JSON type of a parsed value, an integer told apart from other
    numbers and an array named with its length."""
    if isinstance(value, (list, tuple)):
        return f"array of {len(value)}"
    kinds = (("null", type(None)), ("boolean", bool), ("integer", int), ("number", float), ("string", str))
    return next((kind for kind, types in kinds if isinstance(value, types)), "object")


def _check_types(value, default, path: str) -> None:
    """The type rule: each value has the JSON type of its default, where an
    integer also counts as a number and an array's items take the types of
    the default's. A NULLABLE leaf takes null or the type named there."""
    if value is None and path in NULLABLE:
        return
    want, got = NULLABLE.get(path, _json_type(default)), _json_type(value)
    if got != want and (want, got) != ("number", "integer"):
        raise ConfigError(path, f"expected {want}, got {json.dumps(value)}")
    if isinstance(default, tuple):
        for item, item_default in zip(value, default):
            _check_types(item, item_default, path)
    elif isinstance(default, dict):
        for key, item_default in default.items():
            _check_types(value[key], item_default, f"{path}.{key}" if path else key)


def load_config(path: str | None) -> dict:
    """Defaults deep-merged with the file at `path`; unknown keys and values
    that break the type rule are rejected."""
    defaults = default_config()
    if path is None:
        return defaults
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON: {err}")
    if not isinstance(user, dict):
        raise ConfigError("config", "top level must be a JSON object")
    version = user.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported config version {version!r}")
    cfg = _merge(defaults, user, "")
    _check_types(cfg, defaults, "")
    return cfg


# flags that override one `section.key` config field, named by `dest`;
# each subcommand registers only the ones it reads
OVERRIDE_FLAGS = {
    "--csv": {"dest": "data.csv", "help": "dataset CSV"},
    "--target": {"dest": "data.target", "help": "target column name"},
    "--optimizer": {"dest": "train.optimizer", "choices": OPTIMIZERS},
    "--fusion": {"dest": "model.fusion", "choices": FUSION_VARIANTS},
    "--no-feature-ids": {"dest": "model.feature_id_embedding", "action": "store_const", "const": False,
                         "help": "disable the per-feature identity embedding"},
    "--budget": {"dest": "search.budget", "type": int, "help": "trial count"},
}


def apply_flag_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for spec in OVERRIDE_FLAGS.values():
        value = getattr(args, spec["dest"], None)
        if value is not None:
            section, key = spec["dest"].split(".")
            cfg[section][key] = value
    return cfg


def _built(field: str, cls, fields: dict):
    """`cls(**fields)`, with a value the dataclass rejects reported as a
    ConfigError at `field`, and a warning it gives (a clamped num_selected)
    printed as a config warning at `field`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = cls(**fields)
        except (TypeError, ValueError) as err:
            raise ConfigError(field, str(err))
    for w in caught:
        print(f"config warning: {field}: {w.message}", file=sys.stderr)
    return built


def build_nsa_config(nsa_cfg: dict) -> NSAConfig:
    """`NSAConfig` derives dim and a null compress_stride."""
    return _built("model.nsa", NSAConfig, nsa_cfg)


def build_train_config(train_cfg: dict) -> TrainConfig:
    return _built("train", TrainConfig, train_cfg)


def build_search(search_cfg: dict) -> tuple[SearchSpace, int]:
    """The search section's (space, trial budget)."""
    if search_cfg["budget"] < 1:
        raise ConfigError("search.budget", "must be >= 1")
    space = {k: tuple(v) if isinstance(v, list) else v for k, v in search_cfg["space"].items()}
    return _built("search.space", SearchSpace, space), search_cfg["budget"]


def build_model_config(cfg: dict, split: DatasetSplit | None) -> ModelConfig:
    model = dict(cfg["model"])
    nsa = build_nsa_config(model.pop("nsa"))
    shape = {name: model.pop(name) for name in SHAPE_FIELDS}
    if split is not None:
        derived = split.model_shape()
        for name, pinned in shape.items():
            if pinned is not None and pinned != derived[name]:
                message = f"config value {pinned!r} disagrees with the data ({derived[name]!r})"
                raise ConfigError(f"model.{name}", message)
        shape = derived
    if shape["num_tokens"] is None:
        raise ConfigError("model.num_tokens", "required when no dataset is given")
    # a null num_classes or regression takes ModelConfig's default
    shape = {name: value for name, value in shape.items() if value is not None}
    return _built("model", ModelConfig, {**model, **shape, "nsa": nsa})


def _model_config_for(cfg: dict, split: DatasetSplit, built: dict) -> ModelConfig:
    """`build_model_config(cfg, split)`, built and kept in `built` once per
    model shape, so its warnings print once: the seeds of one config share
    a shape unless a seed's preprocessing drops a column."""
    shape = tuple(split.model_shape().values())
    if shape not in built:
        built[shape] = build_model_config(cfg, split)
    return built[shape]


def load_table(cfg: dict):
    data = cfg["data"]
    if not data["csv"]:
        raise ConfigError("data.csv", "a CSV path is required (flag --csv or config)")
    if not data["target"]:
        raise ConfigError("data.target", "a target column name is required (flag --target or config)")
    try:
        return load_csv(data["csv"], data["target"], data["schema"])
    except FileNotFoundError:
        raise ConfigError("data.csv", f"file not found: {data['csv']}")
    except ValueError as err:
        raise ConfigError("data", str(err))


def parse_seeds(text: str) -> list[int]:
    """Seed lists: '0,1,2' or inclusive ranges '0..9'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, end = int(lo), int(hi)
        if end < start:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(start, end + 1))
    seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


# -- artifact writing ----------------------------------------------------------


def _sanitize(obj):
    """numpy scalars -> python; non-finite floats -> null; containers recursed."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _artifact(out_dir: str, name: str) -> str:
    """The path of `name` in `out_dir`, which is created here: commands call
    this only once their configs are built, so a rejected config writes
    nothing."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_text(out_dir: str, name: str, text: str) -> None:
    with open(_artifact(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(out_dir: str, name: str, obj) -> None:
    _write_text(out_dir, name, json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> None:
    with open(_artifact(out_dir, name), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_json(obj) -> None:
    print(json.dumps(_sanitize(obj), sort_keys=True))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _train_once(cfg: dict, model_cfg: ModelConfig, split: DatasetSplit, seed: int):
    """One seed of the train pipeline on its prepared split: fit, then score
    the test set once."""
    train_cfg = dataclasses.replace(build_train_config(cfg["train"]), seed=seed)
    params, history = fit_model(model_cfg, split, train_cfg, seed)
    report = evaluation_report(params, model_cfg, *split.test)
    total_flops, _ = count_flops(model_cfg, batch_size=1)
    summary = {
        "seed": seed,
        "test": dataclasses.asdict(report),
        "best_epoch": history.best_epoch,
        "epochs_run": len(history.train_loss),
        "stopped_early": history.stopped_early,
        "val_loss_best": history.val_loss[history.best_epoch - 1] if history.val_loss else None,
        "val_metric_best": history.val_metric[history.best_epoch - 1] if history.val_metric else None,
        "param_count": count_params(model_cfg),
        "flops_per_row": total_flops,
    }
    return summary, params, history


def _aggregate(reports: list[dict]) -> dict:
    agg: dict = {"n_seeds": len(reports), "metrics": {}}
    for key in METRIC_NAMES:
        values = [r["test"][key] for r in reports if r["test"].get(key) is not None]
        if values:
            agg["metrics"][key] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "per_seed": [float(v) for v in values],
            }
    return agg


def _search(cfg: dict, split: DatasetSplit, template: ModelConfig, out_dir: str, log_name: str):
    """Stage 1 of tune and transfer: `run_search` on `split` as the search
    section sets it, logging trials to `log_name`. Its configs and the task
    are checked before the log is opened, so a rejected run writes nothing."""
    space, budget = build_search(cfg["search"])
    base_train = build_train_config(cfg["train"])
    if split.train[1].task != "classification":
        raise ConfigError("data.target", "search maximizes a classification metric; got a numeric target")
    return run_search(
        split, space, budget, cfg["search"]["seed"],
        model_template=template, base_train=base_train, log_path=_artifact(out_dir, log_name),
    )


# -- commands -------------------------------------------------------------------
# each returns the fields `main` writes to manifest.json, or None for no manifest


def cmd_train(args: argparse.Namespace, cfg: dict) -> dict:
    seeds = parse_seeds(args.seeds)
    raw = load_table(cfg)
    summaries, built = [], {}
    for seed in seeds:
        split, state = prepare_dataset(raw, seed)
        model_cfg = _model_config_for(cfg, split, built)
        summary, params, history = _train_once(cfg, model_cfg, split, seed)
        summaries.append(summary)
        tag = f"s{seed}"
        _write_json(args.out, f"report_{tag}.json", summary)
        _write_text(args.out, f"history_{tag}.jsonl", history.to_jsonl())
        save_checkpoint(_artifact(args.out, f"checkpoint_{tag}.bin"), params, model_cfg)
        _write_text(args.out, f"preprocess_{tag}.json", state.to_json() + "\n")
    aggregate = _aggregate(summaries)
    _write_json(args.out, "aggregate.json", aggregate)
    _write_json(args.out, "config.json", cfg)
    _print_json(aggregate["metrics"])
    return {"seeds": seeds}


def cmd_tune(args: argparse.Namespace, cfg: dict) -> dict:
    raw = load_table(cfg)
    seed = cfg["search"]["seed"]
    split, state = prepare_dataset(raw, seed)
    best, records = _search(cfg, split, build_model_config(cfg, split), args.out, "trials.jsonl")
    rows = [[rec.trial_id, f"{rec.val_metric:.6f}", f"{best_val:.6f}"]
            for rec, best_val in zip(records, best_so_far_curve(records))]
    _write_csv(args.out, "sensitivity.csv", ["trial_id", "val_metric", "best_so_far"], rows)
    report, params = refit_best(best, split, seed=seed)
    model_cfg = ModelConfig.from_dict(report["config"]["model"])
    save_checkpoint(_artifact(args.out, "checkpoint_best.bin"), params, model_cfg)
    _write_text(args.out, "preprocess_best.json", state.to_json() + "\n")
    # keep only schema keys, so best_config.json is valid `train --config` input
    schema = default_config()
    best_cfg = json.loads(json.dumps(cfg))
    best_cfg["model"]["nsa"] = {k: v for k, v in best.model["nsa"].items() if k in schema["model"]["nsa"]}
    best_cfg["train"] = {k: v for k, v in report["config"]["train"].items() if k in schema["train"]}
    _write_json(args.out, "best_config.json", best_cfg)
    _write_json(args.out, "refit_report.json", report)
    _print_json({"best_trial": best.trial_id, "val_metric": best.val_metric, "test": report["test"]})
    walls = [rec.wall_seconds for rec in records]
    return {"seeds": [seed], "budget": cfg["search"]["budget"], "trial_wall_seconds": walls}


def cmd_eval(args: argparse.Namespace, cfg: dict) -> None:
    params, model_cfg = load_checkpoint(args.checkpoint)
    folder, name = os.path.split(args.checkpoint)
    default_state = name.replace("checkpoint", "preprocess").replace(".bin", ".json")
    state_path = args.preprocess or os.path.join(folder, default_state)
    try:
        with open(state_path, "r", encoding="utf-8") as fh:
            state = PreprocessState.from_json(fh.read())
    except FileNotFoundError:
        raise ConfigError("preprocess", f"preprocess state not found: {state_path}")
    if not cfg["data"]["target"]:
        cfg["data"]["target"] = state.target["name"]
    raw = load_table(cfg)
    features, labels = apply_preprocess(raw, state)
    if features.values.shape[1] != model_cfg.num_tokens:
        raise ConfigError("data.csv", f"{features.values.shape[1]} features; checkpoint expects {model_cfg.num_tokens}")
    report = evaluation_report(params, model_cfg, features, labels)
    payload = {"checkpoint": name, "rows": int(features.values.shape[0]), "report": dataclasses.asdict(report)}
    if args.out:
        _write_json(args.out, "eval_report.json", payload)
    _print_json(payload)


def cmd_transfer(args: argparse.Namespace, cfg: dict) -> dict:
    raw = load_table(cfg)
    seed = cfg["search"]["seed"]
    set1, set2 = transfer_split(raw, args.overlap, seed)
    shared = sorted(set(c.name for c in set1.feature_columns) & set(c.name for c in set2.feature_columns))
    splits = {"set1": prepare_dataset(set1, seed)[0], "set2": prepare_dataset(set2, seed)[0]}
    templates = {label: build_model_config(cfg, split) for label, split in splits.items()}
    trial_wall_seconds = {}

    def direction(src: str, dst: str) -> dict:
        best, records = _search(cfg, splits[src], templates[src], args.out, f"trials_{src}.jsonl")
        trial_wall_seconds[src] = [rec.wall_seconds for rec in records]
        model_cfg = dataclasses.replace(templates[dst], nsa=NSAConfig(**best.model["nsa"]))
        params, history = fit_model(model_cfg, splits[dst], TrainConfig(**best.train), best.seed)
        report = evaluation_report(params, model_cfg, *splits[dst].test)
        return {
            "tuned_nsa": best.model["nsa"],
            "applied_nsa": dataclasses.asdict(model_cfg.nsa),
            "tuned_val_metric": best.val_metric,
            "best_trial": best.trial_id,
            "epochs_run": len(history.train_loss),
            "test": dataclasses.asdict(report),
        }

    result = {
        "overlap": args.overlap,
        "shared_features": shared,
        "set1_features": [c.name for c in set1.feature_columns],
        "set2_features": [c.name for c in set2.feature_columns],
        "set1_to_set2": direction("set1", "set2"),
        "set2_to_set1": direction("set2", "set1"),
    }
    _write_json(args.out, "transfer.json", result)
    _print_json({key: result[key]["test"] for key in ("set1_to_set2", "set2_to_set1")})
    return {"seeds": [seed], "overlap": args.overlap, "trial_wall_seconds": trial_wall_seconds}


def _ablate_settings(what: str, cfg: dict) -> list[tuple[str, str, dict]]:
    """(parameter, value-label, config-overrides) triples for one axis."""
    if what == "fusion":
        return [("fusion", variant, {"model": {"fusion": variant}}) for variant in FUSION_VARIANTS]
    if what == "blocks":
        return [("num_blocks", str(depth), {"model": {"num_blocks": depth}}) for depth in (1, 2, 3, 4)]
    if what == "optimizer":
        return [("optimizer", opt, {"train": {"optimizer": opt}}) for opt in OPTIMIZERS]
    rows = []
    for name, grid in SPARSE_SWEEPS.items():
        for value in grid:
            nsa = {name: value}
            if name in ("compress_block", "select_block"):
                nsa["compress_stride"] = None  # re-derived from the new blocks
                # every row keeps select_block <= compress_block
                blocks = {**cfg["model"]["nsa"], **nsa}
                if blocks["select_block"] > blocks["compress_block"]:
                    continue
            rows.append((name, str(value), {"model": {"nsa": nsa}}))
    return rows


def cmd_ablate(args: argparse.Namespace, cfg: dict) -> dict:
    seeds = parse_seeds(args.seeds)
    raw = load_table(cfg)
    splits = [prepare_dataset(raw, seed)[0] for seed in seeds]
    # build every row's configs, and print their warnings, before the first row trains
    sweep = []
    for parameter, value, overrides in _ablate_settings(args.what, cfg):
        merged = _merge(cfg, overrides, "")
        built = {}
        model_cfgs = [_model_config_for(merged, split, built) for split in splits]
        build_train_config(merged["train"])
        sweep.append((parameter, value, merged, model_cfgs))
    header = ["parameter", "value", "metric_name", "mean", "std", "n_seeds"]
    rows = []
    for parameter, value, merged, model_cfgs in sweep:
        reports = [_train_once(merged, model_cfg, split, seed)[0]
                   for model_cfg, split, seed in zip(model_cfgs, splits, seeds)]
        metric = next((name for name in ("rmse", "auc") if reports[0]["test"][name] is not None), "macro_f1")
        stats = _aggregate(reports)["metrics"][metric]
        rows.append({"parameter": parameter, "value": value, "metric_name": metric,
                     "mean": stats["mean"], "std": stats["std"], "n_seeds": len(seeds)})
    csv_rows = [[f"{row[k]:.6f}" if k in ("mean", "std") else row[k] for k in header] for row in rows]
    _write_csv(args.out, f"ablation_{args.what}.csv", header, csv_rows)
    _write_json(args.out, f"ablation_{args.what}.json", rows)
    _print_json(rows)
    return {"seeds": seeds, "what": args.what}


def cmd_flops(args: argparse.Namespace, cfg: dict) -> None:
    split = None
    if cfg["data"]["csv"]:
        # shape the model from the dataset exactly as train would; the
        # counts depend on the table's columns and classes, not the split
        split, _ = prepare_dataset(load_table(cfg), 0)
    model_cfg = build_model_config(cfg, split)
    total, breakdown = count_flops(model_cfg, batch_size=1)
    payload = {
        "batch_size": 1,
        "num_tokens": model_cfg.num_tokens,
        "param_count": count_params(model_cfg),
        "flops_total": total,
        "flops_breakdown": breakdown,
    }
    if args.compare_dense:
        payload["dense_attention_flops"] = dense_attention_flops(model_cfg, batch_size=1)
        branches = ("compression_phi", "attention_compression", "selection_scoring", "attention_selection",
                    "attention_window")
        payload["sparse_branches_flops"] = sum(breakdown[k] for k in branches)
    if args.out:
        _write_json(args.out, "flops.json", payload)
    _print_json(payload)


# -- parser ----------------------------------------------------------------------


MODEL_FLAGS = ("--fusion", "--no-feature-ids")
TRAINING_FLAGS = ("--optimizer",) + MODEL_FLAGS


def _add_common(sub: argparse.ArgumentParser, *overrides: str, out_required: bool) -> None:
    sub.add_argument("--config", default=None, help="JSON config path; defaults apply when omitted")
    sub.add_argument("--out", required=out_required, default=None, help="output directory")
    for flag in ("--csv", "--target") + overrides:
        sub.add_argument(flag, default=None, **OVERRIDE_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tabnsa", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="fit on a CSV and report test metrics")
    _add_common(p_train, *TRAINING_FLAGS, out_required=True)
    p_train.add_argument("--seeds", default="0", help="'0,1,2' or '0..9'")

    p_tune = subs.add_parser("tune", help="random search then refit the best config")
    _add_common(p_tune, *TRAINING_FLAGS, "--budget", out_required=True)

    p_eval = subs.add_parser("eval", help="score a saved checkpoint on a CSV")
    _add_common(p_eval, out_required=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--preprocess", default=None, help="preprocess state JSON (default: sibling of checkpoint)")

    p_transfer = subs.add_parser("transfer", help="feature-overlap transfer protocol, both directions")
    _add_common(p_transfer, *TRAINING_FLAGS, "--budget", out_required=True)
    p_transfer.add_argument("--overlap", type=float, required=True, help="shared-feature fraction in [0, 1]")

    p_ablate = subs.add_parser("ablate", help="sweep one axis against a fixed baseline")
    _add_common(p_ablate, *TRAINING_FLAGS, out_required=True)
    p_ablate.add_argument("--what", choices=ABLATE_AXES, required=True)
    p_ablate.add_argument("--seeds", default="0,1,2")

    p_flops = subs.add_parser("flops", help="per-component FLOPs and parameter counts")
    _add_common(p_flops, *MODEL_FLAGS, out_required=False)
    p_flops.add_argument("--compare-dense", action="store_true")
    return parser


COMMANDS = {"train": cmd_train, "tune": cmd_tune, "eval": cmd_eval, "transfer": cmd_transfer, "ablate": cmd_ablate,
            "flops": cmd_flops}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        cfg = apply_flag_overrides(load_config(args.config), args)
        fields = COMMANDS[args.command](args, cfg)
        if fields is not None:
            manifest = {"command": args.command, "artifact_version": __version__, "config": cfg,
                        "out_dir": os.path.abspath(args.out), "started_at": started, "finished_at": _now()}
            _write_json(args.out, "manifest.json", {**manifest, **fields})
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NanLossError as err:
        print(f"training failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # bad user input (seed lists, table shape, overlap bounds)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
