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
            "num_tokens": None,
            "num_classes": None,
            "regression": None,
            "hidden_head": 64,
            "num_blocks": 1,
            "fusion": "o",
            "feature_id_embedding": True,
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


def load_config(path: str | None) -> dict:
    """Defaults deep-merged with the file at `path`; unknown keys rejected."""
    cfg = default_config()
    if path is None:
        return cfg
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
    return _merge(cfg, user, "")


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
    cfg = json.loads(json.dumps(cfg))  # deep copy
    for spec in OVERRIDE_FLAGS.values():
        value = getattr(args, spec["dest"], None)
        if value is not None:
            section, key = spec["dest"].split(".")
            cfg[section][key] = value
    return cfg


def build_nsa_config(nsa_cfg: dict) -> NSAConfig:
    """`NSAConfig` derives dim and a null compress_stride."""
    if not isinstance(nsa_cfg.get("heads"), int) or not isinstance(nsa_cfg.get("head_dim"), int):
        raise ConfigError("model.nsa", "heads and head_dim must be integers")
    try:
        return NSAConfig(**nsa_cfg)
    except (TypeError, ValueError) as err:
        raise ConfigError("model.nsa", str(err))


def build_train_config(train_cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**train_cfg)
    except (TypeError, ValueError) as err:
        raise ConfigError("train", str(err))


def build_search(search_cfg: dict) -> tuple[SearchSpace, int]:
    """The search section's (space, trial budget)."""
    budget = search_cfg["budget"]
    if not isinstance(budget, int) or budget < 1:
        raise ConfigError("search.budget", "must be an integer >= 1")
    d = {k: tuple(v) if isinstance(v, list) else v for k, v in search_cfg["space"].items()}
    try:
        return SearchSpace(**d), budget
    except (TypeError, ValueError) as err:
        raise ConfigError("search.space", str(err))


def build_model_config(cfg: dict, split: DatasetSplit | None) -> ModelConfig:
    model = cfg["model"]
    nsa = build_nsa_config(model["nsa"])
    shape = {name: model[name] for name in ("num_tokens", "num_classes", "regression")}
    if split is not None:
        derived = split.model_shape()
        for name, pinned in shape.items():
            if pinned is not None and pinned != derived[name]:
                message = f"config value {pinned!r} disagrees with the data ({derived[name]!r})"
                raise ConfigError(f"model.{name}", message)
        shape = derived
    if shape["num_tokens"] is None:
        raise ConfigError("model.num_tokens", "required when no dataset is given")
    try:
        return ModelConfig(
            nsa=nsa,
            num_tokens=shape["num_tokens"],
            num_classes=shape["num_classes"] if shape["num_classes"] is not None else 2,
            regression=bool(shape["regression"]),
            hidden_head=model["hidden_head"],
            num_blocks=model["num_blocks"],
            fusion=model["fusion"],
            feature_id_embedding=model["feature_id_embedding"],
        )
    except (TypeError, ValueError) as err:
        raise ConfigError("model", str(err))


def load_table(cfg: dict, field: str = "data"):
    data = cfg["data"]
    if not data.get("csv"):
        raise ConfigError(f"{field}.csv", "a CSV path is required (flag --csv or config)")
    if not data.get("target"):
        raise ConfigError(f"{field}.target", "a target column name is required (flag --target or config)")
    try:
        return load_csv(data["csv"], data["target"], data.get("schema"))
    except FileNotFoundError:
        raise ConfigError(f"{field}.csv", f"file not found: {data['csv']}")
    except ValueError as err:
        raise ConfigError(f"{field}", str(err))


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


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _print_json(obj) -> None:
    print(json.dumps(_sanitize(obj), sort_keys=True))


def _write_manifest(outdir: str, command: str, cfg: dict, seeds: list[int], started: str, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "artifact_version": __version__,
        "config": cfg,
        "seeds": seeds,
        "out_dir": os.path.abspath(outdir),
        "started_at": started,
        "finished_at": _now(),
    }
    if extra:
        manifest.update(extra)
    _write_json(_artifact(outdir, "manifest.json"), manifest)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _metric_name(report_dict: dict) -> str:
    if report_dict.get("rmse") is not None:
        return "rmse"
    if report_dict.get("auc") is not None:
        return "auc"
    return "macro_f1"


def _train_once(cfg: dict, raw, seed: int):
    """One seed of the train pipeline: split, fit, score the test set once."""
    split, state = prepare_dataset(raw, seed)
    model_cfg = build_model_config(cfg, split)
    train_cfg = dataclasses.replace(build_train_config(cfg["train"]), seed=seed)
    params, history = fit_model(model_cfg, split, train_cfg, seed)
    report = evaluation_report(params, model_cfg, *split.test)
    total_flops, _ = count_flops(model_cfg, batch_size=1)
    summary = {
        "seed": seed,
        "test": report.to_dict(),
        "best_epoch": history.best_epoch,
        "epochs_run": len(history.train_loss),
        "stopped_early": history.stopped_early,
        "val_loss_best": history.val_loss[history.best_epoch - 1] if history.val_loss else None,
        "val_metric_best": history.val_metric[history.best_epoch - 1] if history.val_metric else None,
        "param_count": count_params(model_cfg),
        "flops_per_row": total_flops,
    }
    return summary, params, history, model_cfg, state


def _aggregate(reports: list[dict]) -> dict:
    agg: dict = {"n_seeds": len(reports), "metrics": {}}
    for key in ("auc", "accuracy", "macro_f1", "rmse"):
        values = [r["test"][key] for r in reports if r["test"].get(key) is not None]
        if values:
            agg["metrics"][key] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "per_seed": [float(v) for v in values],
            }
    return agg


# -- commands -------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    cfg = apply_flag_overrides(load_config(args.config), args)
    seeds = parse_seeds(args.seeds)
    raw = load_table(cfg)
    summaries = []
    for seed in seeds:
        summary, params, history, model_cfg, state = _train_once(cfg, raw, seed)
        summaries.append(summary)
        tag = f"s{seed}"
        _write_json(_artifact(args.out, f"report_{tag}.json"), summary)
        with open(_artifact(args.out, f"history_{tag}.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(history.to_jsonl())
        save_checkpoint(_artifact(args.out, f"checkpoint_{tag}.bin"), params, model_cfg)
        with open(_artifact(args.out, f"preprocess_{tag}.json"), "w", encoding="utf-8") as fh:
            fh.write(state.to_json() + "\n")
    aggregate = _aggregate(summaries)
    _write_json(_artifact(args.out, "aggregate.json"), aggregate)
    _write_json(_artifact(args.out, "config.json"), cfg)
    _write_manifest(args.out, "train", cfg, seeds, started)
    _print_json(aggregate["metrics"])
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    started = _now()
    cfg = apply_flag_overrides(load_config(args.config), args)
    raw = load_table(cfg)
    space, budget = build_search(cfg["search"])
    seed = cfg["search"]["seed"]
    split, state = prepare_dataset(raw, seed)
    template = build_model_config(cfg, split)
    base_train = build_train_config(cfg["train"])
    best, records = run_search(
        split, space, budget, seed,
        model_template=template, base_train=base_train, log_path=_artifact(args.out, "trials.jsonl"),
    )
    curve = best_so_far_curve(records)
    with open(_artifact(args.out, "sensitivity.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "val_metric", "best_so_far"])
        for rec, best_val in zip(sorted(records, key=lambda r: r.trial_id), curve):
            writer.writerow([rec.trial_id, f"{rec.val_metric:.6f}", f"{best_val:.6f}"])
    report, params = refit_best(best, split, seed=seed)
    model_cfg = ModelConfig.from_dict(report["config"]["model"])
    save_checkpoint(_artifact(args.out, "checkpoint_best.bin"), params, model_cfg)
    with open(_artifact(args.out, "preprocess_best.json"), "w", encoding="utf-8") as fh:
        fh.write(state.to_json() + "\n")
    # keep only schema keys, so best_config.json is valid `train --config` input
    schema = default_config()
    best_cfg = json.loads(json.dumps(cfg))
    best_cfg["model"]["nsa"] = {k: v for k, v in best.model["nsa"].items() if k in schema["model"]["nsa"]}
    best_cfg["train"] = {k: v for k, v in report["config"]["train"].items() if k in schema["train"]}
    _write_json(_artifact(args.out, "best_config.json"), best_cfg)
    _write_json(_artifact(args.out, "refit_report.json"), report)
    extra = {"budget": budget, "trial_wall_seconds": [rec.wall_seconds for rec in records]}
    _write_manifest(args.out, "tune", cfg, [seed], started, extra=extra)
    _print_json({"best_trial": best.trial_id, "val_metric": best.val_metric, "test": report["test"]})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params, model_cfg = load_checkpoint(args.checkpoint)
    state_path = args.preprocess or os.path.join(
        os.path.dirname(args.checkpoint),
        os.path.basename(args.checkpoint).replace("checkpoint", "preprocess").replace(".bin", ".json"),
    )
    try:
        with open(state_path, "r", encoding="utf-8") as fh:
            state = PreprocessState.from_json(fh.read())
    except FileNotFoundError:
        raise ConfigError("preprocess", f"preprocess state not found: {state_path}")
    cfg = apply_flag_overrides(load_config(args.config), args)
    if not cfg["data"].get("target"):
        cfg["data"]["target"] = state.target["name"]
    raw = load_table(cfg)
    features, labels = apply_preprocess(raw, state)
    if features.values.shape[1] != model_cfg.num_tokens:
        raise ConfigError("data.csv", f"{features.values.shape[1]} features; checkpoint expects {model_cfg.num_tokens}")
    report = evaluation_report(params, model_cfg, features, labels)
    payload = {"checkpoint": os.path.basename(args.checkpoint), "rows": int(features.values.shape[0]), "report": report.to_dict()}
    if args.out:
        _write_json(_artifact(args.out, "eval_report.json"), payload)
    _print_json(payload)
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    started = _now()
    cfg = apply_flag_overrides(load_config(args.config), args)
    raw = load_table(cfg)
    seed = cfg["search"]["seed"]
    space, budget = build_search(cfg["search"])
    base_train = build_train_config(cfg["train"])
    set1, set2 = transfer_split(raw, args.overlap, seed)
    shared = sorted(set(c.name for c in set1.feature_columns) & set(c.name for c in set2.feature_columns))
    splits = {"set1": prepare_dataset(set1, seed)[0], "set2": prepare_dataset(set2, seed)[0]}
    templates = {label: build_model_config(cfg, split) for label, split in splits.items()}
    trial_wall_seconds = {}

    def direction(src: str, dst: str) -> dict:
        best, records = run_search(
            splits[src], space, budget, seed,
            model_template=templates[src], base_train=base_train,
            log_path=_artifact(args.out, f"trials_{src}.jsonl"),
        )
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
            "test": report.to_dict(),
        }

    forward = direction("set1", "set2")
    backward = direction("set2", "set1")
    for leg in (forward, backward):
        if leg["applied_nsa"] != leg["tuned_nsa"]:
            raise RuntimeError("transfer protocol violation: applied hyperparameters differ from tuned ones")
    result = {
        "overlap": args.overlap,
        "shared_features": shared,
        "set1_features": [c.name for c in set1.feature_columns],
        "set2_features": [c.name for c in set2.feature_columns],
        "set1_to_set2": forward,
        "set2_to_set1": backward,
    }
    _write_json(_artifact(args.out, "transfer.json"), result)
    extra = {"overlap": args.overlap, "trial_wall_seconds": trial_wall_seconds}
    _write_manifest(args.out, "transfer", cfg, [seed], started, extra=extra)
    _print_json({"set1_to_set2": forward["test"], "set2_to_set1": backward["test"]})
    return 0


def _ablate_settings(what: str, cfg: dict) -> list[tuple[str, str, dict]]:
    """(parameter, value-label, config-overrides) triples for one axis."""
    rows: list[tuple[str, str, dict]] = []
    if what == "fusion":
        for variant in FUSION_VARIANTS:
            rows.append(("fusion", variant, {"model": {"fusion": variant}}))
    elif what == "blocks":
        for depth in (1, 2, 3, 4):
            rows.append(("num_blocks", str(depth), {"model": {"num_blocks": depth}}))
    elif what == "optimizer":
        for opt in OPTIMIZERS:
            rows.append(("optimizer", opt, {"train": {"optimizer": opt}}))
    elif what == "sparse_params":
        baseline = cfg["model"]["nsa"]
        for name, grid in SPARSE_SWEEPS.items():
            for value in grid:
                # every row keeps 2 <= select_block <= compress_block
                if name == "select_block" and value > baseline["compress_block"]:
                    continue
                if name == "compress_block" and value < baseline["select_block"]:
                    continue
                nsa = {name: value}
                if name in ("compress_block", "select_block"):
                    nsa["compress_stride"] = None  # re-derived from the new blocks
                rows.append((name, str(value), {"model": {"nsa": nsa}}))
    else:
        raise ConfigError("ablate", f"unknown axis {what!r}; expected one of {ABLATE_AXES}")
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    started = _now()
    cfg = apply_flag_overrides(load_config(args.config), args)
    seeds = parse_seeds(args.seeds)
    raw = load_table(cfg)
    # build every row's configs before the first row trains
    split, _ = prepare_dataset(raw, seeds[0])
    sweep = []
    for parameter, value, overrides in _ablate_settings(args.what, cfg):
        merged = _merge(json.loads(json.dumps(cfg)), overrides, "")
        build_model_config(merged, split)
        build_train_config(merged["train"])
        sweep.append((parameter, value, merged))
    rows = []
    for parameter, value, merged in sweep:
        reports = []
        for seed in seeds:
            summary, *_ = _train_once(merged, raw, seed)
            reports.append(summary)
        metric = _metric_name(reports[0]["test"])
        values = [r["test"][metric] for r in reports if r["test"][metric] is not None]
        rows.append({
            "parameter": parameter,
            "value": value,
            "metric_name": metric,
            "mean": float(np.mean(values)) if values else float("nan"),
            "std": float(np.std(values)) if values else float("nan"),
            "n_seeds": len(seeds),
        })
    with open(_artifact(args.out, f"ablation_{args.what}.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "metric_name", "mean", "std", "n_seeds"])
        for row in rows:
            writer.writerow([
                row["parameter"], row["value"], row["metric_name"],
                f"{row['mean']:.6f}", f"{row['std']:.6f}", row["n_seeds"],
            ])
    _write_json(_artifact(args.out, f"ablation_{args.what}.json"), rows)
    _write_manifest(args.out, "ablate", cfg, seeds, started, extra={"what": args.what})
    _print_json(rows)
    return 0


def cmd_flops(args: argparse.Namespace) -> int:
    cfg = apply_flag_overrides(load_config(args.config), args)
    split = None
    if cfg["data"].get("csv"):
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
        _write_json(_artifact(args.out, "flops.json"), payload)
    _print_json(payload)
    return 0


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


COMMANDS = {
    "train": cmd_train,
    "tune": cmd_tune,
    "eval": cmd_eval,
    "transfer": cmd_transfer,
    "ablate": cmd_ablate,
    "flops": cmd_flops,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
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
