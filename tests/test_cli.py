"""CLI tests: config schema enforcement, exit codes, artifact layout,
byte-stable reruns, and the per-command output contracts."""

import argparse
import csv
import json
import math
import os
import re

import numpy as np
import pytest

from tabnsa.cli import (
    ConfigError,
    _ablate_settings,
    _merge,
    build_model_config,
    build_nsa_config,
    build_parser,
    build_search,
    build_train_config,
    default_config,
    load_config,
    main,
    parse_seeds,
)
from tabnsa.data import write_two_gaussians_csv
from tabnsa.hyperopt import THREADS_ENV_VAR
from tabnsa.model import count_flops, dense_attention_flops, load_checkpoint
from tabnsa.nsa_attention import NSAConfig


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_two_gaussians_csv(str(path), n_rows=100, n_features=6, seed=3)
    return str(path)


@pytest.fixture(scope="module")
def regression_csv(tmp_path_factory):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 5))
    y = x @ rng.normal(size=5) + 0.1 * rng.normal(size=60)
    path = tmp_path_factory.mktemp("data") / "numeric.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(5)] + ["y"])
        for row, target in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    return str(path)


def assert_same_artifacts(out1, out2):
    """Every file matches byte for byte, except the manifest's timestamps,
    paths and per-trial wall times."""
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        if name == "manifest.json":
            m1, m2 = json.loads(b1), json.loads(b2)
            for m in (m1, m2):
                m.pop("started_at"), m.pop("finished_at"), m.pop("out_dir"), m.pop("trial_wall_seconds", None)
            assert m1 == m2
        else:
            assert b1 == b2, f"{name} differs between identical runs"


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory, toy_csv):
    cfg = {
        "data": {"csv": toy_csv, "target": "label"},
        "model": {"nsa": {"heads": 2, "head_dim": 4}},
        "train": {"max_epochs": 8, "patience": 3, "lr": 5e-3, "batch_size": 32},
        "search": {
            "budget": 2,
            "seed": 1,
            "space": {
                "head_dim": (4, 6), "heads": (1, 2), "window": (2, 3),
                "compress_block": (4, 4), "num_selected": (1, 2),
                "lr": (2e-3, 8e-3), "batch_size": (16, 32),
            },
        },
    }
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, np.integer)):
        return "integer"
    return {float: "number", str: "string", list: "array", tuple: "array", dict: "object"}[type(value)]


def config_leaves(node, path=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from config_leaves(value, path + (key,))
        else:
            yield ".".join(path + (key,)), value


# the kinds a leaf whose default is null takes, as README gives them
NULL_DEFAULT_KINDS = {
    "data.csv": {"null", "string"}, "data.target": {"null", "string"}, "data.schema": {"null", "object"},
    "model.num_tokens": {"null", "integer"}, "model.num_classes": {"null", "integer"},
    "model.regression": {"null", "boolean"},
}
# the kinds a leaf's value may have: its default's, with an integer also a number
LEAF_KINDS = {
    leaf: NULL_DEFAULT_KINDS.get(leaf) or ({"number", "integer"} if json_kind(default) == "number" else {json_kind(default)})
    for leaf, default in config_leaves(default_config())
}
# each leaf with one value of every JSON type it does not take
TYPE_CASES = [
    (leaf, value)
    for leaf, kinds in LEAF_KINDS.items()
    for value in (None, True, 3, 2.5, "x", [1, 2], {"a": 1})
    if json_kind(value) not in kinds
]


class TestConfigMachinery:
    def test_defaults_have_version_and_sections(self):
        cfg = load_config(None)
        assert cfg["version"] == 1
        assert set(cfg) == {"version", "data", "model", "train", "search"}

    def test_unknown_field_is_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"model": {"nsa": {"bogus": 3}}}')
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert "model.nsa.bogus" in str(err.value)

    def test_version_mismatch_rejected(self, tmp_path):
        p = tmp_path / "v9.json"
        p.write_text('{"version": 9}')
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_readme_example_lists_every_default_field(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
        example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        for path in ((), ("data",), ("model",), ("model", "nsa"), ("train",), ("train", "adamw"), ("train", "lbfgs")):
            documented, default = example, default_config()
            for key in path:
                documented, default = documented[key], default[key]
            assert set(documented) == set(default), path

    def test_config_has_40_leaves(self):
        def leaves(node):
            return sum(leaves(v) if isinstance(v, dict) else 1 for v in node.values())

        assert leaves(default_config()) == 40

    @pytest.mark.parametrize("leaf,value", TYPE_CASES, ids=[f"{leaf}={json.dumps(v)}" for leaf, v in TYPE_CASES])
    def test_a_value_of_another_json_type_is_rejected_or_built_to_the_default_type(self, leaf, value, tmp_path):
        body = {"model": {"num_tokens": 6}}
        *sections, key = leaf.split(".")
        node = body
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(body))
        try:
            cfg = load_config(str(p))
            space, budget = build_search(cfg["search"])
            built = {
                **cfg,
                "model": build_model_config(cfg, None),
                "train": build_train_config(cfg["train"]),
                "search": {"budget": budget, "seed": cfg["search"]["seed"], "space": space},
            }
        except ConfigError as err:
            assert err.field == leaf
            return
        for name in leaf.split("."):
            built = built[name] if isinstance(built, dict) else getattr(built, name)
        assert json_kind(built) in LEAF_KINDS[leaf], (leaf, built)

    def test_nsa_stride_null_becomes_common_divisor(self):
        nsa = default_config()["model"]["nsa"]
        nsa.update({"compress_block": 6, "select_block": 4, "compress_stride": None})
        built = build_nsa_config(nsa)
        assert built.compress_stride == math.gcd(6, 4) == 2

    def test_nsa_dim_must_match_heads_times_head_dim(self, tmp_path, capsys):
        # dim is derived, so a config file cannot set it at all
        p = tmp_path / "dim.json"
        p.write_text('{"model": {"nsa": {"dim": 16}}}')
        assert main(["flops", "--config", str(p)]) == 2
        assert "model.nsa.dim: unknown config field" in capsys.readouterr().err
        assert build_nsa_config(default_config()["model"]["nsa"]).dim == 16
        with pytest.raises(ValueError, match="dim 99"):
            NSAConfig(dim=99)

    def test_flops_requires_num_tokens(self):
        with pytest.raises(ConfigError) as err:
            build_model_config(default_config(), None)
        assert "model.num_tokens" in str(err.value)

    def test_parse_seeds(self):
        assert parse_seeds("0..9") == list(range(10))
        assert parse_seeds("0,3,7") == [0, 3, 7]
        assert parse_seeds("4") == [4]
        with pytest.raises(ValueError):
            parse_seeds("5..3")
        with pytest.raises(ValueError):
            parse_seeds(",")


COMMON_FLAGS = {"--config", "--out", "--csv", "--target"}
TRAINING_FLAGS = COMMON_FLAGS | {"--optimizer", "--fusion", "--no-feature-ids"}
SUBCOMMAND_FLAGS = {
    "train": TRAINING_FLAGS | {"--seeds"},
    "tune": TRAINING_FLAGS | {"--budget"},
    "eval": COMMON_FLAGS | {"--checkpoint", "--preprocess"},
    "transfer": TRAINING_FLAGS | {"--overlap", "--budget"},
    "ablate": TRAINING_FLAGS | {"--what", "--seeds"},
    "flops": COMMON_FLAGS | {"--fusion", "--no-feature-ids", "--compare-dense"},
}


class TestFlagSurface:
    """Each subcommand registers only the flags whose values it reads."""

    def registered(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: [opt for action in sub._actions for opt in action.option_strings if opt != "--help" and opt.startswith("--")]
            for name, sub in subs.choices.items()
        }

    def test_each_subcommand_registers_exactly_its_flags(self):
        registered = self.registered()
        assert {name: set(flags) for name, flags in registered.items()} == SUBCOMMAND_FLAGS
        assert sum(len(flags) for flags in registered.values()) == 47
        assert len(set().union(*registered.values())) == 14

    def test_eval_rejects_a_model_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", "c.bin", "--fusion", "m"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fusion m" in capsys.readouterr().err

    @pytest.mark.parametrize("field,body", [
        ("model.nsa.causal", {"model": {"nsa": {"causal": True}}}),
        ("train.seed", {"train": {"seed": 7}}),
        ("data.seed", {"data": {"seed": 7}}),
    ])
    def test_removed_field_exits_2_naming_it(self, field, body, tmp_path, capsys):
        p = tmp_path / "old.json"
        p.write_text(json.dumps(body))
        assert main(["flops", "--config", str(p)]) == 2
        assert f"{field}: unknown config field" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_target_column_names_it(self, toy_csv, tmp_path, capsys):
        code = main(["train", "--csv", toy_csv, "--target", "nope", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_csv_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--target", "label", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "csv" in capsys.readouterr().err

    def test_config_file_not_found(self, tmp_path, capsys):
        code = main(["flops", "--config", str(tmp_path / "missing.json")])
        assert code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_removed_loss_field_is_unknown(self, tmp_path, capsys):
        p = tmp_path / "old.json"
        p.write_text('{"train": {"loss": "mse"}}')
        assert main(["flops", "--config", str(p)]) == 2
        assert "train.loss: unknown config field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_count_names_the_variable(self, value, fast_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(THREADS_ENV_VAR, value)
        out = tmp_path / "tuned"
        assert main(["tune", "--config", fast_config, "--out", str(out), "--budget", "2"]) == 2
        assert f"{THREADS_ENV_VAR} must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not (out / "trials.jsonl").exists()

    def test_lbfgs_without_history_is_rejected_before_training(self, toy_csv, tmp_path, capsys):
        p = tmp_path / "no_history.json"
        p.write_text('{"train": {"lbfgs": {"history": 0}}}')
        out = tmp_path / "o"
        code = main(["train", "--config", str(p), "--csv", toy_csv, "--target", "label", "--out", str(out)])
        assert code == 2
        assert "history" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, flags, message", [
        ("tune", {"search": {"space": {"heads": [3, 1]}}}, [], "config error: search.space"),
        ("transfer", {}, ["--budget", "0", "--overlap", "0.5"], "config error: search.budget"),
        ("ablate", {"train": {"lr": 5}}, ["--what", "fusion", "--seeds", "0"], "config error: train"),
    ], ids=["tune", "transfer", "ablate"])
    def test_rejected_config_leaves_no_out_dir(self, command, body, flags, message, toy_csv, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(body))
        out = tmp_path / "o"
        code = main([command, "--config", str(p), "--csv", toy_csv, "--target", "label", "--out", str(out), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, field", [
        ("flops", {"model": []}, "model"),
        ("flops", {"model": {"nsa": 7}}, "model.nsa"),
        ("train", {"train": {"adamw": 3}}, "train.adamw"),
        ("tune", {"search": {"space": 3}}, "search.space"),
        ("train", {"data": {"schema": 4}}, "data.schema"),
        ("train", {"model": {"nsa": {"window": 2.5}}}, "model.nsa.window"),
        ("train", {"model": {"nsa": {"num_selected": 1.5}}}, "model.nsa.num_selected"),
        ("train", {"model": {"hidden_head": 8.5}}, "model.hidden_head"),
        ("train", {"train": {"batch_size": 16.5}}, "train.batch_size"),
        ("train", {"train": {"max_epochs": 1.5}}, "train.max_epochs"),
        ("train", {"model": {"nsa": {"heads": True}}}, "model.nsa.heads"),
        ("train", {"model": {"num_blocks": True}}, "model.num_blocks"),
        ("train", {"train": {"batch_size": True}}, "train.batch_size"),
        ("tune", {"search": {"budget": True}}, "search.budget"),
        ("tune", {"search": {"space": {"heads": [1]}}}, "search.space.heads"),
        ("tune", {"search": {"space": {"lr": [1e-3, 2e-3, 3e-3]}}}, "search.space.lr"),
    ], ids=lambda v: json.dumps(v, separators=(",", ":")) if isinstance(v, dict) else v)
    def test_a_value_of_the_wrong_json_type_exits_2_naming_it(self, command, body, field, toy_csv, tmp_path, capsys):
        body.setdefault("train", {}).setdefault("max_epochs", 1)
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(body))
        out = tmp_path / "o"
        code = main([command, "--config", str(p), "--csv", toy_csv, "--target", "label", "--out", str(out)])
        assert code == 2
        assert f"config error: {field}: expected " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [("tune", []), ("transfer", ["--overlap", "0.5"])])
    def test_search_on_a_numeric_target_writes_nothing(self, command, flags, regression_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([command, "--csv", regression_csv, "--target", "y", "--out", str(out), "--budget", "1", *flags])
        assert code == 2
        assert "search maximizes a classification metric" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_list(self, fast_config, tmp_path, capsys):
        code = main(["train", "--config", fast_config, "--out", str(tmp_path / "o"), "--seeds", "9..1"])
        assert code == 2


class TestTrainCommand:
    def test_multi_seed_reports_and_aggregate(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", fast_config, "--out", out, "--seeds", "0..4"]) == 0
        for seed in range(5):
            assert os.path.exists(os.path.join(out, f"report_s{seed}.json"))
            assert os.path.exists(os.path.join(out, f"history_s{seed}.jsonl"))
            assert os.path.exists(os.path.join(out, f"checkpoint_s{seed}.bin"))
        agg = json.load(open(os.path.join(out, "aggregate.json")))
        assert agg["n_seeds"] == 5
        auc = agg["metrics"]["auc"]
        assert len(auc["per_seed"]) == 5
        assert auc["mean"] == pytest.approx(float(np.mean(auc["per_seed"])))
        assert auc["std"] == pytest.approx(float(np.std(auc["per_seed"])))
        stdout = capsys.readouterr().out
        assert json.loads(stdout.strip())["auc"]["mean"] == auc["mean"]

    def test_rerun_is_byte_identical_except_manifest(self, fast_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", fast_config, "--out", out1, "--seeds", "0"]) == 0
        assert main(["train", "--config", fast_config, "--out", out2, "--seeds", "0"]) == 0
        assert_same_artifacts(out1, out2)

    def test_checkpoint_round_trips_through_eval(self, fast_config, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--config", fast_config, "--out", out, "--seeds", "7"]) == 0
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint_s7.bin")
        assert main(["eval", "--checkpoint", ckpt, "--csv", toy_csv]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["rows"] == 100
        assert 0.0 <= payload["report"]["auc"] <= 1.0
        params, cfg = load_checkpoint(ckpt)
        assert cfg.num_tokens == 6

    def test_numeric_target_reports_rmse_through_train_and_eval(self, regression_csv, tmp_path, capsys):
        cfg = {
            "data": {"csv": regression_csv, "target": "y"},
            "model": {"nsa": {"heads": 2, "head_dim": 4}},
            "train": {"max_epochs": 4, "patience": 2, "lr": 5e-3},
        }
        cfg_path = tmp_path / "numeric.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        assert main(["train", "--config", str(cfg_path), "--out", out, "--seeds", "0"]) == 0
        capsys.readouterr()
        test_report = json.load(open(os.path.join(out, "report_s0.json")))["test"]
        assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint_s0.bin"), "--csv", regression_csv]) == 0
        eval_report = json.loads(capsys.readouterr().out.strip())["report"]
        for report in (test_report, eval_report):
            assert report["rmse"] is not None and report["rmse"] >= 0.0
            assert report["auc"] is None
        _, model_cfg = load_checkpoint(os.path.join(out, "checkpoint_s0.bin"))
        assert model_cfg.regression and model_cfg.num_classes == 1

    @pytest.mark.parametrize("field,value", [("num_tokens", 7), ("num_classes", 3), ("regression", True)])
    def test_pinned_shape_must_match_the_data(self, fast_config, tmp_path, capsys, field, value):
        cfg = json.load(open(fast_config))
        cfg["model"][field] = value
        cfg_path = tmp_path / "pinned.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"model.{field}" in capsys.readouterr().err

    def test_flag_overrides_reach_the_model(self, fast_config, tmp_path):
        out = str(tmp_path / "noids")
        assert main([
            "train", "--config", fast_config, "--out", out, "--seeds", "0",
            "--fusion", "c", "--no-feature-ids", "--optimizer", "lbfgs",
        ]) == 0
        saved = json.load(open(os.path.join(out, "config.json")))
        assert saved["model"]["fusion"] == "c"
        assert saved["model"]["feature_id_embedding"] is False
        assert saved["train"]["optimizer"] == "lbfgs"
        _, cfg = load_checkpoint(os.path.join(out, "checkpoint_s0.bin"))
        assert cfg.fusion == "c"
        assert cfg.feature_id_embedding is False


class TestRerunIdentity:
    """Every artifact-writing command reruns to the same bytes and stdout."""

    @pytest.mark.parametrize("argv, files", [
        (["tune", "--budget", "2"], {"trials.jsonl", "sensitivity.csv", "refit_report.json", "checkpoint_best.bin",
                                     "preprocess_best.json", "best_config.json", "manifest.json"}),
        (["eval"], {"eval_report.json"}),
        (["transfer", "--overlap", "0.5"], {"trials_set1.jsonl", "trials_set2.jsonl", "transfer.json", "manifest.json"}),
        (["ablate", "--what", "optimizer", "--seeds", "0"],
         {"ablation_optimizer.csv", "ablation_optimizer.json", "manifest.json"}),
        (["flops", "--compare-dense"], {"flops.json"}),
    ], ids=["tune", "eval", "transfer", "ablate", "flops"])
    def test_rerun_is_byte_identical(self, argv, files, fast_config, tmp_path, capsys):
        if argv[0] == "eval":
            trained = str(tmp_path / "trained")
            assert main(["train", "--config", fast_config, "--out", trained, "--seeds", "0"]) == 0
            argv = argv + ["--checkpoint", os.path.join(trained, "checkpoint_s0.bin")]
        capsys.readouterr()
        outs, stdouts = [str(tmp_path / "a"), str(tmp_path / "b")], []
        for out in outs:
            assert main(argv + ["--config", fast_config, "--out", out]) == 0
            stdouts.append(capsys.readouterr().out)
        assert stdouts[0] == stdouts[1]
        assert set(os.listdir(outs[0])) == files
        assert_same_artifacts(*outs)


    @pytest.mark.parametrize("argv", [["tune", "--budget", "3"], ["transfer", "--overlap", "0.5"]], ids=lambda a: a[0])
    def test_artifacts_do_not_depend_on_worker_count(self, argv, fast_config, tmp_path, monkeypatch, capsys):
        outs, stdouts = [str(tmp_path / "one"), str(tmp_path / "two")], []
        for out, workers in zip(outs, ("1", "2")):
            monkeypatch.setenv(THREADS_ENV_VAR, workers)
            assert main(argv + ["--config", fast_config, "--out", out]) == 0
            stdouts.append(capsys.readouterr().out)
        assert stdouts[0] == stdouts[1]
        assert any(name.startswith("trials") for name in os.listdir(outs[0]))
        assert_same_artifacts(*outs)


class TestTuneCommand:
    def test_budget_one_logs_one_trial_and_refits(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "tuned")
        assert main(["tune", "--config", fast_config, "--out", out, "--budget", "1"]) == 0
        trials = open(os.path.join(out, "trials.jsonl")).read().strip().split("\n")
        assert len(trials) == 1
        rows = list(csv.DictReader(open(os.path.join(out, "sensitivity.csv"))))
        assert len(rows) == 1
        assert os.path.exists(os.path.join(out, "refit_report.json"))
        assert os.path.exists(os.path.join(out, "checkpoint_best.bin"))
        assert os.path.exists(os.path.join(out, "best_config.json"))

    def test_sensitivity_curve_nondecreasing(self, fast_config, tmp_path):
        out = str(tmp_path / "tuned")
        assert main(["tune", "--config", fast_config, "--out", out, "--budget", "3"]) == 0
        rows = list(csv.DictReader(open(os.path.join(out, "sensitivity.csv"))))
        assert len(rows) == 3
        curve = [float(r["best_so_far"]) for r in rows]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_resume_reuses_logged_trials(self, fast_config, tmp_path):
        out = str(tmp_path / "tuned")
        assert main(["tune", "--config", fast_config, "--out", out, "--budget", "3"]) == 0
        first_trials = open(os.path.join(out, "trials.jsonl")).read()
        first_curve = open(os.path.join(out, "sensitivity.csv")).read()
        first_report = open(os.path.join(out, "refit_report.json")).read()
        first_walls = json.load(open(os.path.join(out, "manifest.json")))["trial_wall_seconds"]
        assert main(["tune", "--config", fast_config, "--out", out, "--budget", "3"]) == 0
        assert open(os.path.join(out, "trials.jsonl")).read() == first_trials
        assert open(os.path.join(out, "sensitivity.csv")).read() == first_curve
        assert open(os.path.join(out, "refit_report.json")).read() == first_report
        assert all(w > 0 for w in first_walls) and len(first_walls) == 3
        assert json.load(open(os.path.join(out, "manifest.json")))["trial_wall_seconds"] == [None] * 3

    def test_best_config_is_valid_train_input(self, fast_config, tmp_path):
        out = str(tmp_path / "tuned")
        assert main(["tune", "--config", fast_config, "--out", out, "--budget", "2"]) == 0
        best_cfg = os.path.join(out, "best_config.json")
        assert main(["train", "--config", best_cfg, "--out", str(tmp_path / "refit"), "--seeds", "0"]) == 0

    def test_tune_then_train_then_eval_both_checkpoints(self, fast_config, toy_csv, tmp_path):
        tuned, refit = str(tmp_path / "tuned"), str(tmp_path / "refit")
        assert main(["tune", "--config", fast_config, "--out", tuned, "--budget", "1"]) == 0
        best_cfg = os.path.join(tuned, "best_config.json")
        assert main(["train", "--config", best_cfg, "--out", refit, "--seeds", "0"]) == 0
        for ckpt in (os.path.join(tuned, "checkpoint_best.bin"), os.path.join(refit, "checkpoint_s0.bin")):
            assert main(["eval", "--checkpoint", ckpt, "--csv", toy_csv]) == 0

    def test_zero_budget_is_config_error(self, fast_config, tmp_path, capsys):
        code = main(["tune", "--config", fast_config, "--out", str(tmp_path / "t"), "--budget", "0"])
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestTransferCommand:
    def test_overlap_arithmetic_and_reports(self, tmp_path, capsys):
        csv_path = str(tmp_path / "wide.csv")
        write_two_gaussians_csv(csv_path, n_rows=80, n_features=20, seed=5)
        cfg = {
            "data": {"csv": csv_path, "target": "label"},
            "train": {"max_epochs": 4, "patience": 2, "lr": 5e-3},
            "search": {
                "budget": 1, "seed": 0,
                "space": {
                    "head_dim": (4, 4), "heads": (1, 1), "window": (2, 2),
                    "compress_block": (4, 4), "num_selected": (1, 1),
                    "lr": (5e-3, 5e-3), "batch_size": (32, 32),
                },
            },
        }
        cfg_path = tmp_path / "xfer.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "xfer")
        assert main(["transfer", "--config", str(cfg_path), "--out", out, "--overlap", "0.5"]) == 0
        result = json.load(open(os.path.join(out, "transfer.json")))
        assert len(result["shared_features"]) == 10
        assert len(result["set1_features"]) == 15
        assert len(result["set2_features"]) == 15
        for leg in ("set1_to_set2", "set2_to_set1"):
            assert result[leg]["applied_nsa"] == result[leg]["tuned_nsa"]
            assert result[leg]["test"]["macro_f1"] is not None

    def test_invalid_overlap_is_usage_error(self, fast_config, tmp_path):
        code = main(["transfer", "--config", fast_config, "--out", str(tmp_path / "x"), "--overlap", "2.0"])
        assert code == 2


class TestAblateCommand:
    def run_axis(self, what, fast_config, tmp_path):
        out = str(tmp_path / f"abl_{what}")
        assert main(["ablate", "--config", fast_config, "--out", out, "--what", what, "--seeds", "0"]) == 0
        return list(csv.DictReader(open(os.path.join(out, f"ablation_{what}.csv"))))

    def test_fusion_axis_has_four_variants(self, fast_config, tmp_path):
        rows = self.run_axis("fusion", fast_config, tmp_path)
        assert [r["value"] for r in rows] == ["o", "m", "c", "r"]
        assert all(r["metric_name"] == "auc" for r in rows)

    def test_blocks_axis_sweeps_depth(self, fast_config, tmp_path):
        rows = self.run_axis("blocks", fast_config, tmp_path)
        assert [r["value"] for r in rows] == ["1", "2", "3", "4"]

    def test_optimizer_axis(self, fast_config, tmp_path):
        rows = self.run_axis("optimizer", fast_config, tmp_path)
        assert [r["value"] for r in rows] == ["adamw", "lbfgs"]

    def test_sparse_params_axis_varies_one_at_a_time(self, fast_config, tmp_path):
        rows = self.run_axis("sparse_params", fast_config, tmp_path)
        by_param = {}
        for r in rows:
            by_param.setdefault(r["parameter"], []).append(r["value"])
        assert by_param["window"] == ["1", "2", "4", "8"]
        assert by_param["compress_block"] == ["4", "8", "16"]
        assert by_param["select_block"] == ["2", "4"]
        assert by_param["num_selected"] == ["1", "2", "4"]

    def test_sparse_params_skips_a_compress_block_below_the_select_block(self, toy_csv, tmp_path):
        p = tmp_path / "wide_select.json"
        p.write_text(json.dumps({
            "model": {"nsa": {"heads": 2, "head_dim": 4, "compress_block": 8, "select_block": 8, "compress_stride": 4}},
            "train": {"max_epochs": 1, "patience": 1},
        }))
        out = str(tmp_path / "abl")
        argv = ["ablate", "--config", str(p), "--csv", toy_csv, "--target", "label", "--out", out]
        assert main(argv + ["--what", "sparse_params", "--seeds", "0"]) == 0
        rows = list(csv.DictReader(open(os.path.join(out, "ablation_sparse_params.csv"))))
        assert [r["value"] for r in rows if r["parameter"] == "compress_block"] == ["8", "16"]
        assert [r["value"] for r in rows if r["parameter"] == "select_block"] == ["2", "4"]

    @staticmethod
    def sweep_configs(cfg):
        """(parameter, NSAConfig) for every `sparse_params` row of `cfg`."""
        return [
            (name, build_nsa_config(_merge(json.loads(json.dumps(cfg)), overrides, "")["model"]["nsa"]))
            for name, _, overrides in _ablate_settings("sparse_params", cfg)
        ]

    def test_sparse_params_holds_the_baseline_stride_unless_a_block_changes(self):
        cfg = default_config()
        cfg["model"]["nsa"].update(compress_block=8, select_block=8, compress_stride=4)
        built = self.sweep_configs(cfg)
        held = [nsa.compress_stride for name, nsa in built if name in ("window", "num_selected")]
        assert held == [4] * 7
        derived = [(nsa.compress_block, nsa.select_block, nsa.compress_stride) for name, nsa in built
                   if name in ("compress_block", "select_block")]
        assert derived == [(8, 8, 8), (16, 8, 8), (8, 2, 2), (8, 4, 4)]

    def test_sparse_params_rows_of_the_default_baseline_use_the_gcd_stride(self):
        built = self.sweep_configs(default_config())
        assert len(built) == 12
        assert all(nsa.compress_stride == math.gcd(nsa.compress_block, nsa.select_block) for _, nsa in built)


FLOPS_KEYS = [
    "attention_compression",
    "attention_selection",
    "attention_window",
    "branch_combine",
    "compression_phi",
    "embedding",
    "fusion",
    "gate_mlp",
    "head",
    "output_proj",
    "pool",
    "qkv_proj",
    "selection_scoring",
    "tabmixer",
]


class TestFlopsCommand:
    def write_cfg(self, tmp_path, num_tokens=16):
        cfg = {"model": {"num_tokens": num_tokens, "nsa": {
            "heads": 2, "head_dim": 8, "window": 3, "compress_block": 4,
            "compress_stride": None, "select_block": 2, "num_selected": 2,
        }}}
        p = tmp_path / "flops.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_breakdown_keys_are_stable(self, tmp_path, capsys):
        assert main(["flops", "--config", self.write_cfg(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert sorted(payload["flops_breakdown"]) == FLOPS_KEYS
        assert set(payload) == {"batch_size", "num_tokens", "param_count", "flops_total", "flops_breakdown"}

    def test_compare_dense_prints_the_sparse_branches_beside_dense_attention(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["flops", "--config", path, "--compare-dense"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        model_cfg = build_model_config(load_config(path), None)
        total, breakdown = count_flops(model_cfg, 1)
        branches = ("compression_phi", "attention_compression", "selection_scoring", "attention_selection",
                    "attention_window")
        assert (payload["flops_total"], payload["flops_breakdown"]) == (total, breakdown)
        assert payload["sparse_branches_flops"] == sum(breakdown[k] for k in branches)
        assert payload["dense_attention_flops"] == dense_attention_flops(model_cfg, 1)

    def test_readme_compare_dense_table_is_what_the_command_prints(self, tmp_path, capsys):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
        rows = re.findall(r"^\| (\d+) \| ([\d,]+) \| ([\d,]+) \| ([\d.]+) \|$", readme, re.MULTILINE)
        assert [row[0] for row in rows] == ["15", "64", "256"]
        for n, sparse, dense, ratio in rows:
            assert main(["flops", "--config", self.write_cfg(tmp_path, int(n)), "--compare-dense"]) == 0
            payload = json.loads(capsys.readouterr().out.strip())
            printed = (payload["sparse_branches_flops"], payload["dense_attention_flops"])
            assert printed == (int(sparse.replace(",", "")), int(dense.replace(",", ""))), n
            assert f"{printed[0] / printed[1]:.1f}" == ratio, n

    def test_out_dir_writes_json(self, tmp_path, capsys):
        out = str(tmp_path / "f")
        assert main(["flops", "--config", self.write_cfg(tmp_path), "--out", out]) == 0
        disk = json.load(open(os.path.join(out, "flops.json")))
        stdout = json.loads(capsys.readouterr().out.strip())
        assert disk == stdout

    def test_token_count_derived_from_csv(self, toy_csv, capsys):
        assert main(["flops", "--csv", toy_csv, "--target", "label"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["num_tokens"] == 6
