"""End-to-end acceptance checks.

Each test here states a user-visible guarantee of the package: the sparse
attention layer degenerates to dense attention in the covering limit, every
parameter path carries correct gradients, the metric and selection kernels
match brute-force oracles, the optimizers hit their closed forms, the FLOPs
counter matches instrumented execution, training reaches a known bar on a
seeded synthetic task, and the CLI is deterministic. One long-running
benchmark reproduction is gated behind an environment variable because it
needs a user-supplied dataset.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from attention_oracle import full_attention
from conftest import fd_param_check
from flops_oracle import instrumented_forward
from tabnsa import nsa_attention as nsa
from tabnsa.autodiff import Tensor
from tabnsa.cli import main
from tabnsa.data import write_two_gaussians_csv
from tabnsa.metrics import roc_auc
from tabnsa.model import (
    ModelConfig,
    count_flops,
    dense_attention_flops,
    forward,
    init_model_params,
)
from tabnsa.nsa_attention import NSAConfig
from tabnsa.tabmixer import init_tabmixer_params, tabmixer_forward
from tabnsa.training import (
    AdamW,
    AdamWConfig,
    mse_loss,
    weighted_cross_entropy,
)

CREDIT_ENV = "TABNSA_CREDIT_APPROVAL_CSV"

# (compress_block, compress_stride, select_block) combinations that satisfy
# the divisibility rules, used when drawing random attention geometries.
BLOCK_GEOMETRIES = [(2, 1, 2), (2, 2, 2), (4, 2, 2), (4, 2, 4), (4, 4, 4), (6, 3, 3), (6, 2, 4), (8, 4, 4)]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "gaussians.csv"
    write_two_gaussians_csv(str(path), n_rows=200, n_features=8, seed=0)
    return str(path)


def random_nsa_config(rng, n_tokens, window=None, causal=None):
    heads = int(rng.integers(1, 4))
    head_dim = int(rng.integers(2, 5))
    l, d, lp = BLOCK_GEOMETRIES[int(rng.integers(len(BLOCK_GEOMETRIES)))]
    return NSAConfig(
        dim=heads * head_dim,
        heads=heads,
        head_dim=head_dim,
        window=int(rng.integers(1, n_tokens + 1)) if window is None else window,
        compress_block=l,
        compress_stride=d,
        select_block=lp,
        num_selected=int(rng.integers(1, 3)),
        causal=bool(rng.integers(2)) if causal is None else causal,
    )


class TestDenseEquivalence:
    def test_covering_window_reproduces_full_attention(self):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 13))
            cfg = random_nsa_config(rng, n, window=n)
            params = nsa.init_nsa_params(cfg, rng)
            # saturate the gate MLP so only the window branch contributes
            params["gate_w"].data[:] = 0.0
            params["gate_b"].data[:] = [-1000.0, -1000.0, 1000.0]
            batch = int(rng.integers(1, 4))
            x = Tensor(rng.normal(size=(batch, n, cfg.dim)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = nsa.nsa_forward(x, params, cfg).numpy()
            q, k, v = nsa.project_qkv(x, params, cfg)
            dense = full_attention(q, k, v, causal=cfg.causal)
            b, h, _, dh = dense.shape
            merged = dense.swapaxes(1, 2).reshape(b, n, h * dh)
            expected = (merged @ params["w_o"] + params["b_o"]).numpy()
            worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.monotonic() - start
        assert worst < 1e-6, f"max abs deviation from dense attention: {worst:.3e}"
        assert elapsed < 10.0, f"dense-equivalence sweep took {elapsed:.1f}s"


class TestGradientSuite:
    MODEL_VARIANTS = [
        dict(fusion="o", num_blocks=1, causal=False, regression=False, feature_ids=True),
        dict(fusion="m", num_blocks=1, causal=True, regression=False, feature_ids=True),
        dict(fusion="c", num_blocks=1, causal=False, regression=False, feature_ids=False),
        dict(fusion="r", num_blocks=1, causal=True, regression=False, feature_ids=True),
        dict(fusion="o", num_blocks=2, causal=False, regression=True, feature_ids=True),
        dict(fusion="m", num_blocks=1, causal=False, regression=True, feature_ids=False),
        dict(fusion="c", num_blocks=2, causal=True, regression=False, feature_ids=True),
        dict(fusion="r", num_blocks=1, causal=False, regression=False, feature_ids=False),
        dict(fusion="o", num_blocks=1, causal=True, regression=False, feature_ids=True),
        dict(fusion="m", num_blocks=2, causal=False, regression=False, feature_ids=True),
        # every query selects all 3 blocks (the last one padded), so the
        # selection branch is a shared-key product
        dict(fusion="o", num_blocks=2, causal=False, regression=False, feature_ids=True, tokens=5,
             nsa=NSAConfig(dim=6, heads=2, head_dim=3, window=3, compress_block=4, compress_stride=2,
                           select_block=2, num_selected=3)),
    ]

    def test_every_parameter_path_matches_finite_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        for i, variant in enumerate(self.MODEL_VARIANTS):
            n_tokens = int(rng.integers(4, 7))
            nsa_cfg = random_nsa_config(rng, n_tokens, causal=variant["causal"])
            if "nsa" in variant:
                nsa_cfg, n_tokens = variant["nsa"], variant["tokens"]
            cfg = ModelConfig(
                nsa=nsa_cfg,
                num_tokens=n_tokens,
                num_classes=3,
                regression=variant["regression"],
                hidden_head=4,
                num_blocks=variant["num_blocks"],
                fusion=variant["fusion"],
                feature_id_embedding=variant["feature_ids"],
            )
            params = init_model_params(cfg, np.random.default_rng(300 + i))
            x = rng.normal(size=(3, n_tokens))
            if variant["regression"]:
                targets = rng.normal(size=3)
                loss_fn = lambda: mse_loss(forward(x, params, cfg), targets)
            else:
                labels = rng.integers(0, 3, size=3)
                loss_fn = lambda: weighted_cross_entropy(forward(x, params, cfg), labels)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fd_param_check(loss_fn, params, rng, samples=2, h=1e-5, tol=1e-4)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"gradient sweep took {elapsed:.1f}s"


class TestMetricAndSelectionOracles:
    def test_roc_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(303)
        for case in range(100):
            b = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=b)
            labels[0], labels[1] = 0, 1  # both classes always present
            scores = rng.normal(size=b)
            if case % 2 == 0:
                scores = np.round(scores, 1)  # force ties
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            oracle = wins / (len(pos) * len(neg))
            assert abs(roc_auc(scores, labels) - oracle) <= 1e-12

    def test_selection_score_mapping_matches_double_sum(self):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 100:
            d = int(rng.integers(1, 5))
            l = d * int(rng.integers(1, 5))
            lp = d * int(rng.integers(1, 5))
            if l < 2 or lp < 2 or lp > l:
                continue
            cfg = NSAConfig(
                dim=4, heads=1, head_dim=4, window=1,
                compress_block=l, compress_stride=d, select_block=lp, num_selected=1,
            )
            n_tokens = int(rng.integers(2, 21))
            n_cmp = cfg.n_compressed(n_tokens)
            n_slc = cfg.n_select_blocks(n_tokens)
            p_cmp = rng.normal(size=(2, 1, 3, n_cmp))
            got = nsa.map_selection_scores(p_cmp, cfg, n_tokens)
            expected = np.zeros((2, 1, 3, n_slc))
            for j in range(n_slc):
                for m in range(lp // d):
                    for n in range(l // d):
                        i = (lp // d) * j - m - n
                        if 0 <= i < n_cmp:
                            expected[..., j] += p_cmp[..., i]
            npt.assert_allclose(got, expected, atol=1e-12)
            checked += 1

    def test_top_n_selection_matches_full_sort_oracle(self):
        rng = np.random.default_rng(505)
        for case in range(1000):
            n_slc = int(rng.integers(1, 11))
            n_sel = int(rng.integers(1, n_slc + 1))
            cfg = NSAConfig(
                dim=2, heads=1, head_dim=2, window=1,
                compress_block=2, compress_stride=2, select_block=2, num_selected=n_sel,
            )
            scores = rng.normal(size=n_slc)
            if case % 3 == 0:
                scores = np.round(scores, 1)  # tie-heavy cases
            kv = Tensor(np.zeros((1, 1, n_slc * 2, 2)))
            blocks, *_ = nsa.select_blocks(scores[None, None, None, :], kv, kv, cfg)
            oracle = sorted(sorted(range(n_slc), key=lambda j: (-scores[j], j))[:n_sel])
            assert blocks[0, 0, 0].tolist() == oracle


class TestMixerIdentity:
    def test_zeroed_mlp_is_bitwise_identity(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            b, n, d = int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 7))
            params = init_tabmixer_params(n, d, rng)
            for name in ("w1", "b1", "w2", "b2"):
                params[name].data[:] = 0.0
            x = rng.normal(size=(b, n, d))
            out = tabmixer_forward(Tensor(x), params).numpy()
            assert out.tobytes() == x.tobytes()


class TestTrainingSanity:
    def test_synthetic_gaussians_reach_auc_bar(self, synth_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": synth_csv, "target": "label"}}))
        out = str(tmp_path / "run")
        start = time.monotonic()
        assert main(["train", "--config", str(cfg_path), "--out", out, "--seeds", "0"]) == 0
        elapsed = time.monotonic() - start
        capsys.readouterr()
        report = json.load(open(os.path.join(out, "report_s0.json")))
        assert report["test"]["auc"] >= 0.95
        assert report["epochs_run"] <= 200
        assert elapsed < 60.0, f"training took {elapsed:.1f}s"


@pytest.mark.benchmark
@pytest.mark.skipif(
    CREDIT_ENV not in os.environ,
    reason=f"set {CREDIT_ENV} to a local Credit-Approval CSV (690 rows, 15 feature "
    "columns, label column last; no network access is attempted) to run this "
    "benchmark reproduction",
)
@pytest.mark.xfail(
    strict=False,
    reason="soft target: the reference tuned configuration is unknown, so a miss "
    "is reported for analysis rather than failing the suite",
)
def test_credit_approval_tuned_auc_band(tmp_path, capsys):
    csv_path = os.environ[CREDIT_ENV]
    with open(csv_path, encoding="utf-8") as fh:
        target = fh.readline().strip().split(",")[-1]
    cfg_path = tmp_path / "credit.json"
    cfg_path.write_text(json.dumps({
        "data": {"csv": csv_path, "target": target},
        "search": {"budget": 50, "seed": 0},
    }))
    tuned = str(tmp_path / "tuned")
    assert main(["tune", "--config", str(cfg_path), "--out", tuned, "--budget", "50"]) == 0
    refit = str(tmp_path / "refit")
    code = main([
        "train", "--config", os.path.join(tuned, "best_config.json"),
        "--out", refit, "--seeds", "0..9",
    ])
    assert code == 0
    capsys.readouterr()
    agg = json.load(open(os.path.join(refit, "aggregate.json")))
    mean_auc = agg["metrics"]["auc"]["mean"]
    print(f"credit-approval mean test AUC over 10 seeds: {mean_auc:.4f} (band 0.858..0.958)")
    assert 0.908 - 0.05 <= mean_auc <= 0.908 + 0.05


class TestFlopsAccounting:
    def test_matches_instrumented_execution_on_random_configs(self):
        rng = np.random.default_rng(707)
        fusions = ["o", "m", "c", "r"]
        for i in range(10):
            n_tokens = int(rng.integers(4, 13))
            cfg = ModelConfig(
                nsa=random_nsa_config(rng, n_tokens),
                num_tokens=n_tokens,
                num_classes=int(rng.integers(2, 5)),
                regression=bool(i % 4 == 3),
                hidden_head=int(rng.integers(2, 6)),
                num_blocks=int(rng.integers(1, 3)),
                fusion=fusions[i % 4],
                feature_id_embedding=bool(rng.integers(2)),
            )
            batch = int(rng.integers(1, 5))
            params = init_model_params(cfg, np.random.default_rng(800 + i))
            arrays = {k: p.data for k, p in params.items()}
            x = rng.normal(size=(batch, n_tokens))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, meter = instrumented_forward(x, arrays, cfg)
            total, breakdown = count_flops(cfg, batch)
            assert total == meter.total
            for key, value in breakdown.items():
                assert value == meter.by_component.get(key, 0), key

    def test_sparse_beats_dense_beyond_visible_set(self):
        geometries = [(3, 2, 2), (8, 2, 4), (1, 1, 2), (4, 4, 4)]
        for w, n_sel, lp in geometries:
            nsa_cfg = NSAConfig(
                dim=8, heads=2, head_dim=4, window=w,
                compress_block=lp, compress_stride=lp, select_block=lp, num_selected=n_sel,
            )
            visible = w + n_sel * lp
            for n_tokens in range(2, 49, 2):
                cfg = ModelConfig(nsa=nsa_cfg, num_tokens=n_tokens)
                _, breakdown = count_flops(cfg, 2)
                if n_tokens > visible:
                    per_query = breakdown["attention_selection"] + breakdown["attention_window"]
                    assert per_query < dense_attention_flops(cfg, 2), (
                        f"tokens={n_tokens} visible={visible}"
                    )

    def test_attention_cost_linear_in_token_count(self):
        def attention_flops(n_tokens):
            nsa_cfg = NSAConfig(
                dim=8, heads=2, head_dim=4, window=4,
                compress_block=8, compress_stride=4, select_block=4, num_selected=2,
            )
            _, breakdown = count_flops(ModelConfig(nsa=nsa_cfg, num_tokens=n_tokens), 1)
            return breakdown["attention_selection"] + breakdown["attention_window"]

        ratio = attention_flops(80) / attention_flops(40)
        assert 1.9 <= ratio <= 2.1


class TestOptimizerSuite:
    def test_adamw_single_step_closed_form(self):
        cfg = AdamWConfig(beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        p0 = np.array([0.5, -1.5, 2.0])
        g = np.array([0.3, -0.1, 0.7])
        param = Tensor(p0.copy(), requires_grad=True)
        param.grad = g.copy()
        AdamW({"p": param}, lr=1e-3, cfg=cfg).step()
        # after one step the bias corrections cancel: m_hat = g, v_hat = g^2
        expected = p0 - 1e-3 * (g / (np.abs(g) + cfg.eps) + cfg.weight_decay * p0)
        npt.assert_allclose(param.data, expected, atol=1e-12)


class TestCliDeterminism:
    def test_rerun_reports_byte_identical(self, synth_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": {"csv": synth_csv, "target": "label"},
            "train": {"max_epochs": 6, "patience": 3},
        }))
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["train", "--config", str(cfg_path), "--out", out1, "--seeds", "0,1"]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", out2, "--seeds", "0,1"]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        report_names = [n for n in names if n.startswith("report_")]
        assert len(report_names) == 2
        for name in names:
            if name == "manifest.json":  # timestamps live here, nowhere else
                continue
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, f"{name} differs between identical runs"


class TestAblationHarness:
    def test_all_fusion_variants_train_to_auc_bar(self, synth_csv, tmp_path, capsys):
        import csv as csv_mod

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data": {"csv": synth_csv, "target": "label"},
            "train": {"max_epochs": 40, "patience": 8, "lr": 5e-3},
        }))
        out = str(tmp_path / "abl")
        code = main(["ablate", "--config", str(cfg_path), "--out", out, "--what", "fusion", "--seeds", "0"])
        assert code == 0
        capsys.readouterr()
        rows = list(csv_mod.DictReader(open(os.path.join(out, "ablation_fusion.csv"))))
        assert [r["value"] for r in rows] == ["o", "m", "c", "r"]
        for row in rows:
            assert float(row["mean"]) >= 0.90, f"fusion {row['value']} AUC {row['mean']}"
