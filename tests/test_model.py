"""Model assembly tests: embedding, fusion variants, pooling, forward
composition, parameter/FLOPs accounting, and checkpoint round trips."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import fd_param_check
from flops_oracle import instrumented_forward
from tabnsa import autodiff as ad
from tabnsa.autodiff import Tensor
from tabnsa.model import (
    MAC_FLOPS,
    ModelConfig,
    count_flops,
    count_params,
    dense_attention_flops,
    embed_features,
    forward,
    fuse,
    init_model_params,
    load_checkpoint,
    mean_pool,
    param_shapes,
    save_checkpoint,
)
from tabnsa.nsa_attention import NSAConfig, nsa_forward
from tabnsa.tabmixer import tabmixer_forward


def mk_config(
    n_tokens=8,
    dim=8,
    heads=2,
    window=3,
    compress_block=4,
    compress_stride=2,
    select_block=2,
    num_selected=2,
    causal=False,
    **model_over,
):
    nsa = NSAConfig(
        dim=dim,
        heads=heads,
        head_dim=dim // heads,
        window=window,
        compress_block=compress_block,
        compress_stride=compress_stride,
        select_block=select_block,
        num_selected=num_selected,
        causal=causal,
    )
    over = {"num_classes": 2, "hidden_head": 5, "num_blocks": 1, "fusion": "o"}
    over.update(model_over)
    return ModelConfig(nsa=nsa, num_tokens=n_tokens, **over)


def sub(params, prefix):
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def zero_params(params, keep=()):
    for name, p in params.items():
        if name not in keep:
            p.data[...] = 0.0


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            mk_config(n_tokens=0)
        with pytest.raises(ValueError):
            mk_config(num_blocks=0)
        with pytest.raises(ValueError):
            mk_config(hidden_head=0)
        with pytest.raises(ValueError):
            mk_config(fusion="x")
        with pytest.raises(ValueError):
            mk_config(num_classes=1)

    def test_regression_overrides_class_count(self):
        cfg = mk_config(regression=True, num_classes=1)
        assert cfg.output_dim == 1
        assert mk_config(num_classes=7).output_dim == 7

    def test_selection_clamp_warns_once_at_build(self):
        with pytest.warns(UserWarning, match="clamping") as record:
            cfg = mk_config(n_tokens=8, num_selected=9)  # 4 selection blocks of 2 tokens
        assert len(record) == 1
        assert cfg.nsa.effective_selected(cfg.num_tokens) == 4
        assert count_flops(cfg, 3) == count_flops(mk_config(n_tokens=8, num_selected=4), 3)

    def test_dict_round_trip(self):
        cfg = mk_config(fusion="c", num_blocks=2, causal=True, regression=True, num_classes=1)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestEmbedFeatures:
    def test_zero_input_yields_bias(self):
        cfg = mk_config(feature_id_embedding=False)
        params = init_model_params(cfg, np.random.default_rng(0))
        params["embed.bias"].data[...] = np.arange(8.0)
        out = embed_features(np.zeros((3, 8)), params)
        assert out.shape == (3, 8, 8)
        assert np.array_equal(out.data, np.broadcast_to(np.arange(8.0), (3, 8, 8)))

    def test_identity_table_distinguishes_features(self):
        cfg = mk_config()
        params = init_model_params(cfg, np.random.default_rng(0))
        out = embed_features(np.zeros((2, 8)), params).data
        expect = params["embed.bias"].data + params["feature_id"].data
        assert np.allclose(out, np.broadcast_to(expect, (2, 8, 8)))
        # identity vectors make the zero-input tokens pairwise distinct
        flat = out[0]
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.allclose(flat[i], flat[j])

    def test_linearity_in_input(self):
        cfg = mk_config()
        params = init_model_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        base = params["embed.bias"].data + params["feature_id"].data
        t1 = embed_features(x, params).data - base
        t2 = embed_features(2.0 * x, params).data - base
        assert np.allclose(t2, 2.0 * t1)

    def test_input_validation(self):
        params = init_model_params(mk_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            embed_features(np.zeros(8), params)
        bad = np.zeros((2, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            embed_features(bad, params)
        with pytest.raises(ValueError):
            embed_features(np.zeros((2, 5)), params)


class TestFuse:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.y = Tensor(rng.normal(size=(2, 6, 8)))
        self.z = Tensor(rng.normal(size=(2, 6, 8)))

    def test_sum_with_zero_is_identity(self):
        out = fuse(self.y, Tensor(np.zeros((2, 6, 8))), "o", {})
        assert np.array_equal(out.data, self.y.data)

    def test_concat_projection_selects_either_input(self):
        w = np.zeros((16, 8))
        w[:8] = np.eye(8)
        p = {"fuse.w": Tensor(w), "fuse.b": Tensor(np.zeros(8))}
        assert np.array_equal(fuse(self.y, self.z, "c", p).data, self.y.data)
        w2 = np.zeros((16, 8))
        w2[8:] = np.eye(8)
        p2 = {"fuse.w": Tensor(w2), "fuse.b": Tensor(np.zeros(8))}
        assert np.array_equal(fuse(self.y, self.z, "c", p2).data, self.z.data)

    def test_mlp_with_zero_weights_returns_bias(self):
        p = {
            "fuse.w1": Tensor(np.zeros((8, 8))),
            "fuse.b1": Tensor(np.zeros(8)),
            "fuse.w2": Tensor(np.zeros((8, 8))),
            "fuse.b2": Tensor(np.arange(8.0)),
        }
        out = fuse(self.y, self.z, "m", p)
        assert np.array_equal(out.data, np.broadcast_to(np.arange(8.0), (2, 6, 8)))

    def test_sequential_with_zeroed_mixer_returns_attention_output(self):
        cfg = mk_config(n_tokens=6)
        params = init_model_params(cfg, np.random.default_rng(4))
        block = sub(params, "blocks.0.")
        zero_params(block)
        out = fuse(self.y, None, "r", block)
        assert np.array_equal(out.data, self.y.data)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            fuse(self.y, self.z, "q", {})


class TestMeanPool:
    def test_equal_tokens(self):
        v = np.arange(5.0)
        t = Tensor(np.broadcast_to(v, (2, 4, 5)).copy())
        assert np.allclose(mean_pool(t).data, np.broadcast_to(v, (2, 5)))

    def test_two_tokens(self):
        a, b = np.ones(3), np.full(3, 5.0)
        t = Tensor(np.stack([a, b])[None])
        assert np.allclose(mean_pool(t).data, [(a + b) / 2.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 7, 4))
        perm = rng.permutation(7)
        assert np.allclose(mean_pool(Tensor(x)).data, mean_pool(Tensor(x[:, perm])).data)


class TestForward:
    @pytest.mark.parametrize("fusion", ["o", "m", "c", "r"])
    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_shape_contract(self, fusion, batch):
        cfg = mk_config(fusion=fusion, num_classes=4)
        params = init_model_params(cfg, np.random.default_rng(6))
        out = forward(np.random.default_rng(7).normal(size=(batch, 8)), params, cfg)
        assert out.shape == (batch, 4)

    def test_regression_output_shape(self):
        cfg = mk_config(regression=True)
        params = init_model_params(cfg, np.random.default_rng(8))
        out = forward(np.zeros((3, 8)), params, cfg)
        assert out.shape == (3, 1)

    @pytest.mark.parametrize("fusion", ["o", "m", "c", "r"])
    def test_constant_network(self, fusion):
        cfg = mk_config(fusion=fusion, num_classes=3)
        params = init_model_params(cfg, np.random.default_rng(9))
        zero_params(params)
        beta = np.array([0.5, -1.5, 2.0])
        params["head.b2"].data[...] = beta
        out = forward(np.random.default_rng(10).normal(size=(4, 8)), params, cfg).data
        assert np.allclose(out, np.broadcast_to(beta, (4, 3)))

    def test_two_blocks_match_hand_unrolled(self):
        cfg = mk_config(num_blocks=2, fusion="m")
        params = init_model_params(cfg, np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(3, 8))
        t = embed_features(x, params)
        for i in range(2):
            block = sub(params, f"blocks.{i}.")
            y = nsa_forward(t, sub(block, "nsa."), cfg.nsa)
            z = tabmixer_forward(t, sub(block, "mixer."))
            t = fuse(y, z, "m", block)
        hidden = ad.gelu(mean_pool(t) @ params["head.w1"] + params["head.b1"])
        ref = hidden @ params["head.w2"] + params["head.b2"]
        assert np.array_equal(forward(x, params, cfg).data, ref.data)

    def test_zeroed_mixer_reduces_to_attention_only(self):
        cfg = mk_config(num_blocks=2, fusion="o")
        params = init_model_params(cfg, np.random.default_rng(13))
        for name, p in params.items():
            if ".mixer." in name:
                p.data[...] = 0.0
        x = np.random.default_rng(14).normal(size=(4, 8))
        t = embed_features(x, params)
        for i in range(2):
            t = nsa_forward(t, sub(params, f"blocks.{i}.nsa."), cfg.nsa) + t
        hidden = ad.gelu(mean_pool(t) @ params["head.w1"] + params["head.b1"])
        ref = hidden @ params["head.w2"] + params["head.b2"]
        assert np.array_equal(forward(x, params, cfg).data, ref.data)

    def test_deterministic(self):
        cfg = mk_config(fusion="c", causal=True)
        params = init_model_params(cfg, np.random.default_rng(15))
        x = np.random.default_rng(16).normal(size=(5, 8))
        a = forward(x, params, cfg).data
        b = forward(x, params, cfg).data
        assert np.array_equal(a, b)

    def test_input_and_flag_validation(self):
        cfg = mk_config()
        params = init_model_params(cfg, np.random.default_rng(17))
        with pytest.raises(ValueError):
            forward(np.zeros((2, 5)), params, cfg)
        del params["feature_id"]
        with pytest.raises(ValueError):
            forward(np.zeros((2, 8)), params, cfg)


class TestEndToEndGradients:
    def loss_builder(self, cfg, params, x, w):
        def loss():
            return (forward(x, params, cfg) * Tensor(w)).sum()

        return loss

    @pytest.mark.parametrize(
        "fusion,causal,samples",
        [("o", False, 4), ("m", False, 3), ("c", False, 3), ("r", True, 3)],
    )
    def test_parameter_gradients(self, fusion, causal, samples):
        cfg = mk_config(n_tokens=6, fusion=fusion, causal=causal)
        params = init_model_params(cfg, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 2))
        fd_param_check(self.loss_builder(cfg, params, x, w), params, rng, samples=samples)

    def test_regression_gradients(self):
        cfg = mk_config(n_tokens=6, regression=True, num_classes=1)
        params = init_model_params(cfg, np.random.default_rng(20))
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 1))
        fd_param_check(self.loss_builder(cfg, params, x, w), params, rng, samples=3)


PARAM_CONFIGS = [
    mk_config(),
    mk_config(fusion="m"),
    mk_config(fusion="c", num_blocks=2),
    mk_config(fusion="r", feature_id_embedding=False),
    mk_config(num_blocks=3, num_classes=5, hidden_head=11),
    mk_config(regression=True, num_classes=1, n_tokens=5, window=5),
]


class TestBackwardMemory:
    def test_search_corner_step_peak_is_bounded(self):
        # largest search-space corner on the Credit-Approval shape: K = 16 * 46 = 736,
        # so a (B, H, K, K) weight-gradient temporary alone would be 2.1 GiB
        cfg = mk_config(n_tokens=15, dim=8 * 46, heads=8, compress_block=16, compress_stride=2, select_block=2)
        params = init_model_params(cfg, np.random.default_rng(30))
        x = np.random.default_rng(31).normal(size=(64, 15))
        tracemalloc.start()
        try:
            forward(x, params, cfg).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**30, f"fwd+bwd peak {peak / 2**20:.0f} MiB"


class TestParamCount:
    def test_default_geometry_counted_by_hand(self):
        # the default CLI geometry on a 15-column, 2-class table: D = 16 as
        # H = 2 heads of D_H = 8, compress block L = 4 (compressor width
        # K = L * D_H = 32), head width 64
        cfg = mk_config(n_tokens=15, dim=16, hidden_head=64)
        n, d, h, dh, l, k, hid, c = 15, 16, 2, 8, 4, 32, 64, 2
        embedding = d + d + n * d  # weight, bias, feature-id table
        attention = 4 * d * d + d + d * 3 + 3  # q/k/v/o projections, output bias, gate
        compressors = 2 * (h * k * k + h * k + h * k * dh + h * dh + l * dh)  # key and value phi
        mixer = (n * n + n + 2 * n) + (d * d + d + 2 * d)  # token and channel affine + norm
        head = d * hid + hid + hid * c + c
        assert (embedding, attention, compressors, mixer, head) == (272, 1091, 5344, 574, 1218)
        assert count_params(cfg) == embedding + attention + compressors + mixer + head == 8499

    @pytest.mark.parametrize("cfg", PARAM_CONFIGS)
    def test_matches_initialized_tensor_sizes(self, cfg):
        params = init_model_params(cfg, np.random.default_rng(22))
        assert count_params(cfg) == sum(p.data.size for p in params.values())

    @pytest.mark.parametrize("cfg", PARAM_CONFIGS)
    def test_manifest_matches_init_paths_and_shapes(self, cfg):
        params = init_model_params(cfg, np.random.default_rng(23))
        manifest = param_shapes(cfg)
        assert list(manifest) == list(params)
        for path, shape in manifest.items():
            assert params[path].shape == shape

    def test_head_count_change_leaves_qkv_params_fixed(self):
        a = param_shapes(mk_config(heads=2))
        b = param_shapes(mk_config(heads=4))
        for key in ("w_q", "w_k", "w_v", "w_o"):
            pa, pb = a[f"blocks.0.nsa.{key}"], b[f"blocks.0.nsa.{key}"]
            assert int(np.prod(pa)) == int(np.prod(pb))


FLOPS_CONFIGS = [
    (mk_config(), 2),
    (mk_config(n_tokens=3, num_selected=4, window=5, feature_id_embedding=False), 2),
    (mk_config(causal=True), 2),
    (mk_config(n_tokens=6, dim=6, heads=1, fusion="m"), 1),
    (mk_config(heads=4, compress_stride=4, select_block=4, num_selected=1, window=8, fusion="c"), 1),
    (mk_config(fusion="r", num_blocks=2), 2),
    (mk_config(n_tokens=5, compress_stride=1, select_block=4, regression=True, num_classes=1, hidden_head=3), 3),
    (mk_config(fusion="m", num_blocks=2, causal=True), 1),
    (mk_config(n_tokens=12, dim=4, heads=1, compress_block=6, compress_stride=3, select_block=3, num_selected=1, window=12), 1),
    (mk_config(num_selected=5), 4),
    (mk_config(), 0),
]


class TestFlops:
    def test_mac_convention(self):
        assert MAC_FLOPS * 1 * 4 * 3 == 24

    @pytest.mark.parametrize("cfg,batch", FLOPS_CONFIGS)
    def test_matches_instrumented_execution(self, cfg, batch):
        params = init_model_params(cfg, np.random.default_rng(24))
        x = np.random.default_rng(25).normal(size=(batch, cfg.num_tokens))
        arrays = {k: p.data for k, p in params.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle_logits, meter = instrumented_forward(x, arrays, cfg)
            real = forward(x, params, cfg).data
        total, breakdown = count_flops(cfg, batch)
        assert total == meter.total
        for key, value in breakdown.items():
            assert value == meter.by_component.get(key, 0), key
        assert set(meter.by_component) <= set(breakdown)
        assert np.allclose(real, oracle_logits, atol=1e-9)

    def test_total_is_the_breakdown_sum(self):
        total, breakdown = count_flops(mk_config(num_blocks=2, fusion="c"), 4)
        assert total == sum(breakdown.values())

    def test_attention_flops_double_with_token_count(self):
        _, b1 = count_flops(mk_config(n_tokens=8), 2)
        _, b2 = count_flops(mk_config(n_tokens=16), 2)
        assert b2["attention_window"] == 2 * b1["attention_window"]
        assert b2["attention_selection"] == 2 * b1["attention_selection"]

    def test_linear_in_batch(self):
        t1, _ = count_flops(mk_config(fusion="m"), 1)
        t7, _ = count_flops(mk_config(fusion="m"), 7)
        assert t7 == 7 * t1

    @pytest.mark.parametrize("n_tokens", [8, 16, 32])
    def test_sparse_below_dense_when_tokens_exceed_visible_set(self, n_tokens):
        cfg = mk_config(n_tokens=n_tokens)
        visible = cfg.nsa.window + cfg.nsa.num_selected * cfg.nsa.select_block
        assert n_tokens > visible
        _, breakdown = count_flops(cfg, 3)
        assert breakdown["attention_selection"] + breakdown["attention_window"] < dense_attention_flops(cfg, 3)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = mk_config(fusion="c", num_blocks=2, causal=True)
        params = init_model_params(cfg, np.random.default_rng(26))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg)
        loaded, loaded_cfg = load_checkpoint(str(path))
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for key in params:
            assert np.array_equal(loaded[key].data, params[key].data)
            assert loaded[key].data.dtype == np.float64
            assert loaded[key].requires_grad

    def test_loaded_params_drive_identical_forward(self, tmp_path):
        cfg = mk_config(fusion="m")
        params = init_model_params(cfg, np.random.default_rng(27))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg)
        loaded, loaded_cfg = load_checkpoint(str(path))
        x = np.random.default_rng(28).normal(size=(3, 8))
        assert np.array_equal(forward(x, params, cfg).data, forward(x, loaded, loaded_cfg).data)

    def test_save_is_deterministic(self, tmp_path):
        cfg = mk_config()
        params = init_model_params(cfg, np.random.default_rng(29))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), params, cfg)
        save_checkpoint(str(p2), params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_files_rejected(self, tmp_path):
        cfg = mk_config()
        params = init_model_params(cfg, np.random.default_rng(30))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg)
        raw = path.read_bytes()

        versioned = tmp_path / "v.ckpt"
        versioned.write_bytes(raw.replace(b'"version": 1', b'"version": 9', 1))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(versioned))

        truncated = tmp_path / "t.ckpt"
        truncated.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(truncated))

        padded = tmp_path / "p.ckpt"
        padded.write_bytes(raw + b"\x00" * 4)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(padded))

        concat_cfg = mk_config(fusion="c")
        concat = tmp_path / "c.ckpt"
        save_checkpoint(str(concat), init_model_params(concat_cfg, np.random.default_rng(31)), concat_cfg)
        relabeled = tmp_path / "r.ckpt"
        relabeled.write_bytes(concat.read_bytes().replace(b'"fusion": "c"', b'"fusion": "o"', 1))
        with pytest.raises(ValueError, match="'blocks.0.fuse.w'"):
            load_checkpoint(str(relabeled))
