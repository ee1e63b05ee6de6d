"""Sparse-attention tests: branch oracles, worked examples, invariants, gradients."""

import inspect
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from attention_oracle import block_mean_tokens, full_attention, gathered_select_all
from conftest import fd_param_check
from tabnsa import nsa_attention as nsa
from tabnsa.model import ModelConfig, forward, init_model_params
from tabnsa.autodiff import Tensor
from tabnsa.nsa_attention import NSAConfig
from tabnsa.training import weighted_cross_entropy

RNG = np.random.default_rng(2024)


def small_cfg(**over):
    base = dict(
        dim=8, heads=2, head_dim=4, window=3, compress_block=4, compress_stride=2,
        select_block=2, num_selected=2, causal=False,
    )
    base.update(over)
    return NSAConfig(**base)


def two_loop_attention(q, k, v, causal):
    """Literal double-loop softmax oracle over (t, i)."""
    b, h, n, dh = q.shape
    out = np.zeros_like(q)
    for bi in range(b):
        for hi in range(h):
            for t in range(n):
                limit = t + 1 if causal else n
                logits = np.array([q[bi, hi, t] @ k[bi, hi, i] / np.sqrt(dh) for i in range(limit)])
                e = np.exp(logits - logits.max())
                a = e / e.sum()
                for i in range(limit):
                    out[bi, hi, t] += a[i] * v[bi, hi, i]
    return out


def pinned_gate_params(params, branch):
    """Force sigmoid gates to exactly one branch (saturation is exact in float64)."""
    params["gate_w"].data[:] = 0.0
    logits = np.full(3, -1000.0)
    logits[branch] = 1000.0
    params["gate_b"].data[:] = logits
    return params


@pytest.fixture
def stages(monkeypatch):
    """Stage function name -> [(bound arguments, result), ...], one entry per
    call `nsa_forward` makes, in call order."""
    calls = {}
    for name in ("compression_scores", "select_blocks", "_per_query_attention", "gated_combine"):
        fn, record = getattr(nsa, name), calls.setdefault(name, [])

        def recording(*args, _fn=fn, _record=record, **kwargs):
            result = _fn(*args, **kwargs)
            _record.append((inspect.signature(_fn).bind(*args, **kwargs).arguments, result))
            return result

        monkeypatch.setattr(nsa, name, recording)
    return calls


def rows_valid(valid, shape):
    """Rows of a (B, H, N, S) weight array with a key in `valid`, or all rows."""
    return np.ones(shape, dtype=bool) if valid is None else np.broadcast_to(valid.any(axis=-1), shape)


class TestConfig:
    def test_dim_consistency_enforced(self):
        with pytest.raises(ValueError):
            small_cfg(dim=9)

    def test_stride_must_divide_blocks(self):
        with pytest.raises(ValueError):
            small_cfg(compress_block=6, compress_stride=4)
        with pytest.raises(ValueError):
            small_cfg(select_block=3, compress_stride=2)

    def test_defaults_derive_dim_and_stride(self):
        explicit = NSAConfig(dim=16, heads=2, head_dim=8, window=3, compress_block=4, compress_stride=2,
                             select_block=2, num_selected=2)
        assert NSAConfig() == explicit
        derived = NSAConfig(heads=3, head_dim=5, compress_block=6, select_block=4)
        assert (derived.dim, derived.compress_stride) == (15, 2)

    def test_select_block_bounds(self):
        with pytest.raises(ValueError):
            small_cfg(select_block=8, compress_block=4)

    def test_block_counts(self):
        assert small_cfg(compress_block=4, compress_stride=2).n_compressed(16) == 7
        assert small_cfg(compress_block=4, compress_stride=4, select_block=4).n_compressed(8) == 2
        assert small_cfg(compress_block=4).n_compressed(2) == 1  # fallback
        assert small_cfg(select_block=4, num_selected=1).n_select_blocks(7) == 2


class TestProjectQkv:
    def test_identity_projection_slices_heads(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        params["w_q"].data[:] = np.eye(8)
        x = np.zeros((1, 3, 8))
        x[0, 0, 0] = 1.0  # e_1
        q, _, _ = nsa.project_qkv(Tensor(x), params, cfg)
        npt.assert_array_equal(q.numpy()[0, 0, 0], [1.0, 0, 0, 0])
        npt.assert_array_equal(q.numpy()[0, 1, 0], np.zeros(4))

    def test_zero_input_zero_projection(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        q, k, v = nsa.project_qkv(Tensor(np.zeros((2, 3, 8))), params, cfg)
        for t in (q, k, v):
            npt.assert_array_equal(t.numpy(), np.zeros((2, 2, 3, 4)))

    def test_homogeneity(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        x = RNG.normal(size=(2, 3, 8))
        q1, _, _ = nsa.project_qkv(Tensor(x), params, cfg)
        q2, _, _ = nsa.project_qkv(Tensor(2.0 * x), params, cfg)
        npt.assert_allclose(q2.numpy(), 2.0 * q1.numpy(), atol=1e-12)

    def test_width_mismatch_rejected(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        with pytest.raises(ValueError):
            nsa.project_qkv(Tensor(np.zeros((1, 3, 5))), params, cfg)


class TestFullAttention:
    def test_identical_keys_average_values(self):
        q = RNG.normal(size=(1, 1, 3, 4))
        k = np.broadcast_to(RNG.normal(size=(1, 1, 1, 4)), (1, 1, 3, 4)).copy()
        v = RNG.normal(size=(1, 1, 3, 4))
        out = full_attention(Tensor(q), Tensor(k), Tensor(v)).numpy()
        npt.assert_allclose(out[0, 0, 0], v[0, 0].mean(axis=0), atol=1e-12)

    def test_single_token_returns_value(self):
        q, k, v = (RNG.normal(size=(2, 2, 1, 4)) for _ in range(3))
        out = full_attention(Tensor(q), Tensor(k), Tensor(v)).numpy()
        npt.assert_allclose(out, v, atol=1e-15)

    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_two_loop_oracle(self, causal):
        q, k, v = (RNG.normal(size=(2, 2, 3, 4)) for _ in range(3))
        got = full_attention(Tensor(q), Tensor(k), Tensor(v), causal=causal).numpy()
        npt.assert_allclose(got, two_loop_attention(q, k, v, causal), atol=1e-12)


class TestCompressTokens:
    def test_block_counts_match_config(self):
        cfg = small_cfg()
        kv = Tensor(RNG.normal(size=(1, 2, 16, 4)))
        out = block_mean_tokens(kv, cfg)
        assert out.shape == (1, 2, 7, 4)

    def test_mean_oracle(self):
        cfg = small_cfg(compress_block=4, compress_stride=2)
        kv = RNG.normal(size=(2, 2, 10, 4))
        out = block_mean_tokens(Tensor(kv), cfg).numpy()
        # block i covers tokens [2i, 2i+4)
        for i in range(out.shape[2]):
            npt.assert_allclose(out[:, :, i], kv[:, :, 2 * i : 2 * i + 4].mean(axis=2), atol=1e-12)

    def test_short_input_single_padded_block(self):
        cfg = small_cfg(compress_block=4, compress_stride=2)
        kv = RNG.normal(size=(1, 2, 2, 4))
        out = block_mean_tokens(Tensor(kv), cfg).numpy()
        assert out.shape == (1, 2, 1, 4)
        # mean over l slots, two of which are zero padding
        npt.assert_allclose(out[:, :, 0], kv.sum(axis=2) / 4.0, atol=1e-12)

    def test_mlp_mode_shape_and_determinism(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, np.random.default_rng(1))
        phi = {k.removeprefix("phi_k_"): v for k, v in params.items() if k.startswith("phi_k_")}
        kv = Tensor(RNG.normal(size=(2, 2, 8, 4)))
        a = nsa.compress_tokens(kv, cfg, phi).numpy()
        b = nsa.compress_tokens(kv, cfg, phi).numpy()
        assert a.shape == (2, 2, 3, 4)
        assert np.array_equal(a, b)


class TestCompressionScores:
    def test_single_block_gives_ones(self):
        q = Tensor(RNG.normal(size=(1, 2, 5, 4)))
        k_cmp = Tensor(RNG.normal(size=(1, 2, 1, 4)))
        npt.assert_allclose(nsa.compression_scores(q, k_cmp).numpy(), 1.0, atol=1e-12)

    def test_equal_logits_uniform(self):
        q = Tensor(np.zeros((1, 1, 2, 4)))
        k_cmp = Tensor(RNG.normal(size=(1, 1, 4, 4)))
        npt.assert_allclose(nsa.compression_scores(q, k_cmp).numpy(), 0.25, atol=1e-12)

    def test_matches_softmax_oracle(self):
        q = RNG.normal(size=(2, 2, 3, 4))
        k_cmp = RNG.normal(size=(2, 2, 5, 4))
        got = nsa.compression_scores(Tensor(q), Tensor(k_cmp)).numpy()
        logits = np.einsum("bhtd,bhid->bhti", q, k_cmp) / 2.0
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        npt.assert_allclose(got, e / e.sum(axis=-1, keepdims=True), atol=1e-12)
        npt.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-6)


class TestMapSelectionScores:
    def test_identity_when_grids_coincide(self):
        cfg = small_cfg(compress_block=4, compress_stride=4, select_block=4, window=2)
        p_cmp = RNG.uniform(size=(2, 2, 8, 2))
        got = nsa.map_selection_scores(p_cmp, cfg, n_tokens=8)
        npt.assert_array_equal(got, p_cmp)

    def test_worked_example_overlapping_blocks(self):
        # l=4, d=2, l'=4 over N=8 tokens: N_cmp=3, N_slc=2
        cfg = small_cfg(compress_block=4, compress_stride=2, select_block=4)
        a, b, c = 0.2, 0.5, 0.3
        p_cmp = np.array([a, b, c]).reshape(1, 1, 1, 3)
        got = nsa.map_selection_scores(p_cmp, cfg, n_tokens=8)[0, 0, 0]
        # j=0 keeps only the in-range (m,n)=(0,0) term; j=1 expands to a+2b+c
        npt.assert_allclose(got, [a, a + 2 * b + c], atol=1e-15)

    def test_zero_in_zero_out(self):
        cfg = small_cfg()
        got = nsa.map_selection_scores(np.zeros((1, 2, 6, 2)), cfg, n_tokens=6)
        npt.assert_array_equal(got, np.zeros_like(got))

    def test_matches_double_sum_oracle(self):
        cfg = small_cfg(compress_block=6, compress_stride=2, select_block=4, window=2)
        n_tokens = 13
        n_cmp = cfg.n_compressed(n_tokens)
        n_slc = cfg.n_select_blocks(n_tokens)
        p_cmp = RNG.uniform(size=(2, 2, 4, n_cmp))
        expected = np.zeros((2, 2, 4, n_slc))
        for j in range(n_slc):
            for m in range(cfg.select_block // cfg.compress_stride):
                for nn in range(cfg.compress_block // cfg.compress_stride):
                    i = (cfg.select_block // cfg.compress_stride) * j - m - nn
                    if 0 <= i < n_cmp:
                        expected[..., j] += p_cmp[..., i]
        got = nsa.map_selection_scores(p_cmp, cfg, n_tokens)
        npt.assert_allclose(got, expected, atol=1e-12)


class TestSelectBlocks:
    def gather_cfg(self, **over):
        return small_cfg(select_block=2, compress_block=4, compress_stride=2, **over)

    def test_worked_example_tie_break(self):
        cfg = self.gather_cfg(num_selected=2)
        scores = np.array([0.1, 0.5, 0.2, 0.2]).reshape(1, 1, 1, 4)
        k = Tensor(RNG.normal(size=(1, 1, 8, 4)))
        idx, _, _, _, _ = nsa.select_blocks(scores, k, k, cfg)
        npt.assert_array_equal(np.sort(idx[0, 0, 0]), [1, 2])

    def test_all_blocks_when_n_equals_count(self):
        cfg = self.gather_cfg(num_selected=4)
        scores = RNG.uniform(size=(1, 2, 7, 4))
        k, v = Tensor(RNG.normal(size=(1, 2, 7, 4))), Tensor(RNG.normal(size=(1, 2, 7, 4)))
        idx, k_slc, v_slc, tok, valid = nsa.select_blocks(scores, k, v, cfg)
        # every query sees all 7 tokens in order: the keys are shared, not gathered
        assert k_slc is k and v_slc is v and tok is None and valid is None
        npt.assert_array_equal(idx, np.broadcast_to(np.arange(4), (1, 1, 7, 4)))
        assert idx.dtype == np.intp and idx.flags.writeable
        # causal selection still gathers; the last block is padding beyond
        # token 6, and those slots are masked
        idx, _, _, _, valid = nsa.select_blocks(scores, k, v, self.gather_cfg(num_selected=4, causal=True))
        npt.assert_array_equal(idx[0, 0, 0], [0, 1, 2, 3])
        assert valid[0, 0, -1] == False  # noqa: E712  (token 7 does not exist)
        assert valid.shape == (1, 7, 8)

    def test_matches_argsort_oracle(self):
        cfg = self.gather_cfg(num_selected=3)
        scores = RNG.uniform(size=(3, 2, 5, 8))
        k = Tensor(RNG.normal(size=(3, 2, 16, 4)))
        idx, _, _, _, _ = nsa.select_blocks(scores, k, k, cfg)
        avg = scores.mean(axis=1)
        for b in range(3):
            for t in range(5):
                oracle = np.argsort(-avg[b, t], kind="stable")[:3]
                npt.assert_array_equal(idx[b, 0, t], np.sort(oracle))

    def test_positive_scaling_leaves_indices_unchanged(self):
        cfg = self.gather_cfg(num_selected=2)
        scores = RNG.uniform(size=(2, 2, 4, 6))
        k = Tensor(RNG.normal(size=(2, 2, 12, 4)))
        idx1, *_ = nsa.select_blocks(scores, k, k, cfg)
        idx2, *_ = nsa.select_blocks(37.5 * scores, k, k, cfg)
        npt.assert_array_equal(idx1, idx2)

    def test_clamp_is_silent(self):
        cfg = self.gather_cfg(num_selected=9)
        assert cfg.effective_selected(4) == 2 and cfg.effective_selected(40) == 9
        scores = RNG.uniform(size=(1, 1, 4, 2))
        k = Tensor(RNG.normal(size=(1, 1, 4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the clamp warns once, when a ModelConfig is built
            idx, *_ = nsa.select_blocks(scores, k, k, cfg)
        assert idx.shape[-1] == 2

    def test_gathered_tokens_follow_indices(self):
        cfg = self.gather_cfg(num_selected=2)
        scores = np.zeros((1, 1, 1, 4))
        scores[0, 0, 0] = [0.0, 9.0, 0.0, 8.0]  # blocks 1 and 3
        kdata = RNG.normal(size=(1, 1, 8, 4))
        _, k_slc, _, tok, valid = nsa.select_blocks(scores, Tensor(kdata), Tensor(kdata), cfg)
        npt.assert_array_equal(tok[0, 0], [2, 3, 6, 7])  # ascending, order preserved
        npt.assert_array_equal(k_slc.numpy()[0, 0, 0], kdata[0, 0, [2, 3, 6, 7]])
        assert valid.all()


class TestIndexPlans:
    def test_projections_are_contiguous_head_major(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        x = RNG.normal(size=(3, 5, 8))
        outs = nsa.project_qkv(Tensor(x), params, cfg)
        for t, w in zip(outs, ("w_q", "w_k", "w_v")):
            assert t.shape == (3, 2, 5, 4) and t.data.flags.c_contiguous
            npt.assert_array_equal(t.data, (x @ params[w].data).reshape(3, 5, 2, 4).swapaxes(1, 2))

    @pytest.mark.parametrize(
        "plan,args",
        [(nsa.window_indices, (10, 3, True)), (nsa.window_indices, (10, 3, False)),
         (nsa.selection_map_matrix, (small_cfg(), 4, 5))],
        ids=["window_causal", "window", "selection_map"],
    )
    def test_cached_and_read_only(self, plan, args):
        first = plan(*args)
        assert plan(*args) is first
        for arr in first if isinstance(first, tuple) else (first,):
            with pytest.raises(ValueError):
                arr[...] = 0


class TestWindowIndices:
    def test_causal_worked_example(self):
        idx, valid = nsa.window_indices(10, 3, causal=True)
        npt.assert_array_equal(idx[4], [2, 3, 4])  # query 5, 1-based
        assert valid[4].all()

    def test_causal_start_padding(self):
        idx, valid = nsa.window_indices(10, 3, causal=True)
        npt.assert_array_equal(valid[0], [False, False, True])
        assert idx[0, 2] == 0

    def test_noncausal_boundary_shift(self):
        idx, valid = nsa.window_indices(10, 3, causal=False)
        npt.assert_array_equal(idx[0], [0, 1, 2])  # t=1 clipped window
        npt.assert_array_equal(idx[9], [7, 8, 9])
        npt.assert_array_equal(idx[5], [4, 5, 6])  # centered in the interior
        assert valid.all()

    def test_window_covering_everything(self):
        idx, valid = nsa.window_indices(6, 99, causal=False)
        assert idx.shape == (6, 6)
        npt.assert_array_equal(idx[3], np.arange(6))

    @pytest.mark.parametrize("causal", [False, True])
    def test_growing_window_never_shrinks_visible_set(self, causal):
        n = 9
        for w in range(1, n + 1):
            i1, v1 = nsa.window_indices(n, w, causal)
            i2, v2 = nsa.window_indices(n, w + 1, causal)
            for t in range(n):
                s1 = set(i1[t][v1[t]])
                s2 = set(i2[t][v2[t]])
                assert s1 <= s2, (w, t)


class TestGatedCombine:
    def test_pinned_gates_select_single_branch(self):
        cfg = small_cfg()
        params = pinned_gate_params(nsa.init_nsa_params(cfg, RNG), branch=2)
        x = Tensor(RNG.normal(size=(2, 3, 8)))
        branches = tuple(Tensor(RNG.normal(size=(2, 3, 8))) for _ in range(3))
        out, gates = nsa.gated_combine(branches, params, x)
        npt.assert_array_equal(gates.numpy(), np.broadcast_to([0.0, 0.0, 1.0], (2, 3, 3)))
        expected = branches[2].numpy() @ params["w_o"].numpy() + params["b_o"].numpy()
        npt.assert_allclose(out.numpy(), expected, atol=1e-12)

    def test_all_gates_one_sums_branches(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        params["gate_w"].data[:] = 0.0
        params["gate_b"].data[:] = 1000.0
        x = Tensor(RNG.normal(size=(1, 3, 8)))
        y = Tensor(RNG.normal(size=(1, 3, 8)))
        out, _ = nsa.gated_combine((y, y, y), params, x)
        expected = 3.0 * y.numpy() @ params["w_o"].numpy() + params["b_o"].numpy()
        npt.assert_allclose(out.numpy(), expected, atol=1e-12)

    def test_gates_bounded(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        x = Tensor(RNG.normal(size=(2, 3, 8)) * 50)
        branches = tuple(Tensor(RNG.normal(size=(2, 3, 8))) for _ in range(3))
        _, gates = nsa.gated_combine(branches, params, x)
        g = gates.numpy()
        assert np.all(g >= 0.0) and np.all(g <= 1.0)


class TestNsaForward:
    @pytest.mark.parametrize("causal", [False, True])
    def test_dense_equivalence_with_saturating_window(self, causal):
        n = 6
        cfg = small_cfg(
            window=n, compress_block=n, compress_stride=n, select_block=n,
            num_selected=1, causal=causal,
        )
        params = pinned_gate_params(nsa.init_nsa_params(cfg, np.random.default_rng(5)), branch=2)
        x = Tensor(np.random.default_rng(6).normal(size=(3, n, 8)))
        got = nsa.nsa_forward(x, params, cfg).numpy()
        q, k, v = nsa.project_qkv(x, params, cfg)
        dense = full_attention(q, k, v, causal=causal)
        b, h, nn, dh = dense.shape
        merged = dense.swapaxes(1, 2).reshape(b, nn, h * dh)
        expected = (merged @ params["w_o"] + params["b_o"]).numpy()
        npt.assert_allclose(got, expected, atol=1e-6)

    def test_row_stochastic_attention_weights(self, stages):
        cfg = small_cfg(causal=True)
        params = nsa.init_nsa_params(cfg, RNG)
        x = Tensor(RNG.normal(size=(2, 9, 8)))
        nsa.nsa_forward(x, params, cfg)
        (cmp_args, p_cmp), = stages["compression_scores"]
        weights = {"cmp": (p_cmp.numpy(), cmp_args["valid"])}
        for branch, (args, (_, w)) in zip(("slc", "win"), stages["_per_query_attention"]):
            weights[branch] = (w, args["valid"])
        for branch, (w, valid) in weights.items():
            sums = w.sum(axis=-1)
            rows = rows_valid(valid, sums.shape)
            npt.assert_allclose(sums[rows], 1.0, atol=1e-6, err_msg=branch)
            npt.assert_allclose(sums[~rows], 0.0, atol=1e-12, err_msg=branch)

    def test_batch_independence(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        x = RNG.normal(size=(4, 7, 8))
        perm = np.array([2, 0, 3, 1])
        base = nsa.nsa_forward(Tensor(x), params, cfg).numpy()
        permuted = nsa.nsa_forward(Tensor(x[perm]), params, cfg).numpy()
        npt.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_empty_batch(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        out = nsa.nsa_forward(Tensor(np.zeros((0, 7, 8))), params, cfg)
        assert out.shape == (0, 7, 8)

    def test_output_composition_invariant(self, stages):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, RNG)
        x = Tensor(RNG.normal(size=(2, 7, 8)))
        out = nsa.nsa_forward(x, params, cfg)
        (args, (_, gates)), = stages["gated_combine"]
        g = gates.numpy()
        combo = sum(g[:, :, c : c + 1] * args["branches"][c].numpy() for c in range(3))
        expected = combo @ params["w_o"].numpy() + params["b_o"].numpy()
        npt.assert_allclose(out.numpy(), expected, atol=1e-12)

    def test_growing_selection_never_shrinks_visible_set(self, stages):
        for n_sel in (1, 2, 3):
            cfg1 = small_cfg(num_selected=n_sel)
            cfg2 = small_cfg(num_selected=n_sel + 1)
            params = nsa.init_nsa_params(cfg1, np.random.default_rng(3))
            x = Tensor(np.random.default_rng(4).normal(size=(2, 9, 8)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nsa.nsa_forward(x, params, cfg1)
                nsa.nsa_forward(x, params, cfg2)
            (_, (sel1, *_)), (_, (sel2, *_)) = stages["select_blocks"][-2:]
            for b in range(2):
                for t in range(9):
                    s1 = set(sel1[b, 0, t].tolist())
                    s2 = set(sel2[b, 0, t].tolist())
                    assert s1 <= s2

    def test_deterministic(self):
        cfg = small_cfg()
        params = nsa.init_nsa_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 7, 8)))
        a = nsa.nsa_forward(x, params, cfg).numpy()
        b = nsa.nsa_forward(x, params, cfg).numpy()
        assert np.array_equal(a, b)


# (tokens, small_cfg overrides) at which every query selects every block
SHARED_KEY_CASES = {
    "n_below_select_block": (3, dict(select_block=4, num_selected=1)),
    "padded_tail_block": (7, dict(num_selected=4)),
    "num_selected_clamped": (7, dict(num_selected=9)),
}


class TestSharedKeyBranches:
    """A selection branch that selects every block runs as one product over
    the shared keys; the gathered path of `attention_oracle` is its
    reference."""

    def shared_and_gathered(self, monkeypatch, stages, run):
        """run() -> arrays, once as the package runs it and once with the
        gathered selection patched in. Returns the ndim of the keys each
        `_per_query_attention` call of the first run saw."""
        shared = run()
        key_ndims = [args["keys"].ndim for args, _ in stages["_per_query_attention"]]
        monkeypatch.setattr(nsa, "select_blocks", gathered_select_all)
        gathered = run()
        assert len(shared) == len(gathered)
        for a, b in zip(shared, gathered):
            npt.assert_allclose(a, b, rtol=0, atol=1e-12)
        return key_ndims

    @pytest.mark.parametrize("n,over", SHARED_KEY_CASES.values(), ids=SHARED_KEY_CASES)
    def test_branches_and_gradients_match_the_gathered_path(self, n, over, monkeypatch, stages):
        cfg = small_cfg(**over)
        rng = np.random.default_rng(17)
        params = nsa.init_nsa_params(cfg, rng)
        x = Tensor(rng.normal(size=(2, n, 8)), requires_grad=True)
        weight = Tensor(rng.normal(size=(2, n, 8)))
        leaves = dict(params, x=x)

        def run():
            for t in leaves.values():
                t.grad = None
            (nsa.nsa_forward(x, params, cfg) * weight).sum().backward()
            args, _ = stages["gated_combine"][-1]
            return [b.numpy() for b in args["branches"]] + [t.grad for t in leaves.values()]

        assert self.shared_and_gathered(monkeypatch, stages, run) == [4, 5]
        (_, (selected, *_)), = stages["select_blocks"]
        n_slc = cfg.n_select_blocks(n)
        npt.assert_array_equal(selected, np.broadcast_to(np.arange(n_slc), (2, 1, n, n_slc)))
        assert selected.dtype == np.intp and selected.flags.writeable
        slc_args, _ = stages["_per_query_attention"][0]
        assert rows_valid(slc_args["valid"], (2, cfg.heads, n)).all()

    def test_two_block_model_matches_the_gathered_path(self, monkeypatch, stages):
        nsa_cfg = NSAConfig(dim=16, heads=2, head_dim=8, window=3, compress_block=8, compress_stride=4,
                            select_block=8, num_selected=2)
        cfg = ModelConfig(nsa=nsa_cfg, num_tokens=15, num_blocks=2)
        params = init_model_params(cfg, 3)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(5, 15)), rng.integers(0, 2, size=5)

        def run():
            for p in params.values():
                p.grad = None
            logits = forward(x, params, cfg)
            weighted_cross_entropy(logits, y).backward()
            return [logits.numpy()] + [p.grad for p in params.values()]

        assert self.shared_and_gathered(monkeypatch, stages, run) == [4, 5, 4, 5]


class TestGradients:
    @pytest.mark.parametrize("causal", [False, True])
    def test_every_parameter_matches_finite_differences(self, causal):
        rng = np.random.default_rng(99)
        cfg = small_cfg(causal=causal)
        params = nsa.init_nsa_params(cfg, rng)
        x = Tensor(rng.normal(size=(2, 6, 8)), requires_grad=True)
        weight = rng.normal(size=(2, 6, 8))
        everything = dict(params)
        everything["x"] = x

        def loss():
            return (nsa.nsa_forward(x, params, cfg) * Tensor(weight)).sum()

        fd_param_check(loss, everything, rng, samples=4)
