"""Unit tests for the autodiff engine: every primitive against central differences."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnsa import autodiff as ad
from tabnsa.autodiff import Tensor
from tabnsa.model import ModelConfig, param_specs
from tabnsa.nsa_attention import NSAConfig
from tape_ops import exp, log, power


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_grad(build, x: np.ndarray, tol: float = 1e-6) -> None:
    """build(Tensor) -> Tensor scalar; compares backward() to finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = numeric_grad(lambda arr: build(Tensor(arr)).item(), x.copy())
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1.0)
    npt.assert_array_less(np.abs(t.grad - num) / denom, tol)


def square(t: Tensor) -> Tensor:
    return t * t


RNG = np.random.default_rng(42)


class TestElementwise:
    def test_add_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        check_grad(lambda t: (t + Tensor(b)).sum(), a)
        check_grad(lambda t: (Tensor(a) + t * 2.0).sum(), b)

    def test_mul_broadcast(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(3, 1))
        check_grad(lambda t: (t * Tensor(b)).sum(), a)
        check_grad(lambda t: (Tensor(a) * t).sum(), b)

    def test_sub_neg_pow(self):
        a = RNG.normal(size=(5,))
        check_grad(lambda t: power(t - 1.5, 3).sum(), a)
        check_grad(lambda t: (-t + 2.0).sum(), a)

    @pytest.mark.parametrize(
        "fn,shift",
        [
            (exp, 0.0),
            (log, 4.0),
            (ad.sigmoid, 0.0),
            (ad.gelu, 0.0),
            (ad.silu, 0.0),
        ],
    )
    def test_unary(self, fn, shift):
        a = RNG.normal(size=(4, 3)) + shift
        check_grad(lambda t: fn(t).sum(), a)

    def test_sigmoid_extreme_inputs_no_overflow(self):
        x = Tensor(np.array([-800.0, 800.0]))
        y = ad.sigmoid(x).numpy()
        npt.assert_allclose(y, [0.0, 1.0], atol=1e-12)

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf

        x = np.linspace(-4, 4, 33)
        got = ad.gelu(Tensor(x)).numpy()
        npt.assert_allclose(got, 0.5 * x * (1 + erf(x / np.sqrt(2))), atol=1e-15)


class TestMatmulAndShape:
    def test_matmul_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        check_grad(lambda t: (t @ Tensor(b)).sum(), a)
        check_grad(lambda t: (Tensor(a) @ t).sum(), b)

    def test_matmul_batched_with_2d_rhs(self):
        x = RNG.normal(size=(2, 5, 3))
        w = RNG.normal(size=(3, 3))
        check_grad(lambda t: (Tensor(x) @ t).sum(), w)
        check_grad(lambda t: (t @ Tensor(w)).sum(), x)

    def test_matmul_4d(self):
        q = RNG.normal(size=(2, 2, 3, 4))
        k = RNG.normal(size=(2, 2, 4, 3))
        check_grad(lambda t: (t @ Tensor(k)).sum(), q)
        check_grad(lambda t: (Tensor(q) @ t).sum(), k)

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((2, 3, 4, 5), (3, 5, 2)),  # per-head weights (B,H,M,K) @ (H,K,P)
            ((2, 3, 4, 5), (5, 2)),  # 2-D weight under a 4-D input
            ((3, 4, 5), (2, 3, 5, 2)),  # broadcast left operand (H,M,K) @ (B,H,K,P)
            ((2, 1, 4, 5), (1, 3, 5, 2)),  # size-1 axes: reduces the full product
        ],
    )
    def test_matmul_broadcast_patterns(self, a_shape, b_shape):
        a = RNG.normal(size=a_shape)
        b = RNG.normal(size=b_shape)
        w = RNG.normal(size=np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) + (a_shape[-2], b_shape[-1]))
        check_grad(lambda t: ((t @ Tensor(b)) * Tensor(w)).sum(), a)
        check_grad(lambda t: ((Tensor(a) @ t) * Tensor(w)).sum(), b)

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_reshape_swapaxes(self):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: square(t.reshape(6, 4)).sum(), a)
        check_grad(lambda t: (t.swapaxes(-1, -2) * 3.0).sum(), a)

    def test_split_heads_is_a_contiguous_head_major_copy(self):
        a = RNG.normal(size=(2, 5, 6))
        out = ad.split_heads(Tensor(a), 3).numpy()
        assert out.flags.c_contiguous
        npt.assert_array_equal(out, a.reshape(2, 5, 3, 2).swapaxes(1, 2))
        w = RNG.normal(size=(2, 3, 5, 2))
        check_grad(lambda t: (ad.split_heads(t, 3) * Tensor(w)).sum(), a)

    def test_concatenate(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 5))
        check_grad(lambda t: square(ad.concatenate([t, Tensor(b)], axis=1)).sum(), a)
        check_grad(lambda t: square(ad.concatenate([Tensor(a), t], axis=1)).sum(), b)


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
    def test_sum(self, axis, keepdims):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: square(t.sum(axis=axis, keepdims=keepdims)).sum(), a)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (-1, False), (1, True)])
    def test_mean(self, axis, keepdims):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: square(t.mean(axis=axis, keepdims=keepdims)).sum(), a)


def softmax(t, axis: int = -1):
    """Softmax along `axis` through the attention-weights node: keys
    sqrt(n) * I make the scaled logits q k^T / sqrt(n) equal q itself."""
    rows = t.swapaxes(axis, -1)
    n = rows.shape[-1]
    return ad.attention_weights(rows, Tensor(np.sqrt(n) * np.eye(n))).swapaxes(axis, -1)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        a = RNG.normal(size=(3, 7)) * 10
        y = softmax(Tensor(a)).numpy()
        npt.assert_allclose(y.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_stable_for_large_logits(self):
        a = np.array([[1000.0, 1000.0, 999.0]])
        y = softmax(Tensor(a)).numpy()
        assert np.all(np.isfinite(y))
        npt.assert_allclose(y.sum(), 1.0, atol=1e-12)

    def test_gradient(self):
        a = RNG.normal(size=(2, 5))
        w = RNG.normal(size=(2, 5))
        check_grad(lambda t: (softmax(t) * Tensor(w)).sum(), a)

    def test_gradient_axis0(self):
        a = RNG.normal(size=(4, 3))
        check_grad(lambda t: square(softmax(t, axis=0)).sum(), a)


class TestIndexing:
    def test_basic_slice(self):
        a = RNG.normal(size=(4, 5))
        check_grad(lambda t: square(t[1:3, ::2]).sum(), a)

    def test_advanced_repeated_indices_accumulate(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 3])
        out = a[idx].sum()
        out.backward()
        npt.assert_array_equal(a.grad, [2.0, 0.0, 0.0, 1.0, 0.0])

    def test_pair_index(self):
        a = RNG.normal(size=(4, 3))
        rows = np.array([0, 1, 2, 3])
        cols = np.array([2, 0, 1, 1])
        check_grad(lambda t: square(t[rows, cols]).sum(), a)

    def test_gather_blocks_forward_and_grad(self):
        t = RNG.normal(size=(2, 2, 6, 3))
        idx = np.array([[0, 1, 2], [2, 3, 4]])  # overlapping on purpose
        out = ad.gather_blocks(Tensor(t), idx).numpy()
        assert out.shape == (2, 2, 2, 3, 3)
        npt.assert_array_equal(out[1, 0, 1, 2], t[1, 0, 4])
        check_grad(lambda x: square(ad.gather_blocks(x, idx)).sum(), t)

    def test_gather_selected_forward_and_grad(self):
        t = RNG.normal(size=(2, 3, 5, 2))
        blocks = np.array([[[2, 0], [0, 1]], [[1, 2], [0, 2]]])  # (B=2, T=2, 2 blocks of 2); block 2 holds token 4
        out = ad.gather_selected(Tensor(t), blocks, 2).numpy()
        assert out.shape == (2, 3, 2, 4, 2)
        npt.assert_array_equal(out[0, 1, 0, 0], t[0, 1, 4])
        npt.assert_array_equal(out[0, 1, 0, 1], 0.0)  # token 5 is past N
        npt.assert_array_equal(out[1, 2, 1, 2], t[1, 2, 4])
        check_grad(lambda x: square(ad.gather_selected(x, blocks, 2)).sum(), t)


def selected_tokens(blocks, block_len, n):
    """(B, T, n*L) token positions of `blocks` and whether each is below n."""
    tok = (blocks[..., None] * block_len + np.arange(block_len)).reshape(*blocks.shape[:2], -1)
    return tok, tok < n


def gather_selected_loop(t, blocks, block_len):
    b, h, n = t.shape[:3]
    tok, keep = selected_tokens(blocks, block_len, n)
    out = np.zeros((b, h) + tok.shape[1:] + t.shape[3:])
    for bi in range(b):
        for hi in range(h):
            for ti in range(tok.shape[1]):
                for si in range(tok.shape[2]):
                    if keep[bi, ti, si]:
                        out[bi, hi, ti, si] = t[bi, hi, tok[bi, ti, si]]
    return out


def scatter_add_at(shape, index, g):
    out = np.zeros(shape)
    np.add.at(out, index, g)
    return out


def scatter_selected(shape, blocks, block_len, g):
    """The `np.add.at` form of `gather_selected`'s VJP: slots past N take no gradient."""
    b, h, n = shape[:3]
    tok, keep = selected_tokens(blocks, block_len, n)
    index = (np.arange(b)[:, None, None, None], np.arange(h)[None, :, None, None], np.where(keep, tok, 0)[:, None])
    return scatter_add_at(shape, index, g * keep[:, None, :, :, None])


class TestGatherExactness:
    @pytest.mark.parametrize("b,h,n,t,s,dh", [(1, 1, 5, 2, 3, 2), (1, 3, 7, 4, 6, 3), (4, 2, 15, 15, 4, 5)])
    def test_gather_selected_forward_matches_loop(self, b, h, n, t, s, dh):
        x = RNG.normal(size=(b, h, n, dh))
        blocks = RNG.integers(0, -(-n // 2), size=(b, t, s))  # s blocks of 2 per query; n is odd
        expect = gather_selected_loop(x, blocks, 2)
        npt.assert_array_equal(ad.gather_selected(Tensor(x), blocks, 2).numpy(), expect)
        with ad.no_grad():
            npt.assert_array_equal(ad.gather_selected(Tensor(x, requires_grad=True), blocks, 2).numpy(), expect)

    def test_gather_selected_vjp_matches_add_at(self):
        b, h, n, dh = 3, 2, 9, 4
        x = Tensor(RNG.normal(size=(b, h, n, dh)), requires_grad=True)
        blocks = RNG.integers(0, 5, size=(b, n, 2))
        assert (blocks == 4).any()  # the tail block: token 8 and a padding slot
        out = ad.gather_selected(x, blocks, 2)
        g = RNG.normal(size=out.shape)
        out.backward(g)
        npt.assert_allclose(x.grad, scatter_selected(x.shape, blocks, 2, g), rtol=1e-13)

    def test_gather_selected_backward_memory_does_not_grow_with_token_count_squared(self):
        # one block-selection backward at 256 tokens, blocks of 16, 2 blocks per query
        b, h, n, dh, lp = 2, 2, 256, 8, 16
        x = Tensor(RNG.normal(size=(b, h, n, dh)), requires_grad=True)
        blocks = np.sort(RNG.integers(0, n // lp, size=(b, n, 2)), axis=-1)
        out = ad.gather_selected(x, blocks, lp)
        g = RNG.normal(size=out.shape)
        tracemalloc.start()
        try:
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_allclose(x.grad, scatter_selected(x.shape, blocks, lp, g), rtol=0, atol=1e-12)
        # a one-hot over tokens, (B, 1, N, N*n*l'), would take 33.5 MB here
        assert peak <= 4 * x.grad.nbytes, (peak, x.grad.nbytes)

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "swapaxes_view"])
    def test_gathers_return_contiguous_copies(self, strided):
        b, h, n, dh = 3, 2, 7, 4
        x = RNG.normal(size=(b, n, h, dh)).swapaxes(1, 2) if strided else RNG.normal(size=(b, h, n, dh))
        assert x.flags.c_contiguous != strided
        blocks = RNG.integers(0, 4, size=(b, n, 2))
        leaf = Tensor(x, requires_grad=True)
        sel = ad.gather_selected(leaf, blocks, 2)
        assert sel.data.flags.c_contiguous
        npt.assert_array_equal(sel.data, gather_selected_loop(x, blocks, 2))
        g = RNG.normal(size=sel.shape)
        sel.backward(g)
        npt.assert_allclose(leaf.grad, scatter_selected(x.shape, blocks, 2, g), rtol=1e-13)
        win = np.minimum(np.arange(n)[:, None] + np.arange(3), n - 1)
        blocks = ad.gather_blocks(Tensor(x), win).numpy()
        assert blocks.flags.c_contiguous
        npt.assert_array_equal(blocks, x[:, :, win])

    def test_gather_blocks_vjp_matches_add_at(self):
        b, h, n, dh = 3, 2, 15, 4
        x = Tensor(RNG.normal(size=(b, h, n, dh)), requires_grad=True)
        idx = np.arange(6)[:, None] * 2 + np.arange(4)  # overlapping strided windows
        idx = np.vstack([idx, np.minimum(np.arange(n)[:, None] + np.arange(4), n - 1)])
        out = ad.gather_blocks(x, idx)
        g = RNG.normal(size=out.shape)
        out.backward(g)
        npt.assert_allclose(x.grad, scatter_add_at(x.shape, (slice(None), slice(None), idx), g), rtol=1e-13)


def reference_attention(q, keys, values, valid):
    """Straight-line numpy per-query attention; rows with no valid key give zeros."""
    logits = np.einsum("bhtd,bhtsd->bhts", q, keys) / np.sqrt(q.shape[-1])
    valid = np.broadcast_to(valid, logits.shape)
    e = np.where(valid, np.exp(logits - np.where(valid, logits, -np.inf).max(axis=-1, keepdims=True)), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    p = np.divide(e, total, out=np.zeros_like(e), where=total > 0)
    return np.einsum("bhts,bhtsd->bhtd", p, values), p


class TestFusedNodes:
    # 5 tokens in selection blocks of 2: the tail block [4, 6) pads token 5, which is masked
    BLOCKS = np.array([[[0, 2], [1, 2], [0, 1]], [[2, 0], [1, 0], [2, 1]]])  # (B=2, T=3, 2 blocks)
    TAIL_VALID = selected_tokens(BLOCKS, 2, 5)[1][:, None]

    def test_attend_selection_tail(self):
        q, k, v = RNG.normal(size=(2, 2, 3, 3)), RNG.normal(size=(2, 2, 5, 3)), RNG.normal(size=(2, 2, 5, 3))
        w = RNG.normal(size=(2, 2, 3, 3))
        blocks, valid = self.BLOCKS, self.TAIL_VALID
        assert not valid.all() and valid.any(axis=-1).all()

        def loss(qt, kt, vt):
            out, _ = ad.attend(qt, ad.gather_selected(kt, blocks, 2), ad.gather_selected(vt, blocks, 2), valid)
            return (out * Tensor(w)).sum()

        out, weights = ad.attend(
            Tensor(q), ad.gather_selected(Tensor(k), blocks, 2), ad.gather_selected(Tensor(v), blocks, 2), valid
        )
        ref_keys, ref_values = gather_selected_loop(k, blocks, 2), gather_selected_loop(v, blocks, 2)
        ref_out, ref_p = reference_attention(q, ref_keys, ref_values, valid)
        npt.assert_allclose(out.numpy(), ref_out, atol=1e-14)
        npt.assert_allclose(weights, ref_p, atol=1e-15)
        assert np.all(weights[np.broadcast_to(~valid, weights.shape)] == 0.0)
        check_grad(lambda t: loss(t, Tensor(k), Tensor(v)), q)
        check_grad(lambda t: loss(Tensor(q), t, Tensor(v)), k)
        check_grad(lambda t: loss(Tensor(q), Tensor(k), t), v)

    def test_attend_all_masked_causal_row(self):
        q, keys, values = RNG.normal(size=(1, 2, 4, 3)), RNG.normal(size=(1, 2, 4, 4, 3)), RNG.normal(size=(1, 2, 4, 4, 3))
        valid = np.tril(np.ones((4, 4), dtype=bool), k=-1)[None, None]  # query 0 sees no key
        w = RNG.normal(size=(1, 2, 4, 3))
        out, weights = ad.attend(Tensor(q), Tensor(keys), Tensor(values), valid)
        ref_out, ref_p = reference_attention(q, keys, values, valid)
        npt.assert_allclose(out.numpy(), ref_out, atol=1e-14)
        npt.assert_allclose(weights, ref_p, atol=1e-15)
        assert np.all(out.numpy()[:, :, 0] == 0.0) and np.all(weights[:, :, 0] == 0.0)
        npt.assert_allclose(weights[:, :, 1:].sum(axis=-1), 1.0, atol=1e-12)

        def loss(qt, kt, vt):
            return (ad.attend(qt, kt, vt, valid)[0] * Tensor(w)).sum()

        check_grad(lambda t: loss(t, Tensor(keys), Tensor(values)), q)
        check_grad(lambda t: loss(Tensor(q), t, Tensor(values)), keys)
        check_grad(lambda t: loss(Tensor(q), Tensor(keys), t), values)
        qt = Tensor(q, requires_grad=True)
        loss(qt, Tensor(keys), Tensor(values)).backward()
        assert np.all(qt.grad[:, :, 0] == 0.0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_weights(self, masked):
        q, k = RNG.normal(size=(2, 2, 4, 3)), RNG.normal(size=(2, 2, 5, 3))
        w = RNG.normal(size=(2, 2, 4, 5))
        valid = None
        if masked:
            valid = np.tril(np.ones((4, 5), dtype=bool), k=-1)  # query 0 sees no key
        p = ad.attention_weights(Tensor(q), Tensor(k), valid).numpy()
        keys = np.broadcast_to(k[:, :, None], (2, 2, 4, 5, 3))  # every query sees all 5 keys
        _, ref_p = reference_attention(q, keys, keys, True if valid is None else valid)
        npt.assert_allclose(p, ref_p, atol=1e-15)
        check_grad(lambda t: (ad.attention_weights(t, Tensor(k), valid) * Tensor(w)).sum(), q)
        check_grad(lambda t: (ad.attention_weights(Tensor(q), t, valid) * Tensor(w)).sum(), k)

    @pytest.mark.parametrize(
        "x_shape,w_shape,b_shape",
        [
            ((2, 3, 4, 5), (3, 5, 5), (3, 1, 5)),  # per-head (H, K, K) compressor weight
            ((2, 4, 6), (6, 6), (6,)),  # plain (D, D) weight
        ],
    )
    def test_linear(self, x_shape, w_shape, b_shape):
        x, w, b = RNG.normal(size=x_shape), RNG.normal(size=w_shape), RNG.normal(size=b_shape)
        c = RNG.normal(size=np.broadcast_shapes(x_shape[:-1] + w_shape[-1:], b_shape))
        npt.assert_array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).numpy(), x @ w + b)
        check_grad(lambda t: (ad.linear(t, Tensor(w), Tensor(b)) * Tensor(c)).sum(), x)
        check_grad(lambda t: (ad.linear(Tensor(x), t, Tensor(b)) * Tensor(c)).sum(), w)
        check_grad(lambda t: (ad.linear(Tensor(x), Tensor(w), t) * Tensor(c)).sum(), b)

    @pytest.mark.parametrize("tokens_last", [False, True])
    def test_layer_norm(self, tokens_last):
        # the mixer normalizes (B, N, D) over channels and its transpose over tokens
        x = RNG.normal(size=(2, 5, 4)) * 3.0 + 1.0
        width = 5 if tokens_last else 4
        scale, shift = RNG.normal(size=width), RNG.normal(size=width)
        c = RNG.normal(size=(2, 4, 5) if tokens_last else (2, 5, 4))

        def norm(xt, st, ht):
            return ad.layer_norm(xt.swapaxes(-1, -2) if tokens_last else xt, st, ht, 1e-5)

        xs = x.swapaxes(-1, -2) if tokens_last else x
        centered = xs - xs.mean(axis=-1, keepdims=True)
        expect = centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-5) * scale + shift
        npt.assert_allclose(norm(Tensor(x), Tensor(scale), Tensor(shift)).numpy(), expect, atol=1e-14)
        check_grad(lambda t: (norm(t, Tensor(scale), Tensor(shift)) * Tensor(c)).sum(), x)
        check_grad(lambda t: (norm(Tensor(x), t, Tensor(shift)) * Tensor(c)).sum(), scale)
        check_grad(lambda t: (norm(Tensor(x), Tensor(scale), t) * Tensor(c)).sum(), shift)


class TestEngine:
    def test_diamond_reuse(self):
        # y = x*x + x*x must give dy/dx = 4x, exercising accumulation
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * x
        y.backward()
        npt.assert_allclose(x.grad, [12.0])

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        npt.assert_allclose(x.grad, [1.0])

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_constants_take_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 5.0))
        ((x * c).sum()).backward()
        assert c.grad is None
        npt.assert_allclose(x.grad, c.data)

    def test_backward_seed_shape_mismatch(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError):
            y.backward(np.ones(3))
        with pytest.raises(ValueError):
            (x * 1.0).backward()  # non-scalar without seed

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3.0).backward()
        (x * 3.0).backward()
        npt.assert_allclose(x.grad, [6.0])

    def test_roots_sharing_an_intermediate_count_each_path_once(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        (y * 3.0).backward()
        (y * 4.0).backward()
        npt.assert_array_equal(x.grad, [14.0])

    def test_two_backward_calls_on_one_root_accumulate_at_the_leaf(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2.0
        y.backward()
        y.backward()
        npt.assert_array_equal(x.grad, [4.0])

    def test_non_leaf_gradients_are_freed_by_the_walk(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        h = ad.gelu(x @ w)
        root = (h * h + h).sum()
        root.backward()
        seen, stack, non_leaves = set(), [root], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                non_leaves.append(node)
            stack.extend(node._parents)
        assert len(non_leaves) == 5  # matmul, gelu, mul, add, sum
        assert all(node.grad is None for node in non_leaves)
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)


class TestMakeLeaves:
    def test_fan_in_draws_and_constant_fills_in_spec_order(self):
        specs = {"w": ((3, 4), 4), "b": ((4,), 0.0), "s": ((2,), 1.0), "v": ((5,), 9)}
        leaves = ad.make_leaves(specs, 7)
        assert list(leaves) == list(specs)
        assert all(t.requires_grad for t in leaves.values())
        rng = np.random.default_rng(7)  # only the fan-in entries draw, in order
        assert np.array_equal(leaves["w"].data, rng.uniform(-0.5, 0.5, size=(3, 4)))
        bound = np.sqrt(1.0 / 9)
        assert np.array_equal(leaves["v"].data, rng.uniform(-bound, bound, size=5))
        assert np.array_equal(leaves["b"].data, np.zeros(4))
        assert np.array_equal(leaves["s"].data, np.ones(2))

    def test_generator_is_advanced_in_place(self):
        rng = np.random.default_rng(3)
        ad.make_leaves({"w": ((2,), 1)}, rng)
        ref = np.random.default_rng(3)
        ref.uniform(-1.0, 1.0, size=2)
        assert rng.random() == ref.random()


class TestFlatVector:
    def test_round_trip_writes_in_place_in_param_specs_order(self):
        nsa = NSAConfig(dim=8, heads=2, head_dim=4, window=3, compress_block=4, compress_stride=2,
                        select_block=2, num_selected=2)
        specs = param_specs(ModelConfig(nsa=nsa, num_tokens=5))
        leaves = ad.make_leaves(specs, 4)
        arrays = [t.data for t in leaves.values()]
        vec = ad.flatten(arrays)
        sizes = [int(np.prod(shape)) for shape, _ in specs.values()]
        assert vec.shape == (sum(sizes),)
        assert np.array_equal(vec, np.concatenate([a.ravel() for a in arrays]))
        vec[0] += 1.0  # a copy: the leaves do not move with it
        assert leaves[next(iter(specs))].data.flat[0] == vec[0] - 1.0

        ad.unflatten(leaves, np.arange(vec.size, dtype=np.float64))
        offset = 0
        for (name, (shape, _)), size, before in zip(specs.items(), sizes, arrays):
            assert leaves[name].data is before
            assert np.array_equal(before, np.arange(offset, offset + size).reshape(shape))
            offset += size
        assert np.array_equal(ad.flatten(t.data for t in leaves.values()), np.arange(vec.size))

    def test_length_mismatch_is_rejected(self):
        leaves = ad.make_leaves({"w": ((2, 3), 0.5)}, 0)
        with pytest.raises(ValueError, match="7 entries"):
            ad.unflatten(leaves, np.zeros(7))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    lift=st.booleans(),
)
def test_unbroadcast_matches_broadcasting(rows, cols, lift):
    """For any broadcast pair, d/da sum(a+b) is all-ones in a's shape."""
    a_shape = (rows, 1) if lift else (rows, cols)
    a = Tensor(np.zeros(a_shape), requires_grad=True)
    b = Tensor(np.zeros((rows, cols)))
    (a + b).sum().backward()
    assert a.grad.shape == a_shape
    npt.assert_allclose(a.grad, np.full(a_shape, cols if lift else 1.0))
