"""Unit tests for the autodiff engine: every primitive against central differences."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnsa import autodiff as ad
from tabnsa.autodiff import Tensor


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

    def test_div(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4)) + 3.0
        check_grad(lambda t: (t / Tensor(b)).sum(), a)
        check_grad(lambda t: (Tensor(a) / t).sum(), b)

    def test_sub_neg_pow(self):
        a = RNG.normal(size=(5,))
        check_grad(lambda t: ((t - 1.5) ** 3).sum(), a)
        check_grad(lambda t: (-t + 2.0).sum(), a)

    @pytest.mark.parametrize(
        "fn,shift",
        [
            (ad.exp, 0.0),
            (ad.log, 4.0),
            (ad.sqrt, 4.0),
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
        check_grad(lambda t: (t.reshape(6, 4) ** 2).sum(), a)
        check_grad(lambda t: (t.swapaxes(-1, -2) * 3.0).sum(), a)

    def test_concatenate(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 5))
        check_grad(lambda t: (ad.concatenate([t, Tensor(b)], axis=1) ** 2).sum(), a)
        check_grad(lambda t: (ad.concatenate([Tensor(a), t], axis=1) ** 2).sum(), b)


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
    def test_sum(self, axis, keepdims):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: (t.sum(axis=axis, keepdims=keepdims) ** 2).sum(), a)

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (-1, False), (1, True)])
    def test_mean(self, axis, keepdims):
        a = RNG.normal(size=(2, 3, 4))
        check_grad(lambda t: (t.mean(axis=axis, keepdims=keepdims) ** 2).sum(), a)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        a = RNG.normal(size=(3, 7)) * 10
        y = ad.softmax(Tensor(a)).numpy()
        npt.assert_allclose(y.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_stable_for_large_logits(self):
        a = np.array([[1000.0, 1000.0, 999.0]])
        y = ad.softmax(Tensor(a)).numpy()
        assert np.all(np.isfinite(y))
        npt.assert_allclose(y.sum(), 1.0, atol=1e-12)

    def test_gradient(self):
        a = RNG.normal(size=(2, 5))
        w = RNG.normal(size=(2, 5))
        check_grad(lambda t: (ad.softmax(t) * Tensor(w)).sum(), a)

    def test_gradient_axis0(self):
        a = RNG.normal(size=(4, 3))
        check_grad(lambda t: (ad.softmax(t, axis=0) ** 2).sum(), a)


class TestIndexing:
    def test_basic_slice(self):
        a = RNG.normal(size=(4, 5))
        check_grad(lambda t: (t[1:3, ::2] ** 2).sum(), a)

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
        check_grad(lambda t: (t[rows, cols] ** 2).sum(), a)

    def test_gather_blocks_forward_and_grad(self):
        t = RNG.normal(size=(2, 2, 6, 3))
        idx = np.array([[0, 1, 2], [2, 3, 4]])  # overlapping on purpose
        out = ad.gather_blocks(Tensor(t), idx).numpy()
        assert out.shape == (2, 2, 2, 3, 3)
        npt.assert_array_equal(out[1, 0, 1, 2], t[1, 0, 4])
        check_grad(lambda x: (ad.gather_blocks(x, idx) ** 2).sum(), t)

    def test_gather_selected_forward_and_grad(self):
        t = RNG.normal(size=(2, 3, 5, 2))
        idx = np.array([[[4, 0, 0], [1, 1, 2]], [[1, 2, 3], [0, 4, 4]]])  # (B=2, T=2, S=3)
        out = ad.gather_selected(Tensor(t), idx).numpy()
        assert out.shape == (2, 3, 2, 3, 2)
        npt.assert_array_equal(out[0, 1, 0, 0], t[0, 1, 4])
        npt.assert_array_equal(out[1, 2, 1, 2], t[1, 2, 4])
        check_grad(lambda x: (ad.gather_selected(x, idx) ** 2).sum(), t)


def gather_selected_loop(t, idx):
    b, h = t.shape[:2]
    out = np.empty((b, h) + idx.shape[1:] + t.shape[3:])
    for bi in range(b):
        for hi in range(h):
            for ti in range(idx.shape[1]):
                for si in range(idx.shape[2]):
                    out[bi, hi, ti, si] = t[bi, hi, idx[bi, ti, si]]
    return out


def scatter_add_at(shape, index, g):
    out = np.zeros(shape)
    np.add.at(out, index, g)
    return out


class TestGatherExactness:
    @pytest.mark.parametrize("b,h,n,t,s,dh", [(1, 1, 5, 2, 3, 2), (1, 3, 7, 4, 6, 3), (4, 2, 15, 15, 4, 5)])
    def test_gather_selected_forward_matches_loop(self, b, h, n, t, s, dh):
        x = RNG.normal(size=(b, h, n, dh))
        idx = RNG.integers(0, n, size=(b, t, s))
        expect = gather_selected_loop(x, idx)
        npt.assert_array_equal(ad.gather_selected(Tensor(x), idx).numpy(), expect)
        with ad.no_grad():
            npt.assert_array_equal(ad.gather_selected(Tensor(x, requires_grad=True), idx).numpy(), expect)

    def test_gather_selected_vjp_matches_add_at(self):
        b, h, n, dh = 3, 2, 9, 4
        x = Tensor(RNG.normal(size=(b, h, n, dh)), requires_grad=True)
        blocks = RNG.integers(0, 5, size=(b, n, 2))
        idx = np.clip(blocks[..., None] * 2 + np.arange(2), 0, n - 1).reshape(b, n, 4)  # clipped tails repeat n-1
        out = ad.gather_selected(x, idx)
        g = RNG.normal(size=out.shape)
        out.backward(g)
        index = (np.arange(b)[:, None, None, None], np.arange(h)[None, :, None, None], idx[:, None])
        npt.assert_allclose(x.grad, scatter_add_at(x.shape, index, g), rtol=1e-13)

    def test_gather_blocks_vjp_matches_add_at(self):
        b, h, n, dh = 3, 2, 15, 4
        x = Tensor(RNG.normal(size=(b, h, n, dh)), requires_grad=True)
        idx = np.arange(6)[:, None] * 2 + np.arange(4)  # overlapping strided windows
        idx = np.vstack([idx, np.minimum(np.arange(n)[:, None] + np.arange(4), n - 1)])
        out = ad.gather_blocks(x, idx)
        g = RNG.normal(size=out.shape)
        out.backward(g)
        npt.assert_allclose(x.grad, scatter_add_at(x.shape, (slice(None), slice(None), idx), g), rtol=1e-13)


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
