"""Unit tests for the autodiff substrate: every op gradchecked."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, no_grad, ops
from repro.tensor.function import unbroadcast


class TestElementwise:
    def test_add_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        assert gradcheck(lambda x, y: x + y, [a, b])

    def test_add_broadcast_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        assert gradcheck(lambda x, y: x + y, [a, b])

    def test_sub_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        assert gradcheck(lambda x, y: x - y, [a, b])

    def test_mul_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        assert gradcheck(lambda x, y: x * y, [a, b])

    def test_div_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        assert gradcheck(lambda x, y: x / y, [a, b])

    def test_neg_and_scalar_ops(self, rng):
        a = Tensor(rng.standard_normal(6), requires_grad=True)
        assert gradcheck(lambda x: -x * 2.0 + 1.0, [a])

    def test_power_gradcheck(self, rng):
        a = Tensor(np.abs(rng.standard_normal(5)) + 0.5, requires_grad=True)
        assert gradcheck(lambda x: x**3.0, [a])

    def test_rsub_rdiv(self, rng):
        a = Tensor(rng.standard_normal(4) + 3.0, requires_grad=True)
        assert gradcheck(lambda x: 1.0 - x, [a])
        assert gradcheck(lambda x: 2.0 / x, [a])


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu"])
    def test_gradcheck(self, rng, name):
        fn = getattr(ops, name)
        shift = 0.3 if name == "relu" else 0.0  # keep away from the kink
        a = Tensor(rng.standard_normal((3, 5)) + shift, requires_grad=True)
        assert gradcheck(fn, [a])

    def test_log_gradcheck(self, rng):
        a = Tensor(np.abs(rng.standard_normal(8)) + 0.5, requires_grad=True)
        assert gradcheck(ops.log, [a])

    def test_relu_zero_region(self):
        a = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        ops.relu(a).backward(np.ones(4))
        assert np.array_equal(a.grad, [0.0, 0.0, 1.0, 1.0])

    def test_softmax_rows_sum_to_one(self, rng):
        a = Tensor(rng.standard_normal((4, 7)))
        out = ops.softmax(a, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_log_softmax_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        assert gradcheck(lambda x: ops.log_softmax(x, axis=-1) ** 2.0, [a])


class TestReductionsAndShape:
    def test_sum_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert gradcheck(lambda x: x.sum(axis=1), [a])
        assert gradcheck(lambda x: x.sum(axis=(0, 2), keepdims=True), [a])
        assert gradcheck(lambda x: x.sum(), [a])

    def test_mean_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert gradcheck(lambda x: x.mean(axis=2), [a])
        assert gradcheck(lambda x: x.mean(), [a])

    def test_max_reduction(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert gradcheck(lambda x: ops.maximum(x, axis=1), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        ops.maximum(a, axis=1).backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        assert gradcheck(lambda x: x.reshape(3, 4).T, [a])
        b = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert gradcheck(lambda x: x.transpose(2, 0, 1), [b])

    def test_getitem(self, rng):
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        assert gradcheck(lambda x: x[1:3, ::2], [a])

    def test_getitem_fancy_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        out = a[np.array([0, 0, 2])]
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0])

    def test_concat_stack(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert gradcheck(lambda x, y: ops.concatenate([x, y], axis=0), [a, b])
        assert gradcheck(lambda x, y: ops.stack([x, y], axis=1), [a, b])


class TestMatmul:
    @pytest.mark.parametrize(
        "sa,sb",
        [((3, 4), (4, 5)), ((4,), (4, 5)), ((3, 4), (4,)), ((4,), (4,)),
         ((2, 3, 4), (2, 4, 5))],
    )
    def test_gradcheck(self, rng, sa, sb):
        a = Tensor(rng.standard_normal(sa), requires_grad=True)
        b = Tensor(rng.standard_normal(sb), requires_grad=True)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_broadcast_batch(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        assert gradcheck(lambda x, y: x @ y, [a, b])


class TestConvPool:
    @pytest.mark.parametrize(
        "ci,co,k,s,p", [(2, 3, 3, 1, 1), (1, 2, 5, 1, 0), (3, 2, 3, 2, 1)]
    )
    def test_conv2d_gradcheck(self, rng, ci, co, k, s, p):
        x = Tensor(rng.standard_normal((2, ci, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((co, ci, k, k)) * 0.2, requires_grad=True)
        b = Tensor(rng.standard_normal(co), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: ops.conv2d(x, w, b, stride=s, padding=p), [x, w, b]
        )

    def test_conv2d_skips_input_grad_of_data(self, rng, monkeypatch):
        """A data input (no grad) gets no ``col2im``; the weight and bias
        grads are bitwise those of the full backward."""
        x = rng.standard_normal((2, 2, 6, 6))
        w0 = rng.standard_normal((3, 2, 3, 3))
        b0 = rng.standard_normal(3)

        def grads(x_requires_grad):
            w = Tensor(w0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            xt = Tensor(x, requires_grad=x_requires_grad)
            ops.conv2d(xt, w, b, padding=1).sum().backward()
            return xt.grad, w.grad, b.grad

        _, w_full, b_full = grads(True)
        col2im = ops.col2im
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return col2im(*args, **kwargs)

        monkeypatch.setattr(ops, "col2im", counting)
        x_grad, w_grad, b_grad = grads(False)
        assert calls == [] and x_grad is None
        assert w_grad.tobytes() == w_full.tobytes()
        assert b_grad.tobytes() == b_full.tobytes()
        grads(True)
        assert len(calls) == 1  # the input gradient still runs when asked

    def test_conv2d_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv2d(x, w)

    @pytest.mark.parametrize("k,s", [(2, None), (3, 1), (2, 2)])
    def test_max_pool_gradcheck(self, rng, k, s):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        assert gradcheck(lambda x: ops.max_pool2d(x, k, s), [x])

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        assert gradcheck(lambda x: ops.avg_pool2d(x, 2), [x])

    def test_conv_matches_manual(self, rng):
        """Direct (naive) convolution oracle."""
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = ops.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=0).data
        ref = np.zeros((1, 3, 3, 3))
        for o in range(3):
            for p in range(3):
                for q in range(3):
                    ref[0, o, p, q] = np.sum(w[o] * x[0, :, p : p + 3, q : q + 3])
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestAutogradMachinery:
    def test_backward_requires_scalar_without_seed(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (a * 2.0).backward()

    def test_diamond_graph_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_reused_tensor_accumulates(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        (a * a).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_no_grad_blocks_taping(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert out._node is None and not out.requires_grad

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2.0).backward()
        (a * 3.0).backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        d = (a * 2.0).detach()
        assert not d.requires_grad

    def test_unbroadcast_shapes(self):
        g = np.ones((2, 3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)
        assert unbroadcast(g, (1, 4)).shape == (1, 4)
        np.testing.assert_allclose(unbroadcast(g, (1, 4)), np.full((1, 4), 6.0))

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_repr_and_properties(self, rng):
        t = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.ndim == 2 and t.size == 6 and len(t) == 2
