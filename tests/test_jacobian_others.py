"""Tests for ReLU / tanh / pooling / linear Jacobians and the dispatch."""

import numpy as np
import pytest

from repro.jacobian import (
    autograd_tjac,
    avgpool_tjac,
    layer_tjac_batched,
    linear_tjac,
    linear_tjac_csr,
    maxpool_tjac,
    maxpool_tjac_batched,
    relu_tjac,
    relu_tjac_batched,
    sigmoid_tjac,
    tanh_tjac,
    tanh_tjac_batched,
)
from repro.jacobian.sparsity import (
    conv_guaranteed_sparsity,
    maxpool_guaranteed_sparsity,
    relu_guaranteed_sparsity,
)
from repro.nn import layers as L
from repro.scan import DenseJacobian, SparseJacobian
from repro.tensor import Tensor, ops

#: The scan element (type, shared) each layer type's Jacobian lands in.
ELEMENT_BY_LAYER = {
    L.Linear: (DenseJacobian, True),
    L.Conv2d: (SparseJacobian, True),
    L.ReLU: (SparseJacobian, False),
    L.Tanh: (SparseJacobian, False),
    L.Sigmoid: (SparseJacobian, False),
    L.MaxPool2d: (SparseJacobian, False),
    L.AvgPool2d: (SparseJacobian, True),
}


class TestPointwise:
    def test_relu_matches_autograd(self, rng):
        x = rng.standard_normal(12)
        ref = autograd_tjac(lambda t: ops.relu(t), x, as_csr=False)
        np.testing.assert_allclose(relu_tjac(x).to_dense(), ref)

    def test_relu_structural_pattern_is_diagonal(self, rng):
        pattern, data = relu_tjac_batched(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(pattern.to_dense(), np.eye(5))
        assert data.shape == (3, 5)
        assert set(np.unique(data)) <= {0.0, 1.0}

    def test_tanh_matches_autograd(self, rng):
        x = rng.standard_normal(9)
        ref = autograd_tjac(lambda t: ops.tanh(t), x, as_csr=False)
        np.testing.assert_allclose(tanh_tjac(np.tanh(x)).to_dense(), ref, atol=1e-12)

    def test_tanh_batched(self, rng):
        y = np.tanh(rng.standard_normal((2, 6)))
        pattern, data = tanh_tjac_batched(y)
        np.testing.assert_allclose(data, 1 - y**2)
        assert pattern.shape == (6, 6)

    def test_sigmoid_matches_autograd(self, rng):
        x = rng.standard_normal(7)
        y = 1 / (1 + np.exp(-x))
        ref = autograd_tjac(lambda t: ops.sigmoid(t), x, as_csr=False)
        np.testing.assert_allclose(sigmoid_tjac(y).to_dense(), ref, atol=1e-12)


class TestPooling:
    @pytest.mark.parametrize("k,s", [(2, None), (2, 2), (3, 1), (2, 1)])
    def test_maxpool_matches_autograd(self, rng, k, s):
        x = rng.standard_normal((2, 6, 6))
        tj = maxpool_tjac(x, k, s)
        tj.validate()
        ref = autograd_tjac(
            lambda t: ops.max_pool2d(t.reshape(1, 2, 6, 6), k, s), x, as_csr=False
        )
        np.testing.assert_allclose(tj.to_dense(), ref)

    def test_maxpool_batched_consistent(self, rng):
        xb = rng.standard_normal((4, 2, 4, 4))
        pattern, data = maxpool_tjac_batched(xb, 2)
        assert data.shape == (4, pattern.nnz)
        for b in range(4):
            np.testing.assert_allclose(
                pattern.with_data(data[b]).to_dense(),
                maxpool_tjac(xb[b], 2).to_dense(),
            )

    def test_maxpool_structural_nnz(self, rng):
        """Non-overlapping pooling: each input in exactly one window."""
        x = rng.standard_normal((1, 3, 8, 8))
        pattern, _ = maxpool_tjac_batched(x, 2)
        assert pattern.nnz == 3 * 8 * 8

    def test_avgpool_matches_autograd(self, rng):
        x = rng.standard_normal((2, 6, 6))
        tj = avgpool_tjac(2, 6, 6, 2)
        ref = autograd_tjac(
            lambda t: ops.avg_pool2d(t.reshape(1, 2, 6, 6), 2), x, as_csr=False
        )
        np.testing.assert_allclose(tj.to_dense(), ref)


class TestLinear:
    def test_dense_is_weight_transpose(self, rng):
        w = rng.standard_normal((4, 7))
        np.testing.assert_array_equal(linear_tjac(w), w.T)

    def test_csr_with_tolerance(self, rng):
        w = rng.standard_normal((4, 7))
        w[np.abs(w) < 0.5] = 0.0
        csr = linear_tjac_csr(w)
        np.testing.assert_allclose(csr.to_dense(), w.T)
        assert csr.nnz == int((w != 0).sum())


class TestSparsityFormulas:
    def test_table1_paper_values(self):
        """The three example values in Table 1 (VGG-11 first ops, 32×32)."""
        conv_nnz = 3 * 32 * (3 * 32 - 2) * 3 * 64
        conv = conv_guaranteed_sparsity(3, (32, 32), exact_nnz=conv_nnz, ci=3, co=64)
        assert abs(conv - 0.99157) < 2e-4  # paper rounds the approximation
        relu = relu_guaranteed_sparsity(64, 32, 32)
        assert abs(relu - 0.99998) < 1e-5
        pool = maxpool_guaranteed_sparsity(2, 64, (32, 32))
        assert abs(pool - 0.99994) < 1e-5

    def test_conv_approximation(self):
        assert conv_guaranteed_sparsity(3, (32, 32)) == 1 - 9 / 1024

    def test_formulas_match_generated_matrices(self, rng):
        """Formulas vs. actual nnz of generated (small) Jacobians."""
        ci, co, hw = 2, 3, (8, 8)
        from repro.jacobian import conv3x3p1_tjac_paper

        tj = conv3x3p1_tjac_paper(rng.standard_normal((co, ci, 3, 3)), hw)
        formula = conv_guaranteed_sparsity(3, hw, exact_nnz=tj.nnz, ci=ci, co=co)
        assert abs(formula - tj.sparsity) < 1e-12

        x = rng.standard_normal((1, 4, 8, 8))
        pattern, _ = maxpool_tjac_batched(x, 2)
        assert abs(pattern.sparsity - maxpool_guaranteed_sparsity(2, 4, (8, 8))) < 1e-12


class TestDispatch:
    def test_flatten_returns_none(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        assert layer_tjac_batched(L.Flatten(), x, x.reshape(2, -1)) is None

    def test_unsupported_layer_raises(self, rng):
        class Strange(L.Module):
            pass

        with pytest.raises(TypeError, match="no transposed-Jacobian"):
            layer_tjac_batched(Strange(), np.zeros((1, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "layer_fn,x_shape",
        [
            (lambda rng: L.Linear(6, 4, rng=rng), (3, 6)),
            (lambda rng: L.Conv2d(2, 3, 3, padding=1, rng=rng), (3, 2, 5, 5)),
            (lambda rng: L.ReLU(), (3, 8)),
            (lambda rng: L.Tanh(), (3, 8)),
            (lambda rng: L.Sigmoid(), (3, 8)),
            (lambda rng: L.MaxPool2d(2), (3, 2, 6, 6)),
            (lambda rng: L.AvgPool2d(2), (3, 2, 6, 6)),
        ],
    )
    def test_dispatch_matches_autograd_per_sample(self, rng, layer_fn, x_shape):
        layer = layer_fn(rng)
        x = rng.standard_normal(x_shape)
        with __import__("repro.tensor", fromlist=["no_grad"]).no_grad():
            x_out = layer(Tensor(x)).data
        jac = layer_tjac_batched(layer, x, x_out)
        assert (type(jac), jac.shared) == ELEMENT_BY_LAYER[type(layer)]
        batch = x.shape[0]
        dense = jac.to_dense() if isinstance(jac, SparseJacobian) else jac
        per_sample = np.broadcast_to(dense.data, (batch, *jac.shape))
        for b in range(batch):
            ref = autograd_tjac(
                lambda t: layer(t.reshape((1,) + x_shape[1:])),
                x[b],
                as_csr=False,
            )
            np.testing.assert_allclose(per_sample[b], ref, atol=1e-10)

    def test_linear_sparse_tol_path(self, rng):
        layer = L.Linear(5, 4, rng=rng)
        layer.weight.data[np.abs(layer.weight.data) < 0.2] = 0.0
        x = rng.standard_normal((2, 5))
        jac = layer_tjac_batched(
            layer, x, x @ layer.weight.data.T, sparse_linear_tol=0.0
        )
        assert isinstance(jac, SparseJacobian) and jac.shared
        np.testing.assert_allclose(
            jac.pattern.to_dense(), layer.weight.data.T
        )
