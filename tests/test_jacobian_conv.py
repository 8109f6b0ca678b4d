"""Tests for convolution transposed-Jacobian generators (Algs. 2–4)."""

import numpy as np
import pytest

from repro.jacobian import autograd_tjac, conv2d_tjac, conv3x3p1_tjac_paper
from repro.tensor import Tensor, ops


def reference_tjac(weight, hw, stride, padding):
    ci = weight.shape[1]
    x = np.random.default_rng(1).standard_normal((ci, *hw))
    w = Tensor(weight)
    return autograd_tjac(
        lambda t: ops.conv2d(
            t.reshape(1, ci, *hw), w, None, stride=stride, padding=padding
        ),
        x,
        as_csr=False,
    )


CONFIGS = [
    (2, 3, 3, 1, 1, (5, 6)),
    (1, 2, 5, 1, 0, (7, 7)),
    (2, 2, 3, 2, 1, (6, 6)),
    (3, 1, 2, 2, 0, (4, 4)),
    (1, 1, 1, 1, 0, (3, 3)),
    (2, 2, 3, 1, 2, (4, 4)),  # padding larger than usual
]


class TestExactGenerator:
    @pytest.mark.parametrize("ci,co,k,s,p,hw", CONFIGS)
    def test_matches_autograd(self, rng, ci, co, k, s, p, hw):
        weight = rng.standard_normal((co, ci, k, k))
        tj = conv2d_tjac(weight, hw, stride=s, padding=p)
        tj.validate()
        np.testing.assert_allclose(
            tj.to_dense(), reference_tjac(weight, hw, s, p), atol=1e-10
        )

    def test_shape(self, rng):
        tj = conv2d_tjac(rng.standard_normal((4, 2, 3, 3)), (8, 8), padding=1)
        assert tj.shape == (2 * 64, 4 * 64)

    def test_rejects_nonsquare_kernel(self, rng):
        with pytest.raises(ValueError, match="square"):
            conv2d_tjac(rng.standard_normal((1, 1, 2, 3)), (4, 4))

    def test_rejects_kernel_too_large(self, rng):
        with pytest.raises(ValueError):
            conv2d_tjac(rng.standard_normal((1, 1, 5, 5)), (3, 3), padding=0)

    def test_values_depend_only_on_weights(self, rng):
        """The paper's key property (Section 4.2): conv Jacobian values
        come from the filter alone, so pruning weights prunes the
        Jacobian."""
        w = rng.standard_normal((2, 2, 3, 3))
        t1 = conv2d_tjac(w, (5, 5), padding=1)
        t2 = conv2d_tjac(w, (5, 5), padding=1)
        np.testing.assert_array_equal(t1.data, t2.data)
        assert set(np.unique(t1.data)) <= set(np.unique(w)) | {0.0}


class TestPaperLayout:
    @pytest.mark.parametrize(
    "ci,co,hw", [(1, 1, (3, 3)), (2, 3, (5, 4)), (3, 2, (4, 6))]
)
    def test_dense_equals_exact(self, rng, ci, co, hw):
        w = rng.standard_normal((co, ci, 3, 3))
        paper = conv3x3p1_tjac_paper(w, hw)
        paper.validate()
        exact = conv2d_tjac(w, hw, stride=1, padding=1)
        np.testing.assert_allclose(paper.to_dense(), exact.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("ci,co,hw", [(1, 2, (4, 5)), (2, 1, (6, 3))])
    def test_nnz_formula(self, rng, ci, co, hw):
        """Structural nnz = 3·wi·(3·hi−2)·ci·co (Table 1 numerator)."""
        hi, wi = hw
        w = rng.standard_normal((co, ci, 3, 3))
        paper = conv3x3p1_tjac_paper(w, hw)
        assert paper.nnz == 3 * wi * (3 * hi - 2) * ci * co

    def test_row_lengths_match_algorithm2(self, rng):
        """Top/bottom rows hold 6·co entries; interior rows 9·co."""
        hi, wi, co = 5, 4, 2
        paper = conv3x3p1_tjac_paper(rng.standard_normal((co, 1, 3, 3)), (hi, wi))
        lengths = np.diff(paper.indptr)
        assert np.all(lengths[:wi] == 6 * co)
        assert np.all(lengths[wi : wi * (hi - 1)] == 9 * co)
        assert np.all(lengths[wi * (hi - 1) :] == 6 * co)

    def test_rejects_non3x3(self, rng):
        with pytest.raises(ValueError):
            conv3x3p1_tjac_paper(rng.standard_normal((1, 1, 5, 5)), (4, 4))

    def test_rejects_tiny_images(self, rng):
        with pytest.raises(ValueError):
            conv3x3p1_tjac_paper(rng.standard_normal((1, 1, 3, 3)), (2, 4))


class TestPrunedGenerator:
    """``conv2d_tjac`` on pruned filters stores only the live taps."""

    @pytest.mark.parametrize("ci,co,k,s,p,hw", CONFIGS[:4])
    def test_equals_exact_pruned(self, rng, ci, co, k, s, p, hw):
        w = rng.standard_normal((co, ci, k, k))
        w[np.abs(w) < 0.8] = 0.0  # prune
        tj = conv2d_tjac(w, hw, stride=s, padding=p)
        tj.validate()
        reference = reference_tjac(w, hw, s, p)
        np.testing.assert_allclose(tj.to_dense(), reference, atol=1e-12)
        assert tj.nnz == np.count_nonzero(reference)

    def test_all_pruned_gives_empty(self, rng):
        tj = conv2d_tjac(np.zeros((2, 2, 3, 3)), (4, 4), padding=1)
        tj.validate()
        assert tj.nnz == 0 and tj.shape == (2 * 16, 2 * 16)

    def test_sparsity_grows_with_pruning(self, rng):
        w = rng.standard_normal((4, 4, 3, 3))
        full = conv2d_tjac(w, (8, 8), padding=1).nnz
        w_pruned = w.copy()
        thresh = np.quantile(np.abs(w), 0.97)
        w_pruned[np.abs(w_pruned) < thresh] = 0.0
        pruned = conv2d_tjac(w_pruned, (8, 8), padding=1).nnz
        assert pruned < 0.1 * full
