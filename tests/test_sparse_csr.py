"""Tests for the from-scratch CSR matrix (SciPy used only as oracle)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import (
    CSRMatrix,
    coo_to_csr_with_perm,
    csr_eye,
    csr_from_diagonal,
    csr_matvec_batched,
)


def random_sparse(rng, m, n, density=0.3):
    dense = (rng.random((m, n)) < density) * rng.standard_normal((m, n))
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = random_sparse(rng, 7, 5)
        mat = CSRMatrix.from_dense(dense)
        mat.validate()
        np.testing.assert_allclose(mat.to_dense(), dense)

    def test_matches_scipy_layout(self, rng):
        dense = random_sparse(rng, 9, 4)
        ours = CSRMatrix.from_dense(dense)
        ref = sp.csr_matrix(dense)
        np.testing.assert_array_equal(ours.indptr, ref.indptr)
        np.testing.assert_array_equal(ours.indices, ref.indices)
        np.testing.assert_allclose(ours.data, ref.data)

    def test_from_dense_tolerance(self):
        mat = CSRMatrix.from_dense(np.array([[1e-8, 1.0]]), tol=1e-6)
        assert mat.nnz == 1

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.zeros(3))

    def test_from_coo_sums_duplicates(self):
        mat = CSRMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
        np.testing.assert_allclose(mat.to_dense(), [[0, 5], [1, 0]])

    def test_from_coo_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            CSRMatrix.from_coo([0], [5], [1.0], (2, 2))

    def test_from_coo_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CSRMatrix.from_coo([0, 1], [0], [1.0], (2, 2))

    def test_empty_matrix(self):
        mat = CSRMatrix.from_dense(np.zeros((3, 4)))
        mat.validate()
        assert mat.nnz == 0 and mat.sparsity == 1.0
        np.testing.assert_allclose(mat.matvec(np.ones(4)), np.zeros(3))

    def test_eye_and_diagonal(self):
        e = csr_eye(4)
        np.testing.assert_allclose(e.to_dense(), np.eye(4))
        d = csr_from_diagonal(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(d.to_dense(), np.diag([1.0, 2.0, 3.0]))


class TestValidate:
    def test_bad_indptr_start(self):
        m = CSRMatrix(np.array([1, 1]), np.array([], dtype=int), np.array([]), (1, 1))
        with pytest.raises(ValueError):
            m.validate()

    def test_decreasing_indptr(self):
        m = CSRMatrix(np.array([0, 2, 1]), np.array([0, 0]), np.ones(2), (2, 1))
        with pytest.raises(ValueError):
            m.validate()

    def test_column_out_of_range(self):
        m = CSRMatrix(np.array([0, 1]), np.array([5]), np.ones(1), (1, 2))
        with pytest.raises(ValueError, match="column index"):
            m.validate()

    def test_unsorted_columns(self):
        m = CSRMatrix(np.array([0, 2]), np.array([1, 0]), np.ones(2), (1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            m.validate()


class TestProducts:
    def test_matvec_matches_dense(self, rng):
        dense = random_sparse(rng, 6, 8)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense).matvec(x), dense @ x
        )

    def test_matvec_shape_check(self, rng):
        mat = CSRMatrix.from_dense(random_sparse(rng, 3, 4))
        with pytest.raises(ValueError):
            mat.matvec(np.ones(5))

    def test_matmat_dense(self, rng):
        dense = random_sparse(rng, 6, 8)
        x = rng.standard_normal((8, 3))
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense).matmat_dense(x), dense @ x
        )

    def test_transpose_involution(self, rng):
        dense = random_sparse(rng, 5, 7)
        mat = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(mat.transpose().to_dense(), dense.T)
        np.testing.assert_allclose(
            mat.transpose().transpose().to_dense(), dense
        )

    def test_scale_rows_cols(self, rng):
        dense = random_sparse(rng, 4, 5)
        mat = CSRMatrix.from_dense(dense)
        dr = rng.standard_normal(4)
        dc = rng.standard_normal(5)
        np.testing.assert_allclose(
            mat.scale_rows(dr).to_dense(), np.diag(dr) @ dense
        )
        np.testing.assert_allclose(
            mat.scale_cols(dc).to_dense(), dense @ np.diag(dc)
        )
        np.testing.assert_allclose(mat.scale(2.0).to_dense(), 2.0 * dense)

    def test_scale_diag_length_checks(self, rng):
        mat = CSRMatrix.from_dense(random_sparse(rng, 3, 4))
        with pytest.raises(ValueError):
            mat.scale_rows(np.ones(4))
        with pytest.raises(ValueError):
            mat.scale_cols(np.ones(3))


class TestPatternsAndBatching:
    def test_with_data_same_pattern(self, rng):
        mat = CSRMatrix.from_dense(random_sparse(rng, 5, 5))
        new = mat.with_data(np.arange(mat.nnz, dtype=float))
        assert new.pattern_key() == mat.pattern_key()
        with pytest.raises(ValueError):
            mat.with_data(np.ones(mat.nnz + 1))

    def test_coo_to_csr_with_perm(self, rng):
        rows = np.array([2, 0, 1, 0])
        cols = np.array([1, 2, 0, 0])
        pattern, perm = coo_to_csr_with_perm(rows, cols, (3, 3))
        pattern.validate()
        vals = rng.standard_normal(4)
        rebuilt = pattern.with_data(vals[perm]).to_dense()
        ref = np.zeros((3, 3))
        ref[rows, cols] = vals
        np.testing.assert_allclose(rebuilt, ref)

    def test_coo_to_csr_with_perm_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            coo_to_csr_with_perm([0, 0], [1, 1], (2, 2))

    def test_csr_matvec_batched_per_sample(self, rng):
        dense = random_sparse(rng, 5, 6)
        pattern = CSRMatrix.from_dense(np.where(dense != 0, 1.0, 0.0))
        data = rng.standard_normal((3, pattern.nnz))
        x = rng.standard_normal((3, 6))
        out = csr_matvec_batched(pattern, data, x)
        for b in range(3):
            np.testing.assert_allclose(
                out[b], pattern.with_data(data[b]).to_dense() @ x[b]
            )

    def test_csr_matvec_batched_shared_data(self, rng):
        dense = random_sparse(rng, 4, 4)
        mat = CSRMatrix.from_dense(dense)
        x = rng.standard_normal((2, 4))
        out = csr_matvec_batched(mat, mat.data, x)
        for b in range(2):
            np.testing.assert_allclose(out[b], dense @ x[b])

    def test_density_and_repr(self, rng):
        mat = CSRMatrix.from_dense(np.eye(4))
        assert mat.density == 0.25
        assert "nnz=4" in repr(mat)
