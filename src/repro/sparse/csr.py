"""Compressed Sparse Row matrices (Saad, 2003), implemented on NumPy.

The layout matches the paper's storage of transposed Jacobians: three
arrays ``indptr`` (row start offsets, length ``nrows+1``), ``indices``
(column index per nonzero), and ``data`` (value per nonzero).  All
kernels are vectorized — no per-element Python loops.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class CSRMatrix:
    """A 2-D sparse matrix in CSR format.

    Invariants (checked by :meth:`validate`):

    * ``indptr`` is non-decreasing with ``indptr[0] == 0`` and
      ``indptr[-1] == len(indices) == len(data)``;
    * column indices within each row are strictly increasing (canonical
      form), which SpGEMM relies on.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_dense(dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|x| <= tol``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {dense.shape}")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        data = dense[rows, cols].astype(np.float64)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, cols.astype(np.int64), data, dense.shape)

    @staticmethod
    def from_coo(
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from coordinate triplets (vectorized sort + segment sum)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("rows/cols/vals length mismatch")
        nrows, ncols = shape
        if len(rows) and (rows.max() >= nrows or cols.max() >= ncols):
            raise ValueError("coordinate out of bounds")
        key = rows * np.int64(ncols) + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        if sum_duplicates and len(key):
            uniq, inverse = np.unique(key, return_inverse=True)
            summed = np.bincount(inverse, weights=vals, minlength=len(uniq))
            key, vals = uniq, summed
        out_rows = key // ncols
        out_cols = key % ncols
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, out_rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, out_cols, vals, shape)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.data))

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries — the paper's Table 1 metric."""
        return 1.0 - self.density

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row index of each stored entry (repeat-expanded)."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), self.row_lengths()
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on any violated CSR invariant."""
        if self.indptr.ndim != 1 or len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise ValueError("indptr[-1] / indices / data lengths disagree")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.shape[1]:
                raise ValueError("column index out of range")
            # strictly increasing columns within each row
            starts = self.indptr[:-1]
            diffs = np.diff(self.indices)
            # positions where a new row begins need not increase
            row_boundary = np.zeros(len(self.indices), dtype=bool)
            row_boundary[starts[starts < len(self.indices)]] = True
            interior = ~row_boundary[1:]
            if np.any(diffs[interior] <= 0):
                raise ValueError("column indices not strictly increasing in a row")

    # ------------------------------------------------------------------
    # conversions & products
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.data
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``self @ x`` for a dense vector ``x`` (2·nnz FLOPs)."""
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"shape mismatch: {self.shape} @ {x.shape}")
        contrib = self.data * x[self.indices]
        return np.bincount(self.row_ids(), weights=contrib, minlength=self.shape[0])

    def matmat_dense(self, x: np.ndarray) -> np.ndarray:
        """``self @ X`` for a dense matrix ``X`` of shape (ncols, k)."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch: {self.shape} @ {x.shape}")
        contrib = self.data[:, None] * x[self.indices]  # (nnz, k)
        out = np.zeros((self.shape[0], x.shape[1]), dtype=np.float64)
        np.add.at(out, self.row_ids(), contrib)
        return out

    def transpose(self) -> "CSRMatrix":
        """CSR transpose (equivalent to a CSC view re-sorted to CSR)."""
        return CSRMatrix.from_coo(
            self.indices,
            self.row_ids(),
            self.data,
            (self.shape[1], self.shape[0]),
            sum_duplicates=False,
        )

    def scale(self, alpha: float) -> "CSRMatrix":
        return CSRMatrix(self.indptr, self.indices, self.data * alpha, self.shape)

    def scale_rows(self, d: np.ndarray) -> "CSRMatrix":
        """``diag(d) @ self`` without materializing the diagonal."""
        d = np.asarray(d)
        if d.shape != (self.shape[0],):
            raise ValueError("diagonal length mismatch")
        return CSRMatrix(
            self.indptr, self.indices, self.data * d[self.row_ids()], self.shape
        )

    def scale_cols(self, d: np.ndarray) -> "CSRMatrix":
        """``self @ diag(d)``."""
        d = np.asarray(d)
        if d.shape != (self.shape[1],):
            raise ValueError("diagonal length mismatch")
        return CSRMatrix(
            self.indptr, self.indices, self.data * d[self.indices], self.shape
        )

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Same pattern, new values (the deterministic-pattern workflow)."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.data.shape:
            raise ValueError("data length must match pattern nnz")
        return CSRMatrix(self.indptr, self.indices, data, self.shape)

    def pattern_key(self) -> Tuple[bytes, bytes, Tuple[int, int]]:
        """Hashable identifier of the sparsity pattern (for plan caching)."""
        return (self.indptr.tobytes(), self.indices.tobytes(), self.shape)

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"sparsity={self.sparsity:.4f})"
        )


def csr_eye(n: int) -> CSRMatrix:
    """The n×n identity — the scan operator's identity value."""
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(
        np.arange(n + 1, dtype=np.int64), idx, np.ones(n), (n, n)
    )


def csr_matvec_batched(
    pattern: CSRMatrix, data: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Batched ``M_b @ x_b`` where every ``M_b`` shares ``pattern``.

    ``data``: (B, nnz) or (nnz,) shared values; ``x``: (B, ncols).
    Returns (B, nrows).  Used by the scan's vector ⊙ matrix case with
    per-sample Jacobians of deterministic pattern.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    batch = max(x.shape[0], data.shape[0])
    nrows = pattern.shape[0]
    contrib = data * x[:, pattern.indices]  # (B, nnz)
    if contrib.shape[1] == 0:
        return np.zeros((batch, nrows))
    if contrib.shape[0] != batch:  # data shared across batch
        contrib = np.broadcast_to(contrib, (batch, contrib.shape[1]))
    offsets = (
        np.arange(batch, dtype=np.int64)[:, None] * nrows + pattern.row_ids()
    )
    flat = np.bincount(
        offsets.reshape(-1), weights=contrib.reshape(-1), minlength=batch * nrows
    )
    return flat.reshape(batch, nrows)


def coo_to_csr_with_perm(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[CSRMatrix, np.ndarray]:
    """Build a CSR *pattern* from COO coordinates; also return the sort
    permutation so per-sample value arrays can be reordered identically.

    Coordinates must be duplicate-free.  The returned matrix has
    placeholder ones as data.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    nrows, ncols = shape
    key = rows * np.int64(ncols) + cols
    order = np.argsort(key, kind="stable")
    if len(key) and len(np.unique(key)) != len(key):
        raise ValueError("duplicate coordinates not supported here")
    sorted_rows = rows[order]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(indptr, sorted_rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    pattern = CSRMatrix(indptr, cols[order], np.ones(len(order)), shape)
    return pattern, order


def csr_from_diagonal(d: np.ndarray) -> CSRMatrix:
    """diag(d) as CSR — e.g. ReLU/tanh transposed Jacobians."""
    d = np.asarray(d, dtype=np.float64)
    n = len(d)
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(np.arange(n + 1, dtype=np.int64), idx, d.copy(), (n, n))


def csr_block_diag(block: np.ndarray, count: int) -> CSRMatrix:
    """``kron(I_count, block)`` with structurally dense blocks.

    Every entry of ``block`` is stored (possible zeros included), so the
    pattern depends only on the shapes — the deterministic-sparsity
    property plan caching relies on.  Off-block entries are guaranteed
    zeros; overall density is exactly ``1/count``.  This is the
    transposed-Jacobian shape of any position-wise operator on a
    (T, d) activation: a Linear applied per position, or LayerNorm
    (whose per-position d×d blocks are then per-sample ``data``).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {block.shape}")
    if count < 1:
        raise ValueError("count must be >= 1")
    r, c = block.shape
    nrows = count * r
    indptr = np.arange(nrows + 1, dtype=np.int64) * c
    cols = np.tile(np.arange(c, dtype=np.int64), r)
    indices = (
        np.arange(count, dtype=np.int64)[:, None] * c + cols[None, :]
    ).reshape(-1)
    data = np.tile(block.reshape(-1), count)
    return CSRMatrix(indptr, indices, data, (nrows, count * c))
