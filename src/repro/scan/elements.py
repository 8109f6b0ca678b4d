"""Typed scan elements and the ⊙ operator.

The operator (paper Section 3.1) is ``A ⊙ B = B·A`` with the identity
matrix as identity value, where ``A`` may be a (gradient) vector or a
(transposed-Jacobian) matrix and ``B`` is a matrix.  ⊙ is associative
and **non-commutative**; the type dispatch below implements every
combination the scan can produce:

====================  =====================  =========================
A (left operand)      B (right operand)      result ``B·A``
====================  =====================  =========================
Identity              anything               B
anything              Identity               A
GradientVector        Dense/SparseJacobian   GradientVector (mat-vec)
GradientVector        ScaledShared           GradientVector ``(v·s)·W``
DenseJacobian         DenseJacobian          DenseJacobian (mat-mat)
SparseJacobian        SparseJacobian         SparseJacobian (SpGEMM)
ScaledShared          ScaledShared, same W   DenseJacobian (pair table)
any other mix         —                      DenseJacobian
====================  =====================  =========================

Elements are *batched*: one logical element per sample, vectorized
across the batch.  Sparse elements share a deterministic CSR pattern
(paper Section 3.3) with per-sample data, so one cached SpGEMM plan
serves the whole batch.  A :class:`ScaledShared` element keeps the
known structure ``Wᵀ·diag(s_b)`` of an RNN step's Jacobian (paper
Eq. 9): one shared ``W`` plus a per-sample scale vector; mixes with
other matrix kinds densify it.

Every combine records FLOPs and a dense-equivalent ``m·n·k`` size —
the quantities Figure 11 plots per scan step.
"""

from __future__ import annotations

import threading
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.scan.sparse_policy import SparsePolicy
from repro.sparse import CSRMatrix, KernelArena, PatternCache, csr_matvec_batched


class Identity:
    """The symbolic identity matrix I (never materialized)."""

    _instance: Optional["Identity"] = None

    def __new__(cls) -> "Identity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "I"


IDENTITY = Identity()


class GradientVector:
    """A batch of gradient vectors, shape (B, d)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data[None, :]
        if data.ndim != 2:
            raise ValueError(f"expected (B, d) or (d,), got {data.shape}")
        self.data = data

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:
        return f"GradientVector(B={self.batch}, d={self.dim})"


class DenseJacobian:
    """A batch of dense transposed Jacobians.

    ``data``: (d_in, d_out) shared across samples or (B, d_in, d_out).

    Storage is canonicalized to C-contiguous: BLAS kernels can produce
    different last-bit results for strided vs. contiguous operands, so
    a single canonical layout is what keeps the serial and thread
    backends bitwise-identical — and gemm prefers contiguous inputs
    anyway.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim not in (2, 3):
            raise ValueError(f"expected 2-D or 3-D array, got {data.shape}")
        self.data = data

    @property
    def shared(self) -> bool:
        return self.data.ndim == 2

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape[-2:]

    @property
    def batch(self) -> Optional[int]:
        return None if self.shared else self.data.shape[0]

    def __repr__(self) -> str:
        tag = "shared" if self.shared else f"B={self.data.shape[0]}"
        return f"DenseJacobian({self.shape}, {tag})"


class SparseJacobian:
    """A batch of CSR transposed Jacobians sharing one pattern.

    ``pattern`` holds the structure (and, when ``data is None``, the
    shared values); ``data`` of shape (B, nnz) holds per-sample values.
    """

    __slots__ = ("pattern", "data")

    def __init__(self, pattern: CSRMatrix, data: Optional[np.ndarray] = None) -> None:
        self.pattern = pattern
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim != 2 or data.shape[1] != pattern.nnz:
                raise ValueError(
                    f"data must be (B, nnz={pattern.nnz}), got {data.shape}"
                )
        self.data = data

    @property
    def shared(self) -> bool:
        return self.data is None

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pattern.shape

    @property
    def batch(self) -> Optional[int]:
        return None if self.data is None else self.data.shape[0]

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def values(self) -> np.ndarray:
        """(B, nnz) or (1, nnz) value matrix."""
        return self.pattern.data[None, :] if self.data is None else self.data

    def to_dense(self) -> DenseJacobian:
        rows = self.pattern.row_ids()
        if self.shared:
            return DenseJacobian(self.pattern.to_dense())
        out = np.zeros((self.data.shape[0], *self.shape))
        out[:, rows, self.pattern.indices] = self.data
        return DenseJacobian(out)

    def __repr__(self) -> str:
        tag = "shared" if self.shared else f"B={self.data.shape[0]}"
        return f"SparseJacobian({self.shape}, nnz={self.nnz}, {tag})"


class ScaledShared:
    """A batch of transposed Jacobians ``Wᵀ·diag(s_b)``.

    ``w``: the (d, d_out) matrix shared by every sample, held once;
    ``scale``: the (B, d) per-sample scales.  ``pairs``: optionally the
    :meth:`pair_table` of a square ``w``; two elements holding the same
    table multiply as one GEMM, without materializing either factor.
    """

    __slots__ = ("w", "scale", "pairs")

    def __init__(
        self, w: np.ndarray, scale: np.ndarray, pairs: Optional[np.ndarray] = None
    ) -> None:
        w = np.asarray(w, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64)
        if w.ndim != 2 or scale.ndim != 2 or scale.shape[1] != w.shape[0]:
            raise ValueError(
                f"expected w (d, d_out) and scale (B, d), got {w.shape}, {scale.shape}"
            )
        self.w, self.scale, self.pairs = w, scale, pairs

    @staticmethod
    def pair_table(w: np.ndarray) -> np.ndarray:
        """``Q[j, i·d + k] = Wᵀ[i,j]·Wᵀ[j,k]`` for a square (d, d) ``w``.

        Then ``(Wᵀ·diag(s_b))·(Wᵀ·diag(s_a)) = (s_b @ Q)·diag(s_a)``,
        reshaped to (B, d, d).  The table holds d³ floats (64 KB at
        d = 20); the caller builds it once per scan.
        """
        d = w.shape[0]
        return np.multiply(w[:, :, None], w.T[:, None, :], order="C").reshape(d, d * d)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.w.shape[1], self.w.shape[0]

    @property
    def batch(self) -> int:
        return self.scale.shape[0]

    def to_dense(self) -> DenseJacobian:
        return DenseJacobian(np.multiply(self.w.T, self.scale[:, None, :], order="C"))

    def __repr__(self) -> str:
        return f"ScaledShared({self.shape}, B={self.batch})"


ScanElement = Union[
    Identity, GradientVector, DenseJacobian, SparseJacobian, ScaledShared
]


class OpInfo(NamedTuple):
    """Where an ⊙ application sits inside a scan algorithm."""

    phase: str  # "up", "down", "linear", "serial-mid"
    level: int
    left: int
    right: int


#: The place of an ⊙ applied outside any scan (``op(a, b)`` with no info).
_ADHOC = OpInfo("adhoc", -1, -1, -1)


class StepRecord(NamedTuple):
    """Cost record of one ⊙ application (one Figure 11 data point).

    A :class:`ScanContext` appends one per ⊙ it runs;
    :func:`~repro.scan.symbolic_dag` makes the same records without
    numeric data, where a static cost may be a float estimate.
    """

    info: OpInfo
    kind: str  # "mv" (matrix-vector) or "mm" (matrix-matrix)
    flops: float  # FLOPs (per batch, sparse-aware)
    dense_mnk: float  # m·n·k if operands were dense — Figure 11's x-axis


class ScanContext:
    """Evaluates ⊙ with plan caching, FLOP accounting, and sparse dispatch.

    Parameters
    ----------
    pattern_cache:
        Shared :class:`PatternCache`; pass one per model so symbolic
        SpGEMM work amortizes across training iterations.
    sparse:
        The dense-vs-sparse dispatch policy — a
        :class:`~repro.scan.sparse_policy.SparsePolicy`, a mode string
        (``"auto"``, ``"on"``, ``"off"``), or ``None`` for ``auto``;
        fixed for the context's life.
        In ``off`` mode every sparse operand is densified before it is
        combined, so the context computes the pure dense path.
    kernel:
        Must be ``None``.  There is one SpGEMM numeric phase
        (:func:`repro.sparse.spgemm_numeric`); the parameter stays only
        so existing ``kernel=None`` call sites keep working.
    """

    def __init__(
        self,
        pattern_cache: Optional[PatternCache] = None,
        sparse: Union[SparsePolicy, str, None] = None,
        kernel: None = None,
    ) -> None:
        if kernel is not None:
            raise ValueError(
                f"kernel={kernel!r}: there is one SpGEMM numeric phase, so "
                "ScanContext takes no kernel; drop the argument"
            )
        self.cache = pattern_cache if pattern_cache is not None else PatternCache()
        self.sparse_policy = SparsePolicy.resolve(sparse)
        # Per-context scratch arena for the numeric phase; owns scratch
        # only — numeric outputs belong to the result elements.
        self.arena = KernelArena()
        self.trace: List[StepRecord] = []
        self.total_flops = 0
        # ⊙ may be evaluated concurrently by a thread-backend scan
        # level; the numeric work is pure, so the lock only guards the
        # trace/FLOP bookkeeping.  Record order within one level is
        # then scheduling-dependent — harmless, since same-level ops
        # are unordered by construction (dag_from_trace groups by
        # (phase, level), not position).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def reset_trace(self) -> None:
        with self._lock:
            self.trace = []
            self.total_flops = 0

    def clear_trace(self) -> None:
        """Drop the per-⊙ records but keep ``total_flops`` counting, so
        a long-lived context's trace does not grow with every scan."""
        with self._lock:
            self.trace = []

    def _record(self, info: OpInfo, kind: str, flops: int, mnk: int) -> None:
        with self._lock:
            self.total_flops += flops
            self.trace.append(StepRecord(info, kind, flops, mnk))

    def op(self, a: ScanElement, b: ScanElement, info: Optional[OpInfo] = None):
        """Apply ``a ⊙ b`` (= ``b·a``), recording cost."""
        # Exact-type tests: the element classes are final, and a scan
        # runs this once per ⊙.
        if self.sparse_policy.mode == "off":
            # Pure dense path: sparse storage never reaches a kernel.
            if type(a) is SparseJacobian:
                a = a.to_dense()
            if type(b) is SparseJacobian:
                b = b.to_dense()
        if a is IDENTITY:
            return b
        if b is IDENTITY:
            return a
        if type(b) is GradientVector:
            raise TypeError("right operand of ⊙ must be a matrix or identity")
        if type(a) is GradientVector:
            result, flops, mnk = self._matvec(b, a)
            kind = "mv"
        else:
            result, flops, mnk = self._matmat(b, a)
            kind = "mm"
        self._record(_ADHOC if info is None else info, kind, flops, mnk)
        return result

    # ------------------------------------------------------------------
    # B @ v
    # ------------------------------------------------------------------
    def _matvec(
        self, b: ScanElement, v: GradientVector
    ) -> Tuple[GradientVector, int, int]:
        m, n = b.shape
        batch, dim = v.data.shape
        if n != dim:
            raise ValueError(f"shape mismatch: {b.shape} @ (B, {dim})")
        # A shared matrix (batch None) takes any vector batch.
        _result_batch(batch, b.batch)
        kind = type(b)
        if kind is SparseJacobian:
            out = csr_matvec_batched(b.pattern, b.values(), v.data)
            return GradientVector(out), 2 * b.nnz * batch, m * n
        if kind is ScaledShared:  # Wᵀ·diag(s)·v, one GEMM, no matrix built
            out = (v.data * b.scale) @ b.w
        elif b.data.ndim == 2:
            out = v.data @ b.data.T  # (B, d_out) @ (d_out, d_in)^T
        else:
            out = np.einsum("bmn,bn->bm", b.data, v.data)
        # The GEMM's FLOPs; a ScaledShared scale's B·n are left out.
        return GradientVector(out), 2 * m * n * batch, m * n

    # ------------------------------------------------------------------
    # B @ A (matrix–matrix), result replaces the combined range
    # ------------------------------------------------------------------
    def _matmat(self, b: ScanElement, a: ScanElement):
        m, k = b.shape
        k_a, n = a.shape
        if k != k_a:
            raise ValueError(f"shape mismatch: {b.shape} @ {a.shape}")
        mnk = m * n * k
        batch = _result_batch(a.batch, b.batch)
        samples = batch or 1  # a product shared by every sample counts once
        kind_a, kind_b = type(a), type(b)

        if (
            kind_a is ScaledShared
            and kind_b is ScaledShared
            and a.pairs is not None
            and a.pairs is b.pairs
        ):
            # Same W: one GEMM of s_b against the pair table, then a
            # column scale by s_a.  FLOPs: the GEMM's, as the dense rule
            # counts them; the scale's B·m·n are left out.
            out = (b.scale @ a.pairs).reshape(batch, m, n)
            out *= a.scale[:, None, :]
            return DenseJacobian(out), 2 * mnk * samples, mnk

        if kind_a is SparseJacobian and kind_b is SparseJacobian:
            plan = self.cache.plan_for(b.pattern, a.pattern)
            vals = plan.execute_batched(b.values(), a.values(), arena=self.arena)
            if batch is None:
                out = SparseJacobian(
                    CSRMatrix(
                        plan.out_indptr, plan.out_indices, vals[0], plan.out_shape
                    )
                )
            else:
                # The plan's cached pattern object: zero fresh CSR
                # allocations per product once the plan is warm.
                out = SparseJacobian(plan.out_pattern(), vals)
            return self._maybe_densify(out), plan.flops * samples, mnk

        # Any other product → dense result; CSR and ScaledShared
        # operands are densified.
        b_dense = b.data if kind_b is DenseJacobian else b.to_dense().data
        a_dense = a.data if kind_a is DenseJacobian else a.to_dense().data
        if kind_b is SparseJacobian:
            flops = 2 * b.nnz * n * samples
        elif kind_a is SparseJacobian:
            flops = 2 * a.nnz * m * samples
        else:
            flops = 2 * mnk * samples
        return DenseJacobian(np.matmul(b_dense, a_dense)), flops, mnk

    def _maybe_densify(self, s: SparseJacobian) -> ScanElement:
        if not self.sparse_policy.keep_sparse(s.pattern.density):
            return s.to_dense()
        return s


def _result_batch(x: Optional[int], y: Optional[int]) -> Optional[int]:
    """The batch of a product of operands with batches ``x`` and ``y``,
    where ``None`` marks an operand shared by every sample."""
    if x is None:
        return y
    if y is not None and y != x:
        raise ValueError(f"inconsistent batch sizes {[x, y]}")
    return x
