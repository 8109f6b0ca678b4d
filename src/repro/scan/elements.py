"""Typed scan elements and the ⊙ operator.

The operator (paper Section 3.1) is ``A ⊙ B = B·A`` with the identity
matrix as identity value, where ``A`` may be a (gradient) vector or a
(transposed-Jacobian) matrix and ``B`` is a matrix.  ⊙ is associative
and **non-commutative**.  Identity operands pass through; each other
pair of operand kinds runs one rule of :data:`RULES`:

===============  ======================  =====================  =========
rule             A ⊙ B kinds             kernel                 FLOPs
===============  ======================  =====================  =========
mv.csr           vector ⊙ csr            CSR mat-vec            2·nnz(B)
mv.scaled        vector ⊙ scaled/paired  ``(v·s)·W``, one GEMM  2·m·k
mv.dense_shared  vector ⊙ dense_shared   ``v·Bᵀ``               2·m·k
mv.dense         vector ⊙ dense          per-sample ``einsum``  2·m·k
mm.pair          paired ⊙ paired         ``(s_B·Q)·diag(s_A)``  2·m·k·n
mm.spgemm        csr ⊙ csr               cached SpGEMM plan     see below
mm.gemm          any other matrix pair   densify, ``matmul``    see below
===============  ======================  =====================  =========

FLOPs are per sample, ``B`` m×k and ``A`` k×n (a vector: n = 1), 2 per
multiply-add: each stored entry of the sparser factor meets one row or
column of the other, 2·min(nnz(B)·n, nnz(A)·m), where a dense or
ScaledShared factor stores every entry (its scales are not counted).
SpGEMM counts 2 per expanded product; its product stays CSR unless
:meth:`SparsePolicy.keep_sparse` declines its density.

Elements are *batched*: one logical element per sample, vectorized
across the batch.  Sparse elements share a deterministic CSR pattern
(paper Section 3.3) with per-sample data, so one cached SpGEMM plan
serves the whole batch.  A :class:`ScaledShared` element keeps the
known structure ``Wᵀ·diag(s_b)`` of an RNN step's Jacobian (paper
Eq. 9): one shared ``W`` plus a per-sample scale vector.  Each ⊙
records a :class:`StepRecord` naming its rule, with the FLOPs and
dense-equivalent ``m·n·k`` Figure 11 plots per scan step.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.scan.sparse_policy import SparsePolicy
from repro.sparse import CSRMatrix, KernelArena, PatternCache, csr_matvec_batched
from repro.sparse import spgemm_flops

#: Operand kinds, the keys of :data:`RULES` (each element's ``kind``).
VECTOR, CSR, DENSE, DENSE_SHARED = "vector", "csr", "dense", "dense_shared"
SCALED, PAIRED = "scaled", "paired"  # a ScaledShared without / with pairs


class Identity:
    """The symbolic identity matrix I (never materialized)."""

    kind = "identity"
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
    kind = VECTOR

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

    ``data``: (d_in, d_out) shared across samples (kind
    ``dense_shared``, ``batch`` None) or (B, d_in, d_out) (kind
    ``dense``); ``shape`` and ``nnz`` (all entries) are per sample.

    Storage is canonicalized to C-contiguous: BLAS kernels can produce
    different last-bit results for strided vs. contiguous operands, so
    a single canonical layout is what keeps the serial and thread
    backends bitwise-identical — and gemm prefers contiguous inputs
    anyway.
    """

    __slots__ = ("data", "kind", "shape", "batch", "nnz")

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim not in (2, 3):
            raise ValueError(f"expected 2-D or 3-D array, got {data.shape}")
        self.data, self.shape = data, data.shape[-2:]
        self.nnz = self.shape[0] * self.shape[1]
        self.kind, self.batch = (
            (DENSE_SHARED, None) if data.ndim == 2 else (DENSE, data.shape[0])
        )

    @property
    def shared(self) -> bool:
        return self.batch is None

    def to_dense(self) -> "DenseJacobian":
        return self

    def __repr__(self) -> str:
        tag = "shared" if self.shared else f"B={self.batch}"
        return f"DenseJacobian({self.shape}, {tag})"


class SparseJacobian:
    """A batch of CSR transposed Jacobians sharing one pattern.

    ``pattern`` holds the structure (and, when ``data is None``, the
    shared values); ``data`` of shape (B, nnz) holds per-sample values.
    """

    __slots__ = ("pattern", "data", "shape", "batch", "nnz")
    kind = CSR

    def __init__(self, pattern: CSRMatrix, data: Optional[np.ndarray] = None) -> None:
        self.pattern, self.shape, self.nnz = pattern, pattern.shape, pattern.nnz
        self.batch = None
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim != 2 or data.shape[1] != self.nnz:
                raise ValueError(f"data must be (B, nnz={self.nnz}), got {data.shape}")
            self.batch = data.shape[0]
        self.data = data

    @property
    def shared(self) -> bool:
        return self.data is None

    def values(self) -> np.ndarray:
        """(B, nnz) or (1, nnz) value matrix."""
        return self.pattern.data[None, :] if self.data is None else self.data

    def to_dense(self) -> DenseJacobian:
        if self.shared:
            return DenseJacobian(self.pattern.to_dense())
        out = np.zeros((self.data.shape[0], *self.shape))
        out[:, self.pattern.row_ids(), self.pattern.indices] = self.data
        return DenseJacobian(out)

    def __repr__(self) -> str:
        tag = "shared" if self.shared else f"B={self.data.shape[0]}"
        return f"SparseJacobian({self.shape}, nnz={self.nnz}, {tag})"


class ScaledShared:
    """A batch of transposed Jacobians ``Wᵀ·diag(s_b)``.

    ``w``: the (d, d_out) matrix shared by every sample, held once;
    ``scale``: the (B, d) per-sample scales.  ``pairs``: optionally the
    :meth:`pair_table` of a square ``w`` (kind ``paired``, else ``scaled``);
    two elements holding one table multiply as one GEMM, building neither.
    """

    __slots__ = ("w", "scale", "pairs", "kind", "shape", "batch", "nnz")

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
        self.kind = SCALED if pairs is None else PAIRED
        self.shape, self.batch = (w.shape[1], w.shape[0]), scale.shape[0]
        self.nnz = w.size  # as densified

    @staticmethod
    def pair_table(w: np.ndarray) -> np.ndarray:
        """``Q[j, i·d + k] = Wᵀ[i,j]·Wᵀ[j,k]`` for a square (d, d) ``w``.

        Then ``(Wᵀ·diag(s_b))·(Wᵀ·diag(s_a)) = (s_b @ Q)·diag(s_a)``,
        reshaped to (B, d, d).  The table holds d³ floats (64 KB at
        d = 20); the caller builds it once per scan.
        """
        d = w.shape[0]
        return np.multiply(w[:, :, None], w.T[:, None, :], order="C").reshape(d, d * d)

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
    rule: str  # a RULES name "<kind>.<case>"; a model without rules: the kind
    flops: float  # FLOPs (per batch, sparse-aware)
    dense_mnk: float  # m·n·k if operands were dense — Figure 11's x-axis

    @property
    def kind(self) -> str:  # "mv" (matrix-vector) or "mm" (matrix-matrix)
        return self.rule.partition(".")[0]


# ---------------------------------------------------------------------------
# the ⊙ rules
# ---------------------------------------------------------------------------
def _cost(b: Any, a: Any) -> Tuple[int, int]:
    """Per-sample ``(FLOPs, dense m·k·n)`` of ``b·a`` from ``shape`` and ``nnz``
    alone, so numeric elements and symbolic operands price alike."""
    vector = type(a) is int  # a vector, given by its width, is one column
    (m, k), (k_a, n) = b.shape, ((a, 1) if vector else a.shape)
    if k != k_a:
        raise ValueError(f"shape mismatch: {(m, k)} @ {(k_a, n)}")
    return 2 * min(b.nnz * n, (a if vector else a.nnz) * m), m * k * n


def _spgemm_cost(b: Any, a: Any, plan: Any = None) -> Tuple[float, int]:
    """2 FLOPs per expanded product, as a numeric ⊙'s cached ``plan`` or
    two CSR patterns count them, else expected for spread nonzeros."""
    mnk = _cost(b, a)[1]
    if plan is not None:
        return plan.flops, mnk
    if type(b) is CSRMatrix and type(a) is CSRMatrix:
        return spgemm_flops(b, a), mnk
    return 2.0 * (float(b.nnz) * float(a.nnz) / b.shape[1]), mnk


def _result_batch(x: Optional[int], y: Optional[int]) -> Optional[int]:
    """The batch of a product of operands with batches ``x`` and ``y``,
    where ``None`` marks an operand shared by every sample."""
    if x is None:
        return y
    if y is not None and y != x:
        raise ValueError(f"inconsistent batch sizes {[x, y]}")
    return x


def _csr_mv(ctx, b, v, cost):
    flops, mnk = cost(b, v.data.shape[1])
    batch = _result_batch(v.data.shape[0], b.batch)
    out = csr_matvec_batched(b.pattern, b.values(), v.data)
    return GradientVector(out), flops * batch, mnk


def _scaled_mv(ctx, b, v, cost):  # Wᵀ·diag(s)·v: no matrix built
    flops, mnk = cost(b, v.data.shape[1])
    batch = _result_batch(v.data.shape[0], b.batch)
    return GradientVector((v.data * b.scale) @ b.w), flops * batch, mnk


def _dense_shared_mv(ctx, b, v, cost):  # (B, d_out) @ (d_out, d_in)ᵀ
    flops, mnk = cost(b, v.data.shape[1])
    return GradientVector(v.data @ b.data.T), flops * v.data.shape[0], mnk


def _dense_mv(ctx, b, v, cost):
    flops, mnk = cost(b, v.data.shape[1])
    batch = _result_batch(v.data.shape[0], b.batch)
    return GradientVector(np.einsum("bmn,bn->bm", b.data, v.data)), flops * batch, mnk


def _pair_gemm(ctx, b, a, cost):  # (s_b·Q)·diag(s_a): one GEMM against the table
    flops, mnk = cost(b, a)
    batch = _result_batch(a.batch, b.batch)
    if a.pairs is not b.pairs:
        raise ValueError("paired operands must hold one pair table")
    out = (b.scale @ a.pairs).reshape(batch, b.shape[0], a.shape[1])
    out *= a.scale[:, None, :]
    return DenseJacobian(out), flops * batch, mnk


def _gemm(ctx, b, a, cost):  # densify, then one GEMM
    flops, mnk = cost(b, a)
    batch = _result_batch(a.batch, b.batch)
    out = np.matmul(b.to_dense().data, a.to_dense().data)
    return DenseJacobian(out), flops * (batch or 1), mnk


def _spgemm(ctx, b, a, cost):
    batch = _result_batch(a.batch, b.batch)
    plan = ctx.cache.plan_for(b.pattern, a.pattern)
    flops, mnk = cost(b, a, plan)
    vals = plan.execute_batched(b.values(), a.values(), arena=ctx.arena)
    if batch is None:  # shared: the values live in the pattern
        out = SparseJacobian(plan.out_pattern().with_data(vals[0]))
    else:  # the plan's cached pattern: no fresh CSR once warm
        out = SparseJacobian(plan.out_pattern(), vals)
    if not ctx.sparse_policy.keep_sparse(out.pattern.density):
        out = out.to_dense()
    return out, flops * (batch or 1), mnk


class Rule(NamedTuple):
    """One case of ⊙ (the module docstring's table)."""

    name: str  # "<kind>.<case>", kind "mv" or "mm"
    kernel: Callable  # (context, b, a, cost) -> (b·a, batch FLOPs, m·n·k)
    cost: Callable  # (b, a) -> per-sample (FLOPs, m·n·k)
    store: str  # the product's storage: VECTOR, DENSE or CSR


_MATRICES = (CSR, DENSE, DENSE_SHARED, SCALED, PAIRED)

#: ``(left kind, right kind) → Rule``: ``a ⊙ b`` of two non-identity
#: operands runs and is priced by ``RULES[a.kind, b.kind]``.
RULES: Dict[Tuple[str, str], Rule] = {
    (PAIRED, PAIRED): Rule("mm.pair", _pair_gemm, _cost, DENSE),
    (CSR, CSR): Rule("mm.spgemm", _spgemm, _spgemm_cost, CSR),
    (VECTOR, CSR): Rule("mv.csr", _csr_mv, _cost, VECTOR),
    (VECTOR, SCALED): Rule("mv.scaled", _scaled_mv, _cost, VECTOR),
    (VECTOR, PAIRED): Rule("mv.scaled", _scaled_mv, _cost, VECTOR),
    (VECTOR, DENSE_SHARED): Rule("mv.dense_shared", _dense_shared_mv, _cost, VECTOR),
    (VECTOR, DENSE): Rule("mv.dense", _dense_mv, _cost, VECTOR),
}
for _pair in itertools.product(_MATRICES, repeat=2):  # densify, then one GEMM
    RULES.setdefault(_pair, Rule("mm.gemm", _gemm, _cost, DENSE))

#: Every operand kind a scan accepts: the table's keys and the identity.
ELEMENT_KINDS = frozenset(k for pair in RULES for k in pair) | {IDENTITY.kind}


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
        Must be ``None``: the ``mm.spgemm`` rule has one numeric phase
        (:func:`repro.sparse.spgemm_numeric`), and the parameter stays
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

    def op(self, a: ScanElement, b: ScanElement, info: Optional[OpInfo] = None):
        """Apply ``a ⊙ b`` (= ``b·a``) by its rule, recording the cost."""
        if self.sparse_policy.mode == "off":
            # Pure dense path: sparse storage never reaches a kernel.
            a, b = self.sparse_policy.element(a), self.sparse_policy.element(b)
        if a is IDENTITY:
            return b
        if b is IDENTITY:
            return a
        try:
            rule = RULES[a.kind, b.kind]
        except KeyError:
            raise TypeError(f"right operand of ⊙ must be a matrix: {b!r}") from None
        product, flops, mnk = rule.kernel(self, b, a, rule.cost)
        with self._lock:
            self.total_flops += flops
            self.trace.append(StepRecord(info or _ADHOC, rule.name, flops, mnk))
        return product
