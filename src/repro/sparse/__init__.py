"""From-scratch CSR sparse-matrix engine.

The paper's Section 3.3 observes that transposed Jacobians of common
operators are extremely sparse, that the positions of their
*guaranteed zeros* are input-independent, and that this determinism lets
the symbolic phase of sparse matrix–matrix multiplication (nnz counting
and index merging — what cuSPARSE redoes on every call) be hoisted out
of the training loop.  This package reproduces that design:

* :class:`CSRMatrix` — compressed sparse row storage (Saad, 2003).
* :func:`spgemm` — generic two-phase (symbolic + numeric) CSR·CSR.
* :class:`SpGEMMPlan` / :class:`PatternCache` — precomputed symbolic
  phase keyed by the operand sparsity *patterns*; the numeric phase then
  runs alone each iteration (Section 4.2's "preparations do not need to
  repeat across iterations").
* :func:`spgemm_numeric` / :class:`KernelArena` — that numeric phase,
  with per-plan scratch reused across iterations.

SciPy is intentionally **not** used here; it appears only in tests as an
oracle.
"""

from repro.sparse.csr import (
    CSRMatrix,
    coo_to_csr_with_perm,
    csr_block_diag,
    csr_eye,
    csr_from_diagonal,
    csr_matvec_batched,
)
from repro.sparse.spgemm import (
    KernelArena,
    PatternCache,
    SpGEMMPlan,
    build_spgemm_plan,
    spgemm,
    spgemm_flops,
    spgemm_numeric,
    spgemm_numeric_batched,
)

__all__ = [
    "CSRMatrix",
    "coo_to_csr_with_perm",
    "csr_block_diag",
    "csr_eye",
    "csr_from_diagonal",
    "csr_matvec_batched",
    "spgemm",
    "SpGEMMPlan",
    "build_spgemm_plan",
    "PatternCache",
    "KernelArena",
    "spgemm_flops",
    "spgemm_numeric",
    "spgemm_numeric_batched",
]
