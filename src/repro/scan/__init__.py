"""The scan framework — BPPSA's core (paper Sections 2.3 and 3).

Back-propagation's recurrence is recast as an **exclusive scan** of the
binary, associative, *non-commutative* operator ``A ⊙ B = B·A`` over

    [∇x_n ℓ, (∂x_n/∂x_{n−1})^T, ..., (∂x_1/∂x_0)^T]     (Eq. 5)

producing ``[I, ∇x_n ℓ, ..., ∇x_1 ℓ]``.  This package provides:

* typed scan elements (identity / gradient vector / dense / CSR /
  shared-``W`` scaled Jacobians, batched across samples) and a
  :class:`ScanContext` that runs each ⊙ by its named rule of
  :data:`~repro.scan.elements.RULES`, recording FLOPs per step, with
  cached SpGEMM plans (:mod:`repro.sparse`) and a per-context arena;
* :class:`SparsePolicy` (``sparse=auto|on|off``), deciding per element
  and per product whether composition runs in CSR or dense BLAS;
* :func:`linear_scan` — the serial baseline (equivalent to BP);
* :func:`blelloch_scan` — the paper's modified Blelloch scan
  (Algorithm 1: operand order reversed in the down-sweep);
* :func:`hillis_steele_scan` — the step-optimal alternative scan;
* :func:`truncated_blelloch_scan` — Section 5.2's balanced variant
  (up-sweep only to level k, serial matrix–vector middle, down-sweep
  from level k), used by the pruned-VGG-11 benchmark;
* :data:`SCANS` — the one table from algorithm name to scan;
* :class:`ScanDAG` — a scan's :class:`StepRecord` steps grouped into
  parallel levels, from a numeric trace (:func:`dag_from_trace`) or a
  symbolic run of any scan (:func:`symbolic_dag`, :func:`uniform_dag`)
  — Figure 4's schedule and the PRAM simulator's input.

*Where* each level's independent ⊙ ops execute is pluggable: every
parallel scan takes ``executor=`` — a backend spec string
(``"serial"``, ``"thread:8"``), a
:class:`~repro.backend.ScanExecutor` instance, or ``None`` for the
serial executor.  See :mod:`repro.backend`; :func:`get_executor` and
the executor base class are re-exported here for convenience.
"""

from repro.scan.elements import (
    DenseJacobian,
    GradientVector,
    Identity,
    IDENTITY,
    OpInfo,
    ScaledShared,
    ScanContext,
    SparseJacobian,
    StepRecord,
)
from repro.scan.sparse_policy import SPARSE_MODES, SparsePolicy
from repro.scan.algorithms import (
    SCANS,
    blelloch_scan,
    blelloch_num_levels,
    hillis_steele_scan,
    linear_scan,
    simple_op,
    stage_truncated_scan,
    truncated_blelloch_scan,
)
# Submodule imports (not `from repro.backend import …`): repro.backend's
# own __init__ may still be mid-import when this package loads.
from repro.backend.executor import LevelTask, ScanExecutor
from repro.backend.registry import get_executor
from repro.scan.dag import ScanDAG, dag_from_trace, symbolic_dag, uniform_dag

__all__ = [
    "Identity",
    "IDENTITY",
    "GradientVector",
    "DenseJacobian",
    "SparseJacobian",
    "ScaledShared",
    "ScanContext",
    "SparsePolicy",
    "SPARSE_MODES",
    "OpInfo",
    "StepRecord",
    "linear_scan",
    "blelloch_scan",
    "blelloch_num_levels",
    "hillis_steele_scan",
    "truncated_blelloch_scan",
    "stage_truncated_scan",
    "simple_op",
    "SCANS",
    "LevelTask",
    "ScanExecutor",
    "get_executor",
    "ScanDAG",
    "dag_from_trace",
    "symbolic_dag",
    "uniform_dag",
]
