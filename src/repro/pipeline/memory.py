"""Space-complexity comparison: pipeline parallelism vs. BPPSA.

Paper Section 3.6: per worker, BPPSA needs
``M_Blelloch(n) = Θ(max(n/p, 1)) · M_Jacob`` — *decreasing* in p down to
a constant — while pipeline parallelism needs
``M_pipeline = Θ(n/p + p) · M_x`` — eventually *increasing* in p.  This
is the paper's argument that BPPSA's scalability is not limited by a
single device's memory capacity.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.pipeline.gpipe import gpipe_memory
from repro.pipeline.partition import partition_units


def bppsa_memory(
    num_stages: int, num_workers: int, jacobian_units: float = 1.0
) -> float:
    """Θ(max(n/p, 1)) · M_Jacob per worker (paper Section 3.6)."""
    return max(num_stages / num_workers, 1.0) * jacobian_units


def csr_jacobian_bytes(
    nnz: int, rows: int, micro_batch: int, index_itemsize: int = 8
) -> int:
    """Exact bytes of one batched CSR Jacobian element.

    Mirrors :class:`~repro.scan.SparseJacobian` storage — one shared
    int64 ``indptr``/``indices`` pattern plus a ``(B, nnz)`` float64
    value matrix — so the model term is checkable against
    :func:`repro.pipeline.staged.scan_element_nbytes` byte for byte.
    """
    pattern = (rows + 1 + nnz) * index_itemsize
    return pattern + micro_batch * nnz * 8


def staged_memory_model(
    seq_len: int,
    num_stages: int,
    micro_batch: int,
    hidden: int,
    up_levels: int = 0,
    density: float = 1.0,
    itemsize: int = 8,
) -> List[Dict[str, float]]:
    """Per-stage footprint of the staged scan backward, in bytes.

    One record per *device* (pipeline stage, forward order) with the
    terms the staged runner actually materializes per micro-batch:

    * ``jacobian_bytes`` — the stage's slice of the scan array: one
      H×H transposed Jacobian per owned scan slot per sample.  At
      ``density = 1.0`` it is ``W_hhᵀ·diag(1 − h_t²)`` kept structured
      (:class:`~repro.scan.ScaledShared`): the slot holds only its
      (B, H) scales, ``slots · B · H · itemsize``, because the shared
      ``W_hh`` is the model's parameter, not per-slot state — paper
      Section 3.6's ``M_Jacob``, H-fold below a dense H×H slot.  Below
      1.0 it is the exact batched-CSR cost (:func:`csr_jacobian_bytes`
      with ``nnz = density · H²``);
    * ``hidden_bytes`` — the cached hidden-state span feeding those
      Jacobians (GPipe's per-stage activation term);
    * ``boundary_bytes`` — the (B, H) boundary gradient handed to the
      next stage.

    The slot partition is the same block-aligned
    :func:`~repro.pipeline.partition.partition_units` split the runner
    uses, so ``tests/test_pipeline_scan.py`` validates ``jacobian_bytes``
    against the *measured* footprint of a real run byte for byte.
    """
    n_slots = seq_len + 1
    levels = max(1, math.ceil(math.log2(n_slots)))
    k = max(0, min(up_levels, levels - 1))
    spans = partition_units(n_slots, num_stages, block=1 << k)
    rows = []
    for device in range(num_stages):
        g_lo, g_hi = spans[num_stages - 1 - device]
        jac_slots = g_hi - max(g_lo, 1)
        time_steps = min(seq_len, seq_len - g_lo + 1) - max(
            1, seq_len - g_hi + 2
        ) + 1
        if density >= 1.0:
            jac_bytes = jac_slots * micro_batch * hidden * itemsize
        else:
            nnz = int(round(density * hidden * hidden))
            jac_bytes = jac_slots * csr_jacobian_bytes(nnz, hidden, micro_batch)
        rows.append(
            {
                "stage": device,
                "scan_slots": g_hi - g_lo,
                "jacobian_bytes": jac_bytes,
                "hidden_bytes": time_steps * micro_batch * hidden * itemsize,
                "boundary_bytes": micro_batch * hidden * itemsize,
            }
        )
    return rows


def pipeline_memory_sweep(
    num_stages: int,
    workers: List[int],
    jacobian_units: float = 1.0,
    activation_units: float = 1.0,
) -> List[Dict[str, float]]:
    """Per-device memory of GPipe vs. BPPSA across worker counts.

    Returns one record per p with both models' footprints; the
    crossover (pipeline growing while BPPSA shrinks to a constant) is
    the quantity of interest.
    """
    rows = []
    for p in workers:
        rows.append(
            {
                "workers": p,
                "gpipe": gpipe_memory(num_stages, p) * activation_units
                if num_stages >= p
                else float("nan"),
                "bppsa": bppsa_memory(num_stages, p, jacobian_units),
            }
        )
    return rows
