"""Static FLOP analysis of scan executions — the Figure 11 machinery.

Runs a scan algorithm *symbolically* over the stage Jacobians' CSR
patterns: every ⊙ application is costed (sparse-aware FLOPs plus the
dense-equivalent ``m·n·k`` the paper uses as Figure 11's x-axis) without
any numeric multiplication, and the steps come back as the
:class:`~repro.scan.ScanDAG` a numeric scan's trace groups into.  When
chaining exact patterns becomes too large to materialize, the analyzer
degrades gracefully to a uniform-distribution estimate (see the
Figure 11 section of BENCHMARKS.md); the FLOP count of a product of two
*exact* patterns is always exact.

Baseline costs ("gradient operators" of ordinary BP — the green circles)
come from the standard dense backward FLOP formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.scan.dag import ScanDAG, dag_from_trace, symbolic_dag
from repro.scan.elements import OpInfo, StepRecord
from repro.sparse import CSRMatrix, build_spgemm_plan, spgemm_flops


@dataclass(frozen=True)
class EstimatePattern:
    """A pattern known only through its shape and expected nnz."""

    shape: tuple
    nnz: float


PatternLike = Union[CSRMatrix, EstimatePattern]


class StaticScanAnalyzer:
    """Cost a scan over CSR patterns without numeric execution.

    Parameters
    ----------
    expansion_limit:
        Maximum number of expanded partial products for which the exact
        SpGEMM symbolic phase is materialized; beyond it, products are
        *estimated* (their own FLOPs stay exact when both inputs are
        exact; downstream steps become estimates).

    After :meth:`analyze`, ``estimates`` counts the steps whose FLOPs
    or output pattern are estimates rather than exact.
    """

    def __init__(self, expansion_limit: int = 20_000_000) -> None:
        self.expansion_limit = expansion_limit
        self.estimates = 0

    # ------------------------------------------------------------------
    def analyze(
        self,
        patterns: Sequence[PatternLike],
        grad_dim: int,
        algorithm: str = "truncated",
        up_levels: int = 2,
    ) -> ScanDAG:
        """Cost the scan of ``[∇, P_n, …, P_1]``.

        ``patterns`` are the stage transposed-Jacobian patterns ordered
        as in Eq. 5 (last layer first); the gradient vector enters the
        symbolic scan as its dimension ``grad_dim``.  Returns the scan's
        :class:`~repro.scan.ScanDAG`, whose
        :meth:`~repro.scan.ScanDAG.critical` marks the per-level
        critical steps (the filled circles of Figure 11).
        """
        self.estimates = 0
        return symbolic_dag(algorithm, [grad_dim, *patterns], self._cost, up_levels)

    def baseline_steps(self, layer_costs: Sequence[tuple]) -> ScanDAG:
        """Baseline BP 'gradient operator' costs (green circles).

        ``layer_costs`` — (flops, dense_mnk) per layer, e.g. from
        :func:`conv_dgrad_flops`.  Each is one sequential level, so
        every step is on the baseline's critical path.
        """
        return dag_from_trace(
            [
                StepRecord(OpInfo("baseline", i, i, i + 1), "mv", f, mnk)
                for i, (f, mnk) in enumerate(layer_costs)
            ]
        )

    # ------------------------------------------------------------------
    def _cost(self, a, b):
        """The symbolic ⊙ ``b·a``: a mat-vec when ``a`` is the gradient
        vector (held as its dimension), else a pattern product."""
        if isinstance(a, int):
            m, n = b.shape
            if n != a:
                raise ValueError(f"shape mismatch: {(m, n)} @ ({a},)")
            if not isinstance(b, CSRMatrix):
                self.estimates += 1
            return m, "mv", 2.0 * b.nnz, float(m) * n
        (mb, kb), (ka, na) = b.shape, a.shape
        if kb != ka:
            raise ValueError(f"shape mismatch: {(mb, kb)} @ {(ka, na)}")
        out = None
        if isinstance(a, CSRMatrix) and isinstance(b, CSRMatrix):
            expansion = spgemm_flops(b, a) // 2
            if expansion <= self.expansion_limit:
                plan = build_spgemm_plan(b, a)
                out = CSRMatrix(
                    plan.out_indptr,
                    plan.out_indices,
                    np.ones(plan.out_nnz),
                    plan.out_shape,
                )
        else:
            # expected expansion under uniformly distributed nnz
            expansion = float(b.nnz) * float(a.nnz) / kb
        if out is None:
            self.estimates += 1
            out = EstimatePattern((mb, na), min(float(mb) * na, float(expansion)))
        return out, "mm", 2.0 * expansion, float(mb) * na * kb


# ---------------------------------------------------------------------------
# baseline dense-backward FLOP formulas
# ---------------------------------------------------------------------------
def conv_dgrad_flops(
    ci: int, co: int, kernel: int, hi: int, wi: int, ho: int, wo: int,
    weight_density: float = 1.0,
) -> tuple:
    """FLOPs of one conv data-gradient ("gradient operator") per sample.

    Dense formula ``2 · ci·hi·wi · co·k²`` scaled by the surviving
    weight fraction (a pruned-aware baseline would skip zero weights);
    returns ``(flops, dense_mnk)`` with mnk the dense transposed-
    Jacobian matvec size.
    """
    flops = 2.0 * ci * hi * wi * co * kernel * kernel * weight_density
    mnk = float(ci * hi * wi) * (co * ho * wo)
    return flops, mnk


def elementwise_backward_flops(dim: int) -> tuple:
    """ReLU/tanh-style backward: one multiply per element."""
    return 2.0 * dim, float(dim) * dim
