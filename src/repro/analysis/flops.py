"""Static FLOP analysis of scan executions — the Figure 11 machinery.

Runs a scan algorithm *symbolically* over the stage Jacobians' CSR
patterns: every ⊙ application is costed (sparse-aware FLOPs plus the
dense-equivalent ``m·n·k`` the paper uses as Figure 11's x-axis) without
any numeric multiplication, and the steps come back as the
:class:`~repro.scan.ScanDAG` a numeric scan's trace groups into, each
priced by its numeric rule (:data:`repro.scan.elements.RULES`) and
:class:`~repro.scan.SparsePolicy` decisions.  When
chaining exact patterns becomes too large to materialize, the analyzer
degrades gracefully to a uniform-distribution estimate (see the
Figure 11 section of BENCHMARKS.md); the FLOP count of a product of two
*exact* patterns is always exact.

Baseline costs ("gradient operators" of ordinary BP — the green circles)
come from the standard dense backward FLOP formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from repro.scan.dag import ScanDAG, dag_from_trace, symbolic_dag
from repro.scan.elements import CSR, DENSE, DENSE_SHARED, RULES, VECTOR
from repro.scan.elements import OpInfo, StepRecord
from repro.scan.sparse_policy import SparsePolicy
from repro.sparse import CSRMatrix, build_spgemm_plan


@dataclass(frozen=True)
class EstimatePattern:
    """A pattern known only through its shape and expected nnz."""

    shape: tuple
    nnz: float


class DenseShape(NamedTuple):
    """An operand stored dense, known by its shape (every entry stored)."""

    shape: tuple
    nnz: int


#: Each symbolic operand's kind; the static plane holds one sample.
_KINDS = {int: VECTOR, CSRMatrix: CSR, EstimatePattern: CSR, DenseShape: DENSE_SHARED}


class StaticScanAnalyzer:
    """Cost a scan over CSR patterns without numeric execution.

    Parameters
    ----------
    expansion_limit:
        Maximum number of expanded partial products for which the exact
        SpGEMM symbolic phase is materialized; beyond it, products are
        *estimated* (their own FLOPs stay exact when both inputs are
        exact; downstream steps become estimates).
    sparse:
        The :class:`~repro.scan.SparsePolicy` (or mode string, ``None``
        for ``auto``) deciding which inputs and products stay CSR.

    After :meth:`analyze`, ``estimates`` counts the steps whose FLOPs
    or output pattern are estimates rather than exact.
    """

    def __init__(self, expansion_limit: int = 20_000_000, sparse=None) -> None:
        self.expansion_limit = expansion_limit
        self.policy = SparsePolicy.resolve(sparse)
        self.estimates = 0

    # ------------------------------------------------------------------
    def analyze(
        self,
        patterns: Sequence[Union[CSRMatrix, EstimatePattern]],
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
        items = [grad_dim, *map(self._stored, patterns)]
        return symbolic_dag(algorithm, items, self._op, up_levels)

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
    def _stored(self, pattern):
        """``pattern`` stored as the engines store it: CSR while
        :meth:`SparsePolicy.keep_sparse` keeps its density, else dense."""
        (m, n), nnz = pattern.shape, pattern.nnz
        keep = self.policy.keep_sparse(nnz / max(m * n, 1))
        return pattern if keep else DenseShape((m, n), m * n)

    def _op(self, a, b):
        """The symbolic ⊙ ``b·a``, priced by the numeric scan's rule."""
        rule = RULES[_KINDS[type(a)], _KINDS[type(b)]]
        flops, mnk = rule.cost(b, a)
        estimate = EstimatePattern in (type(a), type(b))
        if rule.store == VECTOR:
            out = b.shape[0]
        elif rule.store == DENSE:
            out = DenseShape((b.shape[0], a.shape[1]), b.shape[0] * a.shape[1])
        elif estimate or flops // 2 > self.expansion_limit:
            estimate, (m, n) = True, (b.shape[0], a.shape[1])
            out = self._stored(EstimatePattern((m, n), min(float(m) * n, flops / 2)))
        else:
            out = self._stored(build_spgemm_plan(b, a).out_pattern())
        self.estimates += estimate
        return out, rule.name, float(flops), float(mnk)


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
