"""repro.workloads — two model-level bench workloads.

The workload plane (DESIGN.md §2f): each module declares ``PARAMS``
keyed by :class:`~repro.experiments.common.Scale` and a seeded
``build(scale)`` returning the model and one ``(x, targets)`` batch,
like every experiment, plus the rows function the bench runner times.
``transformer`` is the ``transformer_scan`` artifact (attention's dense
per-sample Jacobian + LayerNorm/MLP block-sparsity as a SparsePolicy
stress); ``pruning_pipeline`` is ``pruned_sparsity`` (the train →
magnitude-prune → retrain pipeline whose weight sparsity becomes
scan-operand sparsity becomes speedup).  Both report
:func:`stage_structures`, the storage form each stage's Jacobian lands
in.
"""

from repro.workloads.pruning_pipeline import (
    pruned_sparsity_metrics,
    pruned_sparsity_rows,
)
from repro.workloads.structure import stage_structures, structure_tag
from repro.workloads.transformer import transformer_scan_rows

__all__ = [
    "pruned_sparsity_metrics",
    "pruned_sparsity_rows",
    "stage_structures",
    "structure_tag",
    "transformer_scan_rows",
]
