"""Level-synchronous PRAM scheduler for scan DAGs.

``PRAMMachine`` executes a :class:`~repro.scan.dag.ScanDAG` the way the
paper's CUDA implementation does: one kernel per level, tasks within a
level distributed over the available workers, a synchronization barrier
between levels.  For heterogeneous task costs (the sparse pruned-VGG
scan of Figure 11) tasks are placed greedily longest-processing-time
first; for uniform costs the closed-form wave count is used.

Also provides :func:`step_count` / :func:`work_count`, the quantities in
the paper's Eq. 6 and Eq. 7 complexity analysis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.pram.cost_model import GPUCostModel
from repro.scan.dag import ScanDAG


@dataclass
class LevelResult:
    index: int
    phase: str
    num_tasks: int
    seconds: float


@dataclass
class ScheduleResult:
    """Outcome of scheduling a DAG."""

    makespan_seconds: float
    levels: List[LevelResult] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def _lpt_makespan(costs: Sequence[float], workers: int) -> float:
    """Greedy longest-processing-time-first makespan on ``workers``."""
    if not costs:
        return 0.0
    if workers <= 1:
        return float(sum(costs))
    loads = [0.0] * min(workers, len(costs))
    heapq.heapify(loads)
    for c in sorted(costs, reverse=True):
        heapq.heappush(loads, heapq.heappop(loads) + c)
    return max(loads)


class PRAMMachine:
    """Schedule scan DAGs onto a device's workers."""

    def __init__(self, cost_model: GPUCostModel) -> None:
        self.cost_model = cost_model

    def schedule(self, dag: ScanDAG, batch: int = 1) -> ScheduleResult:
        """Simulate level-synchronous execution.

        ``batch`` replicates every task ``batch`` times (one independent
        scan per sample, as in the RNN benchmark) before scheduling.
        The DAG is only read; :meth:`ScanDAG.critical` names the steps
        whose costs set each level's time.
        """
        device = self.cost_model.device
        result = ScheduleResult(makespan_seconds=0.0)
        for li, level in enumerate(dag.levels):
            if not level:
                continue
            flops = [step.flops for step in level]
            uniform = len(set(flops)) == 1
            total_tasks = len(level) * batch
            if uniform:
                seconds = self.cost_model.level_seconds([flops[0]], total_tasks)
            else:
                costs = [self.cost_model.op_seconds(f) for f in flops] * batch
                seconds = (
                    _lpt_makespan(costs, device.concurrent_blocks)
                    + device.kernel_launch_overhead
                )
            result.levels.append(
                LevelResult(
                    index=li,
                    phase=level[0].info.phase,
                    num_tasks=total_tasks,
                    seconds=seconds,
                )
            )
            result.makespan_seconds += seconds
        return result


def step_count(dag: ScanDAG, workers: int) -> int:
    """Steps on the critical path with ``workers`` parallel workers.

    The paper's step complexity S(n): with p ≥ n this is the number of
    levels (Θ(log n)); with p < n, waves accumulate to Θ(n/p + log p)
    (Eq. 6).
    """
    steps = 0
    for level in dag.levels:
        if level:
            steps += -(-len(level) // workers)  # ceil
    return steps


def work_count(dag: ScanDAG) -> int:
    """Total ⊙ applications — the paper's W(n) = Θ(n) (Eq. 7)."""
    return dag.num_ops
