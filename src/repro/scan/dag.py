"""Scan schedules as task DAGs (the structure drawn in paper Figure 4).

A scan algorithm's ⊙ applications form a DAG: operations at the same
(phase, level) are mutually independent; levels are ordered up-sweep
``L0, L1, …`` then down-sweep back to ``L…``.  This module groups the
:class:`~repro.scan.elements.StepRecord` list a scan leaves — one
record per ⊙ — into an explicit :class:`ScanDAG` of levels: the object
the PRAM simulator schedules onto ``p`` workers, the Fig. 4 experiment
prints and the Fig. 11 experiment costs.

A numeric scan leaves its records in its
:class:`~repro.scan.ScanContext`'s trace.  :func:`symbolic_dag` records
the same steps without numeric data, by running any scan of
:data:`~repro.scan.algorithms.SCANS` with a symbolic ⊙ that only costs
each application, so schedules for n = 30000 can be analyzed
instantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.scan.algorithms import SCANS
from repro.scan.elements import IDENTITY, StepRecord

@dataclass
class ScanDAG:
    """An ordered sequence of parallel levels of :class:`StepRecord`.

    ``levels[i]`` may execute concurrently on available workers;
    level ``i+1`` must wait for level ``i`` (the level-synchronous
    execution model of the paper's CUDA implementation, which launches
    one kernel per level).
    """

    levels: List[List[StepRecord]] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_ops(self) -> int:
        return sum(len(lv) for lv in self.levels)

    @property
    def total_flops(self) -> float:
        return sum(step.flops for lv in self.levels for step in lv)

    def all_steps(self) -> List[StepRecord]:
        return [step for lv in self.levels for step in lv]

    def critical(self) -> List[bool]:
        """For each step of :meth:`all_steps`, whether it is critical.

        A level lasts as long as its costliest ⊙, so the steps with
        their level's maximum FLOPs (ties all count) form the critical
        path — the filled circles of Figure 11.  A sequential phase has
        one step per level, so each of its steps is critical.
        """
        marks: List[bool] = []
        for lv in self.levels:
            fmax = max((step.flops for step in lv), default=0)
            marks.extend(step.flops == fmax for step in lv)
        return marks

    def level_keys(self) -> List[Tuple[str, int]]:
        return [
            (lv[0].info.phase, lv[0].info.level) if lv else ("empty", -1)
            for lv in self.levels
        ]

    def summary(self) -> str:
        lines = []
        for i, lv in enumerate(self.levels):
            if not lv:
                continue
            phase, level = lv[0].info.phase, lv[0].info.level
            mm = sum(1 for x in lv if x.kind == "mm")
            mv = len(lv) - mm
            lines.append(
                f"L{i}: phase={phase} d={level} ops={len(lv)} (mm={mm}, mv={mv})"
            )
        return "\n".join(lines)


def dag_from_trace(trace: Sequence[StepRecord]) -> ScanDAG:
    """Group a recorded trace into ordered parallel levels.

    ``up``/``down``/``hs`` records group by (phase, level); ``linear``
    and ``serial-mid`` records are inherently sequential, one per level.
    Input order is preserved (the executors emit records in schedule
    order).
    """
    dag = ScanDAG()
    current_key: Optional[Tuple[str, int]] = None
    for rec in trace:
        key = (rec.info.phase, rec.info.level)
        sequential = rec.info.phase in ("linear", "serial-mid")
        if sequential or key != current_key or not dag.levels:
            dag.levels.append([rec])
            current_key = None if sequential else key
        else:
            dag.levels[-1].append(rec)
    return dag


def symbolic_dag(
    algorithm: str,
    items: Sequence[Any],
    cost: Callable[[Any, Any], Tuple[Any, str, float, float]],
    up_levels: int = 0,
) -> ScanDAG:
    """Run scan ``algorithm`` over symbolic ``items`` and group its steps.

    ``cost(a, b)`` stands in for the numeric ⊙ on two non-identity
    operands and returns ``(result, rule, flops, dense_mnk)``; each
    call becomes one :class:`StepRecord`.  Identity operands pass
    through uncosted, as in :meth:`~repro.scan.ScanContext.op`, so the
    DAG is the one a numeric scan of the same array records.
    ``up_levels`` is the ``"truncated"`` scan's depth.
    """
    scan = SCANS.get(algorithm)
    if scan is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {tuple(SCANS)}"
        )
    trace: List[StepRecord] = []

    def op(a, b, info):
        if a is IDENTITY:
            return b
        if b is IDENTITY:
            return a
        result, rule, flops, dense_mnk = cost(a, b)
        trace.append(StepRecord(info, rule, flops, dense_mnk))
        return result

    kw = {"up_levels": up_levels} if algorithm == "truncated" else {}
    scan(items, op, **kw)
    return dag_from_trace(trace)


def uniform_dag(
    algorithm: str,
    length: int,
    flops_mm: int = 1,
    flops_mv: int = 1,
    up_levels: int = 0,
) -> ScanDAG:
    """Schedule of scan ``algorithm`` on a ``length``-element array with
    one cost per ⊙ kind (e.g. the RNN's 2H³ mat-mat and 2H² mat-vec).

    Each item stands for its segment of the array, ``True`` when the
    segment holds the gradient vector (position 0): a product is a
    mat-vec exactly when its left operand holds it, and a step's rule
    is its kind alone.
    """

    def cost(a: bool, b: bool):
        return a or b, "mv" if a else "mm", flops_mv if a else flops_mm, 0

    return symbolic_dag(algorithm, [True] + [False] * (length - 1), cost, up_levels)
