"""PRAM-style parallel-machine simulator (the repo's GPU substitute).

The paper analyzes BPPSA on a parallel random-access machine (Kruskal
et al., 1990; paper Section 3.6) and evaluates it on two Turing GPUs
whose parallelism it abstracts as "the total number of CUDA threads
executing concurrently in all SMs normalized by mini-batch size".  No
GPU exists in this environment, so this package supplies the same
abstraction explicitly:

* :class:`DeviceSpec` — device catalog entries modelled on the paper's
  Table 2 (RTX 2070: 36 SMs, RTX 2080Ti: 68 SMs);
* :class:`GPUCostModel` — seconds per ⊙ task and per level, including
  kernel-launch overhead and a latency floor for tiny matrices;
* :class:`PRAMMachine` — schedules a :class:`~repro.scan.dag.ScanDAG`
  level-synchronously onto ``p`` workers (greedy LPT within a level),
  returning makespans and per-level times;
* step-count helpers verifying the paper's Eq. 6/7 complexity claims.

The simulator never fabricates results: it schedules the *actual* op
trace recorded (or symbolically enumerated) from the scan algorithms.
"""

from repro.pram.device import DEVICE_CATALOG, DeviceSpec, RTX_2070, RTX_2080TI
from repro.pram.cost_model import GPUCostModel
from repro.pram.machine import PRAMMachine, ScheduleResult, step_count, work_count

__all__ = [
    "DeviceSpec",
    "DEVICE_CATALOG",
    "RTX_2070",
    "RTX_2080TI",
    "GPUCostModel",
    "PRAMMachine",
    "ScheduleResult",
    "step_count",
    "work_count",
]
