"""Simulated RNN training times — the model behind Figures 9 and 10.

Combines the symbolic Blelloch-scan schedule (ops per level for a
length-(T+1) array) with the device cost model to produce simulated
backward/forward durations for (a) the cuDNN-style sequential baseline
and (b) BPPSA, for any sequence length T, mini-batch size B, and device.
The paper's sensitivity analysis (Section 5.1) is a sweep of exactly
these quantities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.pram.cost_model import GPUCostModel
from repro.pram.device import DeviceSpec
from repro.pram.machine import PRAMMachine
from repro.scan.dag import ScanDAG, uniform_dag


@dataclass(frozen=True)
class RNNTimingResult:
    """Simulated per-iteration timings (seconds) and derived speedups."""

    seq_len: int
    batch: int
    hidden: int
    device: str
    forward_seconds: float
    baseline_backward_seconds: float
    bppsa_backward_seconds: float

    @property
    def backward_speedup(self) -> float:
        return self.baseline_backward_seconds / self.bppsa_backward_seconds

    @property
    def overall_speedup(self) -> float:
        base = self.forward_seconds + self.baseline_backward_seconds
        ours = self.forward_seconds + self.bppsa_backward_seconds
        return base / ours


@functools.lru_cache(maxsize=64)
def _scan_dag(seq_len: int, hidden: int) -> ScanDAG:
    """Blelloch schedule for a (T+1)-element array of H×H Jacobians."""
    return uniform_dag(
        "blelloch",
        seq_len + 1,
        flops_mm=2 * hidden**3,
        flops_mv=2 * hidden * hidden,
    )


def simulate_rnn_iteration(
    seq_len: int,
    batch: int,
    hidden: int,
    device: DeviceSpec,
    input_size: int = 1,
) -> RNNTimingResult:
    """Simulate one training iteration's timing on ``device``.

    BPPSA's backward time includes Jacobian preparation (as measured in
    the paper, Section 5.1) plus the level-synchronous scan makespan
    with one scan per sample sharing the device's blocks.
    """
    cm = GPUCostModel(device)
    machine = PRAMMachine(cm)
    sched = machine.schedule(_scan_dag(seq_len, hidden), batch=batch)
    bppsa_backward = sched.makespan_seconds + cm.jacobian_prep_seconds(
        seq_len, batch, hidden
    )
    return RNNTimingResult(
        seq_len=seq_len,
        batch=batch,
        hidden=hidden,
        device=device.name,
        forward_seconds=cm.rnn_forward_seconds(seq_len, batch, hidden, input_size),
        baseline_backward_seconds=cm.baseline_rnn_backward_seconds(
            seq_len, batch, hidden
        ),
        bppsa_backward_seconds=bppsa_backward,
    )
