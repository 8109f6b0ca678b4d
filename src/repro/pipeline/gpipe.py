"""GPipe-style synchronous pipeline simulator.

Models a model of ``L`` layers split over ``K`` devices with ``M``
micro-batches per mini-batch (Huang et al., 2018), in unit time slots
(one slot = one micro-batch through one stage, forward or backward).

Reproduces the two properties the paper leans on (Section 2.2):

* the *bubble of idleness* between forward and backward passes —
  fraction ``(K−1)/(M+K−1)`` per pass direction of the pipeline;
* per-device space complexity Θ(L/K + K) with re-materialization
  (Θ(L/K) recompute buffer + Θ(M) boundary activations, and filling the
  pipeline needs M ≥ K — the solid/dashed box argument of Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.pipeline.partition import partition_layers, validate_partition


@dataclass
class SlotEvent:
    """One occupied time slot in the pipeline timing diagram."""

    time: int
    device: int
    micro_batch: int
    phase: str  # "F" or "B"


class GPipeSchedule:
    """Deterministic GPipe schedule for one mini-batch.

    Forward: micro-batch m enters stage k at slot ``m + k``.
    Backward: after a full flush, stages drain in reverse order.

    The layer→stage assignment is an explicit partition map
    (``stage_layers``: one ``(start, end)`` half-open span per device,
    covering all ``L`` layers) rather than an implicit ``L // K``
    division — uneven splits used to truncate silently; now every
    layer is owned by exactly one stage, earlier stages absorb the
    remainder, and a caller-supplied map is validated for contiguity
    and coverage.
    """

    def __init__(
        self,
        num_layers: int,
        num_devices: int,
        num_micro_batches: int,
        stage_layers: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        if num_devices < 1 or num_micro_batches < 1:
            raise ValueError("need at least one device and one micro-batch")
        if num_layers < num_devices:
            raise ValueError("cannot split fewer layers than devices")
        self.L = num_layers
        self.K = num_devices
        self.M = num_micro_batches
        if stage_layers is None:
            self.stage_layers = partition_layers(num_layers, num_devices)
        else:
            self.stage_layers = [tuple(span) for span in stage_layers]
            if len(self.stage_layers) != num_devices:
                raise ValueError(
                    f"stage_layers has {len(self.stage_layers)} spans "
                    f"for {num_devices} devices"
                )
            validate_partition(self.stage_layers, num_layers)
        self.events = self._build()

    def layers_for_stage(self, device: int) -> Tuple[int, int]:
        """The ``(start, end)`` half-open layer span owned by ``device``."""
        return self.stage_layers[device]

    def _build(self) -> List[SlotEvent]:
        events: List[SlotEvent] = []
        # forward wavefront
        for m in range(self.M):
            for k in range(self.K):
                events.append(SlotEvent(m + k, k, m, "F"))
        fwd_end = self.M + self.K - 1
        # backward wavefront (reverse stage order), starts after the flush
        for m in range(self.M):
            for k in range(self.K):
                stage = self.K - 1 - k
                events.append(SlotEvent(fwd_end + m + k, stage, m, "B"))
        return events

    # ------------------------------------------------------------------
    @property
    def total_slots(self) -> int:
        """End-to-end schedule length in slots (last event time + 1)."""
        return max(e.time for e in self.events) + 1

    def utilization(self) -> float:
        """Mean fraction of time devices do useful work."""
        busy = len(self.events)
        return busy / (self.K * self.total_slots)

    def bubble_fraction(self) -> float:
        """Idle fraction — grows with K at fixed M (paper's complaint)."""
        return 1.0 - self.utilization()

    def timing_diagram(self) -> List[str]:
        """ASCII rendition of Figure 3 (rows = devices, cols = slots)."""
        grid = [["." for _ in range(self.total_slots)] for _ in range(self.K)]
        for e in self.events:
            mark = str(e.micro_batch % 10)
            grid[e.device][e.time] = mark if e.phase == "F" else mark.lower()
        return ["".join(row) for row in grid]

    def peak_activation_slots(self, device: int) -> int:
        """Micro-batch activations simultaneously held by ``device``.

        A stage must keep each micro-batch's boundary activation from
        its forward slot until its backward slot.
        """
        fwd = {e.micro_batch: e.time for e in self.events
               if e.device == device and e.phase == "F"}
        bwd = {e.micro_batch: e.time for e in self.events
               if e.device == device and e.phase == "B"}
        peak = 0
        for t in range(self.total_slots):
            live = sum(1 for m in fwd if fwd[m] <= t <= bwd[m])
            peak = max(peak, live)
        return peak


def gpipe_bubble_fraction(num_devices: int, num_micro_batches: int) -> float:
    """Closed form ``(K−1)/(M+K−1)`` bubble per pass direction."""
    k, m = num_devices, num_micro_batches
    return (k - 1) / (m + k - 1)


def gpipe_memory(
    num_layers: int,
    num_devices: int,
    num_micro_batches: Optional[int] = None,
    rematerialize: bool = True,
) -> float:
    """Per-device space in activation units — the paper's Θ(L/K + K).

    With re-materialization each device stores one boundary activation
    per in-flight micro-batch (M ≥ K to fill the pipeline) plus the
    Θ(L/K) recompute buffer; without it, all Θ(L/K) activations per
    micro-batch stay resident.
    """
    if num_micro_batches is None:
        num_micro_batches = num_devices  # minimum to fill the pipeline
    per_stage = num_layers / num_devices
    if rematerialize:
        return per_stage + num_micro_batches
    return per_stage * num_micro_batches
