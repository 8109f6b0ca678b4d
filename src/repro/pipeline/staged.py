"""Staged scan-backprop: BPPSA as the backward provider for pipeline stages.

The seed repo's pipeline package simulated GPipe/PipeDream in unit time
slots; the scan engine ran whole backward passes monolithically.  This
module composes the two (the pipeline plane): an unrolled RNN is
partitioned into ``K`` contiguous time-step stages, each stage's
backward runs as an independent **truncated-scan slice** on its own
pooled :class:`~repro.serve.ScanEngine`, and a GPipe or PipeDream 1F1B
event stream drives the per-micro-batch forward/backward work — so the
boundary-gradient handoff between stages overlaps with real scan-level
execution instead of being a slot-time fiction.

**Why the result is *bitwise* the monolithic scan.**  Truncated-scan
sweep levels ``d < k`` never cross ``2^k``-aligned slot boundaries, and
the serial middle is a left-associative prefix chain.  Cutting the
global scan array at ``2^k``-aligned boundaries therefore partitions
the computation into slices whose only coupling is the running serial
prefix — exactly what :func:`repro.scan.stage_truncated_scan` threads
from stage to stage as the boundary gradient.  Every ⊙ of the
monolithic :func:`repro.scan.truncated_blelloch_scan` happens in some
stage, on the same operands, in the same association order, so staged
gradients equal monolithic ones bitwise for any stage count, schedule,
and backend (``tests/test_pipeline_scan.py`` proves the full matrix).

Index bookkeeping (scan slots vs. time steps vs. devices):

* scan slot ``0`` is the gradient seed ``∇h_T ℓ``; slot ``p ≥ 1``
  holds the transposed Jacobian of time step ``t = T − p + 1``;
* the slot partition ``[g_s, g_{s+1})`` assigns *scan stage* ``s`` to
  *device* ``K − 1 − s`` (backward flows from the last pipeline stage
  to the first), every interior boundary ``g_s`` a multiple of the
  block size ``2^k``;
* device ``k`` consequently owns forward time steps
  ``[T − g_{s+1} + 2, T − g_s + 1]`` (clamped to ``[1, T]``), so its
  backward slice needs only its *own* cached hidden states plus the
  boundary gradient handed over by device ``k + 1``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ScanConfig, stage_configs
from repro.core.rnn import hidden_jacobian_elements
from repro.nn.loss import softmax_xent_grad
from repro.nn.rnn import RNNClassifier
from repro.pipeline.gpipe import GPipeSchedule, SlotEvent
from repro.pipeline.partition import partition_units
from repro.pipeline.pipedream import PipeDreamSchedule
from repro.scan import (
    IDENTITY,
    DenseJacobian,
    GradientVector,
    ScaledShared,
    blelloch_num_levels,
)
from repro.serve.pool import EnginePool

SCHEDULES = ("gpipe", "pipedream")

#: Defaults for stage configs: staged slices exist only for the
#: truncated/linear family.
STAGE_DEFAULTS = {"algorithm": "truncated"}


def scan_element_nbytes(element: Any) -> int:
    """Actual bytes held by one scan element (dense, structured or CSR).

    A :class:`~repro.scan.ScaledShared` element counts its (B, H) scales
    only: its ``W`` is the model's parameter, not per-slot scan state.
    """
    if element is IDENTITY:
        return 0
    if isinstance(element, (GradientVector, DenseJacobian)):
        return element.data.nbytes
    if isinstance(element, ScaledShared):
        return element.scale.nbytes
    pattern = element.pattern  # SparseJacobian
    values = pattern.data if element.data is None else element.data
    return pattern.indptr.nbytes + pattern.indices.nbytes + values.nbytes


class StagedRNNBPPSA:
    """K-stage pipelined BPPSA engine for the vanilla RNN classifier.

    Parameters
    ----------
    classifier:
        The :class:`~repro.nn.rnn.RNNClassifier` to differentiate.
    num_stages:
        Pipeline depth ``K``; the unrolled sequence is split into ``K``
        contiguous time-step spans at scan-block-aligned boundaries.
    num_micro_batches:
        ``M`` micro-batches per mini-batch (GPipe/PipeDream's unit of
        pipelining).  Gradients accumulate in micro-batch index order,
        so a fixed ``M`` is deterministic on every backend.
    schedule:
        ``"gpipe"`` (synchronous flush) or ``"pipedream"`` (1F1B).
        Both emit the same :class:`~repro.pipeline.gpipe.SlotEvent`
        grammar; the staged runner executes each slot's events
        concurrently and barriers between slots, so schedule choice
        changes *overlap*, never numerics.
    configs:
        Per-stage scan configuration — a single spec broadcast to all
        stages or a ``K``-entry list (PR 5 grammar, e.g.
        ``["truncated/thread:2", "truncated/serial"]``), resolved via
        :func:`repro.config.stage_configs`.  All stages must agree on
        the algorithm family (``truncated`` or ``linear``) and
        truncation depth — block alignment is global — but may differ
        freely in executor backend and sparse mode.  The resolved
        ``configs``, and the ``algorithm`` and ``up_levels`` read from
        them, are fixed at construction; build another engine to run
        another configuration.
    pool:
        A shared :class:`~repro.serve.EnginePool` (stages naming equal
        resolved configs share one engine).  When omitted the instance
        owns a private pool, released by :meth:`close`.
    """

    def __init__(
        self,
        classifier: RNNClassifier,
        num_stages: int,
        num_micro_batches: int = 1,
        schedule: str = "gpipe",
        configs: Union[
            ScanConfig, str, Mapping[str, Any], None, Sequence[Any]
        ] = None,
        pool: Optional[EnginePool] = None,
    ) -> None:
        if num_stages < 1:
            raise ValueError("need at least one stage")
        if num_micro_batches < 1:
            raise ValueError("need at least one micro-batch")
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
            )
        self.clf = classifier
        self.K = num_stages
        self.M = num_micro_batches
        self.schedule = schedule
        self._configs = tuple(
            stage_configs(configs, num_stages, defaults=STAGE_DEFAULTS)
        )
        algorithms = {cfg.algorithm for cfg in self._configs}
        if len(algorithms) > 1:
            raise ValueError(
                "stage algorithms must agree (block alignment is global); "
                f"got {sorted(algorithms)}"
            )
        if self.algorithm not in ("truncated", "linear"):
            raise ValueError(
                f"staged backward requires the truncated/linear scan family "
                f"(block-aligned slices); got {self.algorithm!r}"
            )
        up = {cfg.up_levels for cfg in self._configs}
        if len(up) > 1:
            raise ValueError(
                f"stage up_levels must agree (block alignment is global); "
                f"got {sorted(up)}"
            )
        self._own_pool = pool is None
        self.pool = pool if pool is not None else EnginePool()
        self.engines = self.pool.get_many(self._configs)
        self.last_run_stats: Optional[Dict[str, Any]] = None

    @property
    def configs(self) -> Tuple[ScanConfig, ...]:
        """The resolved per-stage configs, fixed at construction."""
        return self._configs

    @property
    def algorithm(self) -> str:
        """The stages' common scan algorithm (``truncated``/``linear``)."""
        return self._configs[0].algorithm

    @property
    def up_levels(self) -> int:
        """The stages' common truncation depth (0 for ``linear``)."""
        return 0 if self.algorithm == "linear" else self._configs[0].up_levels

    # ------------------------------------------------------------------
    # static structure for one sequence length
    # ------------------------------------------------------------------
    def plan(self, seq_len: int) -> Dict[str, Any]:
        """The slot partition, time spans, and schedule for ``seq_len``.

        Raises ``ValueError`` when the sequence is too short to give
        every stage a non-empty block-aligned slice and every device a
        non-empty forward span.
        """
        if seq_len < self.K:
            raise ValueError(
                f"sequence length {seq_len} cannot fill {self.K} stages"
            )
        n_slots = seq_len + 1
        k = max(0, min(self.up_levels, blelloch_num_levels(n_slots) - 1))
        spans = partition_units(n_slots, self.K, block=1 << k)
        # Device k runs scan stage s = K−1−k; its forward time span
        # follows from the slot span (see module docstring).
        time_spans: List[Tuple[int, int]] = []
        for device in range(self.K):
            g_lo, g_hi = spans[self.K - 1 - device]
            lo = max(1, seq_len - g_hi + 2)
            hi = min(seq_len, seq_len - g_lo + 1)
            time_spans.append((lo, hi))
        if any(hi < lo for lo, hi in time_spans):
            raise ValueError(
                f"sequence length {seq_len} with up_levels={self.up_levels} "
                f"leaves a stage without time steps; use fewer stages or a "
                f"shallower truncation"
            )
        stage_layers = [(lo - 1, hi) for lo, hi in time_spans]
        if self.schedule == "gpipe":
            sched = GPipeSchedule(
                seq_len, self.K, self.M, stage_layers=stage_layers
            )
        else:
            sched = PipeDreamSchedule(self.K, self.M)
        return {
            "up_levels": k,
            "block": 1 << k,
            "slot_spans": spans,
            "time_spans": time_spans,
            "stage_layers": stage_layers,
            "schedule": sched,
        }

    # ------------------------------------------------------------------
    # the pipelined run
    # ------------------------------------------------------------------
    def compute_gradients(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Pipelined BPPSA gradients ``{id(param): grad}``.

        Drives the schedule's event stream slot by slot; each slot's
        events run concurrently on a stage-count thread pool (events of
        one slot touch disjoint ``(device, micro_batch)`` state, so the
        overlap is deterministic), forwards hand hidden-state
        boundaries downstream, backwards run scan slices and hand
        boundary gradients upstream, and parameter gradients accumulate
        centrally in micro-batch order.  ``self.last_run_stats``
        captures per-event timings, measured utilization, and actual
        per-stage Jacobian footprints (``None`` until a run succeeds).
        """
        self.last_run_stats = None
        x = np.asarray(x, dtype=np.float64)
        targets = np.asarray(targets)
        batch, seq_len, _ = x.shape
        if batch < self.M:
            raise ValueError(
                f"batch of {batch} cannot fill {self.M} micro-batches"
            )
        plan = self.plan(seq_len)
        mb_spans = partition_units(batch, self.M)
        state = _RunState(self, x, targets, plan, mb_spans)

        events_by_slot: Dict[int, List[SlotEvent]] = {}
        for event in plan["schedule"].events:
            events_by_slot.setdefault(event.time, []).append(event)

        run_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.K) as workers:
            for slot in sorted(events_by_slot):
                futures = [
                    workers.submit(state.run_event, event)
                    for event in events_by_slot[slot]
                ]
                for future in futures:
                    future.result()
        run_end = time.perf_counter()

        grads = state.accumulate_gradients()
        self.last_run_stats = state.stats(run_start, run_end)
        return grads

    def apply_gradients(self, grads: Dict[int, np.ndarray]) -> None:
        """Install :meth:`compute_gradients` output onto the classifier's
        parameters (keyed by ``id(param)``), reshaping each gradient back
        to its parameter's shape so an optimizer step can consume it."""
        for p in self.clf.parameters():
            g = grads.get(id(p))
            if g is not None:
                p.grad = g.reshape(p.data.shape)

    def close(self) -> None:
        """Release the private engine pool (no-op on a shared pool —
        its owner decides when engines retire)."""
        if self._own_pool:
            self.pool.close()

    def __enter__(self) -> "StagedRNNBPPSA":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _RunState:
    """Mutable per-run state: boundaries, caches, outputs, timings.

    Every dict is keyed by ``(device, micro_batch)`` or ``micro_batch``
    and written by exactly one schedule event, so slot-concurrent
    access needs no locking beyond the timing list's append lock.
    """

    def __init__(
        self,
        engine: StagedRNNBPPSA,
        x: np.ndarray,
        targets: np.ndarray,
        plan: Dict[str, Any],
        mb_spans: List[Tuple[int, int]],
    ) -> None:
        self.engine = engine
        self.x = x
        self.targets = targets
        self.plan = plan
        self.mb_spans = mb_spans
        cell = engine.clf.rnn.cell
        self.bias = cell.bias_ih.data + cell.bias_hh.data
        self.hidden: Dict[Tuple[int, int], np.ndarray] = {}
        self.boundary_h: Dict[Tuple[int, int], np.ndarray] = {}
        self.seed: Dict[int, np.ndarray] = {}
        self.head_contrib: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self.carry: Dict[Tuple[int, int], Any] = {}
        self.stage_out: Dict[Tuple[int, int], List[Any]] = {}
        self.jacobian_bytes: Dict[Tuple[int, int], int] = {}
        self.timings: List[Dict[str, Any]] = []
        self._timing_lock = threading.Lock()

    # -- event dispatch -------------------------------------------------
    def run_event(self, event: SlotEvent) -> None:
        """Execute one schedule event (F or B) on its device, timed."""
        start = time.perf_counter()
        if event.phase == "F":
            self._forward(event.device, event.micro_batch)
        else:
            self._backward(event.device, event.micro_batch)
        end = time.perf_counter()
        with self._timing_lock:
            self.timings.append(
                {
                    "slot": event.time,
                    "device": event.device,
                    "micro_batch": event.micro_batch,
                    "phase": event.phase,
                    "start": start,
                    "end": end,
                }
            )

    def _forward(self, device: int, m: int) -> None:
        engine = self.engine
        lo, hi = self.plan["time_spans"][device]
        b_lo, b_hi = self.mb_spans[m]
        cell = engine.clf.rnn.cell
        w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data
        if device == 0:
            h = np.zeros((b_hi - b_lo, cell.hidden_size))
        else:
            h = self.boundary_h[(device - 1, m)]
        hs = np.empty((hi - lo + 1, b_hi - b_lo, cell.hidden_size))
        for t in range(lo, hi + 1):
            h = np.tanh(
                self.x[b_lo:b_hi, t - 1, :] @ w_ih.T + h @ w_hh.T + self.bias
            )
            hs[t - lo] = h
        self.hidden[(device, m)] = hs
        self.boundary_h[(device, m)] = h
        if device == engine.K - 1:
            head = engine.clf.head
            logits = h @ head.weight.data.T
            if head.bias is not None:
                logits = logits + head.bias.data
            grad_logits = softmax_xent_grad(logits, self.targets[b_lo:b_hi])
            self.head_contrib[m] = (
                grad_logits.T @ h,
                grad_logits.sum(axis=0) if head.bias is not None else None,
            )
            self.seed[m] = grad_logits @ head.weight.data

    def _backward(self, device: int, m: int) -> None:
        engine = self.engine
        s = engine.K - 1 - device  # scan stage
        g_lo, g_hi = self.plan["slot_spans"][s]
        lo, hi = self.plan["time_spans"][device]
        jacs = hidden_jacobian_elements(engine.clf.rnn, self.hidden[(device, m)])
        items: List[Any] = []
        if s == 0:
            items.append(GradientVector(self.seed[m]))
        # Slot p ≥ 1 ↔ the Jacobian of time step t = T − p + 1, so the
        # slice's items walk this stage's cached span in reverse time.
        for p in range(max(g_lo, 1), g_hi):
            t = self.x.shape[1] - p + 1
            items.append(jacs[t - lo])
        self.jacobian_bytes[(device, m)] = sum(
            scan_element_nbytes(item) for item in items[1 if s == 0 else 0 :]
        )
        prefix = IDENTITY if s == 0 else self.carry[(device, m)]
        outputs, carry = engine.engines[s].run_stage_scan(
            items,
            up_levels=self.plan["up_levels"],
            prefix=prefix,
            compose_tail=s < engine.K - 1,
        )
        self.stage_out[(device, m)] = outputs
        if device > 0:
            self.carry[(device - 1, m)] = carry

    # -- post-loop reduction --------------------------------------------
    def accumulate_gradients(self) -> Dict[int, np.ndarray]:
        """Gather per-micro-batch hidden gradients in index order and
        reduce them to parameter gradients (bitwise-stable order)."""
        engine = self.engine
        clf = engine.clf
        seq_len = self.x.shape[1]
        hidden_size = clf.rnn.hidden_size
        sums: Dict[str, Optional[np.ndarray]] = {}

        def add(name: str, value: Optional[np.ndarray]) -> None:
            """Accumulate one named parameter-gradient term (None = skip)."""
            if value is None:
                return
            sums[name] = value if sums.get(name) is None else sums[name] + value

        for m, (b_lo, b_hi) in enumerate(self.mb_spans):
            hg = np.empty((seq_len, b_hi - b_lo, hidden_size))
            hs = np.empty_like(hg)
            for device in range(engine.K):
                s = engine.K - 1 - device
                g_lo, _ = self.plan["slot_spans"][s]
                lo, hi = self.plan["time_spans"][device]
                hs[lo - 1 : hi] = self.hidden[(device, m)]
                for j, element in enumerate(self.stage_out[(device, m)]):
                    p = g_lo + j
                    if p == 0:
                        continue  # slot 0's output is the identity
                    hg[seq_len - p] = element.data
            param = clf.rnn.parameter_gradients_from_hidden_grads(
                self.x[b_lo:b_hi], hs, hg
            )
            add("weight_ih", param["weight_ih"])
            add("weight_hh", param["weight_hh"])
            add("bias_ih", param["bias_ih"])
            add("bias_hh", param["bias_hh"])
            head_w, head_b = self.head_contrib[m]
            add("head_weight", head_w)
            add("head_bias", head_b)

        cell = clf.rnn.cell
        grads = {
            id(cell.weight_ih): sums["weight_ih"],
            id(cell.weight_hh): sums["weight_hh"],
            id(cell.bias_ih): sums["bias_ih"],
            id(cell.bias_hh): sums["bias_hh"],
            id(clf.head.weight): sums["head_weight"],
        }
        if clf.head.bias is not None:
            grads[id(clf.head.bias)] = sums["head_bias"]
        return grads

    def stats(self, run_start: float, run_end: float) -> Dict[str, Any]:
        """The run's utilization/memory summary (``last_run_stats``)."""
        engine = self.engine
        makespan = max(run_end - run_start, 1e-12)
        busy = sum(t["end"] - t["start"] for t in self.timings)
        stage_bytes = [
            max(
                (
                    nbytes
                    for (device, _), nbytes in self.jacobian_bytes.items()
                    if device == k
                ),
                default=0,
            )
            for k in range(engine.K)
        ]
        sched = self.plan["schedule"]
        return {
            "schedule": engine.schedule,
            "num_stages": engine.K,
            "num_micro_batches": engine.M,
            "up_levels": self.plan["up_levels"],
            "slot_spans": self.plan["slot_spans"],
            "time_spans": self.plan["time_spans"],
            "stage_layers": self.plan["stage_layers"],
            "events": sorted(
                self.timings,
                key=lambda t: (t["slot"], t["device"]),
            ),
            "makespan_s": makespan,
            "busy_s": busy,
            "measured_utilization": busy / (engine.K * makespan),
            "scheduled_utilization": sched.utilization(),
            "stage_jacobian_bytes": stage_bytes,
            "pool": engine.pool.stats(),
        }
