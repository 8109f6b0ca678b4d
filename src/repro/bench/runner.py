"""The bench runner — sweeps artifacts × executor specs into records.

An artifact here is anything that can produce structured rows: the 13
experiment modules (each exposing ``run(scale)`` + ``result_rows``)
plus two scan microbenchmarks that exercise the executor itself —
``parallel_backends`` (dense Jacobian chain) and ``sparse_scan``
(CSR Jacobian chain under the sparse dispatch).  Backend-*sensitive*
artifacts — the ones whose computation actually flows through a
:class:`~repro.backend.executor.ScanExecutor` — are measured once per
requested spec; the rest run once and record backend ``"n/a"`` so the
sweep's cost stays proportional to what a backend can influence.

A second sweep axis covers the sparse execution path: when
``sparse_modes`` is given (the CLI's ``--sparse`` flag), every
*sparse-sensitive* artifact runs once per dispatch mode per backend,
recorded as ``"<backend>[sparse=<mode>]"`` — which is how
dense-vs-sparse timings of the same workload land side by side in
``bench.json``.  The mode sweep *replaces* that artifact's single
default-policy measurement (its plain ``"<backend>"`` key), so switch
a baseline to the swept shape by regenerating it with the same
``--sparse`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.bench.env import environment_fingerprint
from repro.bench.record import BenchRecord
from repro.bench.timing import measure
from repro.config import ScanConfig
from repro.experiments import run_all
from repro.experiments.common import Scale

#: Backend value recorded for artifacts that never reach a scan executor.
NO_BACKEND = "n/a"

#: ``parallel_backends`` scan sizes (T steps, batch, hidden) per scale.
SCAN_PARAMS = {
    Scale.SMOKE: {"seq_len": 64, "batch": 1, "hidden": 96},
    Scale.PAPER: {"seq_len": 256, "batch": 1, "hidden": 128},
}


def make_scan_items(seq_len: int, batch: int, hidden: int, seed: int = 0) -> List[Any]:
    """The ``parallel_backends`` scan input: a gradient seed + T dense
    hidden×hidden Jacobians (deterministic in ``seed``)."""
    from repro.scan import DenseJacobian, GradientVector

    rng = np.random.default_rng(seed)
    items: List[Any] = [GradientVector(rng.standard_normal((batch, hidden)))]
    items += [
        DenseJacobian(rng.standard_normal((hidden, hidden))) for _ in range(seq_len)
    ]
    return items


#: ``sparse_scan`` sizes (stages, batch, channels, feature h/w) per
#: scale.  Stage Jacobians alternate a convolution CSR pattern with a
#: per-sample diagonal pattern — the composition mix the feedforward
#: engine produces for a conv/activation stack.
SPARSE_SCAN_PARAMS = {
    Scale.SMOKE: {"stages": 12, "batch": 4, "channels": 4, "hw": (8, 8)},
    Scale.PAPER: {"stages": 24, "batch": 8, "channels": 6, "hw": (12, 12)},
}


def make_sparse_scan_items(
    stages: int, batch: int, channels: int, hw, sparse="auto", seed: int = 0
) -> List[Any]:
    """The ``sparse_scan`` input: a gradient seed + alternating conv /
    diagonal CSR Jacobians, assembled through the given dispatch policy
    (so ``sparse="off"`` yields the dense version of the same chain)."""
    from repro.jacobian.conv import conv2d_tjac
    from repro.scan import GradientVector, SparseJacobian, SparsePolicy
    from repro.sparse import csr_from_diagonal

    policy = SparsePolicy.resolve(sparse)
    rng = np.random.default_rng(seed)
    h, w = hw
    dim = channels * h * w
    conv = conv2d_tjac(
        rng.standard_normal((channels, channels, 3, 3)), (h, w), padding=1
    )
    items: List[Any] = [GradientVector(rng.standard_normal((batch, dim)))]
    for stage in range(stages):
        if stage % 2 == 0:
            el = SparseJacobian(conv)
        else:
            diag = csr_from_diagonal(np.ones(dim))
            el = SparseJacobian(diag, rng.standard_normal((batch, dim)))
        items.append(policy.element(el))
    return items


@dataclass(frozen=True)
class BenchArtifact:
    """One benchmarkable artifact: a name plus its rows-producing step.

    ``rows_fn(scale, spec, sparse)`` executes the artifact's data step
    under executor spec ``spec`` (``None`` for backend-insensitive
    artifacts) and sparse dispatch mode ``sparse`` (``None`` when the
    sparse axis is off) and returns the structured rows.
    ``backend_sensitive`` marks artifacts whose wall-clock a scan
    backend can change; ``sparse_sensitive`` marks the ones the
    dense-vs-sparse dispatch flows through.  ``metrics_fn``, when
    set, summarizes the final timed run's rows into the record's
    ``metrics`` dict (e.g. the serving benchmark's latency
    percentiles).
    """

    name: str
    rows_fn: Callable[
        [Scale, Optional[str], Optional[str]], List[Dict[str, Any]]
    ]
    backend_sensitive: bool = False
    sparse_sensitive: bool = False
    metrics_fn: Optional[
        Callable[[List[Dict[str, Any]]], Dict[str, Any]]
    ] = None


def measurement_config(spec: Optional[str], sparse: Optional[str]) -> ScanConfig:
    """The declarative config of one (backend, sparse) measurement.

    Unset axes stay unset, so resolution falls through to the global
    defaults — :meth:`ScanConfig.resolve` of this value is exactly
    what the artifact's engines adopt, and its serialized form is what
    the measurement's :class:`~repro.bench.record.BenchRecord` embeds.
    """
    return ScanConfig(executor=spec, sparse=sparse)


def _experiment(module):
    def rows_fn(
        scale: Scale, spec: Optional[str], sparse: Optional[str]
    ) -> List[Dict[str, Any]]:
        return module.result_rows(
            module.run(scale, config=measurement_config(spec, sparse))
        )

    return rows_fn


#: ``parallel_backends`` input per scale, built once: generating it
#: costs more than the scan it feeds, so it stays out of the timed call.
_PARALLEL_BACKENDS_ITEMS: Dict[Scale, List[Any]] = {}


def _parallel_backends_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """One Blelloch scan over T dense H×H Jacobians on the given backend."""
    from repro.backend import get_executor
    from repro.scan import ScanContext, blelloch_scan

    cfg = measurement_config(spec, sparse).resolve()
    p = SCAN_PARAMS[scale]
    t, b, h = p["seq_len"], p["batch"], p["hidden"]
    items = _PARALLEL_BACKENDS_ITEMS.get(scale)
    if items is None:
        items = _PARALLEL_BACKENDS_ITEMS[scale] = make_scan_items(t, b, h)
    with get_executor(cfg.executor) as ex:
        out = blelloch_scan(items, ScanContext().op, executor=ex)
    return [
        {
            "seq_len": t,
            "batch": b,
            "hidden": h,
            "backend": cfg.executor,
            "positions": len(out),
        }
    ]


#: Steady-state cache for the sparse_scan artifact: (items, context)
#: per measurement cell, so repeated timed calls of one cell reuse the
#: SpGEMM plans, output patterns, and arena workspaces exactly like
#: consecutive training steps do.  Pair with ``--warmup 1`` (the
#: checked-in baseline does) so the first, cold call stays un-timed.
_SPARSE_SCAN_STATE: Dict[tuple, tuple] = {}


def _sparse_scan_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """One Blelloch scan over a CSR Jacobian chain on the given backend
    and dispatch mode — the dense-vs-sparse speedup microbenchmark.
    Measures the *steady-state* (per-training-step) cost: symbolic
    plans and scratch warmed by the first call are reused by repeats."""
    from repro.backend import get_executor
    from repro.scan import ScanContext, blelloch_scan

    cfg = measurement_config(spec, sparse).resolve()
    policy = cfg.sparse_policy()
    p = SPARSE_SCAN_PARAMS[scale]
    key = (scale, cfg.executor, cfg.sparse)
    state = _SPARSE_SCAN_STATE.get(key)
    if state is None:
        items = make_sparse_scan_items(
            p["stages"], p["batch"], p["channels"], p["hw"], sparse=policy
        )
        ctx = ScanContext(sparse=policy)
        _SPARSE_SCAN_STATE[key] = (items, ctx)
    else:
        items, ctx = state
        ctx.reset_trace()
    with get_executor(cfg.executor) as ex:
        out = blelloch_scan(items, ctx.op, executor=ex)
    return [
        {
            "stages": p["stages"],
            "batch": p["batch"],
            "dim": p["channels"] * p["hw"][0] * p["hw"][1],
            "backend": cfg.executor,
            "sparse": cfg.sparse,
            "total_flops": int(ctx.total_flops),
            "positions": len(out),
        }
    ]


#: ``pipeline_scan`` sizes per scale: one RNN workload pipelined across
#: every (stages, micro-batches, schedule) cell on the swept backend.
PIPELINE_SCAN_PARAMS = {
    Scale.SMOKE: {
        "seq_len": 24,
        "batch": 8,
        "input_size": 8,
        "hidden": 16,
        "classes": 4,
        "cells": [(1, 1), (2, 2), (2, 4), (4, 4)],
    },
    Scale.PAPER: {
        "seq_len": 128,
        "batch": 32,
        "input_size": 16,
        "hidden": 64,
        "classes": 10,
        "cells": [(1, 1), (2, 4), (4, 8), (8, 8)],
    },
}

#: Steady-state cache for ``pipeline_scan``: the classifier and input
#: batch per scale, so repeated timed calls measure the pipeline (not
#: model initialization).
_PIPELINE_SCAN_STATE: Dict[tuple, tuple] = {}


def _pipeline_scan_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """The staged-pipeline benchmark: a full scan-backprop pass of one
    RNN mini-batch through :class:`~repro.pipeline.StagedRNNBPPSA` for
    every (stages, micro-batches) cell under both schedules — the
    measured composition of the scan engine with pipeline parallelism
    (the pipeline plane)."""
    from repro.nn.rnn import RNNClassifier
    from repro.pipeline import SCHEDULES, StagedRNNBPPSA

    cfg = measurement_config(spec, sparse).resolve()
    p = PIPELINE_SCAN_PARAMS[scale]
    state = _PIPELINE_SCAN_STATE.get((scale,))
    if state is None:
        rng = np.random.default_rng(0)
        clf = RNNClassifier(
            p["input_size"], p["hidden"], p["classes"], rng=rng
        )
        x = rng.standard_normal((p["batch"], p["seq_len"], p["input_size"]))
        targets = rng.integers(0, p["classes"], size=p["batch"])
        _PIPELINE_SCAN_STATE[(scale,)] = (clf, x, targets)
    else:
        clf, x, targets = state
    stage_cfg = ScanConfig(
        algorithm="truncated",
        up_levels=cfg.up_levels,
        executor=cfg.executor,
        sparse=cfg.sparse,
    )
    rows: List[Dict[str, Any]] = []
    for stages, micro_batches in p["cells"]:
        for schedule in SCHEDULES:
            with StagedRNNBPPSA(
                clf,
                stages,
                micro_batches,
                schedule=schedule,
                configs=stage_cfg,
            ) as engine:
                engine.compute_gradients(x, targets)
                stats = engine.last_run_stats
            rows.append(
                {
                    "seq_len": p["seq_len"],
                    "batch": p["batch"],
                    "hidden": p["hidden"],
                    "stages": stages,
                    "micro_batches": micro_batches,
                    "schedule": schedule,
                    "backend": cfg.executor,
                    "measured_utilization": stats["measured_utilization"],
                    "scheduled_utilization": stats["scheduled_utilization"],
                    "peak_jacobian_bytes": max(stats["stage_jacobian_bytes"]),
                }
            )
    return rows


def _transformer_scan_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """The ``transformer_block`` workload (:mod:`repro.workloads`): one
    scan-backprop pass of an attention + LayerNorm + MLP chain — the
    mixed dense-per-sample / block-sparse SparsePolicy stress."""
    from repro.workloads import transformer_scan_rows

    return transformer_scan_rows(scale, spec, sparse)


def _pruned_sparsity_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """The ``pruned_mlp`` workload pipeline (:mod:`repro.workloads`):
    train → magnitude-prune → retrain (masks asserted every step) →
    dense-vs-CSR gradient-step timing per pruning fraction.  Sweeps
    its sparse contrast internally, so backend-sensitive only."""
    from repro.workloads import pruned_sparsity_rows

    return pruned_sparsity_rows(scale, spec, sparse)


def _pruned_sparsity_metrics(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    from repro.workloads import pruned_sparsity_metrics

    return pruned_sparsity_metrics(rows)


def _serve_throughput_rows(
    scale: Scale, spec: Optional[str], sparse: Optional[str]
) -> List[Dict[str, Any]]:
    """The serving-plane benchmark: N concurrent clients submitting a
    mixed-spec job stream to an :class:`~repro.serve.EngineServer` on
    the given backend (see :mod:`repro.serve.loadgen`)."""
    from repro.serve.loadgen import run_loadgen

    return run_loadgen(scale=scale, backend=spec or "serial")


def _serve_throughput_metrics(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    from repro.serve.loadgen import serve_metrics

    return serve_metrics(rows)


#: The paper artifacts whose run reaches a scan executor, with the
#: sweep axes each one is measured on: fig3 runs a measured staged
#: pipeline per cell, fig7 and fig9 train through a BPPSA engine.
_EXPERIMENT_AXES: Dict[str, Dict[str, bool]] = {
    "fig3_pipeline": {"backend_sensitive": True},
    "fig7_convergence": {"backend_sensitive": True, "sparse_sensitive": True},
    "fig9_rnn_curve": {"backend_sensitive": True},
}

#: Every benchmarkable artifact, in run order: the 13 paper artifacts
#: of :data:`repro.experiments.run_all.ARTIFACTS`, the
#: scan/serving/pipeline microbenchmarks, and the :mod:`repro.workloads`
#: registry sweeps.
ARTIFACTS: List[BenchArtifact] = [
    *(
        BenchArtifact(name, _experiment(module), **_EXPERIMENT_AXES.get(name, {}))
        for name, module in run_all.ARTIFACTS
    ),
    BenchArtifact(
        "parallel_backends", _parallel_backends_rows, backend_sensitive=True
    ),
    BenchArtifact(
        "sparse_scan",
        _sparse_scan_rows,
        backend_sensitive=True,
        sparse_sensitive=True,
    ),
    BenchArtifact(
        "serve_throughput",
        _serve_throughput_rows,
        backend_sensitive=True,
        metrics_fn=_serve_throughput_metrics,
    ),
    BenchArtifact(
        "pipeline_scan",
        _pipeline_scan_rows,
        backend_sensitive=True,
    ),
    BenchArtifact(
        "transformer_scan",
        _transformer_scan_rows,
        backend_sensitive=True,
        sparse_sensitive=True,
    ),
    BenchArtifact(
        "pruned_sparsity",
        _pruned_sparsity_rows,
        backend_sensitive=True,
        metrics_fn=_pruned_sparsity_metrics,
    ),
]

_BY_NAME: Dict[str, BenchArtifact] = {a.name: a for a in ARTIFACTS}


def artifact_names() -> List[str]:
    """All benchmarkable artifact names, in run order."""
    return [a.name for a in ARTIFACTS]


def backend_label(spec: Optional[str], sparse: Optional[str]) -> str:
    """The ``backend`` field recorded for one measurement.

    A plain executor spec (``"serial"``) without the sparse axis;
    ``"serial[sparse=on]"`` when a dispatch mode was swept.  Artifacts
    the axis never touches keep their shorter keys either way; swept
    artifacts change key shape with ``--sparse``, so a baseline must be
    regenerated with the same sweep flags it will be compared against.
    """
    base = spec if spec is not None else NO_BACKEND
    if sparse is not None:
        base = f"{base}[sparse={sparse}]"
    return base


def run_bench(
    scale: Scale = Scale.SMOKE,
    backends: Sequence[str] = ("serial",),
    artifacts: Optional[Iterable[str]] = None,
    *,
    warmup: int = 0,
    repeats: int = 1,
    sparse_modes: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchRecord]:
    """Sweep ``artifacts`` × ``backends`` (× ``sparse_modes``) into
    validated records.

    Parameters
    ----------
    scale
        Experiment size preset (``Scale.SMOKE`` for CI, ``Scale.PAPER``
        for final runs).
    backends
        Executor specs from the :mod:`repro.backend` registry
        (``"serial"``, ``"thread:2"``, …).  Backend-
        sensitive artifacts run once per spec; insensitive artifacts
        run once with backend recorded as ``"n/a"``.
    artifacts
        Artifact names to run (default: all of :data:`ARTIFACTS`).
    warmup, repeats
        Un-timed / timed executions per measurement (see
        :func:`repro.bench.timing.measure`).
    sparse_modes
        Dispatch modes (``"off"``, ``"on"``, ``"auto"``) to sweep on
        sparse-sensitive artifacts; ``None`` disables the axis (every
        artifact runs once, under the process default policy, with the
        plain backend key).
    progress
        Optional callback receiving one human-readable line per
        measurement as it completes.
    """
    if not backends:
        raise ValueError("at least one backend spec is required")
    if sparse_modes is not None and not sparse_modes:
        raise ValueError("sparse_modes must be None or a non-empty sequence")
    if artifacts is None:
        selected = list(ARTIFACTS)
    else:
        unknown = [n for n in artifacts if n not in _BY_NAME]
        if unknown:
            raise ValueError(
                f"unknown artifact(s) {unknown}; available: {artifact_names()}"
            )
        selected = [_BY_NAME[n] for n in artifacts]

    env = environment_fingerprint()
    records: List[BenchRecord] = []
    for artifact in selected:
        specs: List[Optional[str]] = (
            list(backends) if artifact.backend_sensitive else [None]
        )
        modes: List[Optional[str]] = (
            list(sparse_modes)
            if artifact.sparse_sensitive and sparse_modes is not None
            else [None]
        )
        for spec in specs:
            for mode in modes:
                rows, stats = measure(
                    lambda: artifact.rows_fn(scale, spec, mode),
                    warmup=warmup,
                    repeats=repeats,
                )
                # Every record states exactly which (resolved)
                # configuration produced it.
                cfg_dict = measurement_config(spec, mode).resolve().to_dict()
                record = BenchRecord(
                    artifact=artifact.name,
                    scale=scale.value,
                    backend=backend_label(spec, mode),
                    timing=stats,
                    environment=env,
                    num_rows=len(rows),
                    metrics=(
                        artifact.metrics_fn(rows)
                        if artifact.metrics_fn is not None
                        else {}
                    ),
                    config=cfg_dict,
                )
                records.append(record)
                if progress is not None:
                    progress(
                        f"{artifact.name} [{record.backend}] "
                        f"median {stats.median_s * 1e3:.1f} ms, "
                        f"{record.num_rows} rows"
                    )
    return records
