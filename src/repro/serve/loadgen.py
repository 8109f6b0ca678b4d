"""Serving-plane load generator and the ``serve_throughput`` benchmark.

Drives an in-process :class:`~repro.serve.server.EngineServer` with N
concurrent client coroutines submitting a deterministic mixed-spec job
stream — mostly mergeable dense Jacobian chains (so cross-request
batching has material to work with), interleaved with ``linear``
algorithm jobs (distinct engine, same backend) and sparse diagonal-CSR
chains under ``cache=shared`` (so the shared plan cache sees traffic)
— and measures per-job latency and aggregate throughput.

The output is per-job rows plus a summary row; :func:`serve_metrics`
distills them into the ``p50_ms`` / ``p99_ms`` / ``jobs_per_s`` /
``cache_hit_rate`` metrics that
:func:`repro.bench.record.validate_record` requires of a
``serve_throughput`` record.  ``serve_throughput`` is a
backend-sensitive artifact of :mod:`repro.bench.runner`; run it with::

    python -m repro.bench --artifacts serve_throughput --backends serial,thread:2
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import Scale
from repro.serve.server import EngineServer

#: Load shape per scale: workload sizes, client count, and the
#: server's admission policy.  Smoke is sized for single-digit seconds
#: on one CPU (CI); paper stresses batching harder.
SERVE_LOAD_PARAMS: Dict[Scale, Dict[str, Any]] = {
    Scale.SMOKE: {
        "seq_len": 12,
        "hidden": 16,
        "batch": 2,
        "clients": 8,
        "jobs_per_client": 4,
        "max_batch": 8,
        "max_wait_ms": 2.0,
        "worker_threads": 2,
    },
    Scale.PAPER: {
        "seq_len": 48,
        "hidden": 32,
        "batch": 4,
        "clients": 16,
        "jobs_per_client": 8,
        "max_batch": 16,
        "max_wait_ms": 4.0,
        "worker_threads": 4,
    },
}

#: Metric fields every ``serve_throughput`` record must carry.
SERVE_METRIC_FIELDS = ("p50_ms", "p99_ms", "jobs_per_s", "cache_hit_rate")


def make_job(
    client: int,
    index: int,
    *,
    backend: str,
    seq_len: int,
    hidden: int,
    batch: int,
    kernel: Optional[str] = None,
) -> Tuple[str, List[Any]]:
    """One deterministic ``(spec, items)`` job of the mixed stream.

    Three of every four jobs are mergeable dense chains on the default
    Blelloch spec; the rest alternate a ``linear``-algorithm dense job
    (same backend, different engine) and a sparse diagonal-CSR chain
    (exercising the shared plan cache; never merged).
    """
    from repro.scan import DenseJacobian, GradientVector, SparseJacobian
    from repro.sparse import csr_from_diagonal

    rng = np.random.default_rng((client + 1) * 10_000 + index)
    kern = f"/kernel={kernel}" if kernel else ""
    flavor = (client + index) % 4
    if flavor == 3:
        spec = f"blelloch/{backend}/sparse=on/cache=shared{kern}"
        dim = hidden
        diag = csr_from_diagonal(np.ones(dim))
        items: List[Any] = [GradientVector(rng.standard_normal((batch, dim)))]
        items += [
            SparseJacobian(diag, rng.standard_normal((batch, dim)))
            for _ in range(seq_len // 2)
        ]
        return spec, items
    algorithm = "linear" if flavor == 2 else "blelloch"
    spec = f"{algorithm}/{backend}/cache=shared{kern}"
    items = [GradientVector(rng.standard_normal((batch, hidden)))]
    items += [
        DenseJacobian(rng.standard_normal((batch, hidden, hidden)))
        for _ in range(seq_len)
    ]
    return spec, items


async def run_load(
    server: EngineServer,
    *,
    backend: str,
    seq_len: int,
    hidden: int,
    batch: int,
    clients: int,
    jobs_per_client: int,
    kernel: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run the client fleet; returns one per-job latency row each."""
    rows: List[Dict[str, Any]] = []

    async def client(c: int) -> None:
        """One client coroutine: submit its job stream, record latencies."""
        for j in range(jobs_per_client):
            spec, items = make_job(
                c,
                j,
                backend=backend,
                seq_len=seq_len,
                hidden=hidden,
                batch=batch,
                kernel=kernel,
            )
            t0 = time.perf_counter()
            scanned = await server.submit(spec, items)
            latency = time.perf_counter() - t0
            rows.append(
                {
                    "client": c,
                    "job": j,
                    "spec": spec,
                    "positions": len(scanned),
                    "latency_ms": latency * 1e3,
                }
            )

    await asyncio.gather(*(client(c) for c in range(clients)))
    rows.sort(key=lambda r: (r["client"], r["job"]))
    return rows


def run_loadgen(
    scale: Scale = Scale.SMOKE,
    backend: str = "serial",
    kernel: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """One full load-generation run: per-job rows + a summary row.

    The summary row (``{"summary": True, ...}``) carries the artifact's
    metrics — latency percentiles, throughput, and the shared plan
    cache's hit rate over exactly this run (computed from counter
    deltas, so earlier traffic in the process does not pollute it).
    """
    from repro.config import shared_pattern_cache

    params = SERVE_LOAD_PARAMS[scale]
    cache_before = shared_pattern_cache().stats()

    async def _run() -> List[Dict[str, Any]]:
        async with EngineServer(
            max_batch=params["max_batch"],
            max_wait_ms=params["max_wait_ms"],
            worker_threads=params["worker_threads"],
        ) as server:
            t0 = time.perf_counter()
            rows = await run_load(
                server,
                backend=backend,
                seq_len=params["seq_len"],
                hidden=params["hidden"],
                batch=params["batch"],
                clients=params["clients"],
                jobs_per_client=params["jobs_per_client"],
                kernel=kernel,
            )
            wall_s = time.perf_counter() - t0
            stats = server.stats()
        jobs = stats["jobs"]
        expected = params["clients"] * params["jobs_per_client"]
        if jobs["completed"] != expected or jobs["failed"] or jobs["pending"]:
            raise RuntimeError(
                f"loadgen accounting drift: expected {expected} completed "
                f"jobs, server says {jobs}"
            )
        cache_after = shared_pattern_cache().stats()
        lookups = (cache_after["hits"] - cache_before["hits"]) + (
            cache_after["misses"] - cache_before["misses"]
        )
        hit_rate = (
            (cache_after["hits"] - cache_before["hits"]) / lookups
            if lookups
            else 0.0
        )
        latencies = [r["latency_ms"] for r in rows]
        rows.append(
            {
                "summary": True,
                "backend": backend,
                "jobs": expected,
                "wall_s": wall_s,
                "p50_ms": float(np.percentile(latencies, 50)),
                "p99_ms": float(np.percentile(latencies, 99)),
                "jobs_per_s": expected / wall_s if wall_s > 0 else 0.0,
                "cache_hit_rate": float(hit_rate),
                "windows": stats["batching"]["windows"],
                "groups": stats["batching"]["groups"],
                "merged_jobs": stats["batching"]["merged_jobs"],
                "engines": stats["engines"]["active"],
            }
        )
        return rows

    return asyncio.run(_run())


def serve_metrics(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Extract the ``serve_throughput`` metrics from loadgen rows."""
    summary = next((r for r in rows if r.get("summary")), None)
    if summary is None:
        raise ValueError("loadgen rows carry no summary row")
    metrics = {name: float(summary[name]) for name in SERVE_METRIC_FIELDS}
    metrics["merged_jobs"] = int(summary["merged_jobs"])
    metrics["admission_windows"] = int(summary["windows"])
    metrics["engines"] = int(summary["engines"])
    return metrics

