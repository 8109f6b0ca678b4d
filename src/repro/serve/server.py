"""The asyncio gradient server: spec-addressed scans with batching.

:class:`EngineServer` turns the scan framework into a long-lived
service.  A client submits one *job* — a scan item list (gradient seed
plus transposed Jacobians) together with a
:class:`~repro.config.ScanConfig` spec string naming how to run it —
and awaits the scanned prefix products.  Three serving concerns live
here:

**Admission-time resolution.**  The spec is resolved to a concrete
:class:`ScanConfig` inside :meth:`submit`, so a malformed spec fails
the submitting client at once.  Resolution reads only the spec, so a
job runs exactly the configuration its client named, whichever
thread executes it.  The resolved config — not the spec string —
travels with the job from then on and keys its pooled engine.

**Cross-request batching.**  The dispatcher collects jobs for up to
``max_wait_ms`` (or until ``max_batch`` arrive) and groups them by
(resolved config, merge key).  Jobs whose items are a
:class:`GradientVector` seed followed by per-sample batched
:class:`DenseJacobian` chains with identical per-position shapes are
*mergeable*: their arrays are concatenated along the batch axis and
run as **one** scan, then split back per job.  Batched dense ⊙ is
vectorized element-wise over the batch axis, so merged results are
bitwise-identical to running each job alone — the repo's gradient
invariant survives batching (the stress test proves it).  Everything
else (sparse chains, shared 2-D Jacobians, odd shapes) runs unmerged.

**Observability.**  :meth:`stats` reports job counters, batching
efficacy, per-spec engine usage from the :class:`EnginePool`, and the
process-wide shared plan cache's hit/miss/eviction counters.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ScanConfig, shared_pattern_cache
from repro.scan import IDENTITY, DenseJacobian, GradientVector
from repro.scan.elements import DENSE, ELEMENT_KINDS
from repro.serve.pool import EnginePool

_SENTINEL = object()


def merge_key(items: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
    """The shape signature under which a job can share a scan.

    Mergeable jobs are a :class:`GradientVector` seed followed only by
    per-sample (3-D) :class:`DenseJacobian` items whose batch axis
    matches the seed's; the key captures the seed width and every
    position's Jacobian shape.  Returns ``None`` for everything else —
    those jobs always run alone.
    """
    if not items or not isinstance(items[0], GradientVector):
        return None
    seed = items[0]
    if any(item.kind != DENSE or item.batch != seed.batch for item in items[1:]):
        return None
    return (seed.dim, tuple(item.shape for item in items[1:]))


def merge_jobs(item_lists: Sequence[Sequence[Any]]) -> List[Any]:
    """Concatenate same-key jobs along the batch axis into one scan."""
    positions = len(item_lists[0])
    merged: List[Any] = [
        GradientVector(
            np.concatenate([items[0].data for items in item_lists], axis=0)
        )
    ]
    for p in range(1, positions):
        merged.append(
            DenseJacobian(
                np.concatenate([items[p].data for items in item_lists], axis=0)
            )
        )
    return merged


def split_scanned(
    scanned: Sequence[Any], batch_sizes: Sequence[int]
) -> List[List[Any]]:
    """Undo :func:`merge_jobs` on the scan output.

    An exclusive scan seeded with a gradient vector yields
    ``[I, g_1, ..., g_T]``; every non-identity output is a
    :class:`GradientVector` whose batch axis is the jobs' concatenated
    batches, slicing back in submission order.
    """
    outputs: List[List[Any]] = [[IDENTITY] for _ in batch_sizes]
    for element in scanned[1:]:
        data = element.data
        start = 0
        for i, size in enumerate(batch_sizes):
            outputs[i].append(GradientVector(data[start : start + size].copy()))
            start += size
    return outputs


@dataclass
class _Job:
    config: ScanConfig
    items: Sequence[Any]
    key: Tuple[Any, ...]
    future: "asyncio.Future[List[Any]]" = field(repr=False)


class EngineServer:
    """Async front end over an :class:`EnginePool` with request batching.

    Parameters
    ----------
    max_batch:
        Most jobs one admission window may carry (mergeable or not).
    max_wait_ms:
        How long the dispatcher holds an admission window open after
        the first job arrives, trading latency for merge opportunity.
        ``0`` batches only what is already queued.
    worker_threads:
        Size of the internal pool executing scans off the event loop.
    max_pending:
        Queue-depth admission bound; beyond it :meth:`submit` raises
        and the job counts as ``rejected``.  ``None`` = unbounded.
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        worker_threads: int = 4,
        max_pending: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_pending = max_pending
        self.pool = EnginePool()
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._workers = ThreadPoolExecutor(
            max_workers=worker_threads, thread_name_prefix="repro-serve"
        )
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._group_tasks: set = set()
        self._solo_keys = itertools.count()
        self._closed = False
        # Job counters live on the event-loop thread except for
        # ``rejected`` bumps racing stats() readers — a single lock
        # keeps stats() consistent from any thread.
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._windows = 0
        self._groups = 0
        self._merged_jobs = 0
        self._solo_jobs = 0

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    async def submit(self, spec: Any, items: Sequence[Any]) -> List[Any]:
        """Run one scan job; returns the exclusive-scan output list.

        ``spec`` is anything :meth:`ScanConfig.coerce` accepts (spec
        string, config, mapping, ``None``); it is resolved **here**, so
        a malformed spec raises in the caller, and execution threads
        see only the frozen result.  Unset fields take the global
        defaults.
        """
        if self._closed:
            raise RuntimeError("EngineServer is stopped")
        items = list(items)
        if not items:
            raise ValueError("a scan job needs at least one item")
        for item in items:
            if getattr(item, "kind", None) not in ELEMENT_KINDS:
                raise TypeError(
                    f"scan items must be scan elements (kinds "
                    f"{sorted(ELEMENT_KINDS)}), got {type(item).__name__}"
                )
        config = ScanConfig.coerce(spec).resolve()
        if (
            self.max_pending is not None
            and self._queue.qsize() >= self.max_pending
        ):
            with self._stats_lock:
                self._rejected += 1
            raise RuntimeError(
                f"EngineServer overloaded: {self._queue.qsize()} jobs pending "
                f"(max_pending={self.max_pending})"
            )
        key = merge_key(items)
        if key is None:
            key = ("solo", next(self._solo_keys))
        else:
            key = ("merge",) + key
        loop = asyncio.get_running_loop()
        if self._dispatcher is None:
            self._dispatcher = loop.create_task(self._dispatch_loop())
        job = _Job(config=config, items=items, key=key, future=loop.create_future())
        with self._stats_lock:
            self._submitted += 1
        await self._queue.put(job)
        return await job.future

    async def stop(self) -> None:
        """Drain queued jobs, finish in-flight scans, release engines.

        Idempotent; after it returns :meth:`submit` raises.
        """
        already_closed = self._closed
        self._closed = True
        if self._dispatcher is not None:
            await self._queue.put(_SENTINEL)
            await self._dispatcher
            self._dispatcher = None
        elif already_closed:
            return
        # The dispatcher has exited, so no new group tasks can appear —
        # one snapshot covers every in-flight scan.
        tasks = list(self._group_tasks)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._workers.shutdown(wait=True)
        self.pool.close()

    async def __aenter__(self) -> "EngineServer":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _SENTINEL:
                break
            batch = [first]
            deadline = loop.time() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch:
                try:
                    job = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        job = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if job is _SENTINEL:
                    stopping = True
                    break
                batch.append(job)
            self._dispatch_window(loop, batch)

    def _dispatch_window(
        self, loop: asyncio.AbstractEventLoop, batch: List[_Job]
    ) -> None:
        groups: Dict[Tuple[Any, ...], List[_Job]] = {}
        for job in batch:
            groups.setdefault((job.config, job.key), []).append(job)
        with self._stats_lock:
            self._windows += 1
            self._groups += len(groups)
            for jobs in groups.values():
                if len(jobs) > 1:
                    self._merged_jobs += len(jobs)
                else:
                    self._solo_jobs += 1
        for (config, _key), jobs in groups.items():
            task = loop.create_task(self._run_group(config, jobs))
            self._group_tasks.add(task)
            task.add_done_callback(self._group_tasks.discard)

    async def _run_group(self, config: ScanConfig, jobs: List[_Job]) -> None:
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._workers, self._execute_group, config, jobs
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to clients
            with self._stats_lock:
                self._failed += len(jobs)
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(exc)
            return
        with self._stats_lock:
            self._completed += len(jobs)
        for job, result in zip(jobs, results):
            if not job.future.done():
                job.future.set_result(result)

    def _execute_group(
        self, config: ScanConfig, jobs: List[_Job]
    ) -> List[List[Any]]:
        engine = self.pool.get(config)
        if len(jobs) == 1:
            return [engine.run_scan(jobs[0].items, jobs=1)]
        merged = merge_jobs([job.items for job in jobs])
        scanned = engine.run_scan(merged, jobs=len(jobs))
        return split_scanned(scanned, [job.items[0].batch for job in jobs])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Job, batching, engine-pool, and shared-cache counters."""
        with self._stats_lock:
            submitted = self._submitted
            completed = self._completed
            failed = self._failed
            rejected = self._rejected
            jobs = {
                "submitted": submitted,
                "completed": completed,
                "failed": failed,
                "rejected": rejected,
                "pending": submitted - completed - failed,
            }
            batching = {
                "windows": self._windows,
                "groups": self._groups,
                "merged_jobs": self._merged_jobs,
                "solo_jobs": self._solo_jobs,
            }
        return {
            "jobs": jobs,
            "batching": batching,
            "engines": self.pool.stats(),
            "shared_plan_cache": shared_pattern_cache().stats(),
        }
