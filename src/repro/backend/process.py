"""Process-pool scan executor with shared-memory ndarray transport.

Threads only help while BLAS holds the GIL released; everything else —
CSR SpGEMM in pure NumPy indexing, element bookkeeping, small-matrix
products — serializes on it.  This executor side-steps the GIL by
running a level's ⊙ products in **worker processes**, moving the dense
operands through :mod:`multiprocessing.shared_memory` so a large
Jacobian crosses the process boundary as one memcpy instead of a
pickle round-trip.

The offload is deliberately narrow.  A task is shipped to a worker
only when the op is a :class:`~repro.scan.elements.ScanContext` ⊙ (so
the parent knows the product semantics ``a ⊙ b = b·a`` and can keep
the FLOP trace) and the task is one of

* a **dense × dense** product (both operands
  :class:`~repro.scan.elements.DenseJacobian` — the matrix–matrix
  products that dominate the up-sweep's top levels, paper
  Section 5.2's cost argument) whose per-sample ``m·n·k`` volume
  clears ``min_offload_mnk``;
* a **sparse × sparse** product (both operands
  :class:`~repro.scan.elements.SparseJacobian`) whose expanded-product
  count, times the batch, clears the same bound.  The SpGEMM
  *symbolic* phase always runs in the parent — against (and
  populating) the parent's plan cache — and only the numeric phase
  ships: the plan's gather/scatter index arrays and both operands'
  CSR value matrices cross as shared-memory segments, and the worker
  runs :func:`repro.sparse.spgemm_numeric`, the function the inline
  path runs.

Everything else (mat–vec seeds, small products, symbolic/string
scans, and every sparse op under ``REPRO_SCAN_SPARSE=off``) runs
inline in the parent.  Dense workers compute exactly
``np.matmul(b, a)`` — the same call the in-process dense path makes —
so both offload kinds are bitwise-identical to the serial executor.
Offloaded products are accounted in the parent via
:meth:`~repro.scan.elements.ScanContext.record_dense_matmat` /
:meth:`~repro.scan.elements.ScanContext.complete_sparse_matmat`;
within a level, offloaded records land after inline ones (ops of one
level are unordered by construction, so the DAG grouping is
unaffected).

If the platform cannot spawn workers or allocate shared memory (e.g.
a locked-down sandbox), the executor degrades permanently to inline
execution rather than failing the scan.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.backend.executor import LevelTask, ScanExecutor
from repro.scan.elements import DenseJacobian, ScanContext, SparseJacobian
from repro.sparse import spgemm_numeric


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one parent-owned segment, swallowing errors.

    ``close`` and ``unlink`` are attempted independently: a failed
    ``close`` (already closed, interpreter shutdown) must not skip the
    ``unlink`` that actually frees the backing memory — the parent is
    the single unlink point, so a skipped unlink is a leak for the
    lifetime of the process (and of ``/dev/shm`` on an abrupt death).
    """
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.

    Workers are forked *after* the parent starts its resource tracker
    (see ``_ensure_pool``), so they inherit the same tracker process:
    the attach's re-registration is an idempotent set-add there, and
    the parent's ``unlink`` remains the single cleanup point.
    """
    return shared_memory.SharedMemory(name=name)


def _matmat_worker(
    b_name: str,
    b_shape: Tuple[int, ...],
    a_name: str,
    a_shape: Tuple[int, ...],
    out_name: str,
    out_shape: Tuple[int, ...],
    dtype: str,
) -> bool:
    """Compute ``out = b @ a`` between shared-memory segments."""
    shms = []
    try:
        b_shm = _attach(b_name)
        shms.append(b_shm)
        a_shm = _attach(a_name)
        shms.append(a_shm)
        out_shm = _attach(out_name)
        shms.append(out_shm)
        b = np.ndarray(b_shape, dtype=dtype, buffer=b_shm.buf)
        a = np.ndarray(a_shape, dtype=dtype, buffer=a_shm.buf)
        out = np.ndarray(out_shape, dtype=dtype, buffer=out_shm.buf)
        # Same call as ScanContext's dense path, then one copy out —
        # never matmul(..., out=...), whose kernel choice could differ.
        out[...] = np.matmul(b, a)
        return True
    finally:
        for shm in shms:
            shm.close()


def _spgemm_worker(
    data_p_name: str,
    data_p_shape: Tuple[int, ...],
    data_q_name: str,
    data_q_shape: Tuple[int, ...],
    src_a_name: str,
    src_b_name: str,
    scatter_name: str,
    n_expanded: int,
    out_name: str,
    out_shape: Tuple[int, ...],
) -> bool:
    """Run one SpGEMM numeric phase between shared-memory segments.

    ``data_p``/``data_q`` are the (B, nnz) CSR value matrices of the
    plan's left/right operands (for ``a ⊙ b = b·a`` that is
    ``b.values()`` / ``a.values()``); the index arrays are the plan's
    gather/scatter maps (int64 by construction).  Writes the
    ``(B, out_nnz)`` product values into ``out`` with the function the
    parent's inline path runs, so offloaded and inline execution stay
    in lockstep.
    """
    shms = []
    try:
        arrays = []
        for name, shape, dtype in (
            (data_p_name, data_p_shape, np.float64),
            (data_q_name, data_q_shape, np.float64),
            (src_a_name, (n_expanded,), np.int64),
            (src_b_name, (n_expanded,), np.int64),
            (scatter_name, (n_expanded,), np.int64),
            (out_name, out_shape, np.float64),
        ):
            shm = _attach(name)
            shms.append(shm)
            arrays.append(np.ndarray(shape, dtype=dtype, buffer=shm.buf))
        data_p, data_q, src_a, src_b, scatter, out = arrays
        spgemm_numeric(
            src_a, src_b, scatter, out_shape[-1], data_p, data_q, out=out
        )
        return True
    finally:
        for shm in shms:
            shm.close()


class ProcessPoolScanExecutor(ScanExecutor):
    """Run large dense and sparse ⊙ products of each level in workers.

    Parameters
    ----------
    num_workers:
        Process-pool size.  The pool is created lazily on the first
        level that actually offloads, so constructing the executor is
        cheap.
    min_offload_mnk:
        Minimum work volume of a product for it to be worth shipping
        to a worker: per-sample ``m·n·k`` for dense products, expanded
        partial products × batch for SpGEMM; smaller products run
        inline.
    """

    name = "process"

    def __init__(self, num_workers: int = 2, min_offload_mnk: int = 4096) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.min_offload_mnk = min_offload_mnk
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = False
        self._close_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self.num_workers

    # ------------------------------------------------------------------
    def _offloadable(self, task: LevelTask) -> bool:
        if not (
            isinstance(task.a, DenseJacobian) and isinstance(task.b, DenseJacobian)
        ):
            return False
        if not isinstance(getattr(task.op, "__self__", None), ScanContext):
            return False
        if task.a.data.dtype != np.float64 or task.b.data.dtype != np.float64:
            return False
        m, k = task.b.shape
        n = task.a.shape[1]
        return m * k * n >= self.min_offload_mnk

    def _sparse_offload_plan(self, task: LevelTask):
        """The task's SpGEMM plan when its numeric phase should offload.

        Returns ``None`` for anything that is not a large enough
        sparse × sparse ⊙ of a :class:`ScanContext` whose policy keeps
        sparse operands sparse.  The plan lookup itself runs in the
        parent's cache — in a training loop it is a cache hit, so
        classification stays cheap.
        """
        if not (
            isinstance(task.a, SparseJacobian) and isinstance(task.b, SparseJacobian)
        ):
            return None
        ctx = getattr(task.op, "__self__", None)
        if not isinstance(ctx, ScanContext):
            return None
        if ctx.sparse_policy.mode == "off":
            return None  # inline path densifies; there is no SpGEMM to ship
        plan = ctx.sparse_offload_plan(task.a, task.b)
        batch = max(task.b.values().shape[0], task.a.values().shape[0])
        # plan.flops/2 expanded multiplies ≈ the sparse analogue of m·k·n.
        if (plan.flops // 2) * batch < self.min_offload_mnk:
            return None
        return plan

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Under the close lock: concurrent run_level calls (a serving
        # layer drives one executor from several worker threads) must
        # not each fork a pool and leak all but one.
        with self._close_lock:
            if self._pool is None:
                # Start the shm resource tracker before forking so workers
                # inherit it; their attach-registrations then land in the
                # parent's tracker (a set — idempotent) instead of spawning
                # per-child trackers that would fight over unlinking.
                resource_tracker.ensure_running()
                try:
                    ctx = mp.get_context("fork")
                except ValueError:  # platform without fork
                    ctx = mp.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers, mp_context=ctx
                )
            return self._pool

    @staticmethod
    def _share(arr: np.ndarray) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        try:
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
        except BaseException:
            # The segment was created but its name never reached the
            # caller's cleanup list — unlink here or it leaks until the
            # resource tracker reaps it at interpreter exit.
            _destroy_segment(shm)
            raise
        return shm

    # ------------------------------------------------------------------
    def _submit_dense(self, pool, segments, t: LevelTask):
        b_arr, a_arr = t.b.data, t.a.data
        out_shape = np.broadcast_shapes(b_arr.shape[:-2], a_arr.shape[:-2]) + (
            b_arr.shape[-2],
            a_arr.shape[-1],
        )
        shm_b = self._share(b_arr)
        segments.append(shm_b)
        shm_a = self._share(a_arr)
        segments.append(shm_a)
        out_nbytes = int(np.prod(out_shape)) * b_arr.dtype.itemsize
        shm_out = shared_memory.SharedMemory(create=True, size=max(out_nbytes, 1))
        segments.append(shm_out)
        fut = pool.submit(
            _matmat_worker,
            shm_b.name,
            b_arr.shape,
            shm_a.name,
            a_arr.shape,
            shm_out.name,
            out_shape,
            str(b_arr.dtype),
        )
        return fut, shm_out, out_shape

    def _submit_sparse(self, pool, segments, t: LevelTask, plan):
        # a ⊙ b = b·a: the plan was built as plan_for(b.pattern,
        # a.pattern), so the plan's left values are b's and its right
        # values are a's — same order as the inline execute_batched call.
        data_p, data_q = t.b.values(), t.a.values()
        shms = []
        for arr in (data_p, data_q, plan.src_a, plan.src_b, plan.scatter):
            shm = self._share(np.ascontiguousarray(arr))
            segments.append(shm)
            shms.append(shm)
        batch = max(data_p.shape[0], data_q.shape[0])
        out_shape = (batch, plan.out_nnz)
        out_nbytes = int(np.prod(out_shape)) * 8  # float64
        shm_out = shared_memory.SharedMemory(create=True, size=max(out_nbytes, 1))
        segments.append(shm_out)
        fut = pool.submit(
            _spgemm_worker,
            shms[0].name,
            data_p.shape,
            shms[1].name,
            data_q.shape,
            shms[2].name,
            shms[3].name,
            shms[4].name,
            len(plan.src_a),
            shm_out.name,
            out_shape,
        )
        return fut, shm_out, out_shape

    def run_level(self, tasks: List[LevelTask]) -> List[Any]:
        if self._broken or len(tasks) == 1:
            return [t.run() for t in tasks]
        # i → None for a dense offload, or the SpGEMM plan for a sparse one.
        offload: dict = {}
        for i, t in enumerate(tasks):
            if self._offloadable(t):
                offload[i] = None
            else:
                plan = self._sparse_offload_plan(t)
                if plan is not None:
                    offload[i] = plan
        if len(offload) < 2:  # one offloaded op just makes the parent wait
            return [t.run() for t in tasks]
        try:
            pool = self._ensure_pool()
        except Exception:
            self._broken = True
            return [t.run() for t in tasks]

        results: List[Any] = [None] * len(tasks)
        segments: List[shared_memory.SharedMemory] = []
        futures = []
        try:
            for i in sorted(offload):
                t = tasks[i]
                plan = offload[i]
                if plan is None:
                    fut, shm_out, out_shape = self._submit_dense(pool, segments, t)
                else:
                    fut, shm_out, out_shape = self._submit_sparse(
                        pool, segments, t, plan
                    )
                futures.append((i, fut, shm_out, out_shape, plan))

            # Small/mat-vec tasks run inline while workers chug.
            for i, t in enumerate(tasks):
                if i not in offload:
                    results[i] = t.run()

            for i, fut, shm_out, out_shape, plan in futures:
                fut.result()
                out = np.array(
                    np.ndarray(out_shape, dtype=np.float64, buffer=shm_out.buf)
                )
                t = tasks[i]
                ctx = t.op.__self__
                if plan is None:
                    result = DenseJacobian(out)
                    ctx.record_dense_matmat(t.a, t.b, t.info)
                else:
                    result = ctx.complete_sparse_matmat(t.a, t.b, t.info, plan, out)
                results[i] = result
        except Exception as exc:
            # Something in the offload path failed.  Recompute only the
            # tasks that never produced a result (completed ones already
            # recorded their FLOPs; re-running them would double-count
            # the trace).  If the inline re-run raises too, the ⊙
            # itself is at fault (e.g. a shape mismatch): propagate and
            # leave the pool usable.  If it succeeds, the worker/IPC
            # machinery is what broke — warn and degrade permanently.
            for i, t in enumerate(tasks):
                if results[i] is None:
                    results[i] = t.run()
            self._broken = True
            self.close()
            warnings.warn(
                "process scan backend disabled after worker/IPC failure "
                f"({exc!r}); continuing with inline execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return results
        finally:
            # Runs on success, on the degrade branch, and on a
            # propagating ⊙ error alike: every segment this level
            # created is closed *and* unlinked exactly once.
            for shm in segments:
                _destroy_segment(shm)
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down.  Idempotent and thread-safe: a
        server retiring an engine may race a scan's failure-path
        ``close()``, and both may run after the pool already broke —
        every combination releases the pool exactly once and returns
        quietly."""
        with self._close_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                # A pool whose workers already died can raise on
                # shutdown; the reference is dropped either way.
                pass
