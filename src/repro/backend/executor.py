"""The :class:`ScanExecutor` protocol and the in-process executors.

A scan algorithm (``repro.scan.algorithms``) reduces to a sequence of
*levels*; the ⊙ applications inside one level touch disjoint array
slots and are therefore mutually independent.  Executors exploit
exactly that freedom and nothing more: the algorithm hands each level
to :meth:`ScanExecutor.run_level` as a list of :class:`LevelTask` and
writes the results back itself.  Because every task still performs one
⊙ call with the same operands in the same per-op association order as
the serial loop, **all executors produce bitwise-identical results** —
only inter-task scheduling varies.

Executors own their worker resources (threads / processes) and follow
a uniform lifecycle: construct, use across any number of scans, then
``close()`` (or use as a context manager).  String-keyed construction
lives in :mod:`repro.backend.registry`.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence


@dataclass
class LevelTask:
    """One ⊙ application: ``op(a, b, info)``.

    ``a`` and ``b`` are scan elements (or arbitrary operands for
    generic/symbolic scans); ``info`` is the
    :class:`~repro.scan.elements.OpInfo` placing the op in the
    schedule.  Kept as a structured record — not a closure — so that
    executors can introspect operands (the process-pool executor
    offloads only large dense products and runs everything else
    inline).
    """

    op: Callable[[Any, Any, Any], Any]
    a: Any
    b: Any
    info: Any

    def run(self) -> Any:
        return self.op(self.a, self.b, self.info)


class ScanExecutor(abc.ABC):
    """Executes the independent ⊙ tasks of one scan level.

    Implementations must return results positionally aligned with
    ``tasks`` and must not reorder or merge ⊙ applications — per-op
    association order is what makes every backend bitwise-equal to the
    serial baseline.
    """

    #: registry key of the backend (e.g. ``"thread"``); set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def run_level(self, tasks: Sequence[LevelTask]) -> List[Any]:
        """Run one level's tasks, returning their results in order."""

    @property
    def workers(self) -> int:
        """Degree of parallelism (1 for the serial executor)."""
        return 1

    def close(self) -> None:
        """Release worker resources; the executor is unusable after."""

    def __enter__(self) -> "ScanExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class ExecutorOwner:
    """Mixin for objects that hold a scan executor (the BPPSA engines).

    Implements the ownership protocol in one place: an owner *owns*
    (and will close) only executors it constructed from a spec
    *string*; caller-provided instances and the ``None`` default stay
    the caller's/process's to manage.  Replacing the backend via
    :meth:`set_executor` disposes a previously owned pool first.
    """

    executor: Optional["ScanExecutor"] = None
    _owns_executor: bool = False

    def set_executor(self, executor) -> None:
        """Replace the scan backend, closing any previously owned one."""
        from repro.backend.registry import get_executor  # circular-safe

        if self._owns_executor and self.executor is not None:
            self.executor.close()
        self._owns_executor = isinstance(executor, str)
        self.executor = get_executor(executor) if executor is not None else None

    def close(self) -> None:
        """Release owned executor workers (no-op for serial/None or a
        caller-provided instance)."""
        if self._owns_executor and self.executor is not None:
            self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ScanExecutor):
    """Run every task inline on the calling thread.

    The zero-overhead default: identical behaviour to the original
    hand-rolled scan loops, and the reference the other backends are
    tested against.
    """

    name = "serial"

    def run_level(self, tasks: Sequence[LevelTask]) -> List[Any]:
        return [t.run() for t in tasks]


class ThreadPoolScanExecutor(ScanExecutor):
    """Dispatch each level to a thread pool.

    NumPy's BLAS kernels release the GIL, so levels of large matrix
    products genuinely overlap.  On small matrices (or with an already
    multi-threaded BLAS) dispatch overhead dominates and the serial
    executor wins; the ``parallel_backends`` bench artifact reports
    both honestly.  Either way this is the executable proof that the
    level structure the PRAM simulator schedules really is
    dependency-free.

    Parameters
    ----------
    num_workers:
        Thread-pool size, i.e. the machine's ``p``.  ``1`` degenerates
        to serial execution (useful as a control in benchmarks).
    """

    name = "thread"

    def __init__(self, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=num_workers) if num_workers > 1 else None
        )

    @property
    def workers(self) -> int:
        return self.num_workers

    def run_level(self, tasks: Sequence[LevelTask]) -> List[Any]:
        if self._pool is None or len(tasks) == 1:
            return [t.run() for t in tasks]
        return list(self._pool.map(LevelTask.run, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
