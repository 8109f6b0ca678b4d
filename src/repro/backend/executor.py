"""The :class:`ScanExecutor` protocol and the built-in executors.

A scan algorithm (``repro.scan.algorithms``) reduces to a sequence of
*levels*; the ⊙ applications inside one level touch disjoint array
slots and are therefore mutually independent.  Executors exploit
exactly that freedom and nothing more: the algorithm hands each level
to :meth:`ScanExecutor.run_level` as a list of :class:`LevelTask` and
writes the results back itself.  A task holds the only reference to the
value its result replaces, so the executor decides how long that value
lives; the serial executor frees it as soon as the task has run.
Because every task still performs one ⊙ call with the same operands in
the same per-op association order as the serial loop, **all executors
produce bitwise-identical results** — only inter-task scheduling
varies.

Executors own their worker threads and follow a uniform lifecycle:
construct, use across any number of scans, then ``close()`` (or use as
a context manager).  Construction from a spec string lives in
:mod:`repro.backend.registry`.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, NamedTuple, Optional


class LevelTask(NamedTuple):
    """One ⊙ application: ``op(a, b, info)``.

    ``a`` and ``b`` are scan elements (or arbitrary operands for
    generic/symbolic scans); ``info`` is the
    :class:`~repro.scan.elements.OpInfo` placing the op in the
    schedule.  Kept as a structured record — not a closure — so that
    the sweeps can hand a task the only reference to a dead operand
    (the executor frees it once the ⊙ has run) and callers can read
    the schedule position (``tasks[0].info.phase``).  A tuple: cheap
    to build once per ⊙, and immutable.
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

    #: spec name of the backend (e.g. ``"thread"``); set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def run_level(self, tasks: List[LevelTask]) -> List[Any]:
        """Run one level's tasks, returning their results in order.

        The executor owns ``tasks``: the scan hands each task the only
        reference to the value its result replaces (the up-sweep's old
        right operand, the down-sweep's consumed left one), and the
        caller never reads the list again.  An executor may therefore
        empty the list as it goes; the serial executor drops each task
        once it has run, so a dead operand is freed before the next ⊙
        allocates.
        """

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

    Implements the ownership protocol in one place: the executor is
    fixed at construction (:meth:`_init_executor`) and is never
    ``None``.  An owner *owns* (and :meth:`close` releases) the
    executor it built from its resolved spec; a caller-provided
    instance stays the caller's to manage.
    """

    executor: ScanExecutor
    _owns_executor: bool = False

    def _init_executor(self, executor, spec: str) -> None:
        """Set the scan backend once, from the constructor.

        ``executor`` is the constructor's ``executor=`` argument: a
        :class:`ScanExecutor` instance is used as given; a spec string
        or ``None`` builds ``spec`` — the resolved ``config.executor``,
        into which the constructor already folded a spec string — as
        an executor this object owns.
        """
        from repro.backend.registry import get_executor  # circular-safe

        if isinstance(executor, ScanExecutor):
            self.executor = executor
            return
        if executor is not None and not isinstance(executor, str):
            raise TypeError(
                "executor must be a spec string, ScanExecutor, or None; "
                f"got {type(executor).__name__}"
            )
        self.executor = get_executor(spec)
        self._owns_executor = True

    def close(self) -> None:
        """Release owned executor workers (no-op for serial or a
        caller-provided instance)."""
        if self._owns_executor:
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

    def run_level(self, tasks: List[LevelTask]) -> List[Any]:
        results = []
        for i, (op, a, b, info) in enumerate(tasks):
            tasks[i] = None  # its operands die once this ⊙ returns
            results.append(op(a, b, info))
        return results


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

    Once :meth:`close` has run, :meth:`run_level` raises
    ``RuntimeError`` rather than running the level inline, so a closed
    ``thread:N`` executor never passes for a serial one.
    """

    name = "thread"

    def __init__(self, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=num_workers) if num_workers > 1 else None
        )
        # A flag, not ``_pool is None``: ``thread:1`` never has a pool.
        self._closed = False

    @property
    def workers(self) -> int:
        return self.num_workers

    def run_level(self, tasks: List[LevelTask]) -> List[Any]:
        if self._closed:
            raise RuntimeError(f"thread:{self.num_workers} executor is closed")
        if self._pool is None or len(tasks) == 1:
            return [t.run() for t in tasks]
        return list(self._pool.map(LevelTask.run, tasks))

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
