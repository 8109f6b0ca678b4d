"""Pluggable scan-execution backends — *where* the ⊙ ops of a level run.

The BPPSA scan algorithms (:mod:`repro.scan.algorithms`) expose their
parallelism as levels of mutually independent ⊙ applications.  This
package is the seam between that schedule and the machine: an executor
receives one level at a time as :class:`LevelTask` records and decides
how to run it — inline or on a thread pool.  Every backend preserves
per-op association order, so **all backends produce bitwise-identical
results**; they differ only in wall-clock.

Backends
--------
``serial``  (:class:`SerialExecutor`)
    Inline execution on the calling thread; the zero-overhead default
    and the reference all other backends are tested against.
``thread``  (:class:`ThreadPoolScanExecutor`)
    One thread pool; overlaps levels of large BLAS products (NumPy
    releases the GIL inside gemm).

Usage::

    from repro.backend import get_executor
    from repro.scan import ScanContext, blelloch_scan

    with get_executor("thread:8") as ex:
        out = blelloch_scan(items, ScanContext().op, executor=ex)

or end to end through an engine, whose config names the backend::

    engine = RNNBPPSA(clf, config="thread:4")

An engine fixes its executor when it is built: the instance it is
given, else the one its resolved ``config.executor`` names
(``"serial"`` unless the caller names another), which the engine owns
and ``close()`` releases.  A whole experiment run is switched to
another backend by its explicit config::

    python -m repro.experiments.run_all --config thread:8

A scan function takes an executor instance or ``None`` (serial); a
spec string raises ``TypeError``, so every pool a scan runs on is one
its caller opened and closes.

A custom backend implements :class:`ScanExecutor` and is passed as an
instance: every scan function and every engine accept one, and so does
``build_engine(..., executor=<instance>)``.  Only ``serial`` and
``thread`` have spec strings.
"""

from repro.backend.executor import (
    LevelTask,
    ScanExecutor,
    SerialExecutor,
    ThreadPoolScanExecutor,
)
from repro.backend.registry import get_executor

__all__ = [
    "LevelTask",
    "ScanExecutor",
    "SerialExecutor",
    "ThreadPoolScanExecutor",
    "get_executor",
]
