"""Executor specs: ``"serial"`` or ``"thread:8"`` → a :class:`ScanExecutor`.

Backends are addressed by a compact spec, so every layer that accepts
an ``executor=`` argument (scan algorithms, gradient engines,
experiment entry points) can take a plain string from a config file or
a CLI flag without importing executor classes.  Any other
:class:`ScanExecutor` plugs in as an instance instead of a spec.

Spec grammar::

    spec     := name [":" workers]
    name     := "serial" | "thread"
    workers  := positive integer worker count

``get_executor`` also accepts ``None`` (→ the serial executor) and
passes an already-constructed :class:`ScanExecutor` through unchanged,
so call sites can be spec-or-instance agnostic.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

from repro.backend.executor import (
    ScanExecutor,
    SerialExecutor,
    ThreadPoolScanExecutor,
)

# The serial executor is stateless; one shared instance serves everyone.
_SERIAL = SerialExecutor()


def _parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    name, sep, count = spec.partition(":")
    if not sep:
        return name, None
    try:
        workers = int(count)
    except ValueError:
        raise ValueError(
            f"invalid worker count {count!r} in executor spec {spec!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers} in {spec!r}")
    return name, workers


def get_executor(
    spec: Union[str, ScanExecutor, None] = None
) -> ScanExecutor:
    """Resolve a backend spec to a ready :class:`ScanExecutor`.

    * ``None`` → the shared serial executor;
    * a :class:`ScanExecutor` instance → returned unchanged;
    * a string → a **new** executor the caller owns (``"serial"`` is
      the shared stateless singleton; ``close()`` on it is a no-op).
      ``"thread"`` without a count takes ``min(cpu_count, 8)`` workers.
    """
    if spec is None:
        return _SERIAL
    if isinstance(spec, ScanExecutor):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"executor spec must be a string, ScanExecutor, or None; "
            f"got {type(spec).__name__}"
        )
    name, workers = _parse_spec(spec)
    if name == "serial":
        if workers is not None and workers != 1:
            raise ValueError("the serial backend runs exactly one worker")
        return _SERIAL
    if name == "thread":
        return ThreadPoolScanExecutor(workers or min(os.cpu_count() or 4, 8))
    raise ValueError(f"unknown scan backend {name!r}; available: serial, thread")
