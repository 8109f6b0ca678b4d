"""String-keyed executor registry.

Backends are addressed by a compact spec — ``"serial"`` or
``"thread:8"`` — so every layer that accepts an ``executor=`` argument
(scan algorithms, gradient engines, experiment entry points) can take
a plain string from a config file or a CLI flag without importing
executor classes.  Third-party backends plug in via
:func:`register_backend`.

Spec grammar::

    spec     := name [":" workers]
    name     := registered backend name ("serial" | "thread" | …)
    workers  := positive integer worker count

``get_executor`` also accepts ``None`` (→ the serial executor) and
passes an already-constructed :class:`ScanExecutor` through unchanged,
so call sites can be spec-or-instance agnostic.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backend.executor import (
    ScanExecutor,
    SerialExecutor,
    ThreadPoolScanExecutor,
)

ExecutorFactory = Callable[[Optional[int]], ScanExecutor]

_REGISTRY: Dict[str, ExecutorFactory] = {}

# The serial executor is stateless; one shared instance serves everyone.
_SERIAL = SerialExecutor()


def register_backend(
    name: str, factory: ExecutorFactory, *, overwrite: bool = False
) -> None:
    """Register ``factory(workers) -> ScanExecutor`` under ``name``.

    ``workers`` is ``None`` when the spec gave no ``:N`` suffix; the
    factory chooses its own default (or rejects a count it cannot use).
    """
    if not name or ":" in name:
        raise ValueError(f"invalid backend name {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


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
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scan backend {name!r}; available: "
            + ", ".join(available_backends())
        )
    return factory(workers)


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------
def _serial_factory(workers: Optional[int]) -> ScanExecutor:
    if workers is not None and workers != 1:
        raise ValueError("the serial backend runs exactly one worker")
    return _SERIAL


def _thread_factory(workers: Optional[int]) -> ScanExecutor:
    if workers is None:
        workers = min(os.cpu_count() or 4, 8)
    return ThreadPoolScanExecutor(workers)


register_backend("serial", _serial_factory)
register_backend("thread", _thread_factory)
