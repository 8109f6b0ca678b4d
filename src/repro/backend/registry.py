"""String-keyed executor registry and the process-wide default.

Backends are addressed by a compact spec — ``"serial"`` or
``"thread:8"`` — so every layer that accepts an ``executor=`` argument
(scan algorithms, gradient engines, the trainer, experiment entry
points) can take a plain string from a config file, a CLI flag, or the
``REPRO_SCAN_BACKEND`` environment variable without importing executor
classes.  Third-party backends plug in via :func:`register_backend`.

Spec grammar::

    spec     := name [":" workers]
    name     := registered backend name ("serial" | "thread" | …)
    workers  := positive integer worker count

``get_executor`` also accepts ``None`` (→ the process-wide default,
taken from ``REPRO_SCAN_BACKEND``, falling back to ``"serial"``) and
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

#: Environment variable naming the default backend spec.
ENV_VAR = "REPRO_SCAN_BACKEND"

ExecutorFactory = Callable[[Optional[int]], ScanExecutor]

_REGISTRY: Dict[str, ExecutorFactory] = {}

# The serial executor is stateless; one shared instance serves everyone.
_SERIAL = SerialExecutor()

# (spec, executor) of the current process-wide default; rebuilt when
# the environment variable changes between calls.
_default: Optional[Tuple[str, ScanExecutor]] = None


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

    * ``None`` → the process-wide default (see :func:`default_executor`);
    * a :class:`ScanExecutor` instance → returned unchanged;
    * a string → a **new** executor the caller owns (``"serial"`` is
      the shared stateless singleton; ``close()`` on it is a no-op).
    """
    if spec is None:
        return default_executor()
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


def default_executor() -> ScanExecutor:
    """The ambient default executor for ``executor=None`` call sites.

    A surrounding ``repro.configure()`` block that set ``executor``
    supplies its own *scoped* default pool (owned and closed by the
    block — see :func:`repro.config.context.scoped_default_executor`),
    so entering or leaving a block never touches the process-wide
    default another thread may be using.  Otherwise the spec comes
    from ``$REPRO_SCAN_BACKEND`` (default ``"serial"``), built on
    first use and cached so pooled backends are created once, not per
    scan call; if the variable changes, the old default is closed and
    a new one built.
    """
    global _default
    # Lazy import: repro.config imports this module at load time.
    from repro.config.context import scoped_default_executor

    scoped = scoped_default_executor()
    if scoped is not None:
        return scoped
    spec = os.environ.get(ENV_VAR, "serial")
    if _default is None or _default[0] != spec:
        old, _default = _default, None
        if old is not None:
            old[1].close()
        # _default stays None if the new spec is invalid, so a later
        # call retries instead of serving the closed old executor.
        _default = (spec, get_executor(spec))
    return _default[1]


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
