"""Scoped configuration overrides — :func:`repro.configure`.

Before the configuration plane existed, switching an experiment or a
test to another backend meant mutating process-global environment
variables (``os.environ["REPRO_SCAN_BACKEND"] = …``) — invisible to
readers, leaky across tests, and hostile to concurrency.
:func:`configure` replaces that: it pushes a partial
:class:`~repro.config.ScanConfig` overlay onto a context-local stack
for the duration of a ``with`` block.  Every resolution point —
:meth:`ScanConfig.resolve`, and through it every engine constructed
inside the block, plus the raw ``executor=None`` / ``sparse=None``
call sites in :mod:`repro.backend.registry` and
:mod:`repro.scan.sparse_policy` — consults the stack before falling
back to environment variables.

Overlays nest (the innermost set field wins) and restore on exit even
when the block raises; the stack lives in a :class:`contextvars.ContextVar`,
so threads and asyncio tasks each see their own overrides.  An overlay
that names an ``executor`` also owns the *scoped default pool* for
``executor=None`` call sites inside its block (built lazily, closed on
exit) — the process-wide default of
:func:`repro.backend.registry.default_executor` is never rebuilt or
closed on account of a scoped override, so concurrent work outside the
block keeps its pool.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from typing import Any, Iterator, Mapping, Optional, Tuple, Union

from repro.config.scan_config import ScanConfig


class _Frame:
    """One :func:`configure` activation: the overlay plus the scoped
    default executor lazily built for its ``executor`` field."""

    __slots__ = ("overlay", "_default", "_lock")

    def __init__(self, overlay: ScanConfig) -> None:
        self.overlay = overlay
        self._default = None
        self._lock = threading.Lock()

    def default_executor(self):
        """Build-once executor for this frame's ``executor`` spec."""
        from repro.backend.registry import get_executor

        with self._lock:
            if self._default is None:
                self._default = get_executor(self.overlay.executor)
            return self._default

    def close(self) -> None:
        with self._lock:
            if self._default is not None:
                self._default.close()
                self._default = None


_FRAMES: ContextVar[Tuple[_Frame, ...]] = ContextVar(
    "repro_scan_config_overlays", default=()
)


def active_overlays() -> Tuple[ScanConfig, ...]:
    """The current overlay stack, outermost first (read-only view)."""
    return tuple(frame.overlay for frame in _FRAMES.get())


def overlay_field(name: str) -> Optional[Any]:
    """The innermost :func:`configure` override for one field, if any.

    This is the hook :mod:`repro.backend.registry` and
    :mod:`repro.scan.sparse_policy` use so that even legacy
    ``executor=None`` / ``sparse=None`` call sites honor a surrounding
    ``configure()`` block.
    """
    for frame in reversed(_FRAMES.get()):
        value = getattr(frame.overlay, name)
        if value is not None:
            return value
    return None


def scoped_default_executor():
    """The executor ``executor=None`` call sites use inside a
    :func:`configure` block that set ``executor`` — or ``None`` when no
    active overlay names one.

    The pool is built lazily, cached on the overlay's frame (so one
    block reuses one pool), and closed when the block exits.  Keeping
    it per-frame — instead of rotating the process-wide default —
    means entering or leaving a ``configure`` block never closes a
    pool that concurrent work outside the block is still using.
    """
    for frame in reversed(_FRAMES.get()):
        if frame.overlay.executor is not None:
            return frame.default_executor()
    return None


@contextlib.contextmanager
def configure(
    config: Union[ScanConfig, str, Mapping[str, Any], None] = None,
    **fields: Any,
) -> Iterator[ScanConfig]:
    """Scoped scan-configuration overrides::

        with repro.configure(executor="thread:8", sparse="off"):
            engine = repro.build_engine(model)   # thread:8, dense path

        with repro.configure("blelloch/thread:4/sparse=on"):
            ...                                  # spec-grammar form

    ``config`` may be a :class:`ScanConfig`, a spec string, or a
    mapping; ``fields`` override it field-wise.  Only the fields set
    here are affected — everything else resolves as usual (inner
    ``configure`` blocks beat outer ones, all of them beat environment
    variables, and explicit per-engine arguments beat them all).
    Yields the overlay; the previous state — including any scoped
    default executor pool built for the block — is restored on exit,
    raise or return.
    """
    frame = _Frame(ScanConfig.coerce(config, **fields))
    token = _FRAMES.set(_FRAMES.get() + (frame,))
    try:
        yield frame.overlay
    finally:
        _FRAMES.reset(token)
        frame.close()


def current_config() -> ScanConfig:
    """The fully resolved configuration an engine built *right here,
    right now* with no explicit arguments would adopt."""
    return ScanConfig().resolve()
