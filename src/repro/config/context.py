"""Scoped configuration overrides — :func:`repro.configure`.

Before the configuration plane existed, switching an experiment or a
test to another backend meant mutating process-global environment
variables (``os.environ["REPRO_SCAN_BACKEND"] = …``) — invisible to
readers, leaky across tests, and hostile to concurrency.
:func:`configure` replaces that: it pushes a partial
:class:`~repro.config.ScanConfig` overlay onto a context-local stack
for the duration of a ``with`` block.  The stack has one reader,
:meth:`ScanConfig.resolve`, which consults it before falling back to
environment variables; so an engine built inside the block adopts
the overlay, and keeps what it adopted after the block exits.  An
engine built outside the block, or a scan function called with
``executor=None``, never sees it.

Overlays nest (the innermost set field wins) and restore on exit even
when the block raises; the stack lives in a :class:`contextvars.ContextVar`,
so threads and asyncio tasks each see their own overrides.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Any, Iterator, Mapping, Tuple, Union

from repro.config.scan_config import ScanConfig

_OVERLAYS: ContextVar[Tuple[ScanConfig, ...]] = ContextVar(
    "repro_scan_config_overlays", default=()
)


def active_overlays() -> Tuple[ScanConfig, ...]:
    """The current overlay stack, outermost first (read-only view)."""
    return _OVERLAYS.get()


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
    variables, and explicit per-engine arguments beat them all).  The
    block acts only on configs resolved inside it: an engine keeps the
    executor it was built with.  Yields the overlay; the previous
    stack is restored on exit, raise or return.
    """
    overlay = ScanConfig.coerce(config, **fields)
    token = _OVERLAYS.set(_OVERLAYS.get() + (overlay,))
    try:
        yield overlay
    finally:
        _OVERLAYS.reset(token)


def current_config() -> ScanConfig:
    """The fully resolved configuration an engine built *right here,
    right now* with no explicit arguments would adopt."""
    return ScanConfig().resolve()
