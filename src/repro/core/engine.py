"""The engine core: config, executor and scan context, built in one place.

Every BPPSA engine runs one pipeline (paper §3): forward pass,
transposed Jacobians, the scan, then Eq. 2.  They all set up the scan
the same way, so :class:`EngineCore` does it once: it resolves the
engine's :class:`~repro.config.ScanConfig`, builds the
:class:`~repro.scan.ScanContext` from it, and either uses the caller's
:class:`~repro.backend.ScanExecutor` or builds, owns and closes the one
``config.executor`` names.  :class:`~repro.core.FeedforwardBPPSA`,
:class:`~repro.core.RNNBPPSA` and :class:`repro.serve.ScanEngine`
subclass it.  :func:`install_gradients` writes a gradient dict into
parameters, for the engines and for
:class:`~repro.pipeline.StagedRNNBPPSA`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Union

import numpy as np

from repro.backend import ScanExecutor, get_executor
from repro.config import ScanConfig
from repro.scan import ScanContext


def install_gradients(params: Iterable[Any], grads: Mapping[int, np.ndarray]) -> None:
    """Write ``grads`` (keyed by ``id(param)``) into each parameter's
    ``.grad``, reshaped to the parameter's shape, for an optimizer step.
    A parameter with no entry keeps its ``.grad``."""
    for p in params:
        g = grads.get(id(p))
        if g is not None:
            p.grad = g.reshape(p.data.shape)


class EngineCore:
    """An engine's config, executor and scan context, fixed at construction.

    Parameters
    ----------
    config:
        Anything :meth:`~repro.config.ScanConfig.coerce` accepts: a
        config, a spec string (``"truncated:3/thread:2/sparse=on"``), a
        mapping, or ``None``.  It is resolved once and kept on
        ``self.config``, which is what runs: nothing changes it after
        construction.  Build another engine for another configuration.
    executor:
        A :class:`~repro.backend.ScanExecutor` instance, which stays the
        caller's to close, or ``None``: the engine then builds
        ``self.config.executor`` (``"serial"`` unless the config names
        another), owns it, and :meth:`close` releases it.  A backend
        spec string belongs in ``config``; passing one here raises
        ``TypeError``.  Every backend yields bitwise-identical results.

    ``self.context`` is the :class:`~repro.scan.ScanContext` every scan
    of this engine runs its ⊙ through: its sparse mode and plan cache
    come from the config.
    """

    #: The model :meth:`apply_gradients` writes into (``None`` for a
    #: :class:`~repro.serve.ScanEngine`, which scans caller-built items).
    model: Any = None

    def __init__(
        self,
        config: Union[ScanConfig, str, Mapping[str, Any], None] = None,
        executor: Optional[ScanExecutor] = None,
    ) -> None:
        if executor is not None and not isinstance(executor, ScanExecutor):
            raise TypeError(
                "executor= takes a ScanExecutor instance or None, not "
                f"{executor!r}: name a backend by its spec string in the "
                "config instead, e.g. config='thread:4' or "
                "build_engine(model, 'thread:4')"
            )
        cfg = ScanConfig.coerce(config).resolve()
        self.config = cfg
        self._owns_executor = executor is None
        self.executor = get_executor(cfg.executor) if executor is None else executor
        self.context = ScanContext(
            pattern_cache=cfg.make_pattern_cache(), sparse=cfg.sparse_policy()
        )

    def apply_gradients(self, grads: Mapping[int, np.ndarray]) -> None:
        """Write ``compute_gradients`` output into the model's
        ``param.grad`` (for ``Optimizer.step``)."""
        install_gradients(self.model.parameters(), grads)

    def close(self) -> None:
        """Release the executor's workers if this engine built it
        (idempotent; a caller's instance stays open)."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
