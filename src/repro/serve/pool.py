"""Per-config scan engines and the server's engine pool.

A serving layer cannot afford to rebuild executors, scan contexts, and
plan caches per request: a ``thread:N`` backend starts a thread pool,
a warmed :class:`~repro.scan.ScanContext` holds SpGEMM plans and
numeric-phase scratch, and both amortize only across requests.
:class:`EnginePool` keys one :class:`ScanEngine` per fully
**resolved** :class:`~repro.config.ScanConfig` — the spec string a
client submits is resolved once at admission (see
:mod:`repro.serve.server`), and every request naming an equivalent
configuration reuses the same engine, executor pool, and cache.

Engines hold no model state: a serve job is the scan input itself (a
gradient seed plus transposed Jacobians), so one engine serves every
request that agrees on the scan configuration.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence

from repro.config import ScanConfig
from repro.core.engine import EngineCore
from repro.scan import (
    IDENTITY,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    stage_truncated_scan,
    truncated_blelloch_scan,
)


class ScanEngine(EngineCore):
    """One resolved configuration's long-lived scan engine.

    ``config`` is normally fully resolved (:meth:`ScanConfig.resolve`
    output, taken at admission), so resolving it again at construction
    is a no-op and the engine builds on any worker thread from the
    config alone.

    The engine owns its executor (built from the config's spec string)
    and its :class:`~repro.scan.ScanContext` (plan cache, arena), both
    built by :class:`~repro.core.engine.EngineCore`; :meth:`close`
    releases the executor's workers and is idempotent, so a server can
    retire engines at any time.
    """

    def __init__(self, config: ScanConfig) -> None:
        super().__init__(config)
        self.scans = 0
        self.jobs = 0
        self._lock = threading.Lock()

    def run_scan(self, items: Sequence[Any], jobs: int = 1) -> List[Any]:
        """Run one (possibly merged) scan over ``items``.

        ``jobs`` is the number of client jobs this scan carries (> 1
        when the server merged same-shape requests); it only feeds the
        engine's usage counters.  No per-⊙ record outlives the scan
        (see :meth:`~repro.scan.ScanContext.clear_trace`);
        ``context.total_flops`` keeps counting across scans.
        """
        with self._lock:
            self.scans += 1
            self.jobs += jobs
        try:
            return self._scan(items)
        finally:
            self.context.clear_trace()

    def _scan(self, items: Sequence[Any]) -> List[Any]:
        """The configured algorithm over ``items``."""
        algorithm = self.config.algorithm
        if algorithm == "linear":
            return linear_scan(items, self.context.op)
        if algorithm == "hillis_steele":
            return hillis_steele_scan(
                items, self.context.op, executor=self.executor
            )
        if algorithm == "truncated":
            return truncated_blelloch_scan(
                items,
                self.context.op,
                up_levels=self.config.up_levels,
                executor=self.executor,
            )
        return blelloch_scan(items, self.context.op, executor=self.executor)

    def run_stage_scan(
        self,
        items: Sequence[Any],
        up_levels: int,
        prefix: Any = IDENTITY,
        compose_tail: bool = False,
        jobs: int = 1,
    ) -> Any:
        """Run one pipeline stage's slice of a truncated scan.

        Thin engine entry point over
        :func:`repro.scan.stage_truncated_scan`: the stage's slice runs
        on this engine's executor and warmed context, seeded with the
        boundary ``prefix`` handed over from the previous stage, and
        returns ``(outputs, carry)``.  ``up_levels`` is the *globally*
        clamped truncation depth shared by every stage of the run (not
        this engine's own ``config.up_levels``) — block alignment is
        what keeps the staged backward bitwise-equal to the monolithic
        scan, so the caller owns that number.
        """
        with self._lock:
            self.scans += 1
            self.jobs += jobs
        try:
            return stage_truncated_scan(
                items,
                self.context.op,
                up_levels=up_levels,
                prefix=prefix,
                executor=self.executor,
                compose_tail=compose_tail,
            )
        finally:
            self.context.clear_trace()

    def stats(self) -> Dict[str, Any]:
        """Usage counters plus this engine's private-cache view."""
        with self._lock:
            scans, jobs = self.scans, self.jobs
        return {
            "scans": scans,
            "jobs": jobs,
            "plan_cache": self.context.cache.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScanEngine({self.config.spec()!r})"


class EnginePool:
    """Thread-safe pool of :class:`ScanEngine` keyed by resolved config.

    ``get`` is the only growth point: a request for an unseen resolved
    configuration builds an engine (counted in ``created``), every
    later request reuses it (``reused``).  ``retire`` and ``close``
    release executor workers; both tolerate double release because
    engine ``close`` is idempotent.
    """

    def __init__(self) -> None:
        self._engines: Dict[ScanConfig, ScanEngine] = {}
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def get(self, config: ScanConfig) -> ScanEngine:
        """The pooled engine for one fully resolved configuration."""
        with self._lock:
            engine = self._engines.get(config)
            if engine is not None:
                self.reused += 1
                return engine
            engine = ScanEngine(config)
            self._engines[config] = engine
            self.created += 1
            return engine

    def get_many(self, configs: Sequence[ScanConfig]) -> List[ScanEngine]:
        """Pooled engines for a per-stage config list, in stage order.

        Stages naming equivalent resolved configurations share one
        engine (and hence one executor and plan cache) — the counters
        record exactly one ``created`` per distinct config and one
        ``reused`` per repeat, so a staged pipeline's engine footprint
        reconciles the same way single requests do.
        """
        return [self.get(config) for config in configs]

    def retire(self, config: ScanConfig) -> bool:
        """Close and drop one engine; False if it was not pooled."""
        with self._lock:
            engine = self._engines.pop(config, None)
        if engine is None:
            return False
        engine.close()
        return True

    def close(self) -> None:
        """Close and drop every pooled engine."""
        with self._lock:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.close()

    def stats(self) -> Dict[str, Any]:
        """Pool counters plus per-spec engine usage."""
        with self._lock:
            engines = dict(self._engines)
            created, reused = self.created, self.reused
        return {
            "active": len(engines),
            "created": created,
            "reused": reused,
            "per_spec": {
                cfg.spec(): engine.stats() for cfg, engine in engines.items()
            },
        }

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
