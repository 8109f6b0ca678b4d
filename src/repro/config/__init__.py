"""repro.config — the declarative configuration plane.

One frozen :class:`ScanConfig` value captures the entire tuning
surface of the ⊙ scan (algorithm, truncation depth, executor backend,
dense-vs-sparse dispatch, linear-Jacobian tolerance, pattern-cache
policy), with:

* a **spec grammar** that round-trips —
  ``ScanConfig.from_spec("blelloch/thread:8/sparse=auto")`` ↔
  ``cfg.spec()``;
* **JSON (de)serialization** (``to_dict`` / ``from_dict``) embedded in
  every ``BENCH_*.json`` record and the bench environment fingerprint;
* a single **resolution point** (:meth:`ScanConfig.resolve`) with the
  precedence ladder *explicit value > caller default > global
  default*, which reads no environment variable and no scoped
  override: a config is what its caller passed;
* the engine facade (:func:`build_engine`) replacing scattered
  per-class constructor knowledge.  An engine's config, executor
  included, is fixed at construction: ``engine.config`` is what runs.

See DESIGN.md §"The configuration plane" for the full picture and
MIGRATION.md for the old-kwarg mapping.
"""

from repro.config.scan_config import (
    ALGORITHMS,
    DEFAULT_SHARED_CACHE_MAXSIZE,
    PATTERN_CACHE_POLICIES,
    ScanConfig,
    shared_pattern_cache,
)
from repro.config.facade import build_engine, stage_configs

__all__ = [
    "ALGORITHMS",
    "DEFAULT_SHARED_CACHE_MAXSIZE",
    "PATTERN_CACHE_POLICIES",
    "ScanConfig",
    "shared_pattern_cache",
    "build_engine",
    "stage_configs",
]
