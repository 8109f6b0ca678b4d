""":class:`ScanConfig` — the entire scan tuning surface as one value.

Every tuning axis of the ⊙ scan — algorithm, truncation depth,
executor backend, sparse mode, linear-Jacobian tolerance and plan-cache
policy — is one field of one frozen, comparable, JSON-serializable
dataclass.  Configurations are *values* that can be built, diffed,
embedded in ``BENCH_*.json`` records, and handed to
:func:`repro.build_engine`.  An engine resolves its config once, at
construction, and nothing changes it afterwards: ``engine.config`` is
what runs.

A field set to ``None`` is **unset**; :meth:`ScanConfig.resolve` is the
single resolution point that fills unset fields, in precedence order:

1. explicit field values (what the config already carries),
2. caller-supplied defaults (the staged pipeline's ``truncated``),
3. the global defaults (``blelloch`` / 2 levels / ``serial`` /
   ``auto`` / private pattern cache).

Resolution depends on its arguments only: no environment variable or
scoped override reaches it, so a config is exactly what its caller
wrote.  The environment variables that once filled unset fields
(``REPRO_SCAN_BACKEND``, ``REPRO_SCAN_SPARSE``,
``REPRO_SCAN_SPARSE_THRESHOLD``, ``REPRO_SCAN_SHARED_CACHE``) are an
error when set, so a leftover export fails instead of being ignored.

Spec grammar (``/``-separated segments, each optional, any order)::

    spec      := segment ("/" segment)*
    segment   := algorithm [":" up_levels]      e.g. "blelloch", "truncated:3"
               | executor-spec                  e.g. "serial", "thread:8"
               | "sparse=" ("auto"|"on"|"off")  dense-vs-sparse mode
               | "up=" int                      truncation depth
               | "tol=" float                   sparse linear Jacobian tol
               | "cache=" ("private"|"shared")  pattern-cache policy

``ScanConfig.from_spec(cfg.spec()) == cfg`` holds for every config —
the canonical spec string round-trips losslessly, so a config can live
in a CLI flag or a bench record key just as well as in code.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.backend.registry import _parse_spec
from repro.scan.algorithms import SCANS
from repro.scan.sparse_policy import SPARSE_MODES, SparsePolicy

#: Scan algorithms an engine can run (shared by both BPPSA engines).
ALGORITHMS = tuple(SCANS)

#: Pattern-cache policies: per-engine cache vs. one process-wide cache.
PATTERN_CACHE_POLICIES = ("private", "shared")

#: ``key=value`` spec segments (bare segments are algorithm/executor),
#: each with the values it takes.
_SPEC_KEYS = {
    "sparse": "|".join(SPARSE_MODES),
    "up": "<int>",
    "tol": "<float>",
    "cache": "|".join(PATTERN_CACHE_POLICIES),
}

# The process-wide PatternCache handed out under ``cache=shared`` —
# built lazily so importing the config plane stays cheap.
_SHARED_PATTERN_CACHE = None
_SHARED_PATTERN_CACHE_LOCK = threading.Lock()

#: Entry bound of the process-wide shared plan cache.  Private
#: (per-engine) caches stay unbounded — they live and die with one
#: model's fixed pattern set — but the shared cache serves a whole
#: process (the :mod:`repro.serve` server, every ``cache=shared``
#: engine) across unbounded pattern churn, so it must be an LRU.
DEFAULT_SHARED_CACHE_MAXSIZE = 256

#: Environment variables that once configured a scan, each with what to
#: pass instead.  :meth:`ScanConfig.resolve` raises while one is set.
_REMOVED_ENV_VARS = {
    "REPRO_SCAN_BACKEND": (
        "pass the executor explicitly, e.g. build_engine(model, "
        "executor='thread:8') or run_all --config thread:8"
    ),
    "REPRO_SCAN_SPARSE": (
        f"pass sparse= (one of {SPARSE_MODES}) explicitly, e.g. "
        "build_engine(model, sparse='off') or run_all --config sparse=off"
    ),
    "REPRO_SCAN_SPARSE_THRESHOLD": (
        "the auto density cutoff is fixed at "
        f"{SparsePolicy.AUTO_CUTOFF}; pass sparse= (one of {SPARSE_MODES})"
    ),
    "REPRO_SCAN_SHARED_CACHE": (
        "the shared plan cache's bound is fixed at "
        f"{DEFAULT_SHARED_CACHE_MAXSIZE} entries"
    ),
}


def shared_pattern_cache():
    """The process-wide :class:`~repro.sparse.PatternCache` singleton
    (``pattern_cache="shared"``): SpGEMM symbolic work amortizes across
    every engine that opts in, not just across iterations of one.

    The singleton is a **bounded LRU**
    (:data:`DEFAULT_SHARED_CACHE_MAXSIZE` entries) so that a long-lived
    server churning through distinct Jacobian patterns cannot grow it
    without bound; hit/miss/eviction counters are exposed through
    :meth:`~repro.sparse.PatternCache.stats` and surfaced by
    ``EngineServer.stats()``.
    """
    global _SHARED_PATTERN_CACHE
    with _SHARED_PATTERN_CACHE_LOCK:
        if _SHARED_PATTERN_CACHE is None:
            from repro.sparse import PatternCache

            _SHARED_PATTERN_CACHE = PatternCache(
                maxsize=DEFAULT_SHARED_CACHE_MAXSIZE
            )
        return _SHARED_PATTERN_CACHE


def _parse_float(value: str, what: str, spec: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"invalid {what} {value!r} in config spec {spec!r}") from None


@dataclass(frozen=True)
class ScanConfig:
    """Declarative configuration of one ⊙-scan gradient engine.

    Every field defaults to ``None`` = *unset* — :meth:`resolve` fills
    unset fields from the caller's defaults, then the global ones (see
    the module docstring for the precedence ladder).  Instances are
    frozen, hashable, comparable, and round-trip through both the spec
    grammar (:meth:`from_spec` / :meth:`spec`) and JSON
    (:meth:`from_dict` / :meth:`to_dict`).

    Fields
    ------
    algorithm:
        ``"blelloch"`` | ``"linear"`` | ``"hillis_steele"`` |
        ``"truncated"`` (resolves to ``"blelloch"``).
    up_levels:
        Truncation depth for the ``truncated`` algorithm (resolves
        to 2).
    executor:
        Scan-backend spec string — ``"serial"`` or ``"thread:8"``
        (resolves to ``"serial"``).  Executor *instances* are deliberately
        not representable: a config is pure data.
    sparse:
        Dense-vs-sparse dispatch mode — ``"auto"`` | ``"on"`` |
        ``"off"`` (resolves to ``"auto"``; see
        :class:`~repro.scan.SparsePolicy`).
    sparse_linear_tol:
        When set, linear-layer Jacobians are stored CSR dropping
        entries ≤ tol (the pruned-retraining configuration); stays
        ``None`` (= dense linear Jacobians) unless set.
    pattern_cache:
        ``"private"`` (fresh SpGEMM plan cache per engine — the
        default) or ``"shared"`` (the process-wide cache).
    """

    algorithm: Optional[str] = None
    up_levels: Optional[int] = None
    executor: Optional[str] = None
    sparse: Optional[str] = None
    sparse_linear_tol: Optional[float] = None
    pattern_cache: Optional[str] = None

    @property
    def kernel(self) -> None:
        """Always ``None``, and not a field: there is one SpGEMM numeric
        phase.  Read-only, for callers that still hand ``cfg.kernel`` to
        ``ScanContext(kernel=...)``."""
        return None

    def __post_init__(self) -> None:
        if self.algorithm is not None and self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.up_levels is not None:
            if not isinstance(self.up_levels, int) or self.up_levels < 0:
                raise ValueError(
                    f"up_levels must be a non-negative int, got {self.up_levels!r}"
                )
        if self.executor is not None:
            if not isinstance(self.executor, str):
                raise TypeError(
                    "ScanConfig.executor must be a backend spec string; "
                    "pass executor instances to the engine directly "
                    f"(got {type(self.executor).__name__})"
                )
            # Grammar check only; backend existence is checked at build
            # time.  An empty name would silently drop out of spec(),
            # and a name colliding with an algorithm would parse back
            # as the algorithm segment — both break the round-trip
            # invariant, so reject them here.
            name, _ = _parse_spec(self.executor)
            if not name:
                raise ValueError("executor spec must name a backend")
            if name in ALGORITHMS:
                raise ValueError(
                    f"executor spec {self.executor!r} collides with the "
                    f"algorithm name {name!r}; the spec grammar cannot "
                    "round-trip such a backend name"
                )
        if self.sparse is not None and self.sparse not in SPARSE_MODES:
            raise ValueError(
                f"sparse mode must be one of {SPARSE_MODES}, got {self.sparse!r}"
            )
        tol = self.sparse_linear_tol
        if tol is not None and float(tol) < 0:
            raise ValueError(f"sparse_linear_tol must be >= 0, got {tol!r}")
        if (
            self.pattern_cache is not None
            and self.pattern_cache not in PATTERN_CACHE_POLICIES
        ):
            raise ValueError(
                f"pattern_cache must be one of {PATTERN_CACHE_POLICIES}, "
                f"got {self.pattern_cache!r}"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls,
        value: Union["ScanConfig", str, Mapping[str, Any], None] = None,
        **overrides: Any,
    ) -> "ScanConfig":
        """Coerce *anything configuration-shaped* into a :class:`ScanConfig`.

        ``value`` may be a config (returned as-is when no overrides), a
        spec string (parsed), a mapping (:meth:`from_dict`), or ``None``
        (all-unset).  Explicit ``overrides`` beat whatever the spec or
        mapping said — the top rung of the precedence ladder.
        ``None``-valued overrides mean "not given" and are dropped.
        """
        if value is None:
            cfg = cls()
        elif isinstance(value, cls):
            cfg = value
        elif isinstance(value, str):
            cfg = cls.from_spec(value)
        elif isinstance(value, Mapping):
            cfg = cls.from_dict(value)
        else:
            raise TypeError(
                "config must be a ScanConfig, spec string, mapping, or "
                f"None; got {type(value).__name__}"
            )
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if not overrides:
            return cfg
        unknown = set(overrides) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise TypeError(f"unknown ScanConfig field(s): {sorted(unknown)}")
        merged = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)}
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def from_spec(cls, spec: str) -> "ScanConfig":
        """Parse the ``/``-separated spec grammar (module docstring).

        ``from_spec(cfg.spec()) == cfg`` for every config; the empty
        string parses to the all-unset config.
        """
        if not isinstance(spec, str):
            raise TypeError(f"spec must be a string, got {type(spec).__name__}")
        fields: Dict[str, Any] = {}

        def put(name: str, value: Any) -> None:
            if name in fields:
                raise ValueError(
                    f"duplicate {name!r} in config spec {spec!r}"
                )
            fields[name] = value

        for segment in spec.split("/"):
            segment = segment.strip()
            if not segment:
                continue
            key, sep, value = segment.partition("=")
            if sep:
                if key == "sparse":
                    put("sparse", value)
                elif key == "up":
                    try:
                        put("up_levels", int(value))
                    except ValueError:
                        raise ValueError(
                            f"invalid up_levels {value!r} in config spec {spec!r}"
                        ) from None
                elif key == "tol":
                    put(
                        "sparse_linear_tol",
                        _parse_float(value, "sparse_linear_tol", spec),
                    )
                elif key == "cache":
                    put("pattern_cache", value)
                else:
                    known = ", ".join(f"{k}={v}" for k, v in _SPEC_KEYS.items())
                    raise ValueError(
                        f"unknown key {key!r} in config spec {spec!r} "
                        f"(known keys: {known})"
                    )
                continue
            # Bare segment: an algorithm (optionally "truncated:3") or
            # an executor spec — disambiguated by the algorithm list.
            name = segment.partition(":")[0]
            if name in ALGORITHMS:
                put("algorithm", name)
                _, sep2, depth = segment.partition(":")
                if sep2:
                    try:
                        put("up_levels", int(depth))
                    except ValueError:
                        raise ValueError(
                            f"invalid up_levels {depth!r} in config spec {spec!r}"
                        ) from None
            else:
                if "executor" in fields:
                    raise ValueError(
                        f"two executor segments in config spec {spec!r}: "
                        f"{fields['executor']!r} and {segment!r}"
                    )
                put("executor", segment)
        return cls(**fields)

    def spec(self) -> str:
        """The canonical spec string; unset fields are omitted.

        Inverse of :meth:`from_spec`: parsing the result reconstructs
        an equal config.
        """
        parts = []
        if self.algorithm is not None:
            parts.append(self.algorithm)
        if self.up_levels is not None:
            parts.append(f"up={self.up_levels}")
        if self.executor is not None:
            parts.append(self.executor)
        if self.sparse is not None:
            parts.append(f"sparse={self.sparse}")
        if self.sparse_linear_tol is not None:
            parts.append(f"tol={self.sparse_linear_tol!r}")
        if self.pattern_cache is not None:
            parts.append(f"cache={self.pattern_cache}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # JSON (de)serialization — what BENCH_*.json records embed
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, JSON-ready; unset fields serialize as null."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScanConfig":
        """Reconstruct from :meth:`to_dict` output (missing keys = unset)."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown ScanConfig field(s): {sorted(unknown)}")
        return cls(**{k: d[k] for k in names if d.get(k) is not None})

    # ------------------------------------------------------------------
    # resolution — the single default resolution point
    # ------------------------------------------------------------------
    def with_defaults(self, other: "ScanConfig") -> "ScanConfig":
        """A copy where each *unset* field takes ``other``'s value."""
        merged = {
            f.name: (
                getattr(self, f.name)
                if getattr(self, f.name) is not None
                else getattr(other, f.name)
            )
            for f in dataclasses.fields(self)
        }
        return type(self)(**merged)

    def resolve(
        self, defaults: Optional[Mapping[str, Any]] = None
    ) -> "ScanConfig":
        """Fill every unset field; the result is fully concrete.

        Precedence per field: this config's explicit value >
        ``defaults`` (caller-supplied) > the global defaults.
        Idempotent: resolving a resolved config is a no-op.  Raises
        ``ValueError`` while one of the removed ``REPRO_SCAN_*``
        environment variables is set, naming it and what to pass
        instead.
        """
        for var, instead in _REMOVED_ENV_VARS.items():
            if os.environ.get(var):
                raise ValueError(
                    f"{var} is no longer read: {instead}; unset {var}"
                )
        cfg = self
        if defaults:
            cfg = cfg.with_defaults(ScanConfig(**defaults))
        return cfg.with_defaults(_GLOBAL_DEFAULTS)

    # ------------------------------------------------------------------
    # realized pieces — what engines actually consume
    # ------------------------------------------------------------------
    def sparse_policy(self) -> SparsePolicy:
        """The :class:`SparsePolicy` this config describes (an unset
        mode is resolved first, so this is safe on a partial config)."""
        sparse = self.sparse if self.sparse is not None else self.resolve().sparse
        return SparsePolicy(sparse)

    def make_pattern_cache(self):
        """The :class:`~repro.sparse.PatternCache` for a new engine:
        the process-wide singleton under ``"shared"``, else ``None``
        (the engine's :class:`~repro.scan.ScanContext` creates a
        private one)."""
        policy = self.pattern_cache
        if policy is None:
            policy = self.resolve().pattern_cache
        return shared_pattern_cache() if policy == "shared" else None

    def __str__(self) -> str:
        return self.spec() or "<unset>"


#: Bottom rung of the precedence ladder (``sparse_linear_tol`` has no
#: default — unset means dense linear Jacobians).
_GLOBAL_DEFAULTS = ScanConfig(
    algorithm="blelloch",
    up_levels=2,
    executor="serial",
    sparse="auto",
    pattern_cache="private",
)
