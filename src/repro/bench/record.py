"""The :class:`BenchRecord` schema — one artifact measurement as data.

A record is deliberately flat and JSON-first: everything the repo's
regression gate (:mod:`repro.bench.compare`) or an external dashboard
needs lives in plain dict/list/scalar fields, round-trips through
``json`` losslessly, and is checked by :func:`validate_record` on both
the write and the read path so a malformed file fails loudly instead
of silently gating nothing.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

#: Bumped whenever a field is added/renamed; readers reject unknown versions.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A dict does not validate against the BenchRecord schema."""


@dataclass(frozen=True)
class TimingStats:
    """Warmup/repeat wall-clock statistics for one measurement.

    ``times_s`` holds every post-warmup repeat; the summary statistics
    are derived from it (median + IQR are the robust pair the
    regression gate compares, min/mean are kept for context).
    """

    warmup: int
    repeats: int
    times_s: List[float]
    median_s: float
    iqr_s: float
    min_s: float
    mean_s: float

    @classmethod
    def from_times(cls, times_s: Sequence[float], warmup: int = 0) -> "TimingStats":
        """Summarize raw per-repeat timings (seconds) into stats.

        With fewer than two repeats the IQR is defined as 0.
        """
        times = [float(t) for t in times_s]
        if not times:
            raise ValueError("at least one timing repeat is required")
        if len(times) >= 2:
            q1, _, q3 = statistics.quantiles(times, n=4)
            iqr = q3 - q1
        else:
            iqr = 0.0
        return cls(
            warmup=int(warmup),
            repeats=len(times),
            times_s=times,
            median_s=statistics.median(times),
            iqr_s=iqr,
            min_s=min(times),
            mean_s=statistics.fmean(times),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "warmup": self.warmup,
            "repeats": self.repeats,
            "times_s": list(self.times_s),
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "min_s": self.min_s,
            "mean_s": self.mean_s,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TimingStats":
        """Reconstruct from :meth:`to_dict` output (validating)."""
        _validate_timing(d)
        return cls(
            warmup=int(d["warmup"]),
            repeats=int(d["repeats"]),
            times_s=[float(t) for t in d["times_s"]],
            median_s=float(d["median_s"]),
            iqr_s=float(d["iqr_s"]),
            min_s=float(d["min_s"]),
            mean_s=float(d["mean_s"]),
        )


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement: an artifact at a scale on a backend.

    Fields
    ------
    artifact
        Artifact name (``"fig9_rnn_curve"``, ``"parallel_backends"``, …).
    scale
        ``"smoke"`` or ``"paper"`` (:class:`repro.experiments.common.Scale`).
    backend
        Executor spec the artifact ran under (``"serial"``,
        ``"thread:2"``) or ``"n/a"`` for artifacts whose computation
        never reaches a scan executor.  An older record may name a
        backend that is no longer registered.
    timing
        :class:`TimingStats` of the artifact's data step.
    environment
        :func:`repro.bench.env.environment_fingerprint` output.
    num_rows
        Length of the artifact's structured ``rows()`` output.
    metrics
        Optional artifact-specific scalar summaries.
    config
        The serialized, fully resolved
        :class:`~repro.config.ScanConfig` the measurement ran under
        (:meth:`ScanConfig.to_dict` output) — every record states
        exactly which configuration produced it.  Optional for
        backward compatibility: records written before the
        configuration plane existed read back with ``{}``.
    """

    artifact: str
    scale: str
    backend: str
    timing: TimingStats
    environment: Dict[str, Any]
    num_rows: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def key(self) -> tuple:
        """Identity used to match records across result files."""
        return (self.artifact, self.scale, self.backend)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, validates)."""
        d = {
            "schema_version": self.schema_version,
            "artifact": self.artifact,
            "scale": self.scale,
            "backend": self.backend,
            "timing": self.timing.to_dict(),
            "environment": dict(self.environment),
            "num_rows": self.num_rows,
            "metrics": dict(self.metrics),
            "config": dict(self.config),
        }
        validate_record(d)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "BenchRecord":
        """Reconstruct from :meth:`to_dict` output (validating)."""
        validate_record(d)
        return cls(
            artifact=d["artifact"],
            scale=d["scale"],
            backend=d["backend"],
            timing=TimingStats.from_dict(d["timing"]),
            environment=dict(d["environment"]),
            num_rows=int(d["num_rows"]),
            metrics=dict(d["metrics"]),
            config=dict(d.get("config", {})),
            schema_version=int(d["schema_version"]),
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TIMING_FIELDS: Dict[str, Any] = {
    "warmup": int,
    "repeats": int,
    "times_s": list,
    "median_s": "number",
    "iqr_s": "number",
    "min_s": "number",
    "mean_s": "number",
}

_RECORD_FIELDS: Dict[str, Any] = {
    "schema_version": int,
    "artifact": str,
    "scale": str,
    "backend": str,
    "timing": dict,
    "environment": dict,
    "num_rows": int,
    "metrics": dict,
}

#: Environment keys every record must carry (see ISSUE: the fingerprint
#: is part of the schema, not an optional extra).
_REQUIRED_ENV_KEYS = ("python", "numpy", "cpu_count")

#: Artifacts with a *required* metrics contract: the serving benchmark
#: is meaningless without its latency/throughput summary, so records
#: claiming to be ``serve_throughput`` must carry these numeric metric
#: fields (``cache_hit_rate`` additionally bounded to [0, 1]).
SERVE_ARTIFACT = "serve_throughput"
SERVE_METRIC_FIELDS = ("p50_ms", "p99_ms", "jobs_per_s", "cache_hit_rate")

#: Sweep axes a backend label may carry as ``[key=value]`` suffixes.
#: A baseline containing an axis this reader does not know is a *schema*
#: mismatch, not a missing measurement: the regression gate must refuse
#: to silently compare across unknown dimensions.  The runner no longer
#: writes ``kernel``, but reading it keeps older records (the dashboard's
#: history snapshots) loadable.
_KNOWN_BACKEND_AXES = ("kernel", "sparse")


def _validate_backend_label(label: str) -> None:
    """Validate the axis suffixes of a backend label.

    Labels are ``<spec>`` optionally followed by ``[key=value]`` groups,
    e.g. ``"thread:2[sparse=on][kernel=numba]"``.  Any malformed group
    or unknown axis key raises :class:`SchemaError` — an unknown axis
    means the file was written by a newer sweep than this reader
    understands, and comparing against it would gate nothing.
    """
    base, bracket, rest = label.partition("[")
    if not bracket:
        return
    if not base:
        raise SchemaError(
            f"record: backend label {label!r} has axis suffixes but no "
            "executor spec"
        )
    rest = bracket + rest
    while rest:
        if not rest.startswith("[") or "]" not in rest:
            raise SchemaError(
                f"record: malformed axis suffix in backend label {label!r} "
                '(expected "[key=value]" groups)'
            )
        group, rest = rest[1:].split("]", 1)
        key, eq, value = group.partition("=")
        if not eq or not key or not value:
            raise SchemaError(
                f"record: malformed axis suffix {group!r} in backend label "
                f'{label!r} (expected "key=value")'
            )
        if key not in _KNOWN_BACKEND_AXES:
            raise SchemaError(
                f"record: unknown benchmark axis {key!r} in backend label "
                f"{label!r}; known axes: {', '.join(_KNOWN_BACKEND_AXES)} — "
                "the file was written by a newer sweep; regenerate it (or "
                "the baseline) with this version's sweep flags"
            )


def _check_fields(d: Mapping[str, Any], spec: Mapping[str, Any], ctx: str) -> None:
    for name, kind in spec.items():
        if name not in d:
            raise SchemaError(f"{ctx}: missing field {name!r}")
        v = d[name]
        if kind == "number":
            if not _is_number(v):
                raise SchemaError(f"{ctx}: field {name!r} must be a number")
        elif kind is int:
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaError(f"{ctx}: field {name!r} must be an int")
        elif not isinstance(v, kind):
            raise SchemaError(f"{ctx}: field {name!r} must be {kind.__name__}")


def _validate_timing(d: Mapping[str, Any]) -> None:
    _check_fields(d, _TIMING_FIELDS, "timing")
    if not d["times_s"]:
        raise SchemaError("timing: times_s must be non-empty")
    if not all(_is_number(t) and t >= 0 for t in d["times_s"]):
        raise SchemaError("timing: times_s must hold non-negative numbers")
    if d["repeats"] != len(d["times_s"]):
        raise SchemaError("timing: repeats must equal len(times_s)")


def validate_record(d: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``d`` is a valid record dict."""
    if not isinstance(d, Mapping):
        raise SchemaError("record must be a mapping")
    _check_fields(d, _RECORD_FIELDS, "record")
    if d["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"record: unsupported schema_version {d['schema_version']!r} "
            f"(this reader supports {SCHEMA_VERSION})"
        )
    if d["num_rows"] < 0:
        raise SchemaError("record: num_rows must be >= 0")
    _validate_backend_label(d["backend"])
    # Optional (absent in pre-configuration-plane records): the
    # serialized ScanConfig of the measurement.
    if "config" in d and not isinstance(d["config"], dict):
        raise SchemaError("record: field 'config' must be dict")
    _validate_timing(d["timing"])
    for key in _REQUIRED_ENV_KEYS:
        if key not in d["environment"]:
            raise SchemaError(f"record: environment missing key {key!r}")
    if d["artifact"] == SERVE_ARTIFACT:
        _validate_serve_metrics(d["metrics"])


def _validate_serve_metrics(metrics: Mapping[str, Any]) -> None:
    for name in SERVE_METRIC_FIELDS:
        if name not in metrics:
            raise SchemaError(
                f"record: {SERVE_ARTIFACT} metrics missing {name!r} "
                f"(required: {', '.join(SERVE_METRIC_FIELDS)})"
            )
        if not _is_number(metrics[name]) or metrics[name] < 0:
            raise SchemaError(
                f"record: {SERVE_ARTIFACT} metric {name!r} must be a "
                f"non-negative number, got {metrics[name]!r}"
            )
    rate = metrics["cache_hit_rate"]
    if rate > 1:
        raise SchemaError(
            f"record: {SERVE_ARTIFACT} cache_hit_rate must be in [0, 1], "
            f"got {rate!r}"
        )
