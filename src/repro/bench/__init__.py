"""Structured benchmarking of the paper artifacts — measurements as data.

Every experiment module under :mod:`repro.experiments` can reproduce
its paper artifact, but a rendered text table cannot be diffed, swept
across scan backends, or gated against regressions.  This package
turns each artifact run into a :class:`BenchRecord` — artifact name,
scale, backend spec, warmup/repeat timing statistics (median + IQR),
an environment fingerprint (Python/NumPy versions, CPU count), the
resolved scan configuration, and the number of structured rows
produced — and provides the machinery around that schema:

``record``
    The :class:`BenchRecord` / :class:`TimingStats` schema, JSON
    round-tripping, and :func:`validate_record`.
``env``
    :func:`environment_fingerprint` — where a measurement was taken.
``timing``
    :func:`measure` — warmup/repeat wall-clock measurement.
``runner``
    :func:`run_bench` — sweeps artifacts × executor specs from the
    :mod:`repro.backend` registry (``serial``, ``thread:N``).
``writer``
    :func:`write_results` / :func:`load_records` — emits one
    ``BENCH_<artifact>.json`` per artifact plus a combined
    ``bench.json``.
``compare``
    :func:`compare_results` — diffs two result files and flags
    regressions beyond a configurable tolerance (the CI gate).

Command line::

    python -m repro.bench --scale smoke --backends serial,thread:2
    python -m repro.bench.compare old.json new.json --tolerance 0.25

The first writes ``benchmarks/results/bench.json`` (and the per-artifact
``BENCH_*.json`` files); the second exits non-zero when a regression
exceeds tolerance (pass ``--report-only`` to gate nothing and just
print the table).
"""

from repro.bench.env import environment_fingerprint
from repro.bench.record import (
    SCHEMA_VERSION,
    BenchRecord,
    SchemaError,
    TimingStats,
    validate_record,
)
from repro.bench.runner import ARTIFACTS, BenchArtifact, run_bench
from repro.bench.timing import measure
from repro.bench.writer import load_records, write_results

# Imported lazily so ``python -m repro.bench.compare`` does not find the
# submodule pre-imported in sys.modules (runpy would warn).
_COMPARE_EXPORTS = ("Delta", "classify", "compare_results", "has_regressions")


def __getattr__(name):
    if name in _COMPARE_EXPORTS:
        from repro.bench import compare as _compare

        return getattr(_compare, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ARTIFACTS",
    "BenchArtifact",
    "BenchRecord",
    "Delta",
    "SCHEMA_VERSION",
    "classify",
    "SchemaError",
    "TimingStats",
    "compare_results",
    "environment_fingerprint",
    "has_regressions",
    "load_records",
    "measure",
    "run_bench",
    "validate_record",
    "write_results",
]
