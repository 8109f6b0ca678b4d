"""repro.serve — the serving plane: gradients as a service.

Everything below this package turns one scan into a result; this
package turns *many concurrent* scan requests into results
efficiently.  An :class:`EngineServer` accepts jobs addressed by
:class:`~repro.config.ScanConfig` spec strings
(``"blelloch/thread:2/sparse=auto:0.4/cache=shared"``), resolves each
spec **at admission** in the submitting task's context (so
:func:`repro.configure` overlays apply to a client's jobs no matter
which thread executes them), pools one long-lived engine per resolved
configuration (:class:`EnginePool` / :class:`ScanEngine`), and merges
same-shape dense jobs arriving within an admission window into one
batched scan — bitwise-identical to running each job alone.

Observability flows through ``server.stats()``: job and batching
counters, per-spec engine usage, and the process-wide shared SpGEMM
plan cache's hit/miss/eviction counters (a bounded LRU — see
:func:`repro.config.shared_pattern_cache`).

The load generator (:mod:`repro.serve.loadgen`) drives the server as
the ``serve_throughput`` artifact of :mod:`repro.bench`
(``python -m repro.bench --artifacts serve_throughput``).
See DESIGN.md §"The serving plane".
"""

from repro.serve.pool import EnginePool, ScanEngine
from repro.serve.server import (
    EngineServer,
    merge_jobs,
    merge_key,
    split_scanned,
)

__all__ = [
    "EnginePool",
    "EngineServer",
    "ScanEngine",
    "merge_jobs",
    "merge_key",
    "split_scanned",
]
