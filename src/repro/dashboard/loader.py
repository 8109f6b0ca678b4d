"""Loading the bench corpus into one deduplicated record set.

The dashboard reads three kinds of input, all through the validating
:func:`repro.bench.writer.load_records` reader (so a malformed file
fails the build with the file/record-index/key message, never renders
half a site):

* the **results directory** (``benchmarks/results`` by default) —
  the combined ``bench.json`` plus every per-artifact
  ``BENCH_<artifact>.json``.  The combined file is the sweep of
  record; per-artifact files only contribute keys the combined file
  lacks, which is how records from an earlier partial sweep
  (``--artifacts …``) stay visible;
* **baseline files** (``benchmarks/baseline/bench.json`` by default)
  — merged first-wins by key, mirroring how CI gates against them;
* a **history directory** (``--history``) of prior combined
  snapshots, one per file, ordered by their ``generated_at`` stamp
  (filename as tiebreaker) for the per-artifact trend tables.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.record import BenchRecord
from repro.bench.writer import COMBINED_NAME, load_records

Pathish = Union[str, pathlib.Path]

#: Record key type: ``(artifact, scale, backend)``.
Key = Tuple[str, str, str]


@dataclass(frozen=True)
class Snapshot:
    """One historical sweep: its label, stamp, and records."""

    label: str
    generated_at: str
    records: List[BenchRecord]


def document_meta(path: Pathish) -> Dict[str, str]:
    """The sweep metadata of a result document (empty for bare lists)."""
    raw = json.loads(pathlib.Path(path).read_text())
    if not isinstance(raw, dict):
        return {}
    meta = {}
    for field in ("sweep_id", "generated_at"):
        value = raw.get(field)
        if isinstance(value, str):
            meta[field] = value
    return meta


def load_results_dir(results_dir: Pathish) -> List[BenchRecord]:
    """Current records: combined file first, per-artifact files fill gaps.

    Raises ``FileNotFoundError`` when the directory holds no result
    file at all — an empty dashboard build is a misconfiguration, not
    an empty corpus.
    """
    results = pathlib.Path(results_dir)
    by_key: Dict[Key, BenchRecord] = {}
    found = False
    combined = results / COMBINED_NAME
    if combined.is_file():
        found = True
        for record in load_records(combined):
            by_key.setdefault(record.key, record)
    for path in sorted(results.glob("BENCH_*.json")):
        found = True
        for record in load_records(path):
            by_key.setdefault(record.key, record)
    if not found:
        raise FileNotFoundError(
            f"no {COMBINED_NAME} or BENCH_*.json found in {results} — "
            "run `python -m repro.bench` first (or point --results at a "
            "sweep output directory)"
        )
    return [by_key[k] for k in sorted(by_key)]


def load_baselines(paths: Sequence[Pathish]) -> List[BenchRecord]:
    """Merge baseline files first-wins by key (CI gate semantics)."""
    by_key: Dict[Key, BenchRecord] = {}
    for path in paths:
        for record in load_records(path):
            by_key.setdefault(record.key, record)
    return [by_key[k] for k in sorted(by_key)]


def load_history(history_dir: Optional[Pathish]) -> List[Snapshot]:
    """Prior sweep snapshots, oldest first.

    Every ``*.json`` file in the directory is one snapshot; ordering is
    by its ``generated_at`` stamp with the filename as deterministic
    tiebreaker (files without a stamp sort first, in name order).
    """
    if history_dir is None:
        return []
    directory = pathlib.Path(history_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"history directory {directory} does not exist")
    snapshots: List[Snapshot] = []
    for path in sorted(directory.glob("*.json")):
        meta = document_meta(path)
        snapshots.append(
            Snapshot(
                label=path.stem,
                generated_at=meta.get("generated_at", ""),
                records=load_records(path),
            )
        )
    snapshots.sort(key=lambda s: (s.generated_at, s.label))
    return snapshots
