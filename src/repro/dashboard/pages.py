"""Rendering the site: records → loader output → static pages.

:func:`build_site` is the whole pipeline.  It takes the already-loaded
corpus (current records, merged baseline, history snapshots) and writes
the four page families of the deterministic URL scheme:

=============================  ==========================================
``index.html``                 artifact ↔ paper-figure map (from
                               :data:`repro.bench.runner.ARTIFACTS`),
                               backend directory, link to the delta view
``artifact/<name>/index.html`` one page per bench artifact: median+IQR
                               per backend key, an SVG bar chart, per-key
                               resolved ``ScanConfig`` specs, the env
                               fingerprint, baseline deltas, history
                               trends
``backend/<slug>/index.html``  one page per backend key aggregating its
                               medians across artifacts
``delta/index.html``           the full current-vs-baseline comparison
=============================  ==========================================

Delta rows are produced by :func:`repro.bench.compare.compare_results`
— the same code path as the CI gate, sharing
:func:`repro.bench.compare.classify` — so a row rendered red here *is*
a row the gate would fail on.  Rendering never consults the clock and
iterates only sorted containers: rebuilding from the same inputs is
byte-identical (pinned by ``tests/test_dashboard.py``).
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.compare import DEFAULT_TOLERANCE, Delta, compare_results
from repro.bench.record import BenchRecord
from repro.bench.runner import ARTIFACTS, BenchArtifact
from repro.dashboard.html import (
    backend_slug,
    esc,
    fmt_ms,
    fmt_ratio,
    num_cell,
    page,
    table,
)
from repro.dashboard.loader import Snapshot
from repro.dashboard.svg import bar_chart, sparkline

Pathish = Union[str, pathlib.Path]


def _write(path: pathlib.Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _by_artifact(records: Sequence[BenchRecord]) -> Dict[str, List[BenchRecord]]:
    grouped: Dict[str, List[BenchRecord]] = {}
    for record in sorted(records, key=lambda r: r.key):
        grouped.setdefault(record.artifact, []).append(record)
    return grouped


def _backend_labels(records: Sequence[BenchRecord]) -> List[str]:
    return sorted({r.backend for r in records})


def _config_spec(record: BenchRecord) -> str:
    """The record's resolved ScanConfig as a compact ``k=v`` spec."""
    if not record.config:
        return "(pre-config record)"
    parts = [
        f"{key}={record.config[key]}"
        for key in sorted(record.config)
        if record.config[key] is not None
    ]
    return " ".join(parts) if parts else "(all defaults)"


def _env_block(records: Sequence[BenchRecord]) -> str:
    """The environment fingerprint(s) of a record group as a ``<dl>``."""
    fingerprints = []
    for record in records:
        fp = tuple(sorted((str(k), str(v)) for k, v in record.environment.items()))
        if fp not in fingerprints:
            fingerprints.append(fp)
    blocks = []
    for i, fp in enumerate(sorted(fingerprints)):
        title = (
            "<h3>Environment fingerprint</h3>"
            if len(fingerprints) == 1
            else f"<h3>Environment fingerprint {i + 1}</h3>"
        )
        items = "".join(f"<dt>{esc(k)}</dt><dd>{esc(v)}</dd>" for k, v in fp)
        blocks.append(f'{title}<dl class="env">{items}</dl>')
    return "\n".join(blocks)


def _timing_table(records: Sequence[BenchRecord]) -> str:
    rows = []
    for r in records:
        t = r.timing
        rows.append(
            [
                f"<code>{esc(r.backend)}</code>",
                esc(r.scale),
                num_cell(fmt_ms(t.median_s)),
                num_cell(fmt_ms(t.iqr_s)),
                num_cell(fmt_ms(t.min_s)),
                num_cell(fmt_ms(t.mean_s)),
                num_cell(f"{t.repeats}/{t.warmup}"),
                num_cell(str(r.num_rows)),
                sparkline(t.times_s) or "–",
            ]
        )
    return table(
        [
            "backend key",
            "scale",
            "median (ms)",
            "IQR (ms)",
            "min (ms)",
            "mean (ms)",
            "repeats/warmup",
            "rows",
            "repeat shape",
        ],
        rows,
    )


def _metrics_table(records: Sequence[BenchRecord]) -> str:
    with_metrics = [r for r in records if r.metrics]
    if not with_metrics:
        return ""
    names = sorted({name for r in with_metrics for name in r.metrics})
    rows = []
    for r in with_metrics:
        cells = [f"<code>{esc(r.backend)}</code>"]
        for name in names:
            value = r.metrics.get(name)
            if isinstance(value, float):
                cells.append(num_cell(f"{value:.4g}"))
            else:
                cells.append(num_cell(esc(value) if value is not None else "–"))
        rows.append(cells)
    return "<h3>Metrics</h3>" + table(["backend key"] + [esc(n) for n in names], rows)


def _config_table(records: Sequence[BenchRecord]) -> str:
    rows = [
        [f"<code>{esc(r.backend)}</code>", f"<code>{esc(_config_spec(r))}</code>"]
        for r in records
    ]
    return "<h3>Resolved ScanConfig</h3>" + table(
        ["backend key", "resolved spec"], rows
    )


def _delta_rows(deltas: Sequence[Delta], *, link_depth: int) -> List[list]:
    prefix = "../" * link_depth
    rows = []
    for d in deltas:
        rows.append(
            [
                ("@class", f"status-{d.status}"),
                f'<a href="{esc(prefix + f"artifact/{d.artifact}/index.html")}">'
                f"<code>{esc(d.artifact)}</code></a>",
                esc(d.scale),
                f"<code>{esc(d.backend)}</code>",
                num_cell(fmt_ms(d.old_median_s)),
                num_cell(fmt_ms(d.new_median_s)),
                num_cell(fmt_ratio(d.ratio)),
                esc(d.status),
            ]
        )
    return rows


_DELTA_HEADERS = [
    "artifact",
    "scale",
    "backend key",
    "baseline median (ms)",
    "current median (ms)",
    "ratio",
    "status",
]


def _artifact_page(
    artifact: BenchArtifact,
    records: Sequence[BenchRecord],
    deltas: Sequence[Delta],
    history: Sequence[Snapshot],
) -> str:
    name = artifact.name
    parts = [f"<h1><code>{esc(name)}</code></h1>"]
    parts.append(
        f'<p class="meta">Reproduces: <strong>{esc(artifact.paper)}</strong> — '
        f"{esc(artifact.summary)}. Swept axes: {esc(artifact.axes)}.</p>"
    )
    if not records:
        parts.append(
            "<p>No records in the current result set — run "
            f"<code>python -m repro.bench --artifacts {esc(name)}</code>.</p>"
        )
    else:
        parts.append("<h2>Timings</h2>")
        parts.append(_timing_table(records))
        chart = bar_chart(
            [f"{r.backend} ({r.scale})" for r in records],
            [r.timing.median_s * 1e3 for r in records],
        )
        if chart:
            parts.append(chart)
        metrics = _metrics_table(records)
        if metrics:
            parts.append(metrics)
        parts.append(_config_table(records))
        parts.append(_env_block(records))
    artifact_deltas = [d for d in deltas if d.artifact == name]
    if artifact_deltas:
        parts.append("<h2>vs. baseline</h2>")
        parts.append(
            table(_DELTA_HEADERS, _delta_rows(artifact_deltas, link_depth=2))
        )
    trend = _trend_table(name, records, history)
    if trend:
        parts.append("<h2>History</h2>")
        parts.append(trend)
    return page(
        title=f"{name} — bppsa-repro results",
        body="\n".join(parts),
        depth=2,
        crumbs=[("index", "index.html"), (name, None)],
    )


def _trend_table(
    name: str,
    records: Sequence[BenchRecord],
    history: Sequence[Snapshot],
) -> str:
    """Per-backend-key medians across history snapshots (+ current)."""
    if not history:
        return ""
    keys = sorted(
        {(r.scale, r.backend) for r in records}
        | {
            (r.scale, r.backend)
            for snap in history
            for r in snap.records
            if r.artifact == name
        }
    )
    if not keys:
        return ""
    headers = ["backend key", "scale"]
    headers += [esc(snap.label) for snap in history]
    headers += ["current", "trend"]
    rows = []
    for scale, backend in keys:
        cells = [f"<code>{esc(backend)}</code>", esc(scale)]
        series: List[float] = []
        for snap in history:
            median = _median_of(snap.records, name, scale, backend)
            cells.append(num_cell(fmt_ms(median)))
            if median is not None:
                series.append(median)
        current = _median_of(records, name, scale, backend)
        cells.append(num_cell(fmt_ms(current)))
        if current is not None:
            series.append(current)
        cells.append(sparkline(series) or "–")
        rows.append(cells)
    note = (
        '<p class="meta">Median (ms) per snapshot, oldest first; '
        "the last column sketches the trend including the current run.</p>"
    )
    return note + table(headers, rows)


def _median_of(
    records: Sequence[BenchRecord], artifact: str, scale: str, backend: str
) -> Optional[float]:
    for r in records:
        if r.key == (artifact, scale, backend):
            return r.timing.median_s
    return None


def _backend_page(label: str, records: Sequence[BenchRecord]) -> str:
    rows = []
    for r in records:
        rows.append(
            [
                f'<a href="../../artifact/{esc(r.artifact)}/index.html">'
                f"<code>{esc(r.artifact)}</code></a>",
                esc(r.scale),
                num_cell(fmt_ms(r.timing.median_s)),
                num_cell(fmt_ms(r.timing.iqr_s)),
                num_cell(str(r.num_rows)),
            ]
        )
    chart = bar_chart(
        [f"{r.artifact} ({r.scale})" for r in records],
        [r.timing.median_s * 1e3 for r in records],
    )
    body = [
        f"<h1>Backend <code>{esc(label)}</code></h1>",
        f'<p class="meta">{len(records)} record(s) across artifacts.</p>',
        table(
            ["artifact", "scale", "median (ms)", "IQR (ms)", "rows"],
            rows,
        ),
    ]
    if chart:
        body.append(chart)
    return page(
        title=f"backend {label} — bppsa-repro results",
        body="\n".join(body),
        depth=2,
        crumbs=[("index", "index.html"), (label, None)],
    )


def _delta_page(deltas: Sequence[Delta], tolerance: float) -> str:
    counts: Dict[str, int] = {}
    for d in deltas:
        counts[d.status] = counts.get(d.status, 0) + 1
    summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts)) or "no keys"
    body = [
        "<h1>Current vs. baseline</h1>",
        f'<p class="meta">Tolerance ±{tolerance:.0%} on the timing median '
        "— identical to the <code>repro.bench.compare</code> CI gate "
        "(both call the shared <code>classify()</code>). "
        f"Summary: {esc(summary)}.</p>",
        table(_DELTA_HEADERS, _delta_rows(deltas, link_depth=1)),
    ]
    return page(
        title="delta vs. baseline — bppsa-repro results",
        body="\n".join(body),
        depth=1,
        crumbs=[("index", "index.html"), ("delta", None)],
    )


def _index_page(
    grouped: Dict[str, List[BenchRecord]],
    backends: Sequence[str],
    deltas: Sequence[Delta],
    history: Sequence[Snapshot],
    tolerance: float,
) -> str:
    artifact_rows = []
    for artifact in ARTIFACTS:
        records = grouped.get(artifact.name, [])
        artifact_rows.append(
            [
                f'<a href="artifact/{esc(artifact.name)}/index.html">'
                f"<code>{esc(artifact.name)}</code></a>",
                esc(artifact.paper),
                esc(artifact.summary),
                esc(artifact.axes),
                num_cell(str(len(records))),
            ]
        )
    backend_rows = [
        [
            f'<a href="backend/{esc(backend_slug(label))}/index.html">'
            f"<code>{esc(label)}</code></a>",
            num_cell(
                str(sum(1 for rs in grouped.values() for r in rs if r.backend == label))
            ),
        ]
        for label in backends
    ]
    regressions = sum(1 for d in deltas if d.status == "regression")
    delta_note = (
        f"{regressions} regression(s)" if regressions else "no regressions"
    )
    body = [
        "<h1>bppsa-repro results</h1>",
        '<p class="meta">Every benchmark artifact of the BPPSA '
        "reproduction, rendered from the schema-validated bench corpus "
        "(<code>BENCH_*.json</code> / <code>bench.json</code>). "
        "The table below is the artifact ↔ paper-figure map — the same "
        "data that generates the BENCHMARKS.md table.</p>",
        f'<p><a href="delta/index.html">Current vs. baseline</a> '
        f"(tolerance ±{tolerance:.0%}): {esc(delta_note)}."
        + (
            f" History: {len(history)} prior snapshot(s) rendered on "
            "artifact pages."
            if history
            else ""
        )
        + "</p>",
        "<h2>Artifacts</h2>",
        table(
            ["artifact", "paper anchor", "measures", "swept axes", "records"],
            artifact_rows,
        ),
        "<h2>Backend keys</h2>",
        table(["backend key", "records"], backend_rows),
    ]
    return page(
        title="bppsa-repro results",
        body="\n".join(body),
        depth=0,
        crumbs=None,
    )


def build_site(
    out_dir: Pathish,
    current: Sequence[BenchRecord],
    baseline: Sequence[BenchRecord] = (),
    history: Sequence[Snapshot] = (),
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[pathlib.Path]:
    """Render the whole site into ``out_dir``; returns written paths.

    One page per bench artifact is always written (artifacts missing
    from ``current`` get a stub page), so the URL scheme is stable
    regardless of which sweep produced the corpus.  Deltas are computed
    once with :func:`~repro.bench.compare.compare_results` and reused
    by both the delta page and the per-artifact baseline sections.
    """
    out = pathlib.Path(out_dir)
    grouped = _by_artifact(current)
    backends = _backend_labels(current)
    deltas = (
        compare_results(baseline, current, tolerance=tolerance) if baseline else []
    )
    written: List[pathlib.Path] = []

    index = out / "index.html"
    _write(index, _index_page(grouped, backends, deltas, history, tolerance))
    written.append(index)

    for artifact in ARTIFACTS:
        path = out / "artifact" / artifact.name / "index.html"
        _write(
            path,
            _artifact_page(artifact, grouped.get(artifact.name, []), deltas, history),
        )
        written.append(path)

    for label in backends:
        records = sorted(
            (r for rs in grouped.values() for r in rs if r.backend == label),
            key=lambda r: r.key,
        )
        path = out / "backend" / backend_slug(label) / "index.html"
        _write(path, _backend_page(label, records))
        written.append(path)

    delta_path = out / "delta" / "index.html"
    _write(delta_path, _delta_page(deltas, tolerance))
    written.append(delta_path)
    return written
