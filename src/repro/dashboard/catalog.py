"""The artifact ↔ paper-figure catalog — one source of truth, as data.

Before this module existed the mapping from bench artifacts to the
paper's tables/figures lived only as BENCHMARKS.md prose, so the docs
and the bench runner could silently drift apart.  Now the mapping is a
validated data structure: :data:`CATALOG` must name exactly the
artifacts of :data:`repro.bench.runner.ARTIFACTS`, in run order
(:func:`validate_catalog` is called by every dashboard build, so drift
fails the site generator), and both consumers render *from* it:

* the dashboard index page (:mod:`repro.dashboard.pages`);
* the generated artifact table in BENCHMARKS.md —
  ``python -m repro.dashboard.catalog`` prints the markdown block
  between the ``artifact-table`` markers, and
  ``tests/test_dashboard.py`` asserts the committed file matches it
  byte for byte.

Axis sensitivity (backend / sparse) is deliberately *not*
stored here: it is read off the :class:`~repro.bench.runner.BenchArtifact`
flags, so the catalog adds only what the runner cannot know — which
part of the paper each artifact reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class CatalogEntry:
    """One artifact's paper anchor and one-line description.

    ``paper`` is the table/figure/equation the artifact reproduces
    (``"repo artifact"`` for repo-native benchmarks); ``summary`` is
    the one-liner shown in the dashboard index and the BENCHMARKS.md
    table.
    """

    name: str
    paper: str
    summary: str


#: Every benchmarkable artifact, in the bench runner's run order.
CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "table2_devices",
        "Table 2",
        "platform specifications: the simulated-device catalog",
    ),
    CatalogEntry(
        "fig3_pipeline",
        "Figure 3 / §2.2",
        "pipeline-parallelism limits, plus measured staged-scan runs",
    ),
    CatalogEntry(
        "fig4_schedule",
        "Figure 4",
        "the modified Blelloch scan schedule on VGG-11",
    ),
    CatalogEntry(
        "table1_sparsity",
        "Table 1",
        "guaranteed zeros + T-Jacobian generation speedup",
    ),
    CatalogEntry(
        "fig6_patterns",
        "Figure 6",
        "T-Jacobian sparsity patterns (conv / max-pool / ReLU)",
    ),
    CatalogEntry(
        "fig8_bitstreams",
        "Figure 8 / Eq. 8",
        "the bitstream classification dataset",
    ),
    CatalogEntry(
        "eq6_complexity",
        "Eqs. 6–7",
        "step and work complexity on real executor schedules",
    ),
    CatalogEntry(
        "scaling_comparison",
        "Figure 1 (claim)",
        "BPPSA vs naïve/GPipe critical-path scaling",
    ),
    CatalogEntry(
        "fig10_sensitivity",
        "Figure 10",
        "speedup sensitivity to sequence length T and batch size B",
    ),
    CatalogEntry(
        "fig11_flops",
        "Figure 11 / §4.2",
        "measured per-step FLOPs on pruned VGG-11",
    ),
    CatalogEntry(
        "ablation_truncation",
        "§5.2",
        "truncation-depth ablation of the truncated scan",
    ),
    CatalogEntry(
        "fig7_convergence",
        "Figure 7 / §3.5",
        "LeNet-5 convergence: taped BP vs FeedforwardBPPSA",
    ),
    CatalogEntry(
        "fig9_rnn_curve",
        "Figure 9 / §5.1",
        "RNN loss vs wall-clock, the headline workload",
    ),
    CatalogEntry(
        "parallel_backends",
        "repo artifact",
        "one Blelloch scan timed on every execution backend",
    ),
    CatalogEntry(
        "sparse_scan",
        "repo artifact",
        "dense-vs-sparse dispatch of the same CSR Jacobian chain",
    ),
    CatalogEntry(
        "serve_throughput",
        "repo artifact",
        "the serving plane under concurrent client load",
    ),
    CatalogEntry(
        "pipeline_scan",
        "repo artifact",
        "the staged scan pipeline across stages × micro-batches",
    ),
    CatalogEntry(
        "transformer_scan",
        "repo artifact",
        "attention-block Jacobian chain through every sparse mode",
    ),
    CatalogEntry(
        "pruned_sparsity",
        "Figure 11 / §4.2",
        "train → prune → retrain: weight sparsity into scan speedup",
    ),
)


def catalog_names() -> List[str]:
    """Catalog artifact names, in run order."""
    return [entry.name for entry in CATALOG]


def entry_for(name: str) -> CatalogEntry:
    """The catalog entry for one artifact name (KeyError when absent)."""
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"artifact {name!r} is not in the dashboard catalog")


def axes_label(name: str) -> str:
    """The swept-axes cell for one artifact (from the runner's flags)."""
    from repro.bench.runner import _BY_NAME

    artifact = _BY_NAME[name]
    axes = []
    if artifact.backend_sensitive:
        axes.append("backend")
    if artifact.sparse_sensitive:
        axes.append("sparse")
    return ", ".join(axes) if axes else "—"


def validate_catalog() -> None:
    """Raise ``ValueError`` unless the catalog matches the bench runner.

    Exact same names, exact same order — adding an artifact to
    :data:`repro.bench.runner.ARTIFACTS` without cataloguing it (or
    vice versa) breaks every dashboard build and the BENCHMARKS.md
    sync test, which is the point: the map cannot silently rot.
    """
    from repro.bench.runner import artifact_names

    expected = artifact_names()
    got = catalog_names()
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise ValueError(
            "dashboard catalog is out of sync with repro.bench.runner."
            f"ARTIFACTS: missing {missing or 'none'}, extra {extra or 'none'}"
            " (order must match run order)"
        )


def markdown_table() -> str:
    """The BENCHMARKS.md artifact table, rendered from the catalog.

    The committed BENCHMARKS.md embeds this output between
    ``<!-- artifact-table:begin -->`` / ``<!-- artifact-table:end -->``
    markers; regenerate it with ``python -m repro.dashboard.catalog``.
    """
    validate_catalog()
    lines = [
        "| artifact | paper anchor | measures | swept axes |",
        "| --- | --- | --- | --- |",
    ]
    for entry in CATALOG:
        lines.append(
            f"| `{entry.name}` | {entry.paper} | {entry.summary} "
            f"| {axes_label(entry.name)} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(markdown_table())
