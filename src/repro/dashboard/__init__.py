"""The results plane: the bench corpus rendered as a static site.

``python -m repro.dashboard --out site/`` turns the schema-validated
measurement corpus (``BENCH_*.json`` / ``bench.json`` plus the
checked-in baselines) into a browsable, self-contained HTML dashboard
— the observability capstone over the bench subsystem, modeled on the
mlanthology static-site scheme: a computable URL per entity and no
backend.

``catalog``
    :func:`~repro.dashboard.catalog.markdown_table`, the generated
    BENCHMARKS.md artifact table; it and the dashboard index render
    the artifact ↔ paper-figure map from
    :data:`repro.bench.runner.ARTIFACTS`.
``loader``
    Corpus loading: results directory, merged baselines, ``--history``
    snapshots — all through the validating bench reader.
``html`` / ``svg``
    Deterministic building blocks: escaping, the page shell,
    :func:`~repro.dashboard.html.backend_slug`, pure-Python bar charts
    and sparklines (no JS, no external assets).
``pages``
    :func:`~repro.dashboard.pages.build_site` — records → pages, with
    delta verdicts from the shared
    :func:`repro.bench.compare.classify` so dashboard and CI gate can
    never disagree.
``check``
    Structural validation of a built site: HTML well-formedness,
    internal-link resolution, self-containment (the CI leg's gate).
"""

# All exports are lazy so ``python -m repro.dashboard.catalog`` /
# ``.check`` do not find their submodule pre-imported in sys.modules
# (runpy would warn) — same pattern as :mod:`repro.bench`.
_EXPORTS = {
    "markdown_table": "catalog",
    "check_site": "check",
    "backend_slug": "html",
    "Snapshot": "loader",
    "load_baselines": "loader",
    "load_history": "loader",
    "load_results_dir": "loader",
    "build_site": "pages",
}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f"repro.dashboard.{_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Snapshot",
    "backend_slug",
    "build_site",
    "check_site",
    "load_baselines",
    "load_history",
    "load_results_dir",
    "markdown_table",
]
