"""Tier-1 tests for the ``repro.dashboard`` results plane.

Pins the contracts the static site makes to the outside world: the
deterministic URL scheme (slugs and paths are deep-link surface), HTML
well-formedness + self-containment via the site checker, byte-identical
rebuilds, delta verdicts identical to the ``repro.bench.compare`` gate,
a golden-file render of one artifact page, the BENCHMARKS.md table
staying in sync with the bench runner's artifact table, and the
docstring coverage the ruff D1xx CI rules enforce (re-checked here via
AST so the audit also runs where ruff is not installed).
"""

import ast
import pathlib
import re

import pytest

from repro.bench.compare import compare_results
from repro.bench.record import BenchRecord, TimingStats
from repro.bench.runner import artifact_names
from repro.dashboard import backend_slug, build_site, check_site, markdown_table
from repro.dashboard.loader import (
    Snapshot,
    load_history,
    load_results_dir,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

#: Fixed fingerprint so rendered pages are reproducible across machines.
_ENV = {
    "python": "3.11.0",
    "numpy": "2.0.0",
    "platform": "TestOS-1.0",
    "machine": "x86_64",
    "cpu_count": 4,
}

#: Metrics satisfying the serve_throughput records' schema contract.
_SERVE_METRICS = {
    "p50_ms": 1.25,
    "p99_ms": 3.5,
    "jobs_per_s": 320.0,
    "cache_hit_rate": 0.75,
}


def _rec(artifact, backend="serial", times=(0.010, 0.012, 0.011), metrics=None):
    return BenchRecord(
        artifact=artifact,
        scale="smoke",
        backend=backend,
        timing=TimingStats.from_times(list(times), warmup=1),
        environment=dict(_ENV),
        num_rows=3,
        metrics=dict(metrics or {}),
        config={"executor": backend.partition("[")[0], "kernel": "numpy"},
    )


def _corpus():
    """One current record per bench artifact, plus swept extras."""
    records = []
    for name in artifact_names():
        metrics = _SERVE_METRICS if name == "serve_throughput" else None
        records.append(_rec(name, metrics=metrics))
    records.append(_rec("parallel_backends", backend="thread:2", times=(0.02, 0.021)))
    records.append(  # only in current → "added" delta
        _rec("sparse_scan", backend="thread:2[sparse=on][kernel=numba]")
    )
    return records


def _baseline():
    """Baseline shaped to produce every delta status against _corpus()."""
    records = []
    for name in artifact_names():
        metrics = _SERVE_METRICS if name == "serve_throughput" else None
        if name == "parallel_backends":
            times = (0.001, 0.0012, 0.0011)  # current is 10× slower: regression
        elif name == "sparse_scan":
            times = (0.10, 0.12, 0.11)  # current is 10× faster: improved
        else:
            times = (0.010, 0.012, 0.011)  # unchanged: ok
        records.append(_rec(name, times=times, metrics=metrics))
    records.append(  # only in baseline → "removed" delta
        _rec("parallel_backends", backend="process:4")
    )
    return records


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    out = tmp_path_factory.mktemp("site")
    build_site(out, _corpus(), _baseline(), tolerance=0.25)
    return out


class TestUrlScheme:
    def test_backend_slugs_are_pinned(self):
        """Slugs are deep-link surface — changing them breaks bookmarks."""
        assert backend_slug("serial") == "serial"
        assert backend_slug("thread:2") == "thread-2"
        assert backend_slug("process:4") == "process-4"
        assert backend_slug("n/a") == "n-a"
        assert (
            backend_slug("thread:2[sparse=on][kernel=numba]")
            == "thread-2-sparse-on-kernel-numba"
        )
        with pytest.raises(ValueError):
            backend_slug("---")

    def test_page_paths_are_deterministic(self, site):
        rel = {str(p.relative_to(site)) for p in site.rglob("*.html")}
        expected = {"index.html", "delta/index.html"}
        expected |= {f"artifact/{name}/index.html" for name in artifact_names()}
        expected |= {
            "backend/serial/index.html",
            "backend/thread-2/index.html",
            "backend/thread-2-sparse-on-kernel-numba/index.html",
        }
        assert rel == expected

    def test_every_catalog_artifact_gets_a_page(self, site):
        assert len(artifact_names()) >= 17
        for name in artifact_names():
            assert (site / "artifact" / name / "index.html").is_file()


class TestSiteIntegrity:
    def test_checker_finds_no_problems(self, site):
        assert check_site(site) == []

    def test_zero_external_references(self, site):
        for page in site.rglob("*.html"):
            text = page.read_text()
            assert "http://" not in text and "https://" not in text

    def test_rebuild_is_byte_identical(self, site, tmp_path):
        build_site(tmp_path, _corpus(), _baseline(), tolerance=0.25)
        for page in sorted(site.rglob("*.html")):
            rel = page.relative_to(site)
            assert (tmp_path / rel).read_bytes() == page.read_bytes(), rel


def _parse_delta_rows(delta_html):
    """(artifact, backend, status) per row of a rendered delta table."""
    rows = []
    for match in re.finditer(
        r'<tr class="status-(?P<status>[a-z]+)">'
        r".*?<code>(?P<artifact>[^<]+)</code>"
        r".*?<code>(?P<backend>[^<]+)</code>",
        delta_html,
    ):
        rows.append(
            (match.group("artifact"), match.group("backend"), match.group("status"))
        )
    return rows


class TestDeltaAgreement:
    def test_delta_page_matches_compare_verdicts_exactly(self, site):
        """The acceptance criterion: the rendered delta view and the CI
        gate produce identical verdicts for every key."""
        rendered = _parse_delta_rows((site / "delta" / "index.html").read_text())
        deltas = compare_results(_baseline(), _corpus(), tolerance=0.25)
        expected = [(d.artifact, d.backend, d.status) for d in deltas]
        assert rendered == expected
        statuses = {status for _, _, status in rendered}
        assert {"ok", "regression", "improved", "added", "removed"} <= statuses

    def test_artifact_page_reuses_the_same_deltas(self, site):
        page = (site / "artifact" / "parallel_backends" / "index.html").read_text()
        rows = _parse_delta_rows(page)
        deltas = [
            d
            for d in compare_results(_baseline(), _corpus(), tolerance=0.25)
            if d.artifact == "parallel_backends"
        ]
        assert rows == [(d.artifact, d.backend, d.status) for d in deltas]

    def test_tolerance_flows_through(self, tmp_path):
        """A looser tolerance flips the verdicts on both surfaces."""
        build_site(tmp_path, _corpus(), _baseline(), tolerance=100.0)
        rendered = _parse_delta_rows((tmp_path / "delta" / "index.html").read_text())
        assert all(
            status in ("ok", "added", "removed") for _, _, status in rendered
        )


class TestGolden:
    def test_artifact_page_matches_golden(self, site):
        """Full-page golden render: any change to markup, charts, number
        formatting, or delta rows must be a conscious golden update
        (regenerate with `python tests/golden/regen_dashboard.py`)."""
        rendered = (site / "artifact" / "parallel_backends" / "index.html").read_text()
        golden = (GOLDEN / "dashboard_parallel_backends.html").read_text()
        assert rendered == golden


class TestHistory:
    def test_trend_table_renders_snapshots(self, tmp_path):
        old = [_rec("parallel_backends", times=(0.005, 0.006))]
        snapshots = [Snapshot("snap-001", "2026-01-01T00:00:00+00:00", old)]
        build_site(tmp_path, _corpus(), _baseline(), snapshots, tolerance=0.25)
        page = (tmp_path / "artifact" / "parallel_backends" / "index.html").read_text()
        assert "History" in page and "snap-001" in page
        # other artifacts show no trend rows for keys they never had
        other = (tmp_path / "artifact" / "fig4_schedule" / "index.html").read_text()
        assert "snap-001" in other  # header renders...
        assert check_site(tmp_path) == []

    def test_load_history_orders_by_stamp(self, tmp_path):
        import json

        from repro.experiments.common import to_jsonable

        def snap(name, stamp):
            doc = {
                "schema_version": 1,
                "generated_at": stamp,
                "records": [to_jsonable(_rec("sparse_scan").to_dict())],
            }
            (tmp_path / name).write_text(json.dumps(doc))

        snap("zzz.json", "2026-01-01T00:00:00+00:00")
        snap("aaa.json", "2026-02-01T00:00:00+00:00")
        loaded = load_history(tmp_path)
        assert [s.label for s in loaded] == ["zzz", "aaa"]
        with pytest.raises(FileNotFoundError):
            load_history(tmp_path / "nope")


class TestLoader:
    def test_results_dir_union_prefers_combined(self, tmp_path):
        from repro.bench.writer import write_results

        write_results([_rec("sparse_scan")], tmp_path)
        # A leftover per-artifact file from an older partial sweep adds
        # keys the combined file lacks, but never overrides it.
        write_results(
            [_rec("parallel_backends", times=(0.5, 0.6))],
            tmp_path / "partial",
        )
        (tmp_path / "partial" / "BENCH_parallel_backends.json").rename(
            tmp_path / "BENCH_parallel_backends.json"
        )
        records = load_results_dir(tmp_path)
        assert {r.artifact for r in records} == {"parallel_backends", "sparse_scan"}
        with pytest.raises(FileNotFoundError):
            load_results_dir(tmp_path / "empty-does-not-exist")


class TestChecker:
    def _site(self, tmp_path, body, name="index.html"):
        page = (
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
            f"<title>t</title></head><body>{body}</body></html>"
        )
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(page)
        return tmp_path

    def test_broken_internal_link(self, tmp_path):
        site = self._site(tmp_path, '<a href="artifact/gone/index.html">x</a>')
        assert any("broken internal link" in p for p in check_site(site))

    def test_misnested_tags(self, tmp_path):
        site = self._site(tmp_path, "<table><tr><td>x</tr></td></table>")
        assert any("misnested" in p or "closed" in p for p in check_site(site))

    def test_external_reference_flagged(self, tmp_path):
        site = self._site(tmp_path, '<a href="https://example.com">x</a>')
        assert any("self-contained" in p for p in check_site(site))

    def test_asset_loads_flagged(self, tmp_path):
        site = self._site(tmp_path, '<img src="chart.png">')
        assert any("src=" in p for p in check_site(site))

    def test_orphan_page_flagged(self, tmp_path):
        self._site(tmp_path, "ok")
        self._site(tmp_path, "orphan", name="artifact/x/index.html")
        assert any("unreachable" in p for p in check_site(tmp_path))

    def test_clean_site_passes(self, tmp_path):
        self._site(tmp_path, '<a href="artifact/x/index.html">x</a>')
        self._site(tmp_path, '<a href="../../index.html">up</a>', "artifact/x/index.html")
        assert check_site(tmp_path) == []


class TestBenchmarksTableSync:
    def test_committed_table_matches_catalog(self):
        """BENCHMARKS.md embeds the generated table verbatim between the
        artifact-table markers (regenerate: python -m repro.dashboard.catalog)."""
        text = (REPO / "BENCHMARKS.md").read_text()
        match = re.search(
            r"<!-- artifact-table:begin -->\n(.*?)\n<!-- artifact-table:end -->",
            text,
            re.S,
        )
        assert match, "BENCHMARKS.md is missing the artifact-table markers"
        assert match.group(1) == markdown_table()


#: Packages whose public surfaces the ruff D1xx CI rules cover; this
#: AST re-check keeps the audit enforceable offline (ruff is CI-only).
_AUDITED_PACKAGES = ("serve", "pipeline", "dashboard")


def _missing_docstrings():
    missing = []
    for package in _AUDITED_PACKAGES:
        for path in sorted((REPO / "src" / "repro" / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(f"{path}: module")
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if node.name.startswith("_"):
                    continue
                # Methods of private classes and nested helpers are not
                # public surface (mirrors pydocstyle's D1xx scoping).
                if _enclosing_is_private(tree, node):
                    continue
                if ast.get_docstring(node) is None:
                    missing.append(f"{path}:{node.lineno}: {node.name}")
    return missing


def _enclosing_is_private(tree, target):
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.iter_child_nodes(node):
                if child is target and (
                    node.name.startswith("_")
                    or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                ):
                    return True
    return False


class TestDocstringAudit:
    def test_public_surfaces_are_documented(self):
        missing = _missing_docstrings()
        assert missing == [], "undocumented public surfaces:\n" + "\n".join(missing)
