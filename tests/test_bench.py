"""Tier-1 tests for the ``repro.bench`` subsystem.

Covers the schema round-trip, validation failures, the regression
gate (including the CLI exit code), the artifact × backend runner, and
the experiments' data/view split the runner relies on.
"""

import copy
import json

import pytest

from repro.bench import (
    BenchRecord,
    SchemaError,
    TimingStats,
    compare_results,
    environment_fingerprint,
    has_regressions,
    load_records,
    measure,
    run_bench,
    validate_record,
    write_results,
)
from repro.bench.compare import main as compare_main
from repro.bench.runner import NO_BACKEND, artifact_names, make_scan_items
from repro.experiments import eq6_complexity, table2_devices
from repro.experiments.common import Scale, to_jsonable


def _record(artifact="fig9_rnn_curve", backend="serial", times=(0.1, 0.12, 0.11)):
    return BenchRecord(
        artifact=artifact,
        scale="smoke",
        backend=backend,
        timing=TimingStats.from_times(list(times), warmup=1),
        environment=environment_fingerprint(),
        num_rows=2,
        metrics={"overall_speedup": 2.0},
    )


class TestRecordSchema:
    def test_round_trip_through_json(self):
        rec = _record()
        restored = BenchRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert restored == rec

    def test_timing_stats(self):
        stats = TimingStats.from_times([3.0, 1.0, 2.0], warmup=2)
        assert stats.median_s == 2.0
        assert stats.min_s == 1.0
        assert stats.repeats == 3
        assert stats.warmup == 2
        assert stats.iqr_s > 0
        single = TimingStats.from_times([0.5])
        assert single.iqr_s == 0.0
        assert single.median_s == 0.5

    def test_validate_rejects_missing_field(self):
        d = _record().to_dict()
        del d["environment"]
        with pytest.raises(SchemaError, match="environment"):
            validate_record(d)

    def test_validate_rejects_bad_types_and_versions(self):
        good = _record().to_dict()
        bad = copy.deepcopy(good)
        bad["num_rows"] = "two"
        with pytest.raises(SchemaError):
            validate_record(bad)
        bad = copy.deepcopy(good)
        bad["schema_version"] = 99
        with pytest.raises(SchemaError, match="schema_version"):
            validate_record(bad)
        bad = copy.deepcopy(good)
        bad["timing"]["repeats"] = 7
        with pytest.raises(SchemaError, match="repeats"):
            validate_record(bad)
        bad = copy.deepcopy(good)
        del bad["environment"]["numpy"]
        with pytest.raises(SchemaError, match="numpy"):
            validate_record(bad)

    def test_env_fingerprint_contents(self):
        env = environment_fingerprint()
        assert env["cpu_count"] >= 1
        assert env["python"] and env["numpy"]


class TestWriter:
    def test_write_and_load(self, tmp_path):
        records = [_record(), _record(backend="thread:2"), _record("eq6_complexity")]
        combined = write_results(records, tmp_path)
        assert combined == tmp_path / "bench.json"
        assert (tmp_path / "BENCH_fig9_rnn_curve.json").exists()
        assert (tmp_path / "BENCH_eq6_complexity.json").exists()
        loaded = load_records(combined)
        assert loaded == records
        per_artifact = load_records(tmp_path / "BENCH_fig9_rnn_curve.json")
        assert {r.backend for r in per_artifact} == {"serial", "thread:2"}

    def test_sweep_stamp_shared_across_files(self, tmp_path):
        records = [_record(), _record("eq6_complexity")]
        combined = write_results(records, tmp_path)
        docs = [
            json.loads((tmp_path / name).read_text())
            for name in (
                "bench.json",
                "BENCH_fig9_rnn_curve.json",
                "BENCH_eq6_complexity.json",
            )
        ]
        assert len({d["sweep_id"] for d in docs}) == 1
        assert len({d["generated_at"] for d in docs}) == 1
        # a second sweep gets a different id (stale-file detection)
        write_results(records, tmp_path)
        assert (
            json.loads(combined.read_text())["sweep_id"] != docs[0]["sweep_id"]
        )

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"no_records": []}')
        with pytest.raises(SchemaError):
            load_records(p)
        p.write_text('"just a string"')
        with pytest.raises(SchemaError):
            load_records(p)

    def test_load_error_names_record_index_and_key(self, tmp_path):
        """One bad record in a big file must point at the culprit: the
        error carries the record's index plus its artifact/backend, not
        just the file path."""
        records = [_record(), _record("eq6_complexity", backend="thread:2")]
        combined = write_results(records, tmp_path)
        doc = json.loads(combined.read_text())
        del doc["records"][1]["timing"]["median_s"]
        combined.write_text(json.dumps(doc))
        with pytest.raises(
            SchemaError,
            match=(
                r"record 1 \(artifact='eq6_complexity', "
                r"backend='thread:2'\)"
            ),
        ) as excinfo:
            load_records(combined)
        assert str(combined) in str(excinfo.value)
        # A record too malformed to even carry its key still gets the
        # file + index.
        doc["records"][1] = {"not": "a record"}
        combined.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="record 1:"):
            load_records(combined)


class TestCompare:
    def test_identical_files_pass(self, tmp_path):
        records = [_record(), _record("eq6_complexity", backend=NO_BACKEND)]
        a = write_results(records, tmp_path / "a")
        b = write_results(records, tmp_path / "b")
        deltas = compare_results(load_records(a), load_records(b))
        assert not has_regressions(deltas)
        assert all(d.status == "ok" for d in deltas)
        assert compare_main([str(a), str(b)]) == 0

    def test_injected_slowdown_flagged_and_exits_nonzero(self, tmp_path):
        old = [_record(), _record("eq6_complexity", backend=NO_BACKEND)]
        slow = [
            _record(times=(1.0, 1.2, 1.1)),  # 10x the old medians
            _record("eq6_complexity", backend=NO_BACKEND),
        ]
        a = write_results(old, tmp_path / "a")
        b = write_results(slow, tmp_path / "b")
        deltas = compare_results(load_records(a), load_records(b), tolerance=0.25)
        by_artifact = {d.artifact: d for d in deltas}
        assert by_artifact["fig9_rnn_curve"].status == "regression"
        assert by_artifact["fig9_rnn_curve"].ratio == pytest.approx(10.0)
        assert by_artifact["eq6_complexity"].status == "ok"
        assert has_regressions(deltas)
        assert compare_main([str(a), str(b)]) == 1
        # report-only mode gates nothing
        assert compare_main([str(a), str(b), "--report-only"]) == 0

    def test_improvement_and_added_removed(self):
        old = [_record(), _record("old_only")]
        new = [_record(times=(0.01, 0.011, 0.012)), _record("new_only")]
        statuses = {d.artifact: d.status for d in compare_results(old, new)}
        assert statuses["fig9_rnn_curve"] == "improved"
        assert statuses["old_only"] == "removed"
        assert statuses["new_only"] == "added"

    def test_missing_baseline_record_exits_nonzero(self, tmp_path, capsys):
        """A baseline record absent from the new results is structural
        drift: exit 2 with a clear message, even in report-only mode."""
        old = [_record(), _record("old_only")]
        new = [_record()]
        a = write_results(old, tmp_path / "a")
        b = write_results(new, tmp_path / "b")
        assert compare_main([str(a), str(b)]) == 2
        out = capsys.readouterr().out
        assert "old_only" in out and "missing" in out
        # timing gate may be report-only; the structural gate is not
        assert compare_main([str(a), str(b), "--report-only"]) == 2
        # explicit escape hatch
        assert compare_main([str(a), str(b), "--allow-missing"]) == 0
        # added-only drift never gates
        assert compare_main([str(b), str(a)]) == 0

    def test_unreadable_results_exit_2_with_message(self, tmp_path, capsys):
        good = write_results([_record()], tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_records": []}')
        assert compare_main([str(good), str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().out
        missing_file = tmp_path / "nope.json"
        assert compare_main([str(good), str(missing_file)]) == 2

    def test_exit_2_message_names_record_index_and_key(self, tmp_path, capsys):
        """The CLI's schema-error path surfaces the per-record context
        from load_records: file, record index, and artifact/backend."""
        good = write_results([_record()], tmp_path / "a")
        bad = write_results(
            [_record(), _record("eq6_complexity", backend="thread:2")],
            tmp_path / "b",
        )
        doc = json.loads(bad.read_text())
        doc["records"][1]["num_rows"] = -1
        bad.write_text(json.dumps(doc))
        assert compare_main([str(good), str(bad)]) == 2
        out = capsys.readouterr().out
        assert "record 1" in out
        assert "artifact='eq6_complexity'" in out
        assert "backend='thread:2'" in out

    def test_classify_is_the_shared_verdict_core(self):
        """`classify` — importable from repro.bench — is the single
        verdict function compare_results routes through."""
        from repro.bench import classify

        assert classify(1.0, 1.0) == ("ok", 1.0)
        assert classify(1.0, 1.26, tolerance=0.25) == ("regression", 1.26)
        assert classify(1.0, 0.74, tolerance=0.25) == ("improved", 0.74)
        status, ratio = classify(0.0, 0.5)
        assert status == "regression" and ratio == float("inf")
        with pytest.raises(ValueError):
            classify(1.0, 1.0, tolerance=-0.1)


class TestKernelAxis:
    """The --kernel sweep axis and its hard schema gate."""

    def test_kernel_sweep_records_per_kernel(self):
        records = run_bench(
            Scale.SMOKE,
            backends=["serial"],
            artifacts=["sparse_scan", "table2_devices"],
            sparse_modes=("on",),
            kernel_modes=("numpy", "numba"),
        )
        keys = {(r.artifact, r.backend) for r in records}
        assert keys == {
            ("sparse_scan", "serial[sparse=on][kernel=numpy]"),
            ("sparse_scan", "serial[sparse=on][kernel=numba]"),
            ("table2_devices", NO_BACKEND),  # not kernel-sensitive
        }
        for r in records:
            validate_record(r.to_dict())
            if r.artifact == "sparse_scan":
                assert r.config["kernel"] in ("numpy", "numba")

    def test_kernel_axis_without_sparse_axis(self):
        records = run_bench(
            Scale.SMOKE,
            backends=["serial"],
            artifacts=["parallel_backends"],
            kernel_modes=("numpy",),
        )
        assert [r.backend for r in records] == ["serial[kernel=numpy]"]

    def test_empty_kernel_modes_rejected(self):
        with pytest.raises(ValueError, match="kernel_modes"):
            run_bench(
                Scale.SMOKE,
                backends=["serial"],
                artifacts=["sparse_scan"],
                kernel_modes=(),
            )

    def test_unknown_axis_in_backend_label_is_schema_error(self):
        rec = _record(backend="serial[kernel=numpy]").to_dict()  # known: fine
        bad = copy.deepcopy(rec)
        bad["backend"] = "serial[quantum=on]"
        with pytest.raises(SchemaError, match="unknown benchmark axis"):
            validate_record(bad)
        bad["backend"] = "serial[kernel=numpy"  # unterminated group
        with pytest.raises(SchemaError, match="malformed axis suffix"):
            validate_record(bad)
        bad["backend"] = "serial[kernel]"  # no value
        with pytest.raises(SchemaError, match="malformed axis suffix"):
            validate_record(bad)

    def test_unknown_axis_baseline_gates_compare_at_exit_2(
        self, tmp_path, capsys
    ):
        """A baseline written by a newer sweep (unknown axis) must be a
        hard load error, not a silent no-match comparison."""
        good = write_results([_record()], tmp_path / "a")
        stale = tmp_path / "b" / "bench.json"
        doc = json.loads(good.read_text())
        doc["records"][0]["backend"] = "serial[future_axis=1]"
        stale.parent.mkdir()
        stale.write_text(json.dumps(doc))
        assert compare_main([str(stale), str(good)]) == 2
        out = capsys.readouterr().out
        assert "unknown benchmark axis" in out and "regenerate" in out


class TestMeasure:
    def test_measure_returns_result_and_stats(self):
        calls = []
        result, stats = measure(
            lambda: calls.append(1) or len(calls), warmup=2, repeats=3
        )
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result == 5  # the final timed call's return value
        assert stats.repeats == 3 and stats.warmup == 2
        assert stats.median_s >= 0

    def test_measure_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)


class TestRunner:
    def test_sweep_two_artifacts_serial_and_thread(self, tmp_path):
        records = run_bench(
            Scale.SMOKE,
            backends=["serial", "thread:2"],
            artifacts=["table2_devices", "parallel_backends"],
            repeats=2,
        )
        # insensitive artifact runs once; the scan microbenchmark per spec
        keys = {(r.artifact, r.backend) for r in records}
        assert keys == {
            ("table2_devices", NO_BACKEND),
            ("parallel_backends", "serial"),
            ("parallel_backends", "thread:2"),
        }
        for r in records:
            validate_record(r.to_dict())  # schema + env fingerprint
            assert r.scale == "smoke"
            assert r.num_rows > 0
            assert r.timing.repeats == 2
        # records survive the full JSON round trip
        combined = write_results(records, tmp_path)
        assert load_records(combined) == records

    def test_parallel_backends_builds_its_input_outside_the_timed_call(
        self, monkeypatch
    ):
        from repro.bench import runner

        calls = []

        def counting_make_scan_items(*args):
            calls.append(args)
            return make_scan_items(*args)

        monkeypatch.setattr(runner, "make_scan_items", counting_make_scan_items)
        monkeypatch.setattr(runner, "_PARALLEL_BACKENDS_ITEMS", {})
        # run_bench times each cell with measure(warmup=1, repeats=3)
        (record,) = run_bench(
            Scale.SMOKE, ["serial"], ["parallel_backends"], warmup=1, repeats=3
        )
        assert record.timing.warmup == 1 and record.timing.repeats == 3
        assert len(calls) == 1

    def test_unknown_artifact_and_empty_backends(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            run_bench(Scale.SMOKE, ["serial"], ["nope"])
        with pytest.raises(ValueError, match="backend"):
            run_bench(Scale.SMOKE, [])

    def test_artifact_catalog_covers_all_paper_artifacts(self):
        names = artifact_names()
        # 13 experiments + the two scan microbenchmarks + the serving
        # benchmark + the staged-pipeline sweep + the two registry
        # workloads
        assert len(names) == 19
        assert "parallel_backends" in names
        assert "sparse_scan" in names
        assert "serve_throughput" in names
        assert "pipeline_scan" in names
        assert "transformer_scan" in names
        assert "pruned_sparsity" in names


class TestExperimentDataViewSplit:
    """The contract the runner and run_all lean on."""

    @pytest.mark.parametrize("module", [table2_devices, eq6_complexity])
    def test_rows_and_render_are_views_over_run(self, module):
        result = module.run(Scale.SMOKE)
        rows = module.result_rows(result)
        assert isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
        json.dumps(to_jsonable(rows))  # JSON-ready
        # pure views: a second run flattens and renders identically
        again = module.run(Scale.SMOKE)
        assert module.result_rows(again) == rows
        assert module.render_report(again) == module.render_report(result)
