"""Tests for the serving plane (:mod:`repro.serve`).

Covers the engine pool (per-resolved-config keying, lifecycle), the
merge/split helpers (bitwise round-trip), the server (admission,
batching, error forwarding, overload rejection, stats reconciliation),
admission-time ``configure()`` snapshotting, and — the invariant the
whole layer rests on — a concurrency stress test proving gradients of
jobs served under ≥ 8 concurrent mixed-spec clients (thread and
process backends included, with cross-request merging active) are
bitwise-identical to serial single-client runs.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.config import ScanConfig, configure, shared_pattern_cache
from repro.scan import (
    IDENTITY,
    DenseJacobian,
    GradientVector,
    SparseJacobian,
)
from repro.serve import (
    EnginePool,
    EngineServer,
    ScanEngine,
    merge_jobs,
    merge_key,
    split_scanned,
)
from repro.sparse import csr_from_diagonal


def dense_job(rng, n=6, batch=2, h=8):
    items = [GradientVector(rng.standard_normal((batch, h)))]
    items += [DenseJacobian(rng.standard_normal((batch, h, h))) for _ in range(n)]
    return items


def sparse_job(rng, n=6, batch=2, h=8):
    diag = csr_from_diagonal(np.ones(h))
    items = [GradientVector(rng.standard_normal((batch, h)))]
    items += [
        SparseJacobian(diag, rng.standard_normal((batch, h))) for _ in range(n)
    ]
    return items


def serial_reference(spec, items):
    """The same job run alone on a serial single-client engine."""
    cfg = ScanConfig.coerce(spec, executor="serial").resolve()
    engine = ScanEngine(cfg)
    try:
        return engine.run_scan(items)
    finally:
        engine.close()


def assert_scans_equal(got, ref):
    assert len(got) == len(ref)
    assert got[0] is IDENTITY and ref[0] is IDENTITY
    for g, r in zip(got[1:], ref[1:]):
        assert g.data.tobytes() == r.data.tobytes()


# ---------------------------------------------------------------------------
# engine + pool
# ---------------------------------------------------------------------------
class TestScanEngine:
    @pytest.mark.parametrize(
        "spec",
        ["blelloch/serial", "linear/serial", "hillis_steele/serial",
         "truncated/up=2/serial"],
    )
    def test_each_algorithm_matches_linear_serial(self, rng, spec):
        items = dense_job(rng)
        engine = ScanEngine(ScanConfig.from_spec(spec).resolve())
        out = engine.run_scan(items)
        ref = serial_reference("linear", items)
        # every algorithm computes the same exclusive scan (allclose:
        # association order differs across algorithms by design)
        assert len(out) == len(ref)
        for g, r in zip(out[1:], ref[1:]):
            np.testing.assert_allclose(g.data, r.data, atol=1e-9)

    def test_counts_scans_and_jobs(self, rng):
        engine = ScanEngine(ScanConfig().resolve())
        engine.run_scan(dense_job(rng))
        engine.run_scan(dense_job(rng), jobs=3)
        s = engine.stats()
        assert s["scans"] == 2 and s["jobs"] == 4
        assert "plan_cache" in s
        engine.close()
        engine.close()  # idempotent

    def test_requires_resolved_semantics(self):
        # an unresolved config still works (accessors resolve lazily),
        # but the pool always hands engines fully resolved configs
        cfg = ScanConfig.from_spec("blelloch/serial").resolve()
        assert cfg.kernel is not None and cfg.pattern_cache is not None
        ScanEngine(cfg).close()


class TestEnginePool:
    def test_keyed_by_resolved_config(self):
        pool = EnginePool()
        a = ScanConfig.from_spec("blelloch/serial").resolve()
        b = ScanConfig.from_spec("blelloch/serial").resolve()
        c = ScanConfig.from_spec("linear/serial").resolve()
        e1, e2, e3 = pool.get(a), pool.get(b), pool.get(c)
        assert e1 is e2 and e1 is not e3
        assert len(pool) == 2
        assert pool.created == 2 and pool.reused == 1
        stats = pool.stats()
        assert stats["active"] == 2
        assert set(stats["per_spec"]) == {a.spec(), c.spec()}
        pool.close()
        assert len(pool) == 0

    def test_retire(self):
        pool = EnginePool()
        cfg = ScanConfig.from_spec("blelloch/thread:2").resolve()
        pool.get(cfg)
        assert pool.retire(cfg) is True
        assert pool.retire(cfg) is False
        assert len(pool) == 0

    def test_concurrent_get_builds_one_engine(self):
        pool = EnginePool()
        cfg = ScanConfig.from_spec("blelloch/serial").resolve()
        engines = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            engines.append(pool.get(cfg))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, engines))) == 1
        assert pool.created == 1 and pool.reused == 7
        pool.close()


# ---------------------------------------------------------------------------
# merge helpers
# ---------------------------------------------------------------------------
class TestMergeHelpers:
    def test_key_for_mergeable_dense_chain(self, rng):
        k1 = merge_key(dense_job(rng, n=4, batch=2, h=8))
        k2 = merge_key(dense_job(rng, n=4, batch=3, h=8))  # batch differs: ok
        assert k1 is not None and k1 == k2

    def test_key_rejects_non_mergeable(self, rng):
        assert merge_key([]) is None
        assert merge_key(sparse_job(rng)) is None
        assert merge_key([DenseJacobian(rng.standard_normal((2, 4, 4)))]) is None
        # shared 2-D Jacobian in the chain
        items = dense_job(rng, n=2)
        items.append(DenseJacobian(rng.standard_normal((8, 8))))
        assert merge_key(items) is None
        # chain length is part of the key
        assert merge_key(dense_job(rng, n=4)) != merge_key(dense_job(rng, n=5))
        # per-item batch mismatching the seed's
        items = dense_job(rng, n=2, batch=2)
        items[1] = DenseJacobian(rng.standard_normal((3, 8, 8)))
        assert merge_key(items) is None

    def test_merge_split_roundtrip_is_bitwise(self, rng):
        jobs = [dense_job(rng, batch=b) for b in (1, 2, 3)]
        engine = ScanEngine(ScanConfig().resolve())
        merged = merge_jobs(jobs)
        assert merged[0].batch == 6
        outputs = split_scanned(
            engine.run_scan(merged), [j[0].batch for j in jobs]
        )
        for job, out in zip(jobs, outputs):
            assert_scans_equal(out, serial_reference(None, job))
        engine.close()


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
def run(coro):
    return asyncio.run(coro)


class TestEngineServer:
    def test_submit_returns_scan_output(self, rng):
        items = dense_job(rng)

        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                return await server.submit("blelloch/serial", items)

        assert_scans_equal(run(main()), serial_reference("blelloch", items))

    def test_merges_same_shape_jobs(self, rng):
        jobs = [dense_job(rng) for _ in range(4)]

        async def main():
            async with EngineServer(max_batch=4, max_wait_ms=50) as server:
                outs = await asyncio.gather(
                    *(server.submit("blelloch/serial", j) for j in jobs)
                )
                return outs, server.stats()

        outs, stats = run(main())
        for job, out in zip(jobs, outs):
            assert_scans_equal(out, serial_reference("blelloch", job))
        assert stats["batching"]["merged_jobs"] >= 2
        # merged jobs shared engine scans: fewer scans than jobs
        engine_stats = next(iter(stats["engines"]["per_spec"].values()))
        assert engine_stats["scans"] < engine_stats["jobs"] == 4

    def test_distinct_specs_use_distinct_engines(self, rng):
        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                await server.submit("blelloch/serial", dense_job(rng))
                await server.submit("linear/serial", dense_job(rng))
                return server.stats()

        stats = run(main())
        assert stats["engines"]["active"] == 2
        assert stats["engines"]["created"] == 2

    def test_rejects_bad_jobs(self, rng):
        async def main():
            async with EngineServer() as server:
                with pytest.raises(ValueError, match="at least one item"):
                    await server.submit("blelloch/serial", [])
                with pytest.raises(TypeError, match="scan items"):
                    await server.submit("blelloch/serial", [object()])
                with pytest.raises(ValueError):
                    await server.submit("not/a/valid/spec!!", dense_job(rng))

        run(main())

    def test_submit_after_stop_raises(self, rng):
        async def main():
            server = EngineServer()
            await server.submit("blelloch/serial", dense_job(rng))
            await server.stop()
            await server.stop()  # idempotent
            with pytest.raises(RuntimeError, match="stopped"):
                await server.submit("blelloch/serial", dense_job(rng))

        run(main())

    def test_job_failure_forwards_exception(self, rng):
        # mismatched shapes blow up inside ⊙ on the worker thread; the
        # exception must reach the submitting client, not kill the server
        # seed + 6 good + 1 bad = 8 items: the power-of-two up-sweep
        # really combines the mismatched pair (a padded shorter chain
        # would pair the bad tail with identity and never evaluate it)
        bad = dense_job(rng, n=6, h=8)
        bad.append(DenseJacobian(rng.standard_normal((2, 5, 5))))

        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                with pytest.raises(ValueError):
                    await server.submit("blelloch/serial", bad)
                # server still serves
                good = dense_job(rng)
                out = await server.submit("blelloch/serial", good)
                stats = server.stats()
                return good, out, stats

        good, out, stats = run(main())
        assert_scans_equal(out, serial_reference("blelloch", good))
        assert stats["jobs"]["failed"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["jobs"]["pending"] == 0

    def test_overload_rejection(self, rng):
        async def main():
            server = EngineServer(max_wait_ms=0, max_pending=1)
            # fill the queue without letting the dispatcher drain it:
            # the dispatcher task only starts on first submit, so the
            # second submit in the same tick sees a full queue
            first = asyncio.ensure_future(
                server.submit("blelloch/serial", dense_job(rng))
            )
            # one tick: the first submit enqueues its job; the dispatcher
            # task it spawned only drains the queue on the *next* tick
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="overloaded"):
                await server.submit("blelloch/serial", dense_job(rng))
            await first
            stats = server.stats()
            await server.stop()
            return stats

        stats = run(main())
        assert stats["jobs"]["rejected"] == 1
        assert stats["jobs"]["completed"] == 1


class TestAdmissionTimeResolution:
    """The ContextVar fix: ``configure()`` overlays of the *submitting*
    task must shape its jobs even though engines are built and run on
    server worker threads that never see the overlay."""

    def test_configure_overlay_applies_to_submitted_jobs(self, rng):
        items = dense_job(rng)

        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                with configure(algorithm="linear", executor="serial"):
                    out = await server.submit(None, items)
                return out, server.stats()

        out, stats = run(main())
        specs = list(stats["engines"]["per_spec"])
        assert len(specs) == 1 and specs[0].startswith("linear")
        assert_scans_equal(out, serial_reference("linear", items))

    def test_explicit_spec_beats_overlay(self, rng):
        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                with configure(algorithm="linear"):
                    await server.submit("hillis_steele/serial", dense_job(rng))
                return server.stats()

        specs = list(run(main())["engines"]["per_spec"])
        assert specs[0].startswith("hillis_steele")

    def test_per_client_overlays_stay_separate(self, rng):
        """Two clients in different configure() scopes, interleaved on
        one server: each job lands on the engine its own scope names."""

        async def main():
            async with EngineServer(max_batch=4, max_wait_ms=20) as server:

                async def client(algorithm):
                    with configure(algorithm=algorithm, executor="serial"):
                        return await server.submit(None, dense_job(rng))

                await asyncio.gather(client("linear"), client("blelloch"))
                return server.stats()

        stats = run(main())
        algorithms = {spec.split("/")[0] for spec in stats["engines"]["per_spec"]}
        assert algorithms == {"linear", "blelloch"}


# ---------------------------------------------------------------------------
# the stress test: concurrency vs. the bitwise-gradient invariant
# ---------------------------------------------------------------------------
class TestServeStress:
    CLIENTS = 8
    JOBS_PER_CLIENT = 4

    def _job_stream(self, client, rng):
        """Mixed specs and shapes: mergeable dense chains on three
        backends, linear-algorithm jobs, sparse CSR chains through the
        shared plan cache."""
        jobs = []
        for j in range(self.JOBS_PER_CLIENT):
            flavor = (client + j) % 4
            if flavor == 0:
                jobs.append(("blelloch/serial/cache=shared", dense_job(rng)))
            elif flavor == 1:
                jobs.append(("blelloch/thread:2", dense_job(rng)))
            elif flavor == 2:
                jobs.append(("linear/process:2", dense_job(rng)))
            else:
                jobs.append(
                    ("blelloch/serial/sparse=on/cache=shared", sparse_job(rng))
                )
        return jobs

    @pytest.mark.slow
    def test_concurrent_mixed_spec_gradients_bitwise(self):
        streams = {
            c: self._job_stream(c, np.random.default_rng(1000 + c))
            for c in range(self.CLIENTS)
        }

        async def main():
            async with EngineServer(max_batch=8, max_wait_ms=5) as server:

                async def client(c):
                    outs = []
                    for spec, items in streams[c]:
                        outs.append(await server.submit(spec, items))
                    return outs

                results = await asyncio.gather(
                    *(client(c) for c in range(self.CLIENTS))
                )
                return results, server.stats()

        results, stats = run(main())

        # every job's gradients are bitwise-identical to a serial,
        # single-client run of the same spec
        for c in range(self.CLIENTS):
            for (spec, items), out in zip(streams[c], results[c]):
                assert_scans_equal(out, serial_reference(spec, items))

        # counters reconcile exactly
        total = self.CLIENTS * self.JOBS_PER_CLIENT
        jobs = stats["jobs"]
        assert jobs["submitted"] == jobs["completed"] == total
        assert jobs["failed"] == jobs["rejected"] == jobs["pending"] == 0
        batching = stats["batching"]
        assert batching["merged_jobs"] + batching["solo_jobs"] == total
        assert batching["groups"] >= stats["engines"]["active"] >= 4
        engines = stats["engines"]
        assert engines["created"] == engines["active"]
        per_engine_jobs = sum(
            e["jobs"] for e in engines["per_spec"].values()
        )
        assert per_engine_jobs == total
        # the shared plan cache saw the sparse jobs' lookups
        cache = stats["shared_plan_cache"]
        assert cache["hits"] + cache["misses"] > 0


# ---------------------------------------------------------------------------
# loadgen + bench integration
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_smoke_run_produces_valid_record(self):
        from repro.bench import run_bench, validate_record
        from repro.experiments.common import Scale

        records = run_bench(Scale.SMOKE, ["serial"], ["serve_throughput"])
        assert len(records) == 1
        rec = records[0]
        validate_record(rec.to_dict())
        assert rec.artifact == "serve_throughput"
        assert rec.backend == "serial"
        for name in ("p50_ms", "p99_ms", "jobs_per_s", "cache_hit_rate"):
            assert name in rec.metrics
        assert 0.0 <= rec.metrics["cache_hit_rate"] <= 1.0
        assert rec.metrics["jobs_per_s"] > 0

    def test_serve_record_schema_requires_metrics(self):
        from repro.bench.env import environment_fingerprint
        from repro.bench.record import BenchRecord, SchemaError, TimingStats

        rec = BenchRecord(
            artifact="serve_throughput",
            scale="smoke",
            backend="serial",
            timing=TimingStats.from_times([0.01]),
            environment=environment_fingerprint(),
            num_rows=1,
            metrics={"p50_ms": 1.0},  # missing the rest
        )
        with pytest.raises(SchemaError, match="serve_throughput"):
            rec.to_dict()
        rec2 = BenchRecord(
            artifact="serve_throughput",
            scale="smoke",
            backend="serial",
            timing=TimingStats.from_times([0.01]),
            environment=environment_fingerprint(),
            num_rows=1,
            metrics={
                "p50_ms": 1.0,
                "p99_ms": 2.0,
                "jobs_per_s": 100.0,
                "cache_hit_rate": 1.5,  # out of range
            },
        )
        with pytest.raises(SchemaError, match="cache_hit_rate"):
            rec2.to_dict()

    def test_shared_cache_hit_rate_is_per_run(self):
        """The summary's hit rate is computed from counter deltas, so
        warm caches from earlier runs in the same process don't skew
        it above 1 or pollute a cold run's number."""
        from repro.serve.loadgen import run_loadgen, serve_metrics
        from repro.experiments.common import Scale

        shared_pattern_cache()  # force the singleton to exist
        rows = run_loadgen(scale=Scale.SMOKE, backend="serial")
        first = serve_metrics(rows)
        rows = run_loadgen(scale=Scale.SMOKE, backend="serial")
        second = serve_metrics(rows)
        assert 0.0 <= first["cache_hit_rate"] <= 1.0
        assert 0.0 <= second["cache_hit_rate"] <= 1.0
        # the second run reuses the first run's plans: fully warm
        assert second["cache_hit_rate"] >= first["cache_hit_rate"]
