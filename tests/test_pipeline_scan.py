"""Differential pipeline-vs-monolithic harness (tier-1).

The staged backward (:class:`repro.pipeline.StagedRNNBPPSA`) must be
**bitwise-identical** to the monolithic single-engine scan — not merely
close.  This file is the oracle that enforces it, mirroring
``test_kernel_oracle.py``'s matrix pattern one layer up:

* a scan-slice matrix over the *same* adversarial CSR chains the kernel
  oracle uses: block-aligned :func:`repro.scan.stage_truncated_scan`
  slices, carry-threaded in order, reproduce
  :func:`repro.scan.truncated_blelloch_scan` byte for byte for every
  (stage count × up_levels × sparse mode);
* an engine-level matrix: staged RNN gradients across (K stages ×
  GPipe/PipeDream × serial/thread × sparse on/off) against the
  (K=1, serial, numpy) oracle of the same micro-batch count — and, at
  M=1, against the monolithic :class:`repro.core.RNNBPPSA` itself;
* Hypothesis properties fuzzing the schedule builders (no device-slot
  collisions, backward-after-forward, stage ordering, the GPipe bubble
  closed form, the 1F1B in-flight cap and makespan);
* the PR 7 stress pattern extended to the pipeline plane: 8 concurrent
  staged runs sharing one :class:`repro.serve.EnginePool`, counters
  reconciling and gradients bitwise-equal to solo runs;
* the GPipe layer-partition map (uneven splits pin explicit stage
  boundaries instead of truncating) and the staged memory model
  validated against measured Jacobian/CSR footprints.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_kernel_oracle as oracle
from repro.core.rnn import RNNBPPSA
from repro.nn.rnn import RNNClassifier
from repro.pipeline import (
    GPipeSchedule,
    PipeDreamSchedule,
    StagedRNNBPPSA,
    csr_jacobian_bytes,
    gpipe_bubble_fraction,
    partition_layers,
    partition_units,
    scan_element_nbytes,
    staged_memory_model,
    validate_partition,
)
from repro.scan import (
    IDENTITY,
    DenseJacobian,
    GradientVector,
    ScanContext,
    SparseJacobian,
    blelloch_num_levels,
    stage_truncated_scan,
    truncated_blelloch_scan,
)
from repro.serve import EnginePool
from repro.sparse import csr_from_diagonal

SCHEDULES = ("gpipe", "pipedream")
BACKENDS = ("serial", "thread:2")
SPARSE_MODES = ("off", "on")

SEQ_LEN, BATCH, INPUT, HIDDEN, CLASSES = 13, 6, 5, 8, 3


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0xBEEF)
    clf = RNNClassifier(INPUT, HIDDEN, CLASSES, rng=rng)
    x = rng.standard_normal((BATCH, SEQ_LEN, INPUT))
    targets = rng.integers(0, CLASSES, size=BATCH)
    return clf, x, targets


def grad_bytes(grads):
    """Byte-exact, order-stable snapshot of a gradient dict."""
    return {pid: g.tobytes() for pid, g in grads.items()}


def staged_grads(workload, num_stages, micro_batches, schedule, configs,
                 pool=None):
    clf, x, targets = workload
    with StagedRNNBPPSA(
        clf,
        num_stages,
        micro_batches,
        schedule=schedule,
        configs=configs,
        pool=pool,
    ) as engine:
        return grad_bytes(engine.compute_gradients(x, targets))


# ---------------------------------------------------------------------------
# scan-slice level: staged slices ≡ the monolithic truncated scan
# ---------------------------------------------------------------------------
class TestStageScanSlices:
    """Block-aligned slices + carry threading reproduce the monolithic
    scan byte for byte on the kernel oracle's adversarial CSR chains."""

    @pytest.mark.parametrize("sparse", ("on", "auto"))
    @pytest.mark.parametrize("up_levels", (0, 1, 2))
    def test_slices_match_monolithic_bitwise(self, up_levels, sparse):
        items = oracle.oracle_items(0x5EED)
        n_slots = len(items)
        k = max(0, min(up_levels, blelloch_num_levels(n_slots) - 1))
        mono = snapshot_scan(items, up_levels, sparse)
        for num_stages in (1, 2, 3):
            try:
                spans = partition_units(n_slots, num_stages, block=1 << k)
            except ValueError:
                continue
            ctx = ScanContext(sparse=sparse)
            out, carry = [], IDENTITY
            for s, (lo, hi) in enumerate(spans):
                res, carry = stage_truncated_scan(
                    items[lo:hi],
                    ctx.op,
                    up_levels=k,
                    prefix=carry,
                    compose_tail=s < num_stages - 1,
                )
                out.extend(res)
            assert oracle.snapshot(out) == mono, (
                f"staged slices diverged (K={num_stages}, "
                f"up_levels={up_levels}, sparse={sparse})"
            )

    def test_up_levels_not_reclamped_locally(self):
        # A short tail slice must keep the GLOBAL block size: levels too
        # deep for it schedule no ops instead of realigning the blocks.
        items = oracle.oracle_items(7, stages=9)  # 10 slots, blocks of 4
        ctx = ScanContext(sparse="on")
        mono = oracle.snapshot(
            truncated_blelloch_scan(items, ctx.op, up_levels=2)
        )
        ctx2 = ScanContext(sparse="on")
        out0, carry = stage_truncated_scan(
            items[:8], ctx2.op, up_levels=2, compose_tail=True
        )
        out1, _ = stage_truncated_scan(
            items[8:], ctx2.op, up_levels=2, prefix=carry
        )
        assert oracle.snapshot(out0 + out1) == mono

    def test_misaligned_boundary_is_not_bitwise(self):
        # The alignment invariant is load-bearing: cutting off a block
        # boundary changes the association order, hence (generically)
        # the bytes.  Dense random Jacobians make the float divergence
        # overwhelmingly likely; any one diverging seed proves the
        # invariant isn't vacuous.
        diverged = False
        for seed in range(4):
            rng = np.random.default_rng(seed)
            items = [GradientVector(rng.standard_normal((3, 6)))] + [
                DenseJacobian(rng.standard_normal((3, 6, 6)))
                for _ in range(6)
            ]
            ctx = ScanContext(sparse="off")
            mono = oracle.snapshot(
                truncated_blelloch_scan(list(items), ctx.op, up_levels=2)
            )
            ctx2 = ScanContext(sparse="off")
            out0, carry = stage_truncated_scan(
                items[:5], ctx2.op, up_levels=2, compose_tail=True  # 5%4 != 0
            )
            out1, _ = stage_truncated_scan(
                items[5:], ctx2.op, up_levels=2, prefix=carry
            )
            if oracle.snapshot(out0 + out1) != mono:
                diverged = True
                break
        assert diverged, "misaligned split never changed the bytes"


def snapshot_scan(items, up_levels, sparse):
    ctx = ScanContext(sparse=sparse)
    return oracle.snapshot(
        truncated_blelloch_scan(items, ctx.op, up_levels=up_levels)
    )


# ---------------------------------------------------------------------------
# engine level: the (K × schedule × backend × sparse) matrix
# ---------------------------------------------------------------------------
class TestPipelineOracleMatrix:
    """Every staged cell reproduces the (K=1, serial, numpy) oracle."""

    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bitwise_identical_across_cells(self, schedule, sparse, workload):
        spec = f"truncated/up=2/serial/sparse={sparse}"
        ref = staged_grads(workload, 1, 2, "gpipe", spec)
        for backend in BACKENDS:
            for num_stages in (2, 3, 4):
                configs = f"truncated/up=2/{backend}/sparse={sparse}"
                got = staged_grads(workload, num_stages, 2, schedule, configs)
                assert got == ref, (
                    f"cell (K={num_stages}, {schedule}, {backend}, "
                    f"sparse={sparse}) diverged from the oracle"
                )

    @pytest.mark.parametrize("up_levels", (0, 1, 2))
    def test_m1_matches_monolithic_engine(self, up_levels, workload):
        """At M=1 the staged run IS the monolithic RNNBPPSA, bitwise."""
        clf, x, targets = workload
        mono = RNNBPPSA(clf, config=f"truncated:{up_levels}")
        ref = grad_bytes(mono.compute_gradients(x, targets))
        for num_stages in (1, 2, 3):
            for schedule in SCHEDULES:
                got = staged_grads(
                    workload, num_stages, 1, schedule,
                    f"truncated/up={up_levels}",
                )
                assert got == ref, (num_stages, schedule, up_levels)

    def test_linear_family_and_heterogeneous_backends(self, workload):
        ref = staged_grads(workload, 1, 2, "gpipe", "linear/serial")
        got = staged_grads(
            workload, 3, 2, "pipedream",
            ["linear/thread:2", "linear/serial", "linear/thread:2"],
        )
        assert got == ref

    def test_non_truncated_family_rejected(self, workload):
        clf, _, _ = workload
        with pytest.raises(ValueError, match="truncated/linear"):
            StagedRNNBPPSA(clf, 2, configs="blelloch")
        with pytest.raises(ValueError, match="agree"):
            StagedRNNBPPSA(clf, 2, configs=["truncated/up=1", "truncated/up=2"])
        with pytest.raises(ValueError, match="schedule"):
            StagedRNNBPPSA(clf, 2, schedule="dream")

    def test_scan_config_cannot_be_retargeted(self):
        """``algorithm``/``up_levels`` are read from the stage configs,
        which are fixed at construction: a retarget attempt fails and
        the next run still uses the built depth, with the same bits."""
        rng = np.random.default_rng(3)
        clf = RNNClassifier(1, 4, 2, rng=rng)
        x, targets = rng.standard_normal((3, 16, 1)), rng.integers(0, 2, 3)
        with StagedRNNBPPSA(clf, 2, configs="truncated:2/serial") as staged:
            ref = grad_bytes(staged.compute_gradients(x, targets))
            for name, value in (("up_levels", 0), ("algorithm", "linear"),
                                ("configs", ())):
                with pytest.raises(AttributeError):
                    setattr(staged, name, value)
            assert isinstance(staged.configs, tuple)
            assert grad_bytes(staged.compute_gradients(x, targets)) == ref
            assert staged.last_run_stats["up_levels"] == 2
            assert staged.up_levels == 2 == staged.configs[0].up_levels
            assert staged.algorithm == "truncated"

    def test_failed_run_leaves_no_stale_stats(self, workload, monkeypatch):
        """A stage scan that raises reaches the caller and leaves
        ``last_run_stats`` empty, not the previous run's; once the
        fault is gone the next run fills it again, with the monolithic
        engine's gradients, bitwise."""
        clf, x, targets = workload
        mono = RNNBPPSA(clf, config="truncated:2")
        ref = grad_bytes(mono.compute_gradients(x, targets))

        def fail(*args, **kwargs):
            raise RuntimeError("injected stage fault")

        with StagedRNNBPPSA(clf, 2, 1, configs="truncated/up=2") as staged:
            staged.compute_gradients(x, targets)
            assert staged.last_run_stats is not None
            monkeypatch.setattr(staged.engines[1], "run_stage_scan", fail)
            with pytest.raises(RuntimeError, match="injected stage fault"):
                staged.compute_gradients(x, targets)
            assert staged.last_run_stats is None
            monkeypatch.undo()
            assert grad_bytes(staged.compute_gradients(x, targets)) == ref
            assert staged.last_run_stats is not None

    def test_too_short_sequence_rejected(self, workload):
        clf, x, targets = workload
        engine = StagedRNNBPPSA(clf, 8, configs="truncated/up=2")
        with pytest.raises(ValueError, match="stage"):
            engine.compute_gradients(x[:, :3], targets)
        engine.close()


# ---------------------------------------------------------------------------
# schedule properties (Hypothesis)
# ---------------------------------------------------------------------------
def _check_events(events, num_devices, num_micro_batches):
    """Invariants shared by both schedule builders."""
    seen = set()
    fwd, bwd = {}, {}
    for e in events:
        assert e.phase in ("F", "B")
        assert 0 <= e.device < num_devices
        assert 0 <= e.micro_batch < num_micro_batches
        key = (e.time, e.device)
        assert key not in seen, f"device-slot collision at {key}"
        seen.add(key)
        (fwd if e.phase == "F" else bwd)[(e.micro_batch, e.device)] = e.time
    assert len(fwd) == len(bwd) == num_devices * num_micro_batches
    for m in range(num_micro_batches):
        for k in range(num_devices):
            assert bwd[(m, k)] > fwd[(m, k)], "backward before its forward"
            if k > 0:
                assert fwd[(m, k)] > fwd[(m, k - 1)], "forward out of order"
                assert bwd[(m, k)] < bwd[(m, k - 1)], "backward out of order"
    return fwd, bwd


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_layers=st.integers(1, 48),
        num_devices=st.integers(1, 8),
        num_micro_batches=st.integers(1, 12),
    )
    def test_gpipe_events_and_bubble_closed_form(
        self, num_layers, num_devices, num_micro_batches
    ):
        if num_layers < num_devices:
            with pytest.raises(ValueError):
                GPipeSchedule(num_layers, num_devices, num_micro_batches)
            return
        sched = GPipeSchedule(num_layers, num_devices, num_micro_batches)
        _check_events(sched.events, num_devices, num_micro_batches)
        assert sched.bubble_fraction() == pytest.approx(
            gpipe_bubble_fraction(num_devices, num_micro_batches)
        )
        validate_partition(sched.stage_layers, num_layers)
        assert len(sched.stage_layers) == num_devices

    @settings(max_examples=40, deadline=None)
    @given(
        num_devices=st.integers(1, 8),
        num_micro_batches=st.integers(1, 12),
    )
    def test_pipedream_events_cap_and_makespan(
        self, num_devices, num_micro_batches
    ):
        sched = PipeDreamSchedule(num_devices, num_micro_batches)
        fwd, bwd = _check_events(sched.events, num_devices, num_micro_batches)
        # 1F1B's whole point: greedy scheduling hits 2M + 2(K−1) slots.
        assert sched.total_slots == 2 * num_micro_batches + 2 * (
            num_devices - 1
        )
        # In-flight cap = the K−k weight versions stage_stats accounts for.
        for k in range(num_devices):
            cap = num_devices - k
            for t in range(sched.total_slots):
                in_flight = sum(
                    1
                    for m in range(num_micro_batches)
                    if fwd[(m, k)] <= t and bwd[(m, k)] > t
                )
                assert in_flight <= cap, f"stage {k} exceeded {cap} versions"

    @settings(max_examples=60, deadline=None)
    @given(
        num_units=st.integers(1, 200),
        num_stages=st.integers(1, 12),
        block_pow=st.integers(0, 4),
    )
    def test_partition_units_properties(self, num_units, num_stages, block_pow):
        block = 1 << block_pow
        try:
            spans = partition_units(num_units, num_stages, block)
        except ValueError:
            assert (num_units + block - 1) // block < num_stages
            return
        validate_partition(spans, num_units, block)
        # even in whole blocks: per-stage block counts differ by ≤ 1
        # (the final block may be ragged, so compare blocks, not units)
        block_counts = [-(-(hi - lo) // block) for lo, hi in spans]
        assert max(block_counts) - min(block_counts) <= 1


# ---------------------------------------------------------------------------
# shared-pool stress (the PR 7 pattern, one plane up)
# ---------------------------------------------------------------------------
class TestSharedPoolStress:
    def test_eight_concurrent_staged_runs_share_one_pool(self, workload):
        specs = [
            "truncated/up=2/serial",
            "truncated/up=2/thread:2",
            "truncated/up=1/serial",
            "linear/serial",
        ]
        plans = [
            (specs[i % len(specs)], 2 + (i % 2), SCHEDULES[i % 2])
            for i in range(8)
        ]
        solo = [
            staged_grads(workload, stages, 2, schedule, spec)
            for spec, stages, schedule in plans
        ]

        pool = EnginePool()
        results = [None] * len(plans)
        errors = []

        def worker(i):
            spec, stages, schedule = plans[i]
            try:
                results[i] = staged_grads(
                    workload, stages, 2, schedule, spec, pool=pool
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(plans))
        ]
        with pool:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            stats = pool.stats()
            # One engine per distinct resolved spec; every stage of every
            # run checked an engine out of the pool.
            assert stats["created"] == len(specs)
            total_gets = sum(stages for _, stages, _ in plans)
            assert stats["created"] + stats["reused"] == total_gets
        for got, want in zip(results, solo):
            assert got == want, "shared-pool run diverged from solo run"


# ---------------------------------------------------------------------------
# the GPipe layer-partition map (the uneven-split validation gap)
# ---------------------------------------------------------------------------
class TestLayerPartitionMap:
    def test_uneven_split_pins_explicit_boundaries(self):
        sched = GPipeSchedule(10, 4, 2)
        assert sched.stage_layers == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert sched.layers_for_stage(2) == (6, 8)
        # every layer owned exactly once — nothing truncated
        assert sum(hi - lo for lo, hi in sched.stage_layers) == 10

    def test_partition_layers_examples(self):
        assert partition_layers(64, 4) == [
            (0, 16), (16, 32), (32, 48), (48, 64),
        ]
        assert partition_layers(7, 3) == [(0, 3), (3, 5), (5, 7)]
        with pytest.raises(ValueError):
            partition_layers(2, 3)

    def test_custom_partition_validated(self):
        ok = GPipeSchedule(10, 3, 2, stage_layers=[(0, 5), (5, 7), (7, 10)])
        assert ok.stage_layers == [(0, 5), (5, 7), (7, 10)]
        with pytest.raises(ValueError, match="covers"):
            GPipeSchedule(10, 3, 2, stage_layers=[(0, 5), (5, 7), (7, 9)])
        with pytest.raises(ValueError, match="starts"):
            GPipeSchedule(10, 3, 2, stage_layers=[(0, 5), (6, 7), (7, 10)])
        with pytest.raises(ValueError, match="empty"):
            GPipeSchedule(10, 3, 2, stage_layers=[(0, 5), (5, 5), (5, 10)])
        with pytest.raises(ValueError, match="spans"):
            GPipeSchedule(10, 3, 2, stage_layers=[(0, 5), (5, 10)])


# ---------------------------------------------------------------------------
# the staged memory model vs. measured footprints
# ---------------------------------------------------------------------------
class TestStagedMemoryModel:
    def test_jacobian_term_matches_measured_run(self, workload):
        clf, x, targets = workload
        for num_stages in (1, 2, 3):
            with StagedRNNBPPSA(
                clf, num_stages, 2, configs="truncated/up=2"
            ) as engine:
                engine.compute_gradients(x, targets)
                measured = engine.last_run_stats["stage_jacobian_bytes"]
            model = staged_memory_model(
                SEQ_LEN,
                num_stages,
                micro_batch=BATCH // 2,  # the largest micro-batch
                hidden=HIDDEN,
                up_levels=2,
            )
            assert [row["jacobian_bytes"] for row in model] == measured

    def test_csr_term_matches_actual_element(self):
        pattern = csr_from_diagonal(np.ones(9))
        rng = np.random.default_rng(1)
        element = SparseJacobian(pattern, rng.standard_normal((4, pattern.nnz)))
        assert scan_element_nbytes(element) == csr_jacobian_bytes(
            pattern.nnz, pattern.shape[0], micro_batch=4
        )

    def test_model_partitions_all_slots(self):
        rows = staged_memory_model(24, 4, 2, 16, up_levels=2)
        assert sum(r["scan_slots"] for r in rows) == 25
        total_jac = sum(r["jacobian_bytes"] for r in rows)
        assert total_jac == 24 * 2 * 16 * 8  # T Jacobians of (B=2, H=16) scales


# ---------------------------------------------------------------------------
# the measured fig3 row
# ---------------------------------------------------------------------------
class TestFig3Measured:
    def test_fig3_emits_measured_rows(self):
        from repro.experiments import fig3_pipeline
        from repro.experiments.common import Scale

        result = fig3_pipeline.run(Scale.SMOKE, config="serial")
        rows = fig3_pipeline.result_rows(result)
        measured = [r for r in rows if r["kind"] == "measured"]
        assert measured, "fig3_pipeline lost its measured rows"
        for row in measured:
            assert row["backend"] == "serial"
            assert 0.0 < row["measured_util"] <= 1.0
            assert row["scheduled_util"] == pytest.approx(
                1.0 - row["gpipe_bubble_closed_form"]
            )
        assert any(r["kind"] == "simulated" for r in rows)
        assert "Measured staged scan-backprop" in fig3_pipeline.render_report(
            result
        )
