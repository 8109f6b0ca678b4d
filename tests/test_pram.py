"""Tests for the PRAM machine, cost model, and RNN timing simulation."""

import numpy as np
import pytest

from repro.analysis.complexity import (
    blelloch_step_complexity,
    measured_step_complexity,
    measured_work,
)
from repro.pram import (
    DEVICE_CATALOG,
    GPUCostModel,
    PRAMMachine,
    RTX_2070,
    RTX_2080TI,
    step_count,
    work_count,
)
from repro.pram.machine import _lpt_makespan
from repro.pram.rnn_timing import simulate_rnn_iteration
from repro.scan import uniform_dag


class TestDevices:
    def test_catalog_matches_paper_table2(self):
        assert RTX_2070.num_sms == 36
        assert RTX_2080TI.num_sms == 68
        assert set(DEVICE_CATALOG) == {"RTX 2070", "RTX 2080Ti"}

    def test_effective_workers_normalized_by_batch(self):
        """The paper's p = concurrent threads / B."""
        assert RTX_2070.effective_workers(1) == RTX_2070.concurrent_blocks
        assert RTX_2070.effective_workers(2) == RTX_2070.concurrent_blocks // 2
        assert RTX_2070.effective_workers(10**9) == 1  # never zero


class TestCostModel:
    def test_op_seconds_floor(self):
        cm = GPUCostModel(RTX_2070)
        assert cm.op_seconds(1) == RTX_2070.min_op_seconds
        big = int(RTX_2070.block_flops * 10)
        assert cm.op_seconds(big) == pytest.approx(10.0)

    def test_level_seconds_waves(self):
        cm = GPUCostModel(RTX_2070)
        blocks = RTX_2070.concurrent_blocks
        one = cm.level_seconds([100], blocks)
        two = cm.level_seconds([100], blocks + 1)
        assert two > one  # crossing the block count adds a wave

    def test_baseline_is_sequential_in_t(self):
        cm = GPUCostModel(RTX_2070)
        t1 = cm.baseline_rnn_backward_seconds(100, 16, 20)
        t2 = cm.baseline_rnn_backward_seconds(200, 16, 20)
        assert t2 == pytest.approx(2 * t1)


class TestLPT:
    def test_single_worker_sums(self):
        assert _lpt_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_many_workers_is_max(self):
        assert _lpt_makespan([3.0, 1.0, 2.0], 10) == 3.0

    def test_empty(self):
        assert _lpt_makespan([], 4) == 0.0

    def test_two_workers_balanced(self):
        # LPT on [3,3,2,2] with 2 workers → 5
        assert _lpt_makespan([3.0, 3.0, 2.0, 2.0], 2) == 5.0


class TestStepWorkCounts:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_infinite_workers_log_steps(self, n):
        """Eq. 6, p ≥ n: Θ(log n) critical-path steps."""
        steps = measured_step_complexity(n, 10**9)
        assert steps <= 2 * np.log2(n) + 2

    @pytest.mark.parametrize("n,p", [(512, 4), (2048, 16)])
    def test_limited_workers_n_over_p(self, n, p):
        """Eq. 6, p < n: Θ(n/p + log p)."""
        steps = measured_step_complexity(n, p)
        theory = blelloch_step_complexity(n, p)
        assert 0.5 * theory <= steps <= 4 * theory

    @pytest.mark.parametrize("n", [8, 100, 1000])
    def test_work_linear(self, n):
        """Eq. 7: Θ(n) total ⊙ applications."""
        assert n <= measured_work(n) <= 2 * (n + 1)

    def test_linear_scan_steps_equal_n(self):
        dag = uniform_dag("linear", 101)
        assert step_count(dag, 10**9) == 99  # n−1 real multiplications
        assert work_count(dag) == 99


class TestSchedule:
    def test_makespan_positive_and_additive(self):
        machine = PRAMMachine(GPUCostModel(RTX_2070))
        dag = uniform_dag("blelloch", 64, flops_mm=1000, flops_mv=100)
        result = machine.schedule(dag)
        assert result.makespan_seconds > 0
        assert result.makespan_seconds == pytest.approx(
            sum(lv.seconds for lv in result.levels)
        )

    def test_batch_replication_increases_time(self):
        machine = PRAMMachine(GPUCostModel(RTX_2070))
        dag = uniform_dag("blelloch", 4096, flops_mm=16000, flops_mv=800)
        t1 = machine.schedule(dag, batch=1).makespan_seconds
        t256 = machine.schedule(dag, batch=256).makespan_seconds
        assert t256 > t1

    def test_critical_marking(self):
        machine = PRAMMachine(GPUCostModel(RTX_2070))
        dag = uniform_dag("blelloch", 16, flops_mm=1000, flops_mv=10)
        before = dag.all_steps()
        machine.schedule(dag)
        assert dag.all_steps() == before  # scheduling only reads the DAG
        marks = iter(dag.critical())
        for level in dag.levels:
            assert any([next(marks) for _ in level])


class TestRNNTiming:
    def test_fig9_anchor_point(self):
        """T=1000, B=16, RTX 2070 — paper: 4.53× backward, 2.17× overall."""
        r = simulate_rnn_iteration(1000, 16, 20, RTX_2070)
        assert 3.5 <= r.backward_speedup <= 5.5
        assert 1.8 <= r.overall_speedup <= 2.6

    def test_speedup_rises_with_t_then_saturates(self):
        speedups = [
            simulate_rnn_iteration(t, 16, 20, RTX_2070).backward_speedup
            for t in [10, 100, 1000, 10000, 30000]
        ]
        assert speedups == sorted(speedups)  # monotone rise
        assert speedups[0] < 1.0  # BPPSA loses at tiny T (launch overhead)
        # saturation: relative growth at the tail is small
        assert speedups[-1] / speedups[-2] < 1.15

    def test_speedup_decays_with_batch(self):
        speedups = [
            simulate_rnn_iteration(1000, b, 20, RTX_2070).backward_speedup
            for b in [2, 8, 32, 128]
        ]
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[-1] < 1.0  # large batch: baseline wins

    def test_2080ti_dominates_at_scale(self):
        """More SMs ⇒ ≥ speedup at large T and it decays slower in B."""
        for t in [1000, 10000]:
            a = simulate_rnn_iteration(t, 16, 20, RTX_2070)
            b = simulate_rnn_iteration(t, 16, 20, RTX_2080TI)
            assert b.backward_speedup >= a.backward_speedup

    def test_paper_maximum_speedups_shape(self):
        """Max backward ≈ 8.8× and overall ≈ 2.75× on the 2080Ti."""
        best = simulate_rnn_iteration(1000, 2, 20, RTX_2080TI)
        assert 7.0 <= best.backward_speedup <= 14.0
        assert 2.2 <= best.overall_speedup <= 3.0
