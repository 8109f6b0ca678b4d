"""Tests for the scan-DAG builders and trace grouping."""

from repro.scan import (
    SCANS,
    DenseJacobian,
    GradientVector,
    ScanContext,
    dag_from_trace,
    uniform_dag,
)


class TestSymbolicBuilders:
    def test_blelloch_dag_vgg11(self):
        """The Figure 4 case: 8 stages + gradient = 9-element array."""
        dag = uniform_dag("blelloch", 9)
        keys = dag.level_keys()
        # up levels ascend, then down levels descend
        up = [d for ph, d in keys if ph == "up"]
        down = [d for ph, d in keys if ph == "down"]
        assert up == sorted(up) and down == sorted(down, reverse=True)
        assert dag.num_ops <= 2 * 9

    def test_flops_assignment(self):
        dag = uniform_dag("blelloch", 8, flops_mm=100, flops_mv=7)
        for step in dag.all_steps():
            assert step.flops == (100 if step.kind == "mm" else 7)

    def test_linear_dag_sequential(self):
        dag = uniform_dag("linear", 10)
        # every level holds exactly one op (fully sequential)
        assert all(len(lv) == 1 for lv in dag.levels)
        # 10 items: the last is never consumed (exclusive scan) and the
        # first combine is against the identity (free) → 8 ops
        assert dag.num_ops == 8

    def test_truncated_dag_k0_is_serial(self):
        dag = uniform_dag("truncated", 12, up_levels=0)
        assert all(len(lv) == 1 for lv in dag.levels)

    def test_truncated_dag_k_large_matches_full(self):
        full = uniform_dag("blelloch", 16)
        trunc = uniform_dag("truncated", 16, up_levels=16)
        assert full.num_ops == trunc.num_ops

    def test_total_flops_sum(self):
        dag = uniform_dag("blelloch", 5, flops_mm=3, flops_mv=2)
        assert dag.total_flops == sum(s.flops for s in dag.all_steps())

    def test_summary_mentions_phases(self):
        s = uniform_dag("blelloch", 9).summary()
        assert "up" in s and "down" in s


class TestTraceGrouping:
    def test_numeric_trace_groups_match_symbolic(self, rng):
        """For every scan, a numeric trace and the symbolic schedule of
        the same length group into the same levels, step for step."""
        n, h = 12, 3
        items = [GradientVector(rng.standard_normal((1, h)))]
        items += [DenseJacobian(rng.standard_normal((h, h))) for _ in range(n)]
        for algorithm, scan in SCANS.items():
            ctx = ScanContext()
            kw = {"up_levels": 2} if algorithm == "truncated" else {}
            scan(items, ctx.op, **kw)
            from_trace = dag_from_trace(ctx.trace)
            symbolic = uniform_dag(algorithm, n + 1, **kw)
            assert from_trace.num_levels == symbolic.num_levels, algorithm
            for numeric, expected in zip(from_trace.levels, symbolic.levels):
                assert [(s.info, s.kind) for s in numeric] == [
                    (s.info, s.kind) for s in expected
                ], algorithm

    def test_sequential_phases_get_own_levels(self, rng):
        from repro.scan import truncated_blelloch_scan

        items = [GradientVector(rng.standard_normal((1, 2)))]
        items += [DenseJacobian(rng.standard_normal((2, 2))) for _ in range(8)]
        ctx = ScanContext()
        truncated_blelloch_scan(items, ctx.op, up_levels=1)
        dag = dag_from_trace(ctx.trace)
        for lv in dag.levels:
            if lv[0].info.phase == "serial-mid":
                assert len(lv) == 1

    def test_empty_trace(self):
        dag = dag_from_trace([])
        assert dag.num_levels == 0 and dag.num_ops == 0


class TestCritical:
    def test_costliest_step_of_each_level(self):
        dag = uniform_dag("blelloch", 16, flops_mm=1000, flops_mv=10)
        marks = dag.critical()
        assert len(marks) == dag.num_ops
        i = 0
        for level in dag.levels:
            level_marks = marks[i : i + len(level)]
            i += len(level)
            fmax = max(s.flops for s in level)
            assert any(level_marks)
            assert level_marks == [s.flops == fmax for s in level]

    def test_sequential_steps_are_each_critical(self):
        dag = uniform_dag("truncated", 12, up_levels=0)
        assert dag.num_levels == dag.num_ops
        assert all(dag.critical())
