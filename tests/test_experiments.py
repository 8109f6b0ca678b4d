"""Integration tests: every experiment harness runs and reproduces the
paper's qualitative claims at SMOKE scale."""

import numpy as np

from repro.experiments import Scale
from repro.experiments import (
    eq6_complexity,
    fig3_pipeline,
    fig4_schedule,
    fig6_patterns,
    fig8_bitstreams,
    fig9_rnn_curve,
    fig10_sensitivity,
    fig11_flops,
    table1_sparsity,
    table2_devices,
)
from repro.experiments.common import format_table, sparkline


class TestCheapExperiments:
    def test_table2(self):
        r = table2_devices.run()
        assert len(r["rows"]) == 2
        assert {x["GPU"] for x in r["rows"]} == {"RTX 2070", "RTX 2080Ti"}
        assert table2_devices.render_report(r)

    def test_fig8(self):
        r = fig8_bitstreams.run()
        assert len(r["examples"]) == 10
        for e in r["examples"]:
            assert len(e["stream"]) == r["seq_len"]
        assert fig8_bitstreams.render_report(r)

    def test_fig4(self):
        r = fig4_schedule.run()
        assert r["num_stages"] == 8
        assert r["blelloch_levels"] < r["linear_levels"]
        assert fig4_schedule.render_report(r)

    def test_fig3(self):
        r = fig3_pipeline.run()
        rows = r["rows"]
        bubbles = [x["gpipe_bubble"] for x in rows]
        assert bubbles == sorted(bubbles)  # bubble grows with K
        # BPPSA memory shrinks while GPipe memory eventually grows
        assert rows[-1]["bppsa_mem"] <= rows[0]["bppsa_mem"]
        assert fig3_pipeline.render_report(r)

    def test_fig6(self):
        r = fig6_patterns.run()
        assert r["conv"]["sparsity"] > 0.5
        assert r["relu"]["sparsity"] > 0.9
        assert "#" in fig6_patterns.render_report(r)

    def test_eq6(self):
        rows = eq6_complexity.run()["rows"]
        for row in rows:
            n = row["n"]
            assert row["work_blelloch"] <= 2 * (n + 1)
            assert row["steps_p=inf"] <= 2 * np.log2(n) + 2
            assert row["work_hillis_steele"] > row["work_blelloch"] or n < 8

    def test_scaling_comparison(self):
        from repro.experiments import scaling_comparison

        r = scaling_comparison.run()
        rows = r["rows"]
        bppsa = [x["bppsa"] for x in rows]
        assert bppsa == sorted(bppsa, reverse=True)  # improves with p
        assert all(x["naive"] == r["n"] for x in rows)  # flat baseline
        # GPipe latency never beats the sequential baseline (§2.2)
        assert all(x["gpipe_latency"] >= x["naive"] for x in rows)
        assert r["crossover"] is not None
        assert scaling_comparison.render_report(r)

    def test_fig10_shapes(self):
        r = fig10_sensitivity.run()
        t_speedups = [row["RTX 2070 backward"] for row in r["t_sweep"]]
        assert t_speedups == sorted(t_speedups)
        b_speedups = [row["RTX 2070 backward"] for row in r["b_sweep"]]
        assert b_speedups == sorted(b_speedups)  # B descending → rising
        for row_t, row_b in zip(r["t_sweep"][-3:], r["b_sweep"][-3:]):
            assert row_t["RTX 2080Ti backward"] >= row_t["RTX 2070 backward"]


class TestFig9:
    def test_engines_agree_and_simulated_device_wins(self):
        r = fig9_rnn_curve.run(Scale.SMOKE)
        # identical seeds and batches: BPPSA reproduces BP's loss curve
        assert r["max_loss_divergence"] < 1e-9
        assert r["overall_speedup"] > 1.0
        assert "speedup" in fig9_rnn_curve.render_report(r)


class TestTable1:
    def test_sparsity_and_speedups(self):
        r = table1_sparsity.run(Scale.SMOKE)
        by_name = {x["operator"]: x for x in r["rows"]}
        # paper-configuration formulas match Table 1's quoted values
        conv = by_name["Convolution"]["sparsity_formula_paper_cfg"]
        assert abs(conv - 0.99157) < 2e-4
        assert abs(by_name["ReLU"]["sparsity_formula_paper_cfg"] - 0.99998) < 1e-5
        pool = by_name["Max-pooling"]["sparsity_formula_paper_cfg"]
        assert abs(pool - 0.99994) < 1e-5
        # analytical generation beats autograd column-at-a-time everywhere
        for row in r["rows"]:
            assert row["generation_speedup"] > 5.0


class TestFig11:
    def test_per_step_complexity_comparable(self):
        r = fig11_flops.run(Scale.SMOKE)
        # sparsity keeps BPPSA's per-step cost within O(1) of baseline
        assert r["per_step_ratio"] < 20.0
        assert r["bppsa_critical_max_flops"] > 0
        assert len(r["steps"]) > len(r["stage_names"])
        # truncated scan produced both phases
        phases = {s.phase for s in r["steps"]}
        assert "up" in phases and "down" in phases and "serial-mid" in phases


class TestCommonHelpers:
    def test_format_table(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", 1e-9]])
        assert "a" in out and "x" in out

    def test_sparkline(self):
        assert sparkline([]) == ""
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
