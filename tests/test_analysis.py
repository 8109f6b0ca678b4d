"""Tests for static FLOP analysis and complexity laws."""

import itertools

import pytest

from repro.analysis import (
    EstimatePattern,
    StaticScanAnalyzer,
    blelloch_step_complexity,
    conv_dgrad_flops,
    elementwise_backward_flops,
    linear_step_complexity,
)
from repro.scan import (
    GradientVector,
    ScanContext,
    SparseJacobian,
    dag_from_trace,
    truncated_blelloch_scan,
)
from repro.sparse import CSRMatrix


def random_pattern_chain(rng, n, dim=6, density=0.5):
    """A chain of square CSR patterns (dims equal for simplicity)."""
    out = []
    for _ in range(n):
        dense = (rng.random((dim, dim)) < density) * rng.standard_normal((dim, dim))
        out.append(CSRMatrix.from_dense(dense))
    return out


class TestStaticAnalyzer:
    def test_flops_match_numeric_execution(self, rng):
        """Static analysis must cost exactly what the numeric scan does,
        level by level and step by step, rule by rule, under every
        sparse mode — with the inputs assembled as the engines do."""
        # Sparse inputs whose products cross the auto cutoff, and inputs
        # dense enough for assembly to densify them; each chain runs in
        # every mode.
        chains = [
            random_pattern_chain(rng, 7, density=density)
            for density in (0.15, 0.15, 0.2, 0.2, 0.2, 0.2, 0.5)
        ]
        for chain, sparse in itertools.product(chains, ("on", "auto", "off")):
            analyzer = StaticScanAnalyzer(sparse=sparse)
            dag = analyzer.analyze(
                chain, grad_dim=6, algorithm="truncated", up_levels=2
            )

            ctx = ScanContext(sparse=sparse)
            items = [GradientVector(rng.standard_normal((1, 6)))]
            items += [ctx.sparse_policy.element(SparseJacobian(p)) for p in chain]
            truncated_blelloch_scan(items, ctx.op, up_levels=2)
            numeric = dag_from_trace(ctx.trace)

            assert analyzer.estimates == 0
            assert dag.num_levels == numeric.num_levels
            for static_level, numeric_level in zip(dag.levels, numeric.levels):
                assert [
                    (s.info, s.rule, s.flops, s.dense_mnk) for s in static_level
                ] == [
                    (s.info, s.rule, s.flops, s.dense_mnk) for s in numeric_level
                ], sparse
            assert dag.total_flops == ctx.total_flops

    def test_linear_algorithm_only_matvecs(self, rng):
        chain = random_pattern_chain(rng, 5)
        dag = StaticScanAnalyzer().analyze(chain, grad_dim=6, algorithm="linear")
        assert all(s.kind == "mv" for s in dag.all_steps())

    def test_blelloch_has_matmats(self, rng):
        chain = random_pattern_chain(rng, 8)
        dag = StaticScanAnalyzer().analyze(chain, grad_dim=6, algorithm="blelloch")
        assert any(s.kind == "mm" for s in dag.all_steps())

    def test_critical_marking_per_level(self, rng):
        chain = random_pattern_chain(rng, 8)
        dag = StaticScanAnalyzer().analyze(chain, grad_dim=6, algorithm="blelloch")
        marks = iter(dag.critical())
        for level in dag.levels:
            critical = [s for s in level if next(marks)]
            assert critical
            assert all(s.flops == max(x.flops for x in level) for s in critical)

    def test_estimator_fallback(self, rng):
        """With a tiny expansion limit, downstream steps become estimates
        but remain well-formed."""
        chain = random_pattern_chain(rng, 8, dim=8, density=0.8)
        analyzer = StaticScanAnalyzer(expansion_limit=1, sparse="on")
        dag = analyzer.analyze(chain, grad_dim=8, algorithm="blelloch")
        assert analyzer.estimates > 0
        assert all(s.flops >= 0 for s in dag.all_steps())

    def test_estimate_pattern_element(self):
        analyzer = StaticScanAnalyzer(sparse="on")
        est = EstimatePattern((4, 4), 8.0)
        dag = analyzer.analyze([est, est], grad_dim=4, algorithm="linear")
        assert all(s.kind == "mv" for s in dag.all_steps())
        assert analyzer.estimates == dag.num_ops

    def test_shape_mismatch_raises(self, rng):
        a = CSRMatrix.from_dense(rng.standard_normal((3, 4)))
        b = CSRMatrix.from_dense(rng.standard_normal((9, 9)))
        # b is consumed second (the exclusive scan never consumes the
        # final element, so a third entry is needed).
        with pytest.raises(ValueError, match="shape mismatch"):
            StaticScanAnalyzer().analyze([a, b, b], grad_dim=4, algorithm="linear")

    def test_unknown_algorithm(self, rng):
        with pytest.raises(ValueError):
            StaticScanAnalyzer().analyze([], grad_dim=2, algorithm="warp")

    def test_baseline_steps(self):
        analyzer = StaticScanAnalyzer()
        dag = analyzer.baseline_steps([(100.0, 1000.0), (50.0, 500.0)])
        assert dag.num_levels == dag.num_ops == 2
        assert all(s.info.phase == "baseline" for s in dag.all_steps())
        assert all(dag.critical())


class TestBaselineFormulas:
    def test_conv_dgrad(self):
        flops, mnk = conv_dgrad_flops(3, 64, 3, 32, 32, 32, 32)
        assert flops == 2 * 3 * 32 * 32 * 64 * 9
        assert mnk == (3 * 32 * 32) * (64 * 32 * 32)

    def test_conv_dgrad_density_scaling(self):
        full, _ = conv_dgrad_flops(4, 4, 3, 8, 8, 8, 8)
        pruned, _ = conv_dgrad_flops(4, 4, 3, 8, 8, 8, 8, weight_density=0.03)
        assert pruned == pytest.approx(0.03 * full)

    def test_elementwise(self):
        flops, mnk = elementwise_backward_flops(100)
        assert flops == 200 and mnk == 10000


class TestComplexityFunctions:
    def test_regimes(self):
        assert blelloch_step_complexity(1024, 10**9) == pytest.approx(10.0)
        assert blelloch_step_complexity(1024, 16) == pytest.approx(64 + 4)
        assert linear_step_complexity(77) == 77

    def test_zero_size(self):
        assert blelloch_step_complexity(0, 4) == 0.0
