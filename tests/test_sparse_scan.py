"""Tier-1 tests for the sparse scan execution path.

Covers the density-cutoff dispatch layer
(:class:`repro.scan.SparsePolicy` — mode parsing, boundary
decisions), the :class:`~repro.scan.ScanContext` integration
(``off`` never touches CSR kernels, ``on`` never densifies, ``auto``
flips exactly at the cutoff), and the bitwise cross-backend
guarantee of the sparse path (serial / thread).
"""

import numpy as np
import pytest

from repro.core import FeedforwardBPPSA
from repro.jacobian.conv import conv2d_tjac
from repro.nn import LeNet5, Sequential
from repro.scan import (
    DenseJacobian,
    GradientVector,
    ScanContext,
    SparseJacobian,
    SparsePolicy,
    blelloch_scan,
)
from repro.sparse import CSRMatrix, csr_from_diagonal


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _conv_pattern(rng, channels=4, hw=(8, 8)):
    weight = rng.standard_normal((channels, channels, 3, 3))
    return conv2d_tjac(weight, hw, padding=1)


def _sparse_items(rng, policy, stages=8, batch=2, channels=4, hw=(8, 8)):
    """Gradient seed + alternating conv / per-sample diagonal CSR chain."""
    conv = _conv_pattern(rng, channels, hw)
    dim = channels * hw[0] * hw[1]
    items = [GradientVector(rng.standard_normal((batch, dim)))]
    for stage in range(stages):
        if stage % 2 == 0:
            items.append(policy.element(SparseJacobian(conv)))
        else:
            diag = csr_from_diagonal(np.ones(dim))
            items.append(
                policy.element(
                    SparseJacobian(diag, rng.standard_normal((batch, dim)))
                )
            )
    return items


class TestSparsePolicy:
    def test_modes_and_validation(self):
        assert SparsePolicy("auto").mode == "auto"
        assert SparsePolicy("on").keep_sparse(1.0)
        assert not SparsePolicy("off").keep_sparse(0.0)
        with pytest.raises(ValueError, match="mode"):
            SparsePolicy("maybe")
        with pytest.raises(TypeError, match="densify_threshold"):
            SparsePolicy("auto", densify_threshold=0.4)

    def test_spec_parsing(self):
        assert SparsePolicy.resolve("off") == SparsePolicy("off")
        assert str(SparsePolicy.resolve("auto")) == "auto"
        # no threshold suffix: the auto cutoff is a constant
        with pytest.raises(ValueError, match="mode"):
            SparsePolicy.resolve("auto:0.4")
        with pytest.raises(ValueError, match="mode"):
            SparsePolicy.resolve("sparse:0.4")

    def test_resolve_precedence(self):
        # an explicit mode or policy wins; None is the default, auto
        assert SparsePolicy.resolve("on").mode == "on"
        policy = SparsePolicy("off")
        assert SparsePolicy.resolve(policy) is policy
        assert SparsePolicy.resolve(None) == SparsePolicy("auto")
        assert ScanContext(sparse=None).sparse_policy == SparsePolicy("auto")
        with pytest.raises(TypeError):
            SparsePolicy.resolve(1.5)

    def test_dispatch_boundaries(self):
        p = SparsePolicy("auto")
        assert SparsePolicy.AUTO_CUTOFF == 0.25
        assert p.keep_sparse(0.25)  # inclusive at the cutoff
        assert not p.keep_sparse(0.25 + 1e-9)
        assert SparsePolicy("on").keep_sparse(0.99)
        assert not SparsePolicy("off").keep_sparse(0.01)

    def test_element_densifies_above_threshold(self, rng):
        dense_pattern = CSRMatrix.from_dense(rng.standard_normal((4, 4)))
        sparse_pattern = csr_from_diagonal(np.ones(4))  # density 0.25
        p = SparsePolicy("auto")
        assert isinstance(p.element(SparseJacobian(dense_pattern)), DenseJacobian)
        assert isinstance(p.element(SparseJacobian(sparse_pattern)), SparseJacobian)
        # non-sparse elements pass through untouched
        dj = DenseJacobian(rng.standard_normal((4, 4)))
        assert SparsePolicy("off").element(dj) is dj


class TestScanContextDispatch:
    def test_off_mode_never_produces_sparse(self, rng):
        policy = SparsePolicy("off")
        ctx = ScanContext(sparse=policy)
        results = []

        def op(a, b, info=None):
            results.append(ctx.op(a, b, info))
            return results[-1]

        out = blelloch_scan(_sparse_items(rng, policy), op)
        assert not any(isinstance(el, SparseJacobian) for el in out)
        assert len(results) >= len(ctx.trace) > 0
        assert not any(
            isinstance(el, SparseJacobian) for el in results
        )  # no CSR intermediate anywhere
        # even raw sparse operands are densified at the ⊙ boundary
        diag = csr_from_diagonal(np.ones(4))
        prod = ctx.op(SparseJacobian(diag), SparseJacobian(diag))
        assert isinstance(prod, DenseJacobian)

    def test_on_mode_never_densifies(self, rng):
        # a product of two half-dense patterns is dense, yet stays CSR
        a = CSRMatrix.from_dense(
            np.where(rng.random((6, 6)) < 0.5, rng.standard_normal((6, 6)), 0.0)
        )
        ctx = ScanContext(sparse="on")
        prod = ctx.op(SparseJacobian(a), SparseJacobian(a))
        assert isinstance(prod, SparseJacobian)

    def test_auto_densifies_products_over_threshold(self):
        # diag @ diag stays diagonal (density 1/n → sparse);
        # a dense row times a dense column would exceed the cutoff
        n = 8
        diag = csr_from_diagonal(np.arange(1.0, n + 1))
        ctx = ScanContext(sparse="auto")
        assert isinstance(ctx.op(SparseJacobian(diag), SparseJacobian(diag)),
                          SparseJacobian)
        dense = CSRMatrix.from_dense(np.ones((n, n)))
        assert isinstance(ctx.op(SparseJacobian(dense), SparseJacobian(dense)),
                          DenseJacobian)


class TestCrossBackendBitwise:
    """The tentpole guarantee: for any fixed dispatch mode, gradients
    are bitwise-identical on the serial and thread backends."""

    BACKENDS = ("serial", "thread:2")

    @staticmethod
    def _grads(mode, backend):
        net = LeNet5(rng=np.random.default_rng(0), width_multiplier=0.25)
        model = Sequential(*(list(net.features) + list(net.classifier)))
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32))
        y = np.array([0, 1])
        with FeedforwardBPPSA(model, executor=backend, sparse=mode) as eng:
            grads = eng.compute_gradients(x, y)
            flops = eng.context.total_flops
        ordered = [grads[id(p)] for p in model.parameters() if id(p) in grads]
        return ordered, flops

    @pytest.mark.parametrize("mode", ["on", "auto", "off"])
    def test_bitwise_identical_across_backends(self, mode):
        ref, ref_flops = self._grads(mode, "serial")
        for backend in self.BACKENDS[1:]:
            out, flops = self._grads(mode, backend)
            assert len(out) == len(ref)
            for a, b in zip(ref, out):
                assert np.array_equal(a, b)
            assert flops == ref_flops  # same kernels, same accounting

    def test_sparse_agrees_with_dense_path(self):
        # Exact reconstruction up to floating-point reassociation
        # (paper Section 3.5): CSR kernels sum contributions in column
        # order, BLAS may re-associate the same sums.
        sparse, sparse_flops = self._grads("on", "serial")
        dense, dense_flops = self._grads("off", "serial")
        for a, b in zip(sparse, dense):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        assert sparse_flops < dense_flops  # the point of the sparse path


class TestBenchSparseAxis:
    def test_sparse_scan_sweep_records_both_modes(self):
        from repro.bench import run_bench
        from repro.experiments.common import Scale

        records = run_bench(
            Scale.SMOKE,
            backends=["serial"],
            artifacts=["sparse_scan", "parallel_backends"],
            sparse_modes=("off", "on"),
        )
        keys = {(r.artifact, r.backend) for r in records}
        assert keys == {
            ("sparse_scan", "serial[sparse=off]"),
            ("sparse_scan", "serial[sparse=on]"),
            ("parallel_backends", "serial"),  # not sparse-sensitive
        }
        by_backend = {r.backend: r for r in records if r.artifact == "sparse_scan"}
        assert all(r.num_rows == 1 for r in by_backend.values())

    def test_sparse_axis_off_keeps_plain_keys(self):
        from repro.bench import run_bench
        from repro.experiments.common import Scale

        records = run_bench(
            Scale.SMOKE, backends=["serial"], artifacts=["sparse_scan"]
        )
        assert [r.backend for r in records] == ["serial"]

    def test_empty_sparse_modes_rejected(self):
        from repro.bench import run_bench
        from repro.experiments.common import Scale

        with pytest.raises(ValueError, match="sparse_modes"):
            run_bench(
                Scale.SMOKE,
                backends=["serial"],
                artifacts=["sparse_scan"],
                sparse_modes=(),
            )
