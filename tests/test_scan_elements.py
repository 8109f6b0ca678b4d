"""Tests for the ⊙ operator's rule table and cost accounting."""

from collections import Counter
from functools import partial

import numpy as np
import pytest

import repro
from repro.data import BitstreamDataset, SyntheticImages
from repro.nn import LeNet5, RNNClassifier
from repro.pruning import magnitude_prune
from repro.scan import (
    DenseJacobian,
    GradientVector,
    IDENTITY,
    Identity,
    OpInfo,
    ScaledShared,
    ScanContext,
    SparseJacobian,
    StepRecord,
)
from repro.scan.elements import ELEMENT_KINDS, RULES
from repro.sparse import CSRMatrix


def sparse_from(rng, m, n, density=0.6, batch=None):
    dense = (rng.random((m, n)) < density) * rng.standard_normal((m, n))
    pattern = CSRMatrix.from_dense(np.where(dense != 0, 1.0, 0.0))
    if batch is None:
        return SparseJacobian(CSRMatrix.from_dense(dense)), dense
    data = rng.standard_normal((batch, pattern.nnz))
    per_sample = np.zeros((batch, m, n))
    rows = pattern.row_ids()
    per_sample[:, rows, pattern.indices] = data
    return SparseJacobian(pattern, data), per_sample


def scaled_from(rng, d, batch, d_out=None):
    """A ScaledShared element ``Wᵀ·diag(s_b)`` (with a pair table when
    square) and its (B, d_out, d) densified form."""
    w = rng.standard_normal((d, d if d_out is None else d_out))
    scale = rng.standard_normal((batch, d))
    table = ScaledShared.pair_table(w) if d_out is None else None
    return ScaledShared(w, scale, table), np.einsum("ji,bj->bij", w, scale)


class TestIdentityLaws:
    def test_identity_is_singleton(self):
        assert Identity() is IDENTITY

    def test_left_right_identity(self, rng):
        ctx = ScanContext()
        m = DenseJacobian(rng.standard_normal((3, 3)))
        assert ctx.op(IDENTITY, m) is m
        assert ctx.op(m, IDENTITY) is m
        assert ctx.total_flops == 0 and not ctx.trace


class TestMatVec:
    def test_dense_shared(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((4, 5)))
        m = DenseJacobian(rng.standard_normal((3, 5)))
        out = ctx.op(v, m)
        assert isinstance(out, GradientVector)
        np.testing.assert_allclose(out.data, v.data @ m.data.T)
        assert ctx.trace[-1].kind == "mv"
        assert ctx.total_flops == 2 * 3 * 5 * 4

    def test_dense_batched(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((4, 5)))
        m = DenseJacobian(rng.standard_normal((4, 3, 5)))
        out = ctx.op(v, m)
        ref = np.einsum("bmn,bn->bm", m.data, v.data)
        np.testing.assert_allclose(out.data, ref)

    def test_sparse(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((2, 6)))
        s, dense = sparse_from(rng, 4, 6, batch=2)
        out = ctx.op(v, s)
        ref = np.einsum("bmn,bn->bm", dense, v.data)
        np.testing.assert_allclose(out.data, ref)
        assert ctx.total_flops == 2 * s.nnz * 2

    def test_scaled_shared(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((4, 5)))
        s, dense = scaled_from(rng, 5, 4, d_out=3)
        out = ctx.op(v, s)
        assert isinstance(out, GradientVector)
        np.testing.assert_allclose(out.data, np.einsum("bmn,bn->bm", dense, v.data))
        rec = ctx.trace[-1]
        assert rec.kind == "mv" and rec.dense_mnk == 3 * 5
        assert rec.flops == ctx.total_flops == 2 * 3 * 5 * 4

    def test_scaled_shared_mismatches_raise(self, rng):
        ctx = ScanContext()
        s, _ = scaled_from(rng, 5, 4, d_out=3)
        with pytest.raises(ValueError, match="shape mismatch"):
            ctx.op(GradientVector(rng.standard_normal((4, 3))), s)
        with pytest.raises(ValueError, match="batch"):
            ctx.op(GradientVector(rng.standard_normal((1, 5))), s)
        with pytest.raises(ValueError, match="expected w"):
            ScaledShared(rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("vec_batch", [1, 2])
    def test_per_sample_matrix_checks_vector_batch(self, rng, vec_batch):
        """A per-sample matrix takes only a vector of its own batch, as
        in mat-mat: a batch-1 vector no longer broadcasts silently, and
        a batch-2 one no longer reaches NumPy's broadcast error."""
        ctx = ScanContext()
        v = GradientVector(np.ones((vec_batch, 5)))
        sparse, _ = sparse_from(rng, 3, 5, batch=4)
        for m in (DenseJacobian(np.ones((4, 3, 5))), sparse):
            with pytest.raises(ValueError, match="inconsistent batch sizes"):
                ctx.op(v, m)
        assert ctx.total_flops == 0 and not ctx.trace

    @pytest.mark.parametrize("vec_batch", [1, 3])
    def test_shared_matrix_takes_any_vector_batch(self, rng, vec_batch):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((vec_batch, 5)))
        sparse, dense = sparse_from(rng, 3, 5)
        for m in (DenseJacobian(dense), sparse):
            np.testing.assert_allclose(ctx.op(v, m).data, v.data @ dense.T)

    def test_vector_cannot_be_right_operand(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((1, 3)))
        with pytest.raises(TypeError, match="right operand"):
            ctx.op(v, v)

    def test_shape_mismatch(self, rng):
        ctx = ScanContext()
        v = GradientVector(rng.standard_normal((1, 4)))
        m = DenseJacobian(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError, match="shape mismatch"):
            ctx.op(v, m)


class TestMatMat:
    def test_dense_dense_shared(self, rng):
        ctx = ScanContext()
        a = DenseJacobian(rng.standard_normal((4, 6)))
        b = DenseJacobian(rng.standard_normal((3, 4)))
        out = ctx.op(a, b)  # B @ A
        np.testing.assert_allclose(out.data, b.data @ a.data)
        rec = ctx.trace[-1]
        assert rec.kind == "mm" and rec.dense_mnk == 3 * 6 * 4

    def test_dense_batched_mixed(self, rng):
        ctx = ScanContext()
        a = DenseJacobian(rng.standard_normal((2, 4, 6)))
        b = DenseJacobian(rng.standard_normal((3, 4)))
        out = ctx.op(a, b)
        ref = np.einsum("mk,bkn->bmn", b.data, a.data)
        np.testing.assert_allclose(out.data, ref)

    def test_sparse_sparse_shared(self, rng):
        ctx = ScanContext(sparse="on")
        a, da = sparse_from(rng, 4, 5, 0.4)
        b, db = sparse_from(rng, 3, 4, 0.4)
        out = ctx.op(a, b)
        assert isinstance(out, SparseJacobian)
        np.testing.assert_allclose(out.pattern.to_dense(), db @ da, atol=1e-12)

    def test_sparse_sparse_batched(self, rng):
        ctx = ScanContext(sparse="on")
        a, da = sparse_from(rng, 4, 5, 0.5, batch=3)
        b, db = sparse_from(rng, 3, 4, 0.5, batch=3)
        out = ctx.op(a, b)
        assert isinstance(out, SparseJacobian) and out.batch == 3
        dense = out.to_dense().data
        for i in range(3):
            np.testing.assert_allclose(dense[i], db[i] @ da[i], atol=1e-12)

    def test_sparse_shared_times_batched(self, rng):
        ctx = ScanContext(sparse="on")
        a, da = sparse_from(rng, 4, 5, 0.5, batch=2)
        b, db = sparse_from(rng, 3, 4, 0.5)
        out = ctx.op(a, b)
        dense = out.to_dense().data
        for i in range(2):
            np.testing.assert_allclose(dense[i], db @ da[i], atol=1e-12)

    def test_sparse_dense_mix(self, rng):
        ctx = ScanContext()
        a, da = sparse_from(rng, 4, 5, 0.5)
        b = DenseJacobian(rng.standard_normal((3, 4)))
        out = ctx.op(a, b)
        assert isinstance(out, DenseJacobian)
        np.testing.assert_allclose(out.data, b.data @ da, atol=1e-12)
        out2 = ctx.op(DenseJacobian(da), sparse_from(rng, 3, 4, 0.5)[0])
        assert isinstance(out2, DenseJacobian)

    def test_scaled_shared_same_w(self, rng):
        ctx = ScanContext()
        a, da = scaled_from(rng, 6, 3)
        b = ScaledShared(a.w, rng.standard_normal((3, 6)), a.pairs)
        out = ctx.op(a, b)  # B @ A via the pair table
        assert isinstance(out, DenseJacobian) and out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, b.to_dense().data @ da, atol=1e-12)
        rec = ctx.trace[-1]
        assert rec.kind == "mm" and rec.dense_mnk == 6 * 6 * 6
        assert rec.flops == 2 * 6 * 6 * 6 * 3
        # Without a shared table the same product densifies: same values.
        plain = ScaledShared(a.w, b.scale)
        np.testing.assert_allclose(ctx.op(a, plain).data, out.data, atol=1e-12)
        assert ctx.trace[-1].flops == rec.flops
        # With one, the product is read from the table alone.
        zeros = np.zeros_like(a.pairs)
        a0, b0 = ScaledShared(a.w, a.scale, zeros), ScaledShared(b.w, b.scale, zeros)
        assert not ctx.op(a0, b0).data.any()

    @pytest.mark.parametrize("sparse", ["on", "off"])
    def test_scaled_shared_mixes(self, rng, sparse):
        """Any product but same-W densifies the ScaledShared operand."""
        ctx = ScanContext(sparse=sparse)
        s, ds = scaled_from(rng, 4, 2)
        batched = DenseJacobian(rng.standard_normal((2, 4, 4)))
        shared = DenseJacobian(rng.standard_normal((4, 4)))
        others = [
            (batched, batched.data),
            (shared, shared.data),
            sparse_from(rng, 4, 4, 0.5, batch=2),
            sparse_from(rng, 4, 4, 0.5),
        ]
        for other, dense in others:
            csr = isinstance(other, SparseJacobian) and sparse == "on"
            for a, da, b, db in ((s, ds, other, dense), (other, dense, s, ds)):
                out = ctx.op(a, b)
                assert isinstance(out, DenseJacobian)
                np.testing.assert_allclose(out.data, db @ da, atol=1e-12)
                rec = ctx.trace[-1]
                assert rec.kind == "mm" and rec.dense_mnk == 4 * 4 * 4
                # A CSR operand times a densified one counts its nnz.
                nnz = other.nnz if csr else 4 * 4
                assert rec.flops == 2 * nnz * 4 * 2

    def test_scaled_shared_mismatches_raise_in_products(self, rng):
        ctx = ScanContext()
        a, _ = scaled_from(rng, 4, 2)
        with pytest.raises(ValueError, match="batch"):
            ctx.op(a, ScaledShared(a.w, rng.standard_normal((3, 4)), a.pairs))
        with pytest.raises(ValueError, match="batch"):
            ctx.op(a, DenseJacobian(rng.standard_normal((3, 4, 4))))
        with pytest.raises(ValueError, match="shape mismatch"):
            ctx.op(a, DenseJacobian(rng.standard_normal((4, 5))))

    def test_densify_threshold(self, rng):
        ctx = ScanContext(sparse="auto")  # the product is over the cutoff
        a, _ = sparse_from(rng, 4, 4, 0.9)
        b, _ = sparse_from(rng, 4, 4, 0.9)
        out = ctx.op(a, b)
        assert isinstance(out, DenseJacobian)

    def test_plan_cache_reused_across_ops(self, rng):
        ctx = ScanContext(sparse="on")
        a, _ = sparse_from(rng, 4, 4, 0.5)
        b, _ = sparse_from(rng, 4, 4, 0.5)
        ctx.op(a, b)
        ctx.op(a, b)
        assert ctx.cache.hits == 1 and ctx.cache.misses == 1

    def test_inconsistent_batch_raises(self, rng):
        ctx = ScanContext()
        a = DenseJacobian(rng.standard_normal((2, 4, 5)))
        b = DenseJacobian(rng.standard_normal((3, 3, 4)))
        with pytest.raises(ValueError, match="batch"):
            ctx.op(a, b)


class TestElementTypes:
    def test_gradient_vector_validation(self, rng):
        v = GradientVector(rng.standard_normal(5))
        assert v.batch == 1 and v.dim == 5
        with pytest.raises(ValueError):
            GradientVector(rng.standard_normal((2, 3, 4)))

    def test_sparse_jacobian_data_validation(self, rng):
        s, _ = sparse_from(rng, 3, 3, 0.5)
        with pytest.raises(ValueError):
            SparseJacobian(s.pattern, rng.standard_normal((2, s.nnz + 1)))

    def test_sparse_to_dense_shared_and_batched(self, rng):
        shared, dense = sparse_from(rng, 3, 4, 0.5)
        np.testing.assert_allclose(shared.to_dense().data, dense)
        batched, per_sample = sparse_from(rng, 3, 4, 0.5, batch=2)
        np.testing.assert_allclose(batched.to_dense().data, per_sample)

    def test_reprs(self, rng):
        v = GradientVector(rng.standard_normal((2, 3)))
        assert "B=2" in repr(v)
        d = DenseJacobian(rng.standard_normal((3, 3)))
        assert "shared" in repr(d)
        assert "B=4" in repr(scaled_from(rng, 3, 4)[0])

    def test_scaled_shared_to_dense(self, rng):
        s, dense = scaled_from(rng, 5, 3, d_out=2)
        assert s.shape == (2, 5) and s.batch == 3
        out = s.to_dense().data
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, dense)

    def test_reset_trace(self, rng):
        ctx = ScanContext()
        ctx.op(GradientVector(rng.standard_normal((1, 3))),
               DenseJacobian(rng.standard_normal((3, 3))))
        ctx.reset_trace()
        assert ctx.total_flops == 0 and not ctx.trace


def rnn_step():
    """The rnn_bitstream step: a Blelloch RNN engine, T=1000, B=16, H=20."""
    data = BitstreamDataset(1000, num_samples=16, seed=0)
    x, y = next(iter(data.batches(16, num_batches=1, epoch_seed=0)))
    clf = RNNClassifier(1, 20, 10, rng=np.random.default_rng(0))
    return repro.build_engine(clf, "blelloch/serial"), x, y


def lenet_step(scope="global"):
    """The pruned_lenet step: LeNet-5 (w=0.25) pruned 90% (globally by
    default, or per layer), B=4, truncated at depth 2 with CSR Linears
    under ``sparse=auto``."""
    data = SyntheticImages(num_samples=8, seed=0)
    x, y = next(iter(data.batches(4, num_batches=1, epoch_seed=0)))
    model = LeNet5(rng=np.random.default_rng(0), width_multiplier=0.25)
    if scope == "global":  # global pruning empties Linear(100→30)
        with pytest.warns(RuntimeWarning, match="kept no weight"):
            magnitude_prune(model, 0.9, scope=scope)
    else:
        magnitude_prune(model, 0.9, scope=scope)
    engine = repro.build_engine(
        model, "truncated/serial/sparse=auto", up_levels=2, sparse_linear_tol=0.0
    )
    return engine, x, y


class TestRuleTable:
    NAMES = {
        "mv.csr", "mv.scaled", "mv.dense_shared", "mv.dense",
        "mm.pair", "mm.spgemm", "mm.gemm",
    }

    def test_every_operand_pair_has_one_rule(self):
        """A vector or matrix left operand meets every matrix kind; a
        vector on the right has no rule."""
        matrices = ELEMENT_KINDS - {"identity", "vector"}
        lefts = matrices | {"vector"}
        assert set(RULES) == {(a, b) for a in lefts for b in matrices}
        assert {rule.name for rule in RULES.values()} == self.NAMES
        for (left, _), rule in RULES.items():
            assert rule.name.startswith("mv." if left == "vector" else "mm.")

    def test_kind_is_the_rules_family(self):
        info = OpInfo("up", 0, 0, 1)
        assert StepRecord(info, "mm.spgemm", 2, 8).kind == "mm"
        assert StepRecord(info, "mv.csr", 2, 4).kind == "mv"
        assert StepRecord(info, "mv", 2, 4).kind == "mv"  # a model without rules

    def test_paired_operands_hold_one_table(self, rng):
        a, _ = scaled_from(rng, 4, 2)
        b, _ = scaled_from(rng, 4, 2)  # its own pair table
        with pytest.raises(ValueError, match="one pair table"):
            ScanContext().op(a, b)

    @pytest.mark.parametrize(
        "step, counts, flops",
        [
            (rnn_step, {"mv.scaled": 500, "mv.dense": 499, "mm.pair": 499,
                        "mm.gemm": 486}, 264_947_200),
            (lenet_step, {"mv.csr": 8, "mm.spgemm": 4, "mm.gemm": 1,
                          "mv.dense_shared": 1, "mv.dense": 1}, 384_840),
            (partial(lenet_step, "layer"), {"mv.csr": 10, "mm.spgemm": 5},
             110_256),
        ],
        ids=["rnn_blelloch", "pruned_lenet_truncated",
             "pruned_lenet_per_layer_truncated"],
    )
    def test_warm_step_rule_counts(self, step, counts, flops):
        """Every record of a warm step names a table rule; the per-rule
        counts are the step's ⊙ mix, and their FLOPs sum to the total.
        The pruned LeNet-5 totals count only live conv taps (storing the
        pruned taps as explicit zeros would read 744,840 global and
        758,256 per layer)."""
        engine, x, y = step()
        with engine:
            engine.compute_gradients(x, y)
            engine.compute_gradients(x, y)
            trace = engine.context.trace
            assert Counter(rec.rule for rec in trace) == counts
            assert sum(rec.flops for rec in trace) == engine.context.total_flops
            assert engine.context.total_flops == flops
