"""The workload plane: attention Jacobians, stage structure, the pipeline.

Three layers of guarantees:

* the analytical transposed-Jacobian generators for softmax attention,
  LayerNorm, and position-wise Linear match the column-at-a-time
  autograd baseline (the same differential that validates every other
  generator in :mod:`repro.jacobian`), plus Hypothesis structure
  properties (softmax Jacobian rows sum to zero — probabilities are on
  the simplex — and ``magnitude_prune`` hits its fraction to within
  one weight);
* a transformer block flows through ``build_engine`` and reproduces
  the taped reference gradients on every scan algorithm;
* each bench workload's expected per-stage Jacobian structure matches
  what the dispatch actually produces, and both bench workloads emit
  well-formed rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ScanConfig
from repro.core import FeedforwardBPPSA
from repro.experiments.common import Scale
from repro.jacobian import (
    attention_tjac_batched,
    autograd_tjac,
    layernorm_tjac_batched,
    linear_tjac_positionwise,
    softmax_jac,
)
from repro.nn import (
    CrossEntropyLoss,
    LayerNorm,
    SelfAttention,
    make_mlp,
    make_transformer_classifier,
)
from repro.nn.layers import Linear
from repro.pruning import magnitude_prune
from repro.tensor import Tensor
from repro.workloads import (
    pruning_pipeline,
    stage_structures,
    structure_tag,
    transformer,
)

loss_fn = CrossEntropyLoss()


# ---------------------------------------------------------------------------
# analytical generators vs the autograd baseline
# ---------------------------------------------------------------------------
class TestAttentionGenerators:
    def test_attention_tjac_matches_autograd(self, rng):
        layer = SelfAttention(6, rng=rng)
        x = rng.standard_normal((2, 4, 6))
        tjacs = attention_tjac_batched(layer, x)
        for b in range(2):
            ref = autograd_tjac(layer, x[b : b + 1], as_csr=False)
            np.testing.assert_allclose(tjacs[b], ref, atol=1e-9)

    def test_layernorm_tjac_matches_autograd(self, rng):
        layer = LayerNorm(5)
        x = rng.standard_normal((3, 4, 5))
        pattern, data = layernorm_tjac_batched(x, eps=layer.eps)
        for b in range(3):
            ref = autograd_tjac(layer, x[b : b + 1], as_csr=False)
            got = pattern.with_data(data[b]).to_dense()
            np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_positionwise_linear_tjac_matches_autograd(self, rng):
        layer = Linear(5, 7, rng=rng)
        x = rng.standard_normal((1, 4, 5))
        csr = linear_tjac_positionwise(layer.weight.data, seq_len=4)
        ref = autograd_tjac(layer, x, as_csr=False)
        np.testing.assert_allclose(csr.to_dense(), ref, atol=1e-12)
        # kron(I_T, Wᵀ): density is exactly 1/T
        assert csr.density == pytest.approx(1.0 / 4)

    def test_layernorm_tjac_is_symmetric(self, rng):
        # ∂y_j/∂x_i is symmetric in (i, j), so jac == tjac for this op
        layer = LayerNorm(6)
        x = rng.standard_normal((1, 3, 6))
        pattern, data = layernorm_tjac_batched(x, eps=layer.eps)
        dense = pattern.with_data(data[0]).to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(0, 2**16),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_softmax_jac_rows_sum_to_zero(n, seed, scale):
    """Softmax outputs stay on the simplex, so every Jacobian row (and
    by symmetry column) sums to zero: J = diag(a) − a·aᵀ."""
    logits = np.random.default_rng(seed).standard_normal(n) * scale
    shifted = np.exp(logits - logits.max())
    a = shifted / shifted.sum()
    jac = softmax_jac(a)
    np.testing.assert_allclose(jac.sum(axis=-1), np.zeros(n), atol=1e-12)
    np.testing.assert_allclose(jac, jac.T, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    fraction=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(0, 2**16),
)
def test_magnitude_prune_fraction_within_one_weight(fraction, seed):
    """Global pruning at fraction p zeroes ⌊p·N⌋ of N weights, so the
    mask sparsity lands within one weight of p."""
    model = make_mlp([7, 9, 5], rng=np.random.default_rng(seed))
    total = sum(m.size for m in magnitude_prune(model, 0.0).masks.values())
    model = make_mlp([7, 9, 5], rng=np.random.default_rng(seed))
    masks = magnitude_prune(model, fraction, scope="global")
    assert abs(masks.sparsity() - fraction) <= 1.0 / total


# ---------------------------------------------------------------------------
# the transformer block through the engine
# ---------------------------------------------------------------------------
class TestTransformerEngine:
    @pytest.mark.parametrize(
        "algorithm", ["linear", "blelloch", "hillis_steele", "truncated"]
    )
    def test_engine_matches_tape(self, rng, algorithm):
        model = make_transformer_classifier(4, 6, 3, d_ff=8, rng=rng)
        x = rng.standard_normal((2, 4, 6))
        y = rng.integers(0, 3, 2)
        model.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward()
        ref = {name: p.grad.copy() for name, p in model.named_parameters()}
        with FeedforwardBPPSA(model, config=algorithm) as engine:
            got = engine.compute_gradients(x, y)
        assert len(got) == len(ref) == 9
        for name, p in model.named_parameters():
            np.testing.assert_allclose(
                ref[name],
                got[id(p)].reshape(p.data.shape),
                atol=1e-9,
                err_msg=name,
            )

    def test_input_gradient_matches_tape(self, rng):
        model = make_transformer_classifier(3, 4, 2, rng=rng)
        x = rng.standard_normal((2, 3, 4))
        y = rng.integers(0, 2, 2)
        probe = Tensor(x, requires_grad=True)
        loss_fn(model(probe), y).backward()
        with FeedforwardBPPSA(model) as engine:
            engine.compute_gradients(x, y, input_gradient=True)
            got = engine.last_input_gradient
        np.testing.assert_allclose(
            probe.grad, got.reshape(x.shape), atol=1e-9
        )


# ---------------------------------------------------------------------------
# the bench workloads' stage structure
# ---------------------------------------------------------------------------
#: Each bench workload's module, the ``sparse_linear_tol`` its engines
#: run with, and the structure tag of every stage in forward order.
EXPECTED_STRUCTURE = {
    # SelfAttention, LayerNorm, Linear, ReLU, Linear, LayerNorm,
    # Flatten, Linear head.
    "transformer_block": (
        transformer,
        None,
        (
            "dense-per-sample",
            "sparse-per-sample",
            "sparse-shared",
            "sparse-per-sample",
            "sparse-shared",
            "sparse-per-sample",
            "identity",
            "dense-shared",
        ),
    ),
    # Linear, ReLU, Linear, ReLU, Linear: CSR Linears at tol 0.0.
    "pruned_mlp": (
        pruning_pipeline,
        0.0,
        (
            "sparse-shared",
            "sparse-per-sample",
            "sparse-shared",
            "sparse-per-sample",
            "sparse-shared",
        ),
    ),
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(EXPECTED_STRUCTURE))
    def test_declared_structure_matches_dispatch(self, name):
        module, tol, expected = EXPECTED_STRUCTURE[name]
        model, x, _ = module.build(Scale.SMOKE)
        rows = stage_structures(model, x, sparse_linear_tol=tol)
        assert tuple(row["structure"] for row in rows) == expected

    def test_factories_are_deterministic(self):
        model_a, xa, ya = transformer.build(Scale.SMOKE)
        model_b, xb, yb = transformer.build(Scale.SMOKE)
        for (_, pa), (_, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_stage_structures_tags(self, rng):
        model = make_transformer_classifier(3, 4, 2, rng=rng)
        rows = stage_structures(model, rng.standard_normal((2, 3, 4)))
        assert [r["structure"] for r in rows[:2]] == [
            "dense-per-sample",
            "sparse-per-sample",
        ]
        assert rows[-2]["structure"] == "identity"  # Flatten
        assert all(0.0 < r["density"] <= 1.0 for r in rows)

    def test_structure_tag_identity(self):
        assert structure_tag(None) == "identity"


# ---------------------------------------------------------------------------
# the bench workloads
# ---------------------------------------------------------------------------
class TestBenchWorkloads:
    def test_transformer_scan_rows(self):
        cfg = ScanConfig(executor="serial", sparse="on").resolve()
        rows = transformer.transformer_scan_rows(Scale.SMOKE, cfg)
        assert len(rows) == 8
        assert {r["structure"] for r in rows} == {
            "dense-per-sample",
            "sparse-per-sample",
            "sparse-shared",
            "identity",
            "dense-shared",
        }
        assert all(r["backend"] == "serial" for r in rows)

    def test_pruned_sparsity_rows(self):
        cfg = ScanConfig(executor="serial").resolve()
        rows = pruning_pipeline.pruned_sparsity_rows(Scale.SMOKE, cfg)
        fractions = [r["fraction"] for r in rows]
        assert fractions == [0.0, 0.5, 0.9]
        # pruning must drain the scan operands monotonically
        densities = [r["mean_stage_density"] for r in rows]
        assert densities == sorted(densities, reverse=True)
        for r in rows:
            assert abs(r["weight_sparsity"] - r["fraction"]) < 0.01
            assert r["dense_ms"] > 0 and r["sparse_ms"] > 0
        metrics = pruning_pipeline.pruned_sparsity_metrics(rows)
        assert metrics["max_fraction"] == 0.9
        assert (
            metrics["stage_density_at_max_fraction"] == densities[-1]
        )
