"""Tests for the extension features: LeakyReLU/ELU operators, input
gradients through the scan, checkpointing, and the truncation ablation."""

import numpy as np
import pytest

from repro.core import FeedforwardBPPSA
from repro.experiments import ablation_truncation
from repro.experiments.common import Scale
from repro.jacobian import autograd_tjac, layer_tjac_batched
from repro.nn import CrossEntropyLoss, Sequential, make_mlp
from repro.nn.layers import ELU, Conv2d, Flatten, LeakyReLU, Linear
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.tensor import Tensor, gradcheck, ops

loss_fn = CrossEntropyLoss()


class TestNewActivations:
    @pytest.mark.parametrize("slope", [0.01, 0.2])
    def test_leaky_relu_gradcheck(self, rng, slope):
        a = Tensor(rng.standard_normal((3, 5)) + 0.3, requires_grad=True)
        assert gradcheck(lambda x: ops.leaky_relu(x, slope), [a])

    def test_elu_gradcheck(self, rng):
        a = Tensor(rng.standard_normal((3, 5)) + 0.3, requires_grad=True)
        assert gradcheck(lambda x: ops.elu(x, 1.3), [a])

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        out = ops.leaky_relu(x, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_elu_values(self):
        x = Tensor(np.array([-1.0, 2.0]))
        out = ops.elu(x, 1.0)
        np.testing.assert_allclose(out.data, [np.expm1(-1.0), 2.0])

    @pytest.mark.parametrize("layer_fn", [lambda: LeakyReLU(0.1), lambda: ELU(0.7)])
    def test_dispatch_matches_autograd(self, rng, layer_fn):
        layer = layer_fn()
        x = rng.standard_normal((3, 7))
        from repro.tensor import no_grad

        with no_grad():
            x_out = layer(Tensor(x)).data
        jac = layer_tjac_batched(layer, x, x_out)
        per_sample = jac.per_sample_dense(3)
        for b in range(3):
            ref = autograd_tjac(lambda t: layer(t), x[b], as_csr=False)
            np.testing.assert_allclose(per_sample[b], ref, atol=1e-10)

    @pytest.mark.parametrize("act", [LeakyReLU, ELU])
    def test_engine_equivalence_with_new_activations(self, rng, act):
        model = Sequential(
            Linear(6, 8, rng=rng), act(), Linear(8, 4, rng=rng), act(),
            Linear(4, 3, rng=rng),
        )
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 3, 4)
        model.zero_grad()
        loss_fn(model(Tensor(x)), y).backward()
        ref = {id(p): p.grad for p in model.parameters()}
        got = FeedforwardBPPSA(model).compute_gradients(x, y)
        for p in model.parameters():
            np.testing.assert_allclose(
                got[id(p)].reshape(p.data.shape), ref[id(p)], atol=1e-9
            )


class TestInputGradient:
    def test_matches_taped_input_grad_mlp(self, rng):
        model = make_mlp([5, 7, 3], activation="tanh", rng=rng)
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, 4)
        xt = Tensor(x, requires_grad=True)
        loss_fn(model(xt), y).backward()

        engine = FeedforwardBPPSA(model)
        engine.compute_gradients(x, y, input_gradient=True)
        np.testing.assert_allclose(engine.last_input_gradient, xt.grad, atol=1e-10)

    def test_matches_taped_input_grad_cnn(self, rng):
        from repro.nn.layers import MaxPool2d, ReLU

        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng), ReLU(), MaxPool2d(2),
            Flatten(), Linear(3 * 4 * 4, 4, rng=rng),
        )
        x = rng.standard_normal((2, 2, 8, 8))
        y = rng.integers(0, 4, 2)
        xt = Tensor(x, requires_grad=True)
        loss_fn(model(xt), y).backward()

        engine = FeedforwardBPPSA(model)
        engine.compute_gradients(x, y, input_gradient=True)
        assert engine.last_input_gradient.shape == x.shape
        np.testing.assert_allclose(engine.last_input_gradient, xt.grad, atol=1e-9)

    def test_disabled_by_default(self, rng):
        model = make_mlp([4, 3], rng=rng)
        engine = FeedforwardBPPSA(model)
        engine.compute_gradients(rng.standard_normal((2, 4)), np.array([0, 1]))
        assert engine.last_input_gradient is None


class TestCheckpointing:
    def test_roundtrip(self, rng, tmp_path):
        model = make_mlp([4, 6, 2], rng=rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        clone = make_mlp([4, 6, 2], rng=np.random.default_rng(99))
        load_checkpoint(clone, path)
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_extension_optional(self, rng, tmp_path):
        model = make_mlp([3, 2], rng=rng)
        save_checkpoint(model, tmp_path / "c")  # np.savez appends .npz
        load_checkpoint(model, tmp_path / "c")  # loader appends too

    def test_wrong_architecture_rejected(self, rng, tmp_path):
        model = make_mlp([4, 6, 2], rng=rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        other = make_mlp([4, 5, 2], rng=rng)
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    def test_preserves_pruning(self, rng, tmp_path):
        from repro.pruning import magnitude_prune, model_sparsity

        model = make_mlp([8, 8, 4], rng=rng)
        magnitude_prune(model, 0.75)
        save_checkpoint(model, tmp_path / "pruned.npz")
        clone = make_mlp([8, 8, 4], rng=np.random.default_rng(1))
        load_checkpoint(clone, tmp_path / "pruned.npz")
        assert abs(model_sparsity(clone) - 0.75) < 0.01


class TestTruncationAblation:
    def test_tradeoff_shape(self):
        rows = ablation_truncation.run(Scale.SMOKE)["rows"]
        by_depth = {r["up_levels"]: r for r in rows}
        # deeper scans never get cheaper per step…
        flops = [by_depth[d]["max_critical_flops"] for d in (0, 1, 2, 3)]
        assert flops == sorted(flops)
        # …but gain parallel levels
        levels = [by_depth[d]["parallel_levels"] for d in (0, 1, 2, 3)]
        assert levels == sorted(levels)
        assert by_depth[2]["parallel_levels"] > by_depth[0]["parallel_levels"]
        # depth 0 is the pure serial scan: no matrix–matrix work
        assert by_depth[0]["mm_steps"] == 0

    def test_report_renders(self):
        result = ablation_truncation.run(Scale.SMOKE)
        assert "up_levels" in ablation_truncation.render_report(result)
