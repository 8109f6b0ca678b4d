"""Tests for magnitude pruning and masked retraining."""

import warnings

import numpy as np
import pytest

from repro.nn import LeNet5, Sequential, VGG11, make_mlp
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.pruning import apply_masks, magnitude_prune, model_sparsity


class TestMagnitudePrune:
    def test_global_fraction(self, rng):
        model = make_mlp([20, 30, 10], rng=rng)
        masks = magnitude_prune(model, 0.97, scope="global")
        assert abs(masks.sparsity() - 0.97) < 0.01
        assert abs(model_sparsity(model) - 0.97) < 0.01

    def test_layer_fraction(self, rng):
        model = make_mlp([20, 30, 10], rng=rng)
        magnitude_prune(model, 0.5, scope="layer")
        for layer in model:
            if isinstance(layer, Linear):
                zero_frac = (layer.weight.data == 0).mean()
                assert abs(zero_frac - 0.5) < 0.1

    def test_keeps_largest_weights(self, rng):
        model = make_mlp([10, 10], rng=rng)
        lin = model[0]
        biggest = np.abs(lin.weight.data).max()
        magnitude_prune(model, 0.9, scope="global")
        assert np.abs(lin.weight.data).max() == biggest

    def test_biases_untouched(self, rng):
        model = make_mlp([10, 10], rng=rng)
        bias_before = model[0].bias.data.copy()
        magnitude_prune(model, 0.97)
        np.testing.assert_array_equal(model[0].bias.data, bias_before)

    def test_prunes_conv_and_linear(self, rng):
        model = VGG11(rng=rng, width_multiplier=0.0625)
        masks = magnitude_prune(model, 0.9)
        n_prunable = sum(
            1 for m in model.modules() if isinstance(m, (Conv2d, Linear))
        )
        assert len(masks) == n_prunable

    def test_zero_fraction_noop(self, rng):
        model = make_mlp([5, 5], rng=rng)
        before = model[0].weight.data.copy()
        magnitude_prune(model, 0.0)
        np.testing.assert_array_equal(model[0].weight.data, before)

    @pytest.mark.parametrize("frac", [-0.1, 1.0, 1.5])
    def test_invalid_fraction(self, rng, frac):
        model = make_mlp([4, 4], rng=rng)
        with pytest.raises(ValueError):
            magnitude_prune(model, frac)

    def test_invalid_scope(self, rng):
        model = make_mlp([4, 4], rng=rng)
        with pytest.raises(ValueError, match="scope"):
            magnitude_prune(model, 0.5, scope="galactic")

    def test_warns_when_global_pruning_empties_a_layer(self):
        """At initialization LeNet-5's Linear(100→30) holds the smallest
        weights, so 90% global pruning removes all of them."""
        model = LeNet5(rng=np.random.default_rng(1), width_multiplier=0.25)
        with pytest.warns(RuntimeWarning, match=r"kept no weight .*\(30, 100\)"):
            masks = magnitude_prune(model, 0.9, scope="global")
        emptied = [w for w, m in masks.masks.items() if not m.any()]
        assert [w.data.shape for w in emptied] == [(30, 100)]

    def test_layer_scope_empties_no_layer(self):
        model = LeNet5(rng=np.random.default_rng(1), width_multiplier=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            masks = magnitude_prune(model, 0.9, scope="layer")
        assert all(m.any() for m in masks.masks.values())

    def test_model_without_prunable_weights(self):
        with pytest.raises(ValueError, match="no prunable"):
            magnitude_prune(Sequential(ReLU()), 0.5)


class TestMaskedRetraining:
    def test_masks_restore_zeros_after_update(self, rng):
        model = make_mlp([8, 8, 4], rng=rng)
        masks = magnitude_prune(model, 0.75)
        # simulate an optimizer step perturbing everything
        for p in model.parameters():
            p.data = p.data + rng.standard_normal(p.data.shape)
        assert model_sparsity(model) < 0.1  # perturbation filled zeros in
        apply_masks(model, masks)
        assert abs(model_sparsity(model) - 0.75) < 0.01

    def test_apply_masks_idempotent(self, rng):
        model = make_mlp([8, 8], rng=rng)
        masks = magnitude_prune(model, 0.5)
        before = model[0].weight.data.copy()
        apply_masks(model, masks)
        np.testing.assert_array_equal(model[0].weight.data, before)

    def test_retraining_preserves_sparsity_end_to_end(self, rng):
        from repro.core import FeedforwardBPPSA
        from repro.optim import SGD

        model = make_mlp([6, 10, 3], activation="tanh", rng=rng)
        masks = magnitude_prune(model, 0.8)
        engine = FeedforwardBPPSA(model)
        opt = SGD(model.parameters(), lr=0.05)
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 3, 8)
        for _ in range(5):
            grads = engine.compute_gradients(x, y)
            engine.apply_gradients(grads)
            opt.step()
            apply_masks(model, masks)
        assert abs(model_sparsity(model) - 0.8) < 0.01


class TestMaskPersistence:
    """MaskSet.reapply / assert_applied — the retrain-loop contract."""

    def test_reapply_equals_apply_masks(self, rng):
        model = make_mlp([8, 8, 4], rng=rng)
        masks = magnitude_prune(model, 0.75)
        for p in model.parameters():
            p.data = p.data + rng.standard_normal(p.data.shape)
        masks.reapply(model)
        assert abs(model_sparsity(model) - 0.75) < 0.01

    def test_assert_applied_catches_leaked_weights(self, rng):
        model = make_mlp([8, 8], rng=rng)
        masks = magnitude_prune(model, 0.5)
        masks.assert_applied(model)  # freshly pruned: must pass
        for p in model.parameters():
            p.data = p.data + 1.0  # optimizer step without reapply
        with pytest.raises(AssertionError, match="reapply"):
            masks.assert_applied(model)
        masks.reapply(model)
        masks.assert_applied(model)

    def test_assert_applied_ignores_unmasked_models(self, rng):
        # A mask set from one model must not constrain another. The
        # pruned model is dropped at once, so the fresh model's
        # parameters usually reuse its ids: masks keyed by id() would
        # fail assert_applied (and reapply would zero) the wrong model.
        for _ in range(20):
            masks = magnitude_prune(make_mlp([4, 4], rng=rng), 0.9)
            fresh = make_mlp([4, 4], rng=rng)
            before = [p.data.copy() for p in fresh.parameters()]
            masks.assert_applied(fresh)
            masks.reapply(fresh)
            for old, p in zip(before, fresh.parameters()):
                np.testing.assert_array_equal(p.data, old)

    def test_retrain_loop_holds_sparsity_every_step(self, rng):
        from repro.core import FeedforwardBPPSA
        from repro.optim import SGD

        model = make_mlp([6, 10, 3], activation="relu", rng=rng)
        masks = magnitude_prune(model, 0.8)
        engine = FeedforwardBPPSA(model)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        x = rng.standard_normal((8, 6))
        y = rng.integers(0, 3, 8)
        for _ in range(4):
            grads = engine.compute_gradients(x, y)
            engine.apply_gradients(grads)
            opt.step()
            masks.reapply(model)
            masks.assert_applied(model)  # must hold after *every* step
        assert abs(model_sparsity(model) - 0.8) < 0.01
