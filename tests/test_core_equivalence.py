"""BPPSA ⇔ baseline-BP gradient equivalence — the paper's central claim.

Section 3.5: "our algorithm is a reconstruction of BP instead of an
approximation, and hence, expected to reproduce the exact same
outputs."  Every engine/algorithm combination must match the taped
reference to floating-point reassociation tolerance.
"""

from importlib import import_module

import numpy as np
import pytest

import repro
from repro.core import FeedforwardBPPSA, RNNBPPSA
from repro.nn import (
    CrossEntropyLoss,
    LeNet5,
    RNNClassifier,
    Sequential,
    make_mlp,
)
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Module
from repro.nn.rnn import RNN
from repro.pipeline import StagedRNNBPPSA
from repro.pruning import magnitude_prune
from repro.tensor import Tensor

ALGORITHMS = ["linear", "blelloch", "hillis_steele", "truncated"]
loss_fn = CrossEntropyLoss()


def taped_grads(model, x, y):
    model.zero_grad()
    loss = loss_fn(model(Tensor(x)), y)
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


def assert_engine_matches(model, engine, x, y, tol=1e-9):
    ref = taped_grads(model, x, y)
    got = engine.compute_gradients(x, y)
    for name, p in model.named_parameters():
        a = ref[name]
        b = got[id(p)].reshape(p.data.shape)
        np.testing.assert_allclose(a, b, atol=tol, err_msg=name)


class TestFeedforward:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mlp_tanh(self, rng, algorithm):
        model = make_mlp([10, 8, 8, 5], activation="tanh", rng=rng)
        x = rng.standard_normal((4, 10))
        y = rng.integers(0, 5, 4)
        assert_engine_matches(model, FeedforwardBPPSA(model, config=algorithm), x, y)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mlp_relu(self, rng, algorithm):
        model = make_mlp([6, 12, 4], activation="relu", rng=rng)
        x = rng.standard_normal((3, 6))
        y = rng.integers(0, 4, 3)
        assert_engine_matches(model, FeedforwardBPPSA(model, config=algorithm), x, y)

    @pytest.mark.parametrize("algorithm", ["linear", "blelloch", "truncated"])
    def test_cnn_all_layer_types(self, rng, algorithm):
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(3, 4, 3, padding=1, rng=rng),
            Tanh(),
            AvgPool2d(2),
            Flatten(),
            Linear(4 * 2 * 2, 6, rng=rng),
            Sigmoid(),
            Linear(6, 5, rng=rng),
        )
        x = rng.standard_normal((3, 2, 8, 8))
        y = rng.integers(0, 5, 3)
        assert_engine_matches(model, FeedforwardBPPSA(model, config=algorithm), x, y)

    def test_lenet5(self, rng):
        net = LeNet5(rng=rng, width_multiplier=0.5)
        model = Sequential(*(list(net.features) + list(net.classifier)))
        x = rng.standard_normal((2, 3, 32, 32))
        y = rng.integers(0, 10, 2)
        assert_engine_matches(model, FeedforwardBPPSA(model), x, y, tol=1e-8)

    def test_strided_conv(self, rng):
        model = Sequential(
            Conv2d(1, 2, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(2 * 4 * 4, 3, rng=rng),
        )
        x = rng.standard_normal((2, 1, 8, 8))
        y = rng.integers(0, 3, 2)
        assert_engine_matches(model, FeedforwardBPPSA(model), x, y)

    def test_sparse_linear_tol_path(self, rng):
        model = make_mlp([8, 6, 4], activation="tanh", rng=rng)
        for layer in model:
            if isinstance(layer, Linear):
                layer.weight.data[np.abs(layer.weight.data) < 0.1] = 0.0
        x = rng.standard_normal((3, 8))
        y = rng.integers(0, 4, 3)
        engine = FeedforwardBPPSA(model, config="tol=0.0")
        assert_engine_matches(model, engine, x, y)

    def test_activation_gradients_match_tape(self, rng):
        """∇x_i from the scan equals the taped intermediate gradient."""
        lin1 = Linear(5, 4, rng=rng)
        lin2 = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 5))
        y = rng.integers(0, 3, 2)

        # taped: capture grad of the hidden activation via a probe
        from repro.tensor import ops as T

        xt = Tensor(x)
        h = T.tanh(lin1(xt))
        probe = h.detach()
        probe.requires_grad = True
        loss = loss_fn(lin2(probe), y)
        loss.backward()
        ref_hidden_grad = probe.grad

        model = Sequential(lin1, Tanh(), lin2)
        engine = FeedforwardBPPSA(model)
        engine.compute_gradients(x, y)
        got = engine.last_activation_grads[1]  # ∇(tanh output)
        np.testing.assert_allclose(got, ref_hidden_grad, atol=1e-10)

    def test_flatten_first_layer_rejected(self, rng):
        model = Sequential(Flatten(), Linear(4, 2, rng=rng))
        engine = FeedforwardBPPSA(model)
        with pytest.raises(ValueError, match="bottom-most"):
            engine.compute_gradients(rng.standard_normal((2, 2, 2)), np.array([0, 1]))

    def test_unknown_algorithm_rejected(self, rng):
        model = make_mlp([2, 2], rng=rng)
        with pytest.raises(ValueError, match="algorithm"):
            FeedforwardBPPSA(model, config={"algorithm": "quantum"})

    def test_bottom_jacobian_built_only_for_input_gradient(self, rng, monkeypatch):
        """No scan reads the last slot, so the bottom layer's Jacobian is
        built only for the input gradient's extra ⊙."""
        import repro.core.feedforward as ff

        built = []
        tjac = ff.layer_tjac_batched

        def counting(layer, *args, **kwargs):
            built.append(layer)
            return tjac(layer, *args, **kwargs)

        monkeypatch.setattr(ff, "layer_tjac_batched", counting)
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(3 * 4 * 4, 4, rng=rng),
        )
        x = rng.standard_normal((2, 2, 4, 4))
        y = rng.integers(0, 4, 2)
        engine = FeedforwardBPPSA(model)
        grads = engine.compute_gradients(x, y)
        assert built == model.layers[:0:-1]  # top down, all but layer 0
        built.clear()
        with_input = engine.compute_gradients(x, y, input_gradient=True)
        assert built == model.layers[::-1]
        assert grads.keys() == with_input.keys()
        for key, g in grads.items():
            np.testing.assert_array_equal(with_input[key], g)

    def test_unsupported_bottom_layer_rejected(self, rng):
        """Its Jacobian is never built, yet a bottom layer the engine
        cannot differentiate still fails loudly, not with no gradient."""

        class Strange(Module):
            def forward(self, x):
                return x * 2.0

        model = Sequential(Strange(), Linear(4, 2, rng=rng))
        with pytest.raises(TypeError, match="no transposed-Jacobian"):
            FeedforwardBPPSA(model).compute_gradients(
                rng.standard_normal((2, 4)), np.array([0, 1])
            )

    def test_pruned_lenet_builds_no_dead_products(self, rng, monkeypatch):
        """Pruned retraining's scan builds no plan for the right-spine ⊙
        that would multiply conv1's Jacobian into the discarded scan
        total (3,000,000 expanded products for the largest)."""
        spgemm = import_module("repro.sparse.spgemm")
        plans = []
        build = spgemm.build_spgemm_plan

        def recording(a, b):
            plans.append(build(a, b))
            return plans[-1]

        monkeypatch.setattr(spgemm, "build_spgemm_plan", recording)
        net = LeNet5(rng=rng, width_multiplier=0.25)
        magnitude_prune(net, 0.9, scope="global")
        engine = repro.build_engine(
            net, "truncated/serial", up_levels=2, sparse_linear_tol=0.0
        )
        engine.compute_gradients(
            rng.standard_normal((4, 3, 32, 32)), rng.integers(0, 10, 4)
        )
        assert len(engine.context.cache) == len(plans) == 4
        assert max(len(plan.src_a) for plan in plans) <= 40_000


class TestRNN:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rnn_classifier(self, rng, algorithm):
        clf = RNNClassifier(2, 7, 4, rng=rng)
        x = rng.standard_normal((3, 11, 2))
        y = rng.integers(0, 4, 3)
        assert_engine_matches(clf, RNNBPPSA(clf, config=algorithm), x, y)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_dense_hidden_jacobians(self, rng, monkeypatch, algorithm):
        """Both RNN engines scan structured ``W_hhᵀ·diag(1 − h²)``
        elements: neither builds the dense (T, B, H, H) tensor."""

        def refuse(self, hidden_states):
            raise AssertionError("an RNN engine built dense hidden Jacobians")

        monkeypatch.setattr(RNN, "hidden_jacobians_T", refuse)
        clf = RNNClassifier(2, 7, 4, rng=rng)
        x = rng.standard_normal((3, 11, 2))
        y = rng.integers(0, 4, 3)
        assert_engine_matches(clf, RNNBPPSA(clf, config=algorithm), x, y)
        if algorithm in ("linear", "truncated"):
            with StagedRNNBPPSA(clf, 2, configs=algorithm) as staged:
                assert_engine_matches(clf, staged, x, y)

    @pytest.mark.parametrize("seq_len", [1, 2, 3, 8, 17])
    def test_various_sequence_lengths(self, rng, seq_len):
        clf = RNNClassifier(1, 5, 3, rng=rng)
        x = rng.standard_normal((2, seq_len, 1))
        y = rng.integers(0, 3, 2)
        assert_engine_matches(clf, RNNBPPSA(clf), x, y)

    def test_batch_of_one(self, rng):
        clf = RNNClassifier(1, 4, 2, rng=rng)
        x = rng.standard_normal((1, 6, 1))
        y = rng.integers(0, 2, 1)
        assert_engine_matches(clf, RNNBPPSA(clf), x, y)

    def test_forward_matches_taped_forward(self, rng):
        clf = RNNClassifier(1, 6, 5, rng=rng)
        x = rng.standard_normal((2, 9, 1))
        engine = RNNBPPSA(clf)
        np.testing.assert_allclose(
            engine.forward(x), clf(Tensor(x)).data, atol=1e-12
        )

    def test_scan_trace_is_populated(self, rng):
        clf = RNNClassifier(1, 4, 3, rng=rng)
        engine = RNNBPPSA(clf, config="blelloch")
        engine.compute_gradients(rng.standard_normal((2, 8, 1)), np.array([0, 1]))
        assert engine.context.trace  # ⊙ ops were recorded
        assert engine.context.total_flops > 0

    def test_unknown_algorithm_rejected(self, rng):
        clf = RNNClassifier(1, 4, 3, rng=rng)
        with pytest.raises(ValueError, match="algorithm"):
            RNNBPPSA(clf, config={"algorithm": "nope"})
