"""Tests for the reference models: LeNet-5, VGG-11, the vanilla RNN."""

import numpy as np
import pytest

from repro.nn import (
    LeNet5,
    RNN,
    RNNCell,
    RNNClassifier,
    VGG11,
    make_mlp,
    vgg11_conv_shapes,
    vgg11_conv_stack,
)
from repro.tensor import Tensor


class TestLeNet5:
    def test_output_shape(self, rng):
        net = LeNet5(rng=rng, width_multiplier=0.5)
        out = net(Tensor(rng.standard_normal((2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_full_width_parameter_count(self, rng):
        net = LeNet5(rng=rng)
        n_params = sum(p.size for p in net.parameters())
        # classic LeNet-5 on 3×32×32: conv(456)+conv(2416)+fc(48120+10164+850)
        assert n_params == 62_006


class TestVGG11:
    def test_output_shape(self, rng):
        net = VGG11(rng=rng, width_multiplier=0.0625)
        out = net(Tensor(rng.standard_normal((2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_conv_shapes_match_paper_table1_example(self):
        shapes = vgg11_conv_shapes((32, 32))
        assert len(shapes) == 8  # VGG-11 has 8 convolutions
        first = shapes[0]
        assert (first["ci"], first["co"], first["hi"], first["wi"]) == (3, 64, 32, 32)
        # channels follow the "A" configuration
        assert [s["co"] for s in shapes] == [64, 128, 256, 256, 512, 512, 512, 512]
        # spatial halves after each pool
        assert [s["hi"] for s in shapes] == [32, 16, 8, 8, 4, 4, 2, 2]

    def test_conv_stack_layer_kinds(self, rng):
        stack = vgg11_conv_stack(rng=rng, width_multiplier=0.0625)
        kinds = [type(m).__name__ for m in stack]
        assert kinds.count("Conv2d") == 8
        assert kinds.count("MaxPool2d") == 5


class TestMLP:
    def test_make_mlp_structure(self, rng):
        mlp = make_mlp([4, 8, 2], activation="relu", rng=rng)
        assert len(mlp) == 3  # Linear, ReLU, Linear
        out = mlp(Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (5, 2)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError, match="unknown activation"):
            make_mlp([2, 2], activation="gelu", rng=rng)


class TestRNN:
    def test_cell_matches_equation9(self, rng):
        cell = RNNCell(2, 5, rng=rng)
        x = rng.standard_normal((3, 2))
        h = rng.standard_normal((3, 5))
        out = cell(Tensor(x), Tensor(h))
        ref = np.tanh(
            x @ cell.weight_ih.data.T
            + cell.bias_ih.data
            + h @ cell.weight_hh.data.T
            + cell.bias_hh.data
        )
        np.testing.assert_allclose(out.data, ref)

    def test_unrolled_matches_manual(self, rng):
        rnn = RNN(1, 4, rng=rng)
        x = rng.standard_normal((2, 6, 1))
        out = rnn(Tensor(x))
        h = np.zeros((2, 4))
        cell = rnn.cell
        for t in range(6):
            h = np.tanh(
                x[:, t] @ cell.weight_ih.data.T
                + cell.bias_ih.data
                + h @ cell.weight_hh.data.T
                + cell.bias_hh.data
            )
        np.testing.assert_allclose(out.data, h)
        assert len(rnn.last_hidden_states()) == 6

    def test_hidden_jacobians_match_autograd(self, rng):
        """(∂h_t/∂h_{t−1})^T from the closed form vs. the tape."""
        rnn = RNN(1, 3, rng=rng)
        cell = rnn.cell
        x_t = rng.standard_normal((1, 1))
        h_prev = rng.standard_normal((1, 3))

        from repro.tensor.grad_check import autograd_jacobian

        def step(h):
            return cell(Tensor(x_t), h.reshape(1, 3))

        J = autograd_jacobian(step, h_prev)  # (3, 3) = ∂h_t/∂h_{t-1}
        h_new = cell(Tensor(x_t), Tensor(h_prev)).data
        tjacs = rnn.hidden_jacobians_T(h_new[None])  # (1, 1, 3, 3)
        np.testing.assert_allclose(tjacs[0, 0], J.T, atol=1e-10)

    def test_hidden_jacobians_layout(self, rng):
        """C-contiguous, and bitwise the engines' ScaledShared elements
        densified."""
        from repro.scan import ScaledShared

        rnn = RNN(1, 5, rng=rng)
        hidden = np.tanh(rng.standard_normal((7, 3, 5)))
        tjacs = rnn.hidden_jacobians_T(hidden)
        assert tjacs.shape == (7, 3, 5, 5) and tjacs.flags.c_contiguous
        w_hh = rnn.cell.weight_hh.data
        stacked = np.stack(
            [ScaledShared(w_hh, 1.0 - h**2).to_dense().data for h in hidden]
        )
        assert np.array_equal(tjacs, stacked)

    def test_parameter_gradients_from_hidden_grads(self, rng):
        """Eq. 2 contraction matches the taped full backward."""
        clf = RNNClassifier(2, 4, 3, rng=rng)
        x = rng.standard_normal((2, 5, 2))
        from repro.nn import CrossEntropyLoss

        y = rng.integers(0, 3, 2)
        loss = CrossEntropyLoss()(clf(Tensor(x)), y)
        clf.zero_grad()
        loss.backward()

        # Recover hidden grads from a taped run by replaying BPPSA's path.
        from repro.core import RNNBPPSA

        engine = RNNBPPSA(clf, algorithm="linear")
        grads = engine.compute_gradients(x, y)
        cell = clf.rnn.cell
        for p, name in [
            (cell.weight_ih, "weight_ih"),
            (cell.weight_hh, "weight_hh"),
            (cell.bias_ih, "bias_ih"),
            (cell.bias_hh, "bias_hh"),
        ]:
            np.testing.assert_allclose(
                grads[id(p)].reshape(p.data.shape), p.grad, atol=1e-9, err_msg=name
            )

    def test_classifier_output_shape(self, rng):
        clf = RNNClassifier(1, 20, 10, rng=rng)
        out = clf(Tensor(rng.standard_normal((4, 7, 1))))
        assert out.shape == (4, 10)
