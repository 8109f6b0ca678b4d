"""Hypothesis property tests: BPPSA ≡ BP over random architectures.

Randomized version of the equivalence suite: arbitrary MLP depths,
widths, activations, batch sizes, and scan algorithms must all
reproduce the taped gradients — the strongest form of the paper's
exact-reconstruction claim this repo checks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeedforwardBPPSA, RNNBPPSA
from repro.nn import CrossEntropyLoss, RNNClassifier, make_mlp
from repro.tensor import Tensor

loss_fn = CrossEntropyLoss()


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 4),
    width=st.integers(2, 10),
    batch=st.integers(1, 5),
    activation=st.sampled_from(["tanh", "relu"]),
    algorithm=st.sampled_from(["blelloch", "truncated", "hillis_steele"]),
    seed=st.integers(0, 2**16),
)
def test_random_mlp_equivalence(depth, width, batch, activation, algorithm, seed):
    rng = np.random.default_rng(seed)
    sizes = [int(x) for x in rng.integers(2, width + 2, depth + 1)]
    sizes.append(3)  # classes
    model = make_mlp(sizes, activation=activation, rng=rng)
    x = rng.standard_normal((batch, sizes[0]))
    y = rng.integers(0, 3, batch)

    model.zero_grad()
    loss_fn(model(Tensor(x)), y).backward()
    engine = FeedforwardBPPSA(model, config=algorithm)
    got = engine.compute_gradients(x, y)
    for p in model.parameters():
        np.testing.assert_allclose(
            got[id(p)].reshape(p.data.shape), p.grad, atol=1e-8
        )


@settings(max_examples=15, deadline=None)
@given(
    seq_len=st.integers(1, 20),
    hidden=st.integers(2, 10),
    batch=st.integers(1, 4),
    algorithm=st.sampled_from(["blelloch", "truncated"]),
    seed=st.integers(0, 2**16),
)
def test_random_rnn_equivalence(seq_len, hidden, batch, algorithm, seed):
    rng = np.random.default_rng(seed)
    clf = RNNClassifier(1, hidden, 4, rng=rng)
    x = rng.standard_normal((batch, seq_len, 1))
    y = rng.integers(0, 4, batch)

    clf.zero_grad()
    loss_fn(clf(Tensor(x)), y).backward()
    got = RNNBPPSA(clf, config=algorithm).compute_gradients(x, y)
    for p in clf.parameters():
        np.testing.assert_allclose(
            got[id(p)].reshape(p.data.shape), p.grad, atol=1e-8
        )


@settings(max_examples=15, deadline=None)
@given(
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_input_gradient_property(batch, seed):
    rng = np.random.default_rng(seed)
    model = make_mlp([6, 5, 3], activation="tanh", rng=rng)
    x = rng.standard_normal((batch, 6))
    y = rng.integers(0, 3, batch)
    xt = Tensor(x, requires_grad=True)
    loss_fn(model(xt), y).backward()
    engine = FeedforwardBPPSA(model)
    engine.compute_gradients(x, y, input_gradient=True)
    np.testing.assert_allclose(engine.last_input_gradient, xt.grad, atol=1e-8)
