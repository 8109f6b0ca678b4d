"""Tests for the engine-agnostic Trainer (the Fig. 7/9 workhorse)."""

import numpy as np

from repro.core import FeedforwardBPPSA, RNNBPPSA, Trainer
from repro.data import SyntheticImages
from repro.nn import RNNClassifier, make_mlp
from repro.optim import SGD, Adam


def toy_batches(rng, n_batches, batch, dim, classes):
    for _ in range(n_batches):
        x = rng.standard_normal((batch, dim))
        yield x, (x[:, 0] > 0).astype(np.int64) % classes


class TestBaselinePath:
    def test_fit_records(self, rng):
        model = make_mlp([4, 8, 2], rng=rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        result = trainer.fit(toy_batches(rng, 5, 8, 4, 2))
        assert len(result.records) == 5
        assert all(r.wall_clock >= 0 for r in result.records)
        assert result.final_loss == result.records[-1].loss

    def test_max_iterations(self, rng):
        model = make_mlp([4, 4, 2], rng=rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        result = trainer.fit(toy_batches(rng, 10, 4, 4, 2), max_iterations=3)
        assert len(result.records) == 3

    def test_loss_decreases_on_easy_task(self, rng):
        model = make_mlp([4, 16, 2], activation="tanh", rng=rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.2, momentum=0.9))
        x = rng.standard_normal((64, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        result = trainer.fit([(x, y)] * 40)
        assert result.losses[-1] < result.losses[0] * 0.5


class TestEnginePath:
    def test_engine_and_baseline_losses_identical(self, rng):
        """Same seed + same data ⇒ identical per-iteration loss traces."""
        seed_model = lambda: make_mlp([6, 8, 3], rng=np.random.default_rng(3))
        x = rng.standard_normal((16, 6))
        y = rng.integers(0, 3, 16)
        batches = [(x, y)] * 6

        m1 = seed_model()
        t1 = Trainer(m1, SGD(m1.parameters(), lr=0.05, momentum=0.9))
        r1 = t1.fit(batches)

        m2 = seed_model()
        t2 = Trainer(
            m2,
            SGD(m2.parameters(), lr=0.05, momentum=0.9),
            engine=FeedforwardBPPSA(m2, config="blelloch"),
        )
        r2 = t2.fit(batches)
        np.testing.assert_allclose(r1.losses, r2.losses, atol=1e-10)

    def test_rnn_engine_with_adam(self, rng):
        clf = RNNClassifier(1, 6, 3, rng=np.random.default_rng(5))
        trainer = Trainer(
            clf, Adam(clf.parameters(), lr=1e-2), engine=RNNBPPSA(clf)
        )
        x = rng.standard_normal((8, 7, 1))
        y = rng.integers(0, 3, 8)
        result = trainer.fit([(x, y)] * 15)
        assert result.losses[-1] < result.losses[0]

    def test_backward_seconds_recorded(self, rng):
        model = make_mlp([4, 4, 2], rng=rng)
        trainer = Trainer(
            model, SGD(model.parameters(), lr=0.1), engine=FeedforwardBPPSA(model)
        )
        result = trainer.fit(toy_batches(rng, 3, 4, 4, 2))
        assert result.total_backward_seconds > 0


class TestEvaluate:
    def test_accuracy_on_separable_data(self, rng):
        model = make_mlp([4, 16, 2], activation="tanh", rng=rng)
        opt = SGD(model.parameters(), lr=0.3, momentum=0.9)
        trainer = Trainer(model, opt)
        x = rng.standard_normal((128, 4))
        y = (x.sum(axis=1) > 0).astype(np.int64)
        trainer.fit([(x, y)] * 60)
        loss, acc = trainer.evaluate([(x, y)])
        assert acc > 0.9
        assert loss < 0.5

    def test_evaluate_on_images(self, rng):
        ds = SyntheticImages(num_samples=32, seed=0, shape=(1, 8, 8), num_classes=2)
        model = make_mlp([64, 8, 2], rng=rng)

        from repro.nn.layers import Flatten
        from repro.nn.module import Sequential

        wrapped = Sequential(Flatten(), *list(model))
        trainer = Trainer(wrapped, SGD(wrapped.parameters(), lr=0.01))
        loss, acc = trainer.evaluate(ds.batches(16))
        assert 0.0 <= acc <= 1.0 and loss > 0
