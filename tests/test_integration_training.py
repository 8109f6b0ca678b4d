"""End-to-end integration: training convergence with both engines.

Scaled-down versions of the paper's Figure 7 and Figure 9 claims,
runnable in CI: (a) loss curves of baseline BP and BPPSA are
numerically indistinguishable from identical seeds; (b) both actually
learn their task.
"""

import numpy as np
import pytest

from repro.core import FeedforwardBPPSA, RNNBPPSA, Trainer
from repro.data import BitstreamDataset, SyntheticImages
from repro.nn import LeNet5, RNNClassifier, Sequential
from repro.optim import SGD, Adam


def make_lenet(seed, width=0.25):
    net = LeNet5(rng=np.random.default_rng(seed), width_multiplier=width)
    return Sequential(*(list(net.features) + list(net.classifier)))


class TestFig7Style:
    def test_lenet_curves_identical(self):
        """BP and BPPSA produce the same losses from the same seed."""
        ds = SyntheticImages(num_samples=64, seed=0)
        batches = list(ds.batches(8, num_batches=4))

        m1 = make_lenet(0)
        r1 = Trainer(m1, SGD(m1.parameters(), lr=1e-3, momentum=0.9)).fit(batches)

        m2 = make_lenet(0)
        r2 = Trainer(
            m2,
            SGD(m2.parameters(), lr=1e-3, momentum=0.9),
            engine=FeedforwardBPPSA(m2),
        ).fit(batches)
        np.testing.assert_allclose(r1.losses, r2.losses, atol=1e-10)

    def test_lenet_learns_with_bppsa(self):
        """Loss drops substantially on the synthetic image task."""
        ds = SyntheticImages(num_samples=128, seed=1, noise=0.2)
        batches = [b for _ in range(3) for b in ds.batches(16)]
        model = make_lenet(1)
        trainer = Trainer(
            model,
            SGD(model.parameters(), lr=5e-3, momentum=0.9),
            engine=FeedforwardBPPSA(model),
        )
        result = trainer.fit(batches)
        assert result.losses[-1] < result.losses[0]


class TestFig9Style:
    def test_rnn_curves_identical(self):
        ds = BitstreamDataset(seq_len=40, num_samples=64, seed=0)
        batches = list(ds.batches(8, num_batches=5))

        c1 = RNNClassifier(1, 12, 10, rng=np.random.default_rng(0))
        r1 = Trainer(c1, Adam(c1.parameters(), lr=3e-4)).fit(batches)

        c2 = RNNClassifier(1, 12, 10, rng=np.random.default_rng(0))
        r2 = Trainer(
            c2, Adam(c2.parameters(), lr=3e-4), engine=RNNBPPSA(c2)
        ).fit(batches)
        np.testing.assert_allclose(r1.losses, r2.losses, atol=1e-9)

    @pytest.mark.slow
    def test_rnn_learns_bitstream_task(self):
        """The Eq. 8 task is learnable by the paper's architecture."""
        ds = BitstreamDataset(seq_len=60, num_samples=512, seed=1)
        clf = RNNClassifier(1, 20, 10, rng=np.random.default_rng(2))
        trainer = Trainer(
            clf, Adam(clf.parameters(), lr=5e-3), engine=RNNBPPSA(clf)
        )
        batches = [b for e in range(4) for b in ds.batches(32, epoch_seed=e)]
        result = trainer.fit(batches)
        # ten-way classification: loss must fall well below ln(10)
        assert result.losses[-1] < 2.0 < result.losses[0] + 0.5

    def test_optimizer_state_consistency(self):
        """Adam's moments evolve identically under both engines — the
        paper's optimizer-agnosticism claim (Section 2.2)."""
        ds = BitstreamDataset(seq_len=20, num_samples=32, seed=3)
        batches = list(ds.batches(8, num_batches=4))

        c1 = RNNClassifier(1, 8, 10, rng=np.random.default_rng(4))
        o1 = Adam(c1.parameters(), lr=1e-3)
        Trainer(c1, o1).fit(batches)

        c2 = RNNClassifier(1, 8, 10, rng=np.random.default_rng(4))
        o2 = Adam(c2.parameters(), lr=1e-3)
        Trainer(c2, o2, engine=RNNBPPSA(c2)).fit(batches)

        for p1, p2 in zip(c1.parameters(), c2.parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-9)
        for m1, m2 in zip(o1._m.values(), o2._m.values()):
            np.testing.assert_allclose(m1, m2, atol=1e-9)


class TestScanAlgorithmInterchangeability:
    @pytest.mark.parametrize("algorithm", ["linear", "blelloch", "truncated"])
    def test_all_algorithms_train_identically(self, algorithm):
        ds = SyntheticImages(num_samples=32, seed=7, shape=(1, 8, 8), num_classes=4)
        batches = list(ds.batches(8, num_batches=3))

        from repro.nn.layers import Conv2d, Flatten, Linear, ReLU

        def build():
            rng = np.random.default_rng(11)
            return Sequential(
                Conv2d(1, 2, 3, padding=1, rng=rng),
                ReLU(),
                Flatten(),
                Linear(2 * 64, 4, rng=rng),
            )

        m_ref = build()
        ref = Trainer(m_ref, SGD(m_ref.parameters(), lr=0.01)).fit(batches)

        m = build()
        got = Trainer(
            m,
            SGD(m.parameters(), lr=0.01),
            engine=FeedforwardBPPSA(m, config=algorithm),
        ).fit(batches)
        np.testing.assert_allclose(ref.losses, got.losses, atol=1e-10)
