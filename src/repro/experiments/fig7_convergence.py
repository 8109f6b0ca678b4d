"""Figure 7 — LeNet-5 convergence: baseline BP vs. BPPSA.

The paper trains LeNet-5 on CIFAR-10 (SGD, lr 0.001, momentum 0.9,
batch 256) with both gradient algorithms from the same seed and shows
the loss curves overlap — BPPSA is an exact reconstruction whose
reassociation-level numerical differences do not affect convergence
(Section 3.5).

Here: LeNet-5 on the synthetic CIFAR-10 substitute, same optimizer
settings, identical seeds and data order for both runs.  The result
reports both curves and their maximum divergence.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.config import ScanConfig, build_engine
from repro.core import Trainer
from repro.data import SyntheticImages
from repro.experiments.common import Scale, format_table, print_report, sparkline
from repro.nn import LeNet5, Sequential
from repro.optim import SGD

PARAMS = {
    Scale.SMOKE: {
        "width": 0.25,
        "batch": 16,
        "iterations": 10,
        "samples": 256,
        "test_samples": 64,
    },
    Scale.PAPER: {
        "width": 1.0,
        "batch": 256,
        "iterations": 300,
        "samples": 8192,
        "test_samples": 1024,
    },
}
LR = 1e-3
MOMENTUM = 0.9


def _fresh_model(width: float, seed: int) -> Sequential:
    net = LeNet5(rng=np.random.default_rng(seed), width_multiplier=width)
    return Sequential(*(list(net.features) + list(net.classifier)))


def _train(use_bppsa: bool, p: Dict, seed: int, config=None) -> Dict:
    model = _fresh_model(p["width"], seed)
    opt = SGD(model.parameters(), lr=LR, momentum=MOMENTUM)
    engine = (
        # The paper's Blelloch scan is the default, but a config that
        # names an algorithm wins — `run_all --config linear` really
        # runs the linear scan here.
        build_engine(
            model,
            ScanConfig.coerce(config).with_defaults(ScanConfig(algorithm="blelloch")),
        )
        if use_bppsa
        else None
    )
    trainer = Trainer(model, opt, engine=engine)
    train = SyntheticImages(num_samples=p["samples"], seed=seed, train=True)
    test = SyntheticImages(num_samples=p["test_samples"], seed=seed, train=False)

    losses, test_losses = [], []
    it = 0
    epoch = 0
    try:
        while it < p["iterations"]:
            for x, y in train.batches(p["batch"], epoch_seed=epoch):
                if it >= p["iterations"]:
                    break
                loss, _ = trainer.train_step(x, y)
                losses.append(loss)
                it += 1
            epoch += 1
        test_loss, test_acc = trainer.evaluate(test.batches(p["batch"]))
    finally:
        if engine is not None:
            engine.close()
    return {"train_losses": losses, "test_loss": test_loss, "test_acc": test_acc}


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Reproduce the figure.  ``config`` — a
    :class:`~repro.config.ScanConfig` or spec string — names the BPPSA
    run's scan surface; the engine is built through
    :func:`repro.build_engine`.  Gradients, and hence the loss curve,
    are identical on every backend; the algorithm defaults to the
    paper's Blelloch scan but a config naming one is honored."""
    p = PARAMS[scale]
    baseline = _train(use_bppsa=False, p=p, seed=seed)
    bppsa = _train(use_bppsa=True, p=p, seed=seed, config=config)
    a = np.asarray(baseline["train_losses"])
    b = np.asarray(bppsa["train_losses"])
    return {
        "baseline": baseline,
        "bppsa": bppsa,
        "max_train_divergence": float(np.max(np.abs(a - b))),
        "params": p,
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per engine)."""
    return [
        {
            "engine": name,
            "first_train_loss": float(e["train_losses"][0]),
            "last_train_loss": float(e["train_losses"][-1]),
            "test_loss": float(e["test_loss"]),
            "test_acc": float(e["test_acc"]),
            "max_train_divergence": float(result["max_train_divergence"]),
        }
        for name, e in (("baseline BP", result["baseline"]), ("BPPSA", result["bppsa"]))
    ]


def render_report(result: Dict) -> str:
    """Render the convergence table — a pure view over :func:`run` data."""
    r = result
    a, b = r["baseline"], r["bppsa"]
    rows = [
        ["baseline BP", a["train_losses"][0], a["train_losses"][-1],
         a["test_loss"], a["test_acc"]],
        ["BPPSA", b["train_losses"][0], b["train_losses"][-1],
         b["test_loss"], b["test_acc"]],
    ]
    table = format_table(
        ["engine", "first train loss", "last train loss", "test loss", "test acc"],
        rows,
    )
    return (
        table
        + f"\nmax |loss difference| over training: {r['max_train_divergence']:.3e}"
        + f"\nbaseline {sparkline(a['train_losses'])}"
        + f"\nBPPSA    {sparkline(b['train_losses'])}"
    )


if __name__ == "__main__":
    print_report("Figure 7: LeNet-5 convergence, BP vs BPPSA", render_report(run()))
