"""Figure 9 — RNN training loss vs. wall-clock, BPPSA vs. baseline.

Paper setting: vanilla RNN (H = 20), bitstream classification, T=1000,
B=16, Adam lr=3e-5, RTX 2070; the BPPSA curve equals the baseline curve
scaled by ≈54 % on the time axis (2.17× overall speedup, 4.53× backward).

Reproduction: both engines train the identical model from the identical
seed on the identical batch stream, so per-iteration losses coincide;
the wall-clock axis is provided by the device cost model
(:mod:`repro.pram.rnn_timing`), which is the substitution for the GPU.
Measured CPU times are also recorded for transparency.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.config import ScanConfig, build_engine
from repro.core import Trainer
from repro.data import BitstreamDataset
from repro.experiments.common import Scale, format_table, print_report, sparkline
from repro.nn import RNNClassifier
from repro.optim import Adam
from repro.pram import RTX_2070
from repro.pram.rnn_timing import simulate_rnn_iteration

PARAMS = {
    Scale.SMOKE: {"seq_len": 100, "batch": 16, "iterations": 12, "hidden": 20},
    Scale.PAPER: {"seq_len": 1000, "batch": 16, "iterations": 200, "hidden": 20},
}
LR = 3e-5


def _train(use_bppsa: bool, p: Dict, seed: int, config=None) -> Dict:
    clf = RNNClassifier(1, p["hidden"], 10, rng=np.random.default_rng(seed))
    opt = Adam(clf.parameters(), lr=LR)
    engine = (
        # Blelloch by default; a config naming an algorithm wins.
        build_engine(
            clf,
            ScanConfig.coerce(config).with_defaults(ScanConfig(algorithm="blelloch")),
        )
        if use_bppsa
        else None
    )
    trainer = Trainer(clf, opt, engine=engine)
    ds = BitstreamDataset(seq_len=p["seq_len"], num_samples=4096, seed=seed)
    try:
        result = trainer.fit(
            ds.batches(p["batch"], num_batches=p["iterations"]),
            max_iterations=p["iterations"],
        )
    finally:
        if engine is not None:
            engine.close()
    return {
        "losses": result.losses,
        "measured_backward_s": result.total_backward_seconds,
    }


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Reproduce the figure.  ``config`` — a
    :class:`~repro.config.ScanConfig` or spec string — names the BPPSA
    run's scan surface; the engine is built through
    :func:`repro.build_engine`.  Gradients, and hence the loss curve,
    are identical on every backend."""
    p = PARAMS[scale]
    timing = simulate_rnn_iteration(p["seq_len"], p["batch"], p["hidden"], RTX_2070)
    baseline = _train(False, p, seed)
    bppsa = _train(True, p, seed, config=config)

    iters = np.arange(1, p["iterations"] + 1)
    base_iter_s = timing.forward_seconds + timing.baseline_backward_seconds
    ours_iter_s = timing.forward_seconds + timing.bppsa_backward_seconds
    return {
        "params": p,
        "losses_baseline": baseline["losses"],
        "losses_bppsa": bppsa["losses"],
        "simulated_time_baseline": (iters * base_iter_s).tolist(),
        "simulated_time_bppsa": (iters * ours_iter_s).tolist(),
        "overall_speedup": timing.overall_speedup,
        "backward_speedup": timing.backward_speedup,
        "measured_cpu_backward_baseline_s": baseline["measured_backward_s"],
        "measured_cpu_backward_bppsa_s": bppsa["measured_backward_s"],
        "max_loss_divergence": float(
            np.max(
                np.abs(
                    np.asarray(baseline["losses"]) - np.asarray(bppsa["losses"])
                )
            )
        ),
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per engine)."""
    shared = {
        "overall_speedup": float(result["overall_speedup"]),
        "backward_speedup": float(result["backward_speedup"]),
        "max_loss_divergence": float(result["max_loss_divergence"]),
    }
    return [
        {
            "engine": "baseline",
            "first_loss": float(result["losses_baseline"][0]),
            "last_loss": float(result["losses_baseline"][-1]),
            "simulated_time_s": float(result["simulated_time_baseline"][-1]),
            "measured_cpu_backward_s": float(
                result["measured_cpu_backward_baseline_s"]
            ),
            **shared,
        },
        {
            "engine": "BPPSA",
            "first_loss": float(result["losses_bppsa"][0]),
            "last_loss": float(result["losses_bppsa"][-1]),
            "simulated_time_s": float(result["simulated_time_bppsa"][-1]),
            "measured_cpu_backward_s": float(result["measured_cpu_backward_bppsa_s"]),
            **shared,
        },
    ]


def render_report(result: Dict) -> str:
    """Render the loss/wall-clock table — a pure view over :func:`run`."""
    r = result
    p = r["params"]
    rows = [
        [
            "baseline (PyTorch/cuDNN model)",
            r["losses_baseline"][0],
            r["losses_baseline"][-1],
            r["simulated_time_baseline"][-1],
        ],
        [
            "BPPSA",
            r["losses_bppsa"][0],
            r["losses_bppsa"][-1],
            r["simulated_time_bppsa"][-1],
        ],
    ]
    table = format_table(
        ["engine", "first loss", "last loss", "simulated time (s)"], rows
    )
    return (
        f"T={p['seq_len']} B={p['batch']} H={p['hidden']} on simulated RTX 2070\n"
        + table
        + f"\nsimulated overall speedup: {r['overall_speedup']:.2f}x (paper: 2.17x)"
        + f"\nsimulated backward speedup: {r['backward_speedup']:.2f}x (paper: 4.53x)"
        + f"\nmax |loss divergence| between engines: {r['max_loss_divergence']:.3e}"
        + f"\nbaseline {sparkline(r['losses_baseline'])}"
        + f"\nBPPSA    {sparkline(r['losses_bppsa'])}"
    )


if __name__ == "__main__":
    print_report("Figure 9: RNN loss vs wall-clock", render_report(run()))
