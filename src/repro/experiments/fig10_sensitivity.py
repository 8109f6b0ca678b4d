"""Figure 10 — sensitivity of BPPSA's speedup to T and B.

Four panels (paper Section 5.1):

* (a) backward speedup vs. sequence length T ∈ {10 … 30000}, B = 16;
* (b) overall speedup vs. T;
* (c) backward speedup vs. batch size B ∈ {256 … 2}, T = 1000;
* (d) overall speedup vs. B;

each on both simulated devices (RTX 2070 / RTX 2080Ti).  Expected
shapes: speedup rises with T while n is commensurate with p, saturates
when n ≫ p; decreases as B grows (effective workers p = threads/B); the
2080Ti (more SMs) peaks later in T and decays slower in B.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.pram import DEVICE_CATALOG
from repro.pram.rnn_timing import simulate_rnn_iteration

SEQ_LENGTHS = [10, 30, 100, 300, 1000, 3000, 10000, 30000]
BATCH_SIZES = [256, 128, 64, 32, 16, 8, 4, 2]
HIDDEN = 20

PARAMS = {
    Scale.SMOKE: {"seq_lengths": SEQ_LENGTHS, "batches": BATCH_SIZES},
    Scale.PAPER: {"seq_lengths": SEQ_LENGTHS, "batches": BATCH_SIZES},
}


def run(scale: Scale = Scale.SMOKE, config=None) -> Dict:
    """Sweep T and B through the simulated devices' timing model.

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); this artifact runs no ⊙
    scan, so it has nothing to configure.
    """
    p = PARAMS[scale]
    devices = list(DEVICE_CATALOG.values())
    t_rows: List[Dict] = []
    for t in p["seq_lengths"]:
        row = {"seq_len": t}
        for dev in devices:
            r = simulate_rnn_iteration(t, 16, HIDDEN, dev)
            row[f"{dev.name} backward"] = r.backward_speedup
            row[f"{dev.name} overall"] = r.overall_speedup
        t_rows.append(row)
    b_rows: List[Dict] = []
    for b in p["batches"]:
        row = {"batch": b}
        for dev in devices:
            r = simulate_rnn_iteration(1000, b, HIDDEN, dev)
            row[f"{dev.name} backward"] = r.backward_speedup
            row[f"{dev.name} overall"] = r.overall_speedup
        b_rows.append(row)
    return {"t_sweep": t_rows, "b_sweep": b_rows}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows.

    The two panels are concatenated; a ``sweep`` column ("seq_len" or
    "batch") tells them apart.
    """
    return [{"sweep": "seq_len", **row} for row in result["t_sweep"]] + [
        {"sweep": "batch", **row} for row in result["b_sweep"]
    ]


def render_report(result: Dict) -> str:
    """Render both sweep tables — a pure view over :func:`run` data."""
    r = result
    t_headers = list(r["t_sweep"][0].keys())
    b_headers = list(r["b_sweep"][0].keys())
    return (
        "(a/b) sweep over sequence length T at B=16:\n"
        + format_table(t_headers, [[row[h] for h in t_headers] for row in r["t_sweep"]])
        + "\n\n(c/d) sweep over batch size B at T=1000:\n"
        + format_table(b_headers, [[row[h] for h in b_headers] for row in r["b_sweep"]])
        + "\npaper anchors: max backward 8.8x and max overall 2.75x on RTX 2080Ti"
    )


if __name__ == "__main__":
    print_report("Figure 10: speedup sensitivity to T and B", render_report(run()))
