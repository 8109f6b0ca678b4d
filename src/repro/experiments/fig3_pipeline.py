"""Figure 3 / Section 2.2 — pipeline-parallelism limits vs. BPPSA.

Reproduces the motivation quantitatively:

* the GPipe timing diagram (Figure 3) and its bubble fraction
  ``(K−1)/(M+K−1)`` growing with pipeline depth;
* per-device memory Θ(L/K + K): decreasing then *increasing* in K,
  versus BPPSA's Θ(max(n/p, 1)) which only decreases (Section 3.6);
* PipeDream's weight-version count and staleness (the reason BPPSA's
  exactness matters for stateful optimizers);
* and — since the staged runner exists — a **measured** companion row
  per simulated cell: a real K-stage scan-backprop pipeline
  (:class:`~repro.pipeline.StagedRNNBPPSA`) timed on an actual
  executor backend, its event-level utilization next to the slot-model
  prediction.  "Model it, then measure it."
"""

from __future__ import annotations

import numpy as np

from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.pipeline import (
    GPipeSchedule,
    NaiveModelParallel,
    PipeDreamSchedule,
    StagedRNNBPPSA,
    bppsa_memory,
    gpipe_bubble_fraction,
    gpipe_memory,
)

PARAMS = {
    Scale.SMOKE: {"num_layers": 64, "devices": [2, 4, 8, 16, 32]},
    Scale.PAPER: {"num_layers": 1024, "devices": [2, 4, 8, 16, 32, 64, 128, 256]},
}

#: The measured companion runs: a small RNN whose unrolled backward is
#: pipelined for real across each (stages, micro-batches) cell.
MEASURED_PARAMS = {
    Scale.SMOKE: {
        "seq_len": 24,
        "batch": 8,
        "input_size": 8,
        "hidden": 16,
        "classes": 4,
        "cells": [(2, 4), (4, 4)],
    },
    Scale.PAPER: {
        "seq_len": 128,
        "batch": 16,
        "input_size": 16,
        "hidden": 64,
        "classes": 10,
        "cells": [(2, 4), (4, 8), (8, 8)],
    },
}


def measured_rows(scale: Scale, config=None) -> List[Dict]:
    """Real staged-pipeline runs, one row per (stages, micro-batches).

    Each cell drives :class:`~repro.pipeline.StagedRNNBPPSA` over the
    GPipe schedule on the executor the resolved ``config`` names, and
    reports *measured* event-level utilization beside the slot model's
    prediction for the same (K, M).
    """
    from repro.config import ScanConfig
    from repro.nn.rnn import RNNClassifier

    cfg = ScanConfig.coerce(config).resolve()
    p = MEASURED_PARAMS[scale]
    rng = np.random.default_rng(0)
    clf = RNNClassifier(p["input_size"], p["hidden"], p["classes"], rng=rng)
    x = rng.standard_normal((p["batch"], p["seq_len"], p["input_size"]))
    targets = rng.integers(0, p["classes"], size=p["batch"])
    rows = []
    for stages, micro_batches in p["cells"]:
        stage_cfg = ScanConfig(
            algorithm="truncated",
            up_levels=cfg.up_levels,
            executor=cfg.executor,
            sparse=cfg.sparse,
            kernel=cfg.kernel,
        )
        with StagedRNNBPPSA(
            clf, stages, micro_batches, schedule="gpipe", configs=stage_cfg
        ) as engine:
            engine.compute_gradients(x, targets)
            stats = engine.last_run_stats
        rows.append(
            {
                "kind": "measured",
                "devices": stages,
                "micro_batches": micro_batches,
                "backend": cfg.executor,
                "seq_len": p["seq_len"],
                "measured_util": stats["measured_utilization"],
                "scheduled_util": stats["scheduled_utilization"],
                "gpipe_bubble_closed_form": gpipe_bubble_fraction(
                    stages, micro_batches
                ),
                "makespan_s": stats["makespan_s"],
                "peak_jacobian_bytes": max(stats["stage_jacobian_bytes"]),
            }
        )
    return rows


def run(scale: Scale = Scale.SMOKE, config=None) -> Dict:
    """Sweep device counts; compare bubble/memory/staleness per strategy.

    The simulated sweep is pure arithmetic; ``config`` selects the
    executor backend for the **measured** companion rows (a real staged
    scan-backprop pipeline per cell — see :func:`measured_rows`).
    """
    p = PARAMS[scale]
    layers = p["num_layers"]
    rows = []
    for k in p["devices"]:
        gp = GPipeSchedule(layers, k, num_micro_batches=k)
        pd = PipeDreamSchedule(k)
        nv = NaiveModelParallel(layers, k)
        rows.append(
            {
                "devices": k,
                "naive_util": nv.utilization(),
                "gpipe_bubble": gp.bubble_fraction(),
                "gpipe_bubble_closed_form": gpipe_bubble_fraction(k, k),
                "gpipe_mem": gpipe_memory(layers, k),
                "bppsa_mem": bppsa_memory(layers, k),
                "pipedream_versions": pd.max_weight_versions(),
                "pipedream_stale": pd.stage_stats()[0].forward_staleness,
                "pipedream_exact": pd.is_gradient_exact(),
            }
        )
    diagram = GPipeSchedule(layers, 4, 4).timing_diagram()
    return {
        "rows": rows,
        "measured": measured_rows(scale, config),
        "diagram": diagram,
        "num_layers": layers,
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows: one simulated
    row per K plus one measured row per (stages, micro-batches) cell."""
    simulated = [{"kind": "simulated", **row} for row in result["rows"]]
    return simulated + [dict(row) for row in result.get("measured", [])]


def render_report(result: Dict) -> str:
    """Render the timing diagram + table — a pure view over :func:`run`."""
    r = result
    headers = [
        "K",
        "naive util",
        "GPipe bubble",
        "GPipe mem Θ(L/K+K)",
        "BPPSA mem Θ(max(n/p,1))",
        "PD versions",
        "PD staleness",
    ]
    rows = [
        [
            x["devices"],
            x["naive_util"],
            x["gpipe_bubble"],
            x["gpipe_mem"],
            x["bppsa_mem"],
            x["pipedream_versions"],
            x["pipedream_stale"],
        ]
        for x in r["rows"]
    ]
    dia = "\n".join(
        f"dev{d}: {line}" for d, line in enumerate(r["diagram"])
    )
    report = (
        f"GPipe timing diagram (L={r['num_layers']}, K=4, M=4; digits=fwd "
        "micro-batch, lowercase=bwd, .=idle):\n"
        + dia
        + "\n\n"
        + format_table(headers, rows)
    )
    measured = r.get("measured", [])
    if measured:
        m_headers = [
            "K",
            "M",
            "backend",
            "measured util",
            "slot-model util",
            "bubble (K-1)/(M+K-1)",
        ]
        m_rows = [
            [
                x["devices"],
                x["micro_batches"],
                x["backend"],
                x["measured_util"],
                x["scheduled_util"],
                x["gpipe_bubble_closed_form"],
            ]
            for x in measured
        ]
        report += (
            "\n\nMeasured staged scan-backprop pipeline "
            f"(RNN T={measured[0]['seq_len']}, GPipe schedule, real "
            "engines):\n" + format_table(m_headers, m_rows)
        )
    return report


if __name__ == "__main__":
    print_report("Figure 3 / §2.2: pipeline parallelism limits", render_report(run()))
