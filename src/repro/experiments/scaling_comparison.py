"""Scaling comparison: BPPSA vs. model-parallel baselines (Figure 1's
conceptual claim, quantified).

The paper's opening argument: under model parallelism, BP's Θ(n)
backward dependency caps scaling — naïve model parallelism uses one
device at a time, GPipe trades bubble for memory, while BPPSA's
Θ(n/p + log p) step complexity keeps improving as devices are added.
This experiment schedules the *same* n-stage backward pass under all
three strategies across a sweep of device counts p and reports critical-
path steps per iteration (PRAM model, unit-cost stages; the mm/mv cost
ratio of the scan is configurable).

Expected shape: naïve is flat at n; GPipe's *backward latency* is also
Θ(n + p) per mini-batch (pipelining helps throughput, not latency, and
its bubble grows with p); BPPSA's steps fall as ≈ r·(2n/p) + O(log p),
crossing below the baselines once p exceeds ≈ 2·r (r = cost ratio of a
⊙ matrix product to a baseline stage step).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.pram.machine import step_count
from repro.scan import build_blelloch_dag

PARAMS = {
    Scale.SMOKE: {"n": 512, "devices": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]},
    Scale.PAPER: {"n": 30000, "devices": [1, 4, 16, 64, 256, 1024, 4096, 16384]},
}


def bppsa_steps(n: int, p: int, mm_cost: float = 1.0) -> float:
    """Weighted critical-path steps of the Blelloch scan on p workers.

    ``mm_cost`` is the per-step cost of a ⊙ matrix–matrix product in
    units of one baseline BP stage step (a matrix–vector product).
    """
    dag = build_blelloch_dag(n + 1)
    return step_count(dag, p) * mm_cost


def naive_steps(n: int, p: int) -> float:
    """Naïve model parallelism: backward latency is always n steps."""
    return float(n)


def gpipe_backward_latency_steps(n: int, p: int) -> float:
    """GPipe backward latency per mini-batch (M = p micro-batches).

    Each of p stages holds n/p sequential layer-steps; the backward
    wavefront occupies (M + p − 1) stage-slots before the synchronous
    update can apply.  With latency-bound stages (the RNN regime, where
    a step costs the same regardless of micro-batch size) the mini-batch
    backward latency is (n/p)·(M + p − 1) = 2n − n/p: *flat in p* —
    pipelining recovers utilization, not latency, which is exactly the
    paper's §2.2 complaint that BPPSA addresses.
    """
    stages = p
    micro = p
    per_stage_steps = n / p
    return per_stage_steps * (micro + stages - 1)


def run(scale: Scale = Scale.SMOKE, mm_cost: float = 2.0, config=None) -> Dict:
    """Schedule the same backward pass under all three strategies.

    ``mm_cost`` is the cost of one ⊙ matrix product relative to a
    baseline BP stage step.  ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); this artifact runs no ⊙
    scan, so it has nothing to configure.
    """
    p = PARAMS[scale]
    n = p["n"]
    rows: List[Dict] = []
    for devices in p["devices"]:
        rows.append(
            {
                "devices": devices,
                "naive": naive_steps(n, devices),
                "gpipe_latency": gpipe_backward_latency_steps(n, devices),
                "bppsa": bppsa_steps(n, devices, mm_cost=mm_cost),
            }
        )
    # crossover: first p where BPPSA beats the naïve baseline
    crossover = next(
        (r["devices"] for r in rows if r["bppsa"] < r["naive"]), None
    )
    return {"rows": rows, "n": n, "mm_cost": mm_cost, "crossover": crossover}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per p)."""
    return [dict(row) for row in result["rows"]]


def render_report(result: Dict) -> str:
    """Render the scaling table — a pure view over :func:`run` data."""
    r = result
    headers = ["devices p", "naïve MP steps", "GPipe bwd latency", "BPPSA steps"]
    rows = [
        [x["devices"], x["naive"], x["gpipe_latency"], x["bppsa"]]
        for x in r["rows"]
    ]
    return (
        f"n = {r['n']} stages, ⊙ cost = {r['mm_cost']}× a baseline step\n"
        + format_table(headers, rows)
        + f"\nBPPSA overtakes the sequential baseline at p = {r['crossover']}"
        " and keeps improving to Θ(log n); the baselines are flat in p."
    )


if __name__ == "__main__":
    print_report(
        "Scaling comparison: BPPSA vs model-parallel baselines", render_report(run())
    )
