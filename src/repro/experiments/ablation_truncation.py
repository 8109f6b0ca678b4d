"""Ablation: truncation depth of the balanced Blelloch scan (§5.2).

The paper adopts a *truncated* scan for the pruned-VGG-11 benchmark
because "the sparsity of the product matrix might reduce after each
multiplication, [so] the per-step complexity might increase as the
up-sweep progresses into deeper levels", and balancing up/down levels
"achieve[s] an overall speedup".  This ablation quantifies that design
choice: sweep ``up_levels`` from 0 (pure serial scan) to full Blelloch
and report, for each depth,

* the maximum critical-step FLOPs (per-step complexity, P_Blelloch),
* the total FLOPs (work),
* the number of parallel levels (step complexity proxy).

Expected shape: total work and per-step cost grow with depth (denser
high-level products) while the level count shrinks — the paper's
truncation at a shallow depth is the sweet spot where per-step cost
stays near the baseline's.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis import StaticScanAnalyzer
from repro.experiments.common import Scale, format_table, print_report
from repro.experiments.fig11_flops import PARAMS as FIG11_PARAMS
from repro.experiments.fig11_flops import _stage_patterns
from repro.nn import VGG11
from repro.pruning import magnitude_prune

PARAMS = {
    Scale.SMOKE: {**FIG11_PARAMS[Scale.SMOKE], "depths": [0, 1, 2, 3, 4, 8]},
    Scale.PAPER: {**FIG11_PARAMS[Scale.PAPER], "depths": [0, 1, 2, 3, 4, 8]},
}


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Sweep truncation depths over the pruned-VGG-11 scan analysis.

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); the sweep is a *static*
    analysis over every depth, so the config's single ``up_levels``
    has nothing to pin here.
    """
    p = PARAMS[scale]
    rng = np.random.default_rng(seed)
    model = VGG11(rng=rng, width_multiplier=p["width"])
    magnitude_prune(model, p["prune"], scope="global")
    stages = _stage_patterns(model, p["input_hw"], rng)
    patterns = list(reversed(stages["patterns"]))

    rows: List[Dict] = []
    for depth in p["depths"]:
        analyzer = StaticScanAnalyzer()
        steps = analyzer.analyze(
            patterns,
            grad_dim=stages["grad_dim"],
            algorithm="truncated",
            up_levels=depth,
        )
        levels = {(s.phase, s.level) for s in steps}
        rows.append(
            {
                "up_levels": depth,
                "parallel_levels": len(levels),
                "num_steps": len(steps),
                "max_critical_flops": max(
                    (s.flops for s in steps if s.critical), default=0.0
                ),
                "total_flops": sum(s.flops for s in steps),
                "mm_steps": sum(1 for s in steps if s.kind == "mm"),
            }
        )
    return {"rows": rows, "params": p}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per depth)."""
    return [dict(row) for row in result["rows"]]


def render_report(result: Dict) -> str:
    """Render the depth-sweep table — a pure view over :func:`run` data."""
    r = result
    headers = [
        "up_levels",
        "parallel levels",
        "steps",
        "mm steps",
        "max critical-step FLOPs",
        "total FLOPs",
    ]
    rows = [
        [
            x["up_levels"],
            x["parallel_levels"],
            x["num_steps"],
            x["mm_steps"],
            x["max_critical_flops"],
            x["total_flops"],
        ]
        for x in r["rows"]
    ]
    return (
        format_table(headers, rows)
        + "\nshallower truncation trades parallel levels for cheaper steps "
        "(§5.2's balance)"
    )


if __name__ == "__main__":
    print_report("Ablation: truncated-scan depth (pruned VGG-11)", render_report(run()))
