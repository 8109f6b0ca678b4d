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
* the number of levels, each serial-middle step counting as one
  (step complexity: the length of the critical path).

Observed shape (smoke scale, 97 % of each layer pruned): depth
shortens the critical path and lengthens each step.  At depth 0 every
⊙ is a serial mat-vec, one level each (20 levels); each added up-sweep
level shortens the serial middle (20, 9, 4, then 1 step), so depths
0–3 take 20, 11, 8 and 7 levels.  Meanwhile the max critical step
grows at every level, from 29,634 FLOPs at depth 0 to 65,536, 635,088
and 15,858,880 at depths 1–3, and total work from 174,756 to 19.8 M
FLOPs.  At depth 4 the last serial step becomes an up-sweep step of
the same cost, so depths 4 and 8 (the full scan) repeat depth 3's
row.  That is the paper's trade-off: the deeper levels' denser
products cost more per step than the levels they save.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis import StaticScanAnalyzer
from repro.config import ScanConfig
from repro.experiments.common import Scale, format_table, print_report
from repro.experiments.fig11_flops import PARAMS as FIG11_PARAMS
from repro.experiments.fig11_flops import pruned_stages

PARAMS = {
    Scale.SMOKE: {**FIG11_PARAMS[Scale.SMOKE], "depths": [0, 1, 2, 3, 4, 8]},
    Scale.PAPER: {**FIG11_PARAMS[Scale.PAPER], "depths": [0, 1, 2, 3, 4, 8]},
}


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Sweep truncation depths over the pruned-VGG-11 scan analysis.

    ``config`` names the sparse mode the static analysis prices the
    scan under (see :mod:`repro.config`); the sweep covers every
    depth, so the config's single ``up_levels`` has nothing to pin
    here.
    """
    p = PARAMS[scale]
    stages = pruned_stages(p, np.random.default_rng(seed))
    patterns = list(reversed(stages["patterns"]))
    sparse = ScanConfig.coerce(config).resolve().sparse_policy()

    rows: List[Dict] = []
    for depth in p["depths"]:
        dag = StaticScanAnalyzer(sparse=sparse).analyze(
            patterns,
            grad_dim=stages["grad_dim"],
            algorithm="truncated",
            up_levels=depth,
        )
        steps = dag.all_steps()
        rows.append(
            {
                "up_levels": depth,
                "parallel_levels": dag.num_levels,
                "num_steps": dag.num_ops,
                "max_critical_flops": max(
                    (s.flops for s, c in zip(steps, dag.critical()) if c),
                    default=0.0,
                ),
                "total_flops": dag.total_flops,
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
    peak = max(x["max_critical_flops"] for x in r["rows"])
    first = min(x["up_levels"] for x in r["rows"] if x["max_critical_flops"] == peak)
    return (
        format_table(headers, rows)
        + f"\ndepth shortens the critical path to "
        f"{min(x['parallel_levels'] for x in r['rows'])} levels; the max "
        f"critical step stops growing at depth {first} ({peak:.3e} FLOPs)"
    )


if __name__ == "__main__":
    print_report("Ablation: truncated-scan depth (pruned VGG-11)", render_report(run()))
