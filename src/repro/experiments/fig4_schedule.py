"""Figure 4 — the modified Blelloch scan schedule on VGG-11's convolutions.

VGG-11 has 8 convolution layers; with the gradient vector the scan
array has 9 elements.  This experiment enumerates the schedule (which
⊙ products run at which level, which are matrix–matrix vs.
matrix–vector, and which are free identity moves) and annotates each
stage with the conv shapes from
:func:`repro.nn.models.vgg11_conv_shapes`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.nn.models import vgg11_conv_shapes
from repro.scan import uniform_dag


def run(scale: Scale = Scale.SMOKE, input_hw=(32, 32), config=None) -> Dict:
    """Enumerate the Blelloch schedule over VGG-11's conv stack.

    ``scale`` and ``config`` are accepted for harness uniformity (the
    schedule is scale-invariant and symbolic — no ⊙ scan executes);
    ``input_hw`` sets the image size the conv shapes are annotated
    with.
    """
    shapes = vgg11_conv_shapes(input_hw)
    n = len(shapes)  # 8 convolutions
    dag = uniform_dag("blelloch", n + 1)
    linear = uniform_dag("linear", n + 1)
    levels = []
    for i, level in enumerate(dag.levels):
        levels.append(
            {
                "level": i,
                "phase": level[0].info.phase,
                "d": level[0].info.level,
                "ops": len(level),
                "mm": sum(1 for t in level if t.kind == "mm"),
                "mv": sum(1 for t in level if t.kind == "mv"),
                "pairs": [(t.info.left, t.info.right) for t in level],
            }
        )
    return {
        "num_stages": n,
        "conv_shapes": shapes,
        "levels": levels,
        "blelloch_ops": dag.num_ops,
        "blelloch_levels": dag.num_levels,
        "linear_ops": linear.num_ops,
        "linear_levels": linear.num_levels,
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per level)."""
    return [
        {
            "level": lv["level"],
            "phase": lv["phase"],
            "d": lv["d"],
            "ops": lv["ops"],
            "mm": lv["mm"],
            "mv": lv["mv"],
            "pairs": " ".join(f"{a},{b}" for a, b in lv["pairs"]),
        }
        for lv in result["levels"]
    ]


def render_report(result: Dict) -> str:
    """Render the schedule table — a pure view over :func:`run` data."""
    r = result
    headers = ["level", "phase", "d", "ops", "mm", "mv", "pairs (l,r)"]
    rows = [
        [
            lv["level"],
            lv["phase"],
            lv["d"],
            lv["ops"],
            lv["mm"],
            lv["mv"],
            " ".join(f"{a},{b}" for a, b in lv["pairs"]),
        ]
        for lv in r["levels"]
    ]
    extra = (
        f"\nBlelloch: {r['blelloch_levels']} parallel levels, "
        f"{r['blelloch_ops']} ⊙ ops;  linear scan: {r['linear_levels']} "
        f"sequential steps, {r['linear_ops']} ⊙ ops"
    )
    return format_table(headers, rows) + extra


if __name__ == "__main__":
    print_report(
        "Figure 4: scan schedule on VGG-11 conv stack (n=8)", render_report(run())
    )
