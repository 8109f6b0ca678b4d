"""Figure 8 — examples from the bitstream-classification dataset.

Renders one stream per class at T = 10 (as in the paper's figure) and
checks that the expected number of ones is ``T · (0.05 + c·0.1)``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.data import BitstreamDataset
from repro.experiments.common import Scale, format_table, print_report

PARAMS = {
    Scale.SMOKE: {"seq_len": 10, "per_class": 1},
    Scale.PAPER: {"seq_len": 10, "per_class": 3},
}


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Sample per-class bitstream examples at ``scale``'s count.

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); this artifact runs no ⊙
    scan, so it has nothing to configure.
    """
    p = PARAMS[scale]
    ds = BitstreamDataset(seq_len=p["seq_len"], num_samples=1000, seed=seed)
    examples = []
    for cls in range(ds.num_classes):
        indices = np.nonzero(ds.labels == cls)[0][: p["per_class"]]
        for i in indices:
            x, y = ds.sample(int(i))
            examples.append(
                {
                    "class": y,
                    "stream": "".join(str(int(b)) for b in x[:, 0]),
                    "expected_ones": p["seq_len"] * ds.class_probability(y),
                    "observed_ones": int(x.sum()),
                }
            )
    return {"examples": examples, "seq_len": p["seq_len"]}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per example)."""
    return [dict(e) for e in result["examples"]]


def render_report(result: Dict) -> str:
    """Render the examples table — a pure view over :func:`run` data."""
    headers = ["class", "stream", "E[#ones]", "#ones"]
    rows = [
        [e["class"], e["stream"], e["expected_ones"], e["observed_ones"]]
        for e in result["examples"]
    ]
    return format_table(headers, rows)


if __name__ == "__main__":
    print_report("Figure 8: bitstream examples (T=10)", render_report(run()))
