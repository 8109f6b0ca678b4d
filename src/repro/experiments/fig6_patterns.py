"""Figure 6 — transposed-Jacobian sparsity patterns.

Renders the nonzero structure of convolution / max-pooling / ReLU
transposed Jacobians as ASCII rasters (the paper's yellow-dot plots)
and reports their guaranteed-zero sparsity.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import Scale, print_report
from repro.jacobian import conv2d_tjac, maxpool_tjac, relu_tjac

PARAMS = {
    Scale.SMOKE: {"ci": 2, "co": 2, "hw": (8, 8)},
    Scale.PAPER: {"ci": 3, "co": 4, "hw": (16, 16)},
}


def _raster(pattern, max_side: int = 64) -> str:
    """Downsample a CSR pattern's nonzero positions to an ASCII grid."""
    rows_n, cols_n = pattern.shape
    gh = min(max_side, rows_n)
    gw = min(max_side, cols_n)
    grid = np.zeros((gh, gw), dtype=bool)
    r = pattern.row_ids()
    c = pattern.indices
    grid[(r * gh // rows_n), (c * gw // cols_n)] = True
    return "\n".join("".join("#" if v else "." for v in row) for row in grid)


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Generate the three T-Jacobian patterns at ``scale``'s shapes.

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); this artifact runs no ⊙
    scan, so it has nothing to configure.
    """
    p = PARAMS[scale]
    rng = np.random.default_rng(seed)
    ci, co, (h, w) = p["ci"], p["co"], p["hw"]
    weight = rng.standard_normal((co, ci, 3, 3))
    x = rng.standard_normal((ci, h, w))

    conv = conv2d_tjac(weight, (h, w), stride=1, padding=1)
    pool = maxpool_tjac(x, 2)
    relu = relu_tjac(rng.standard_normal(ci * h * w))
    return {
        "conv": {"pattern": conv, "sparsity": conv.sparsity, "shape": conv.shape},
        "maxpool": {"pattern": pool, "sparsity": pool.sparsity, "shape": pool.shape},
        "relu": {"pattern": relu, "sparsity": relu.sparsity, "shape": relu.shape},
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per op)."""
    return [
        {
            "operator": name,
            "rows": int(result[name]["shape"][0]),
            "cols": int(result[name]["shape"][1]),
            "sparsity": float(result[name]["sparsity"]),
        }
        for name in ("conv", "maxpool", "relu")
    ]


def render_report(result: Dict) -> str:
    """Render the ASCII rasters — a pure view over :func:`run` data."""
    r = result
    chunks = []
    for name in ("conv", "maxpool", "relu"):
        info = r[name]
        chunks.append(
            f"[{name}] shape={info['shape']} sparsity={info['sparsity']:.5f}\n"
            + _raster(info["pattern"])
        )
    return "\n\n".join(chunks)


if __name__ == "__main__":
    print_report(
        "Figure 6: transposed-Jacobian sparsity patterns", render_report(run())
    )
