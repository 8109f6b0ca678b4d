"""Table 2 — experiment-platform specifications (device catalog)."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.pram import DEVICE_CATALOG


def run(scale: Scale = Scale.SMOKE, config=None) -> Dict:
    """Return the device catalog as Table 2 rows (scale-invariant).

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); this artifact runs no ⊙
    scan, so it has nothing to configure.
    """
    keys = ["CUDA", "cuDNN", "PyTorch", "CPU", "Host Memory", "Linux Kernel"]
    rows = []
    for dev in DEVICE_CATALOG.values():
        rows.append(
            {
                "GPU": dev.name,
                "Number of SMs": dev.num_sms,
                **{k: dev.meta.get(k, "-") for k in keys},
            }
        )
    return {"rows": rows}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per device)."""
    return [dict(row) for row in result["rows"]]


def render_report(result: Dict) -> str:
    """Render Table 2 — a pure view over :func:`run` data."""
    rows = result["rows"]
    headers = list(rows[0].keys())
    return format_table(headers, [[r[h] for h in headers] for r in rows])


if __name__ == "__main__":
    print_report(
        "Table 2: platform specifications (simulated devices)", render_report(run())
    )
