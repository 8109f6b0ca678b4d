"""Eqs. 6–7 — step/work complexity of the implemented scan.

Checks the implementation against the paper's complexity claims by
counting, for the *real* schedule produced by the executor:

* steps on the critical path with p workers — Θ(log n) when p ≥ n,
  Θ(n/p + log p) otherwise (Eq. 6), vs. Θ(n) for the linear scan;
* total ⊙ applications — Θ(n) (Eq. 7, work efficiency), vs. the
  Hillis–Steele scan's Θ(n log n).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.experiments.common import Scale, format_table, print_report
from repro.pram.machine import step_count, work_count
from repro.scan import uniform_dag

PARAMS = {
    Scale.SMOKE: {"sizes": [8, 32, 128, 512, 2048], "workers": [1, 4, 16, 64, 10**9]},
    Scale.PAPER: {
        "sizes": [8, 64, 512, 4096, 32768],
        "workers": [1, 8, 64, 512, 10**9],
    },
}


def run(scale: Scale = Scale.SMOKE, config=None) -> Dict:
    """Count real steps/work for both scans at every size in ``scale``.

    ``config`` is accepted for entry-point uniformity across the 13
    artifacts (see :mod:`repro.config`); the step counts here come
    from symbolic scans whose operator is free, so the config has
    nothing to change.
    """
    p = PARAMS[scale]
    rows = []
    for n in p["sizes"]:
        dag = uniform_dag("blelloch", n + 1)
        lin = uniform_dag("linear", n + 1)
        row = {
            "n": n,
            "work_blelloch": work_count(dag),
            "work_linear": work_count(lin),
            "work_hillis_steele": work_count(uniform_dag("hillis_steele", n + 1)),
            "log2n": math.log2(n),
        }
        for w in p["workers"]:
            label = "inf" if w >= 10**9 else str(w)
            row[f"steps_p={label}"] = step_count(dag, w)
        row["steps_linear"] = step_count(lin, 10**9)
        rows.append(row)
    return {"rows": rows}


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per n)."""
    return [dict(row) for row in result["rows"]]


def render_report(result: Dict) -> str:
    """Render the complexity table — a pure view over :func:`run` data."""
    r = result
    headers = list(r["rows"][0].keys())
    body = format_table(headers, [[row[h] for h in headers] for row in r["rows"]])
    return (
        body
        + "\nexpect: steps_p=inf ≈ 2·log2(n) (Eq. 6, Θ(log n)); "
        "work_blelloch ≈ 2n (Eq. 7, Θ(n)); steps_linear = n; "
        "work_hillis_steele ≈ n·log2(n)"
    )


if __name__ == "__main__":
    print_report("Eq. 6/7: step and work complexity", render_report(run()))
