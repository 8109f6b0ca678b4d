"""Run every experiment harness and emit a combined report.

Usage::

    python -m repro.experiments.run_all [--scale smoke|paper] [--config SPEC]

``--config`` takes a :mod:`repro.config` spec string (e.g.
``"blelloch/thread:2/sparse=on"``) handed to every artifact's
``run(scale, config=…)`` entry point — artifacts that execute a ⊙ scan
build their engines through :func:`repro.build_engine` under that
configuration; purely analytical artifacts accept and ignore it.

Each artifact's rendered table/series is printed, and a combined
per-artifact timing summary closes the run.  Recorded measurements are
the job of ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

from repro.experiments import (
    ablation_truncation,
    eq6_complexity,
    fig3_pipeline,
    fig4_schedule,
    fig6_patterns,
    fig7_convergence,
    fig8_bitstreams,
    fig9_rnn_curve,
    fig10_sensitivity,
    fig11_flops,
    scaling_comparison,
    table1_sparsity,
    table2_devices,
)
from repro.config import ScanConfig
from repro.experiments.common import Scale, banner, format_table

ARTIFACTS: List[Tuple[str, object]] = [
    ("table2_devices", table2_devices),
    ("fig3_pipeline", fig3_pipeline),
    ("fig4_schedule", fig4_schedule),
    ("table1_sparsity", table1_sparsity),
    ("fig6_patterns", fig6_patterns),
    ("fig8_bitstreams", fig8_bitstreams),
    ("eq6_complexity", eq6_complexity),
    ("scaling_comparison", scaling_comparison),
    ("fig10_sensitivity", fig10_sensitivity),
    ("fig11_flops", fig11_flops),
    ("ablation_truncation", ablation_truncation),
    ("fig7_convergence", fig7_convergence),
    ("fig9_rnn_curve", fig9_rnn_curve),
]


def run_all(scale: Scale, config: "ScanConfig | str | None" = None) -> Dict[str, str]:
    """Run every harness; return ``{artifact: rendered report}``.

    ``config`` — a :class:`repro.config.ScanConfig` or spec string —
    is passed to every artifact's ``run`` so one declarative value
    configures the whole sweep.  Each artifact's data step (``run``)
    executes exactly once; the text report and the row count are both
    derived from that single result.  A combined summary table with
    per-artifact elapsed seconds is printed at the end.
    """
    config = ScanConfig.coerce(config)
    reports: Dict[str, str] = {}
    summary: List[Tuple[str, int, float]] = []
    for name, module in ARTIFACTS:
        t0 = time.perf_counter()
        result = module.run(scale, config=config)
        elapsed = time.perf_counter() - t0
        text = module.render_report(result)
        reports[name] = text
        summary.append((name, len(module.result_rows(result)), elapsed))
        print(banner(f"{name} ({elapsed:.1f}s)") + text)
    total = sum(e for _, _, e in summary)
    print(
        banner(f"summary ({total:.1f}s total)")
        + format_table(
            ["artifact", "rows", "elapsed (s)"],
            [[n, r, f"{e:.2f}"] for n, r, e in summary],
        )
    )
    return reports


def main() -> None:
    """CLI entry point (``--scale``, ``--config``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.SMOKE.value
    )
    parser.add_argument(
        "--config",
        default=None,
        help="scan-config spec applied to every artifact, e.g. "
        '"blelloch/thread:2/sparse=on" (see repro.config)',
    )
    args = parser.parse_args()
    run_all(Scale(args.scale), config=args.config)


if __name__ == "__main__":
    main()
