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

#: Every paper artifact, in run order: name, module, the part of the
#: paper it reproduces, and the one-line summary the dashboard and the
#: BENCHMARKS.md table show (via :data:`repro.bench.runner.ARTIFACTS`).
ARTIFACTS: List[Tuple[str, object, str, str]] = [
    ("table2_devices", table2_devices, "Table 2",
     "platform specifications: the simulated-device catalog"),
    ("fig3_pipeline", fig3_pipeline, "Figure 3 / §2.2",
     "pipeline-parallelism limits, plus measured staged-scan runs"),
    ("fig4_schedule", fig4_schedule, "Figure 4",
     "the modified Blelloch scan schedule on VGG-11"),
    ("table1_sparsity", table1_sparsity, "Table 1",
     "guaranteed zeros + T-Jacobian generation speedup"),
    ("fig6_patterns", fig6_patterns, "Figure 6",
     "T-Jacobian sparsity patterns (conv / max-pool / ReLU)"),
    ("fig8_bitstreams", fig8_bitstreams, "Figure 8 / Eq. 8",
     "the bitstream classification dataset"),
    ("eq6_complexity", eq6_complexity, "Eqs. 6–7",
     "step and work complexity on real executor schedules"),
    ("scaling_comparison", scaling_comparison, "Figure 1 (claim)",
     "BPPSA vs naïve/GPipe critical-path scaling"),
    ("fig10_sensitivity", fig10_sensitivity, "Figure 10",
     "speedup sensitivity to sequence length T and batch size B"),
    ("fig11_flops", fig11_flops, "Figure 11 / §4.2",
     "measured per-step FLOPs on pruned VGG-11"),
    ("ablation_truncation", ablation_truncation, "§5.2",
     "truncation-depth ablation of the truncated scan"),
    ("fig7_convergence", fig7_convergence, "Figure 7 / §3.5",
     "LeNet-5 convergence: taped BP vs FeedforwardBPPSA"),
    ("fig9_rnn_curve", fig9_rnn_curve, "Figure 9 / §5.1",
     "RNN loss vs wall-clock, the headline workload"),
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
    for name, module, _, _ in ARTIFACTS:
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
