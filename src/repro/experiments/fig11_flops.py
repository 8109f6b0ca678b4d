"""Figure 11 — per-step FLOPs when retraining pruned VGG-11 with BPPSA.

Reproduces the paper's Section 4.2 / 5.2 analysis: VGG-11 is trained
on 32×32 inputs, 97 % of convolution/linear weights are pruned away
(See et al., 2016), and BPPSA computes Eq. 3 over the convolution
stack with a *truncated* Blelloch scan (up-sweep through level 2, a
serial matrix–vector middle, down-sweep back).  For every scan step we
report the FLOP cost and the dense-equivalent m·n·k (the figure's
x-axis); baseline points are the FLOPs of ordinary BP's per-layer
"gradient operators".

Unlike the paper (which, "due to the lack of a fair implementation",
had to *model* the costs through static analysis), the BPPSA steps
here are **measured**: the truncated scan actually runs on the sparse
execution path (CSR elements composed through cached SpGEMM plans
under the :class:`~repro.scan.SparsePolicy` dispatch), and each step's
FLOPs come from the :class:`~repro.scan.ScanContext` trace of the ⊙
applications that really executed.  The static model, priced by the
same rules and sparse mode, must agree (``modeled_total_flops``).

The claim to reproduce: BPPSA's (critical) per-step FLOPs sit in the
same range as the baseline's — sparsity reduces the per-step complexity
``P_Blelloch`` to ``P_linear`` levels, making the Θ(log n) step
complexity an end-to-end win.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis import (
    StaticScanAnalyzer,
    conv_dgrad_flops,
    elementwise_backward_flops,
)
from repro.backend import get_executor
from repro.core.feedforward import forward_activations
from repro.experiments.common import Scale, format_table, print_report
from repro.jacobian import layer_tjac_batched
from repro.nn import VGG11
from repro.nn import layers as L
from repro.pruning import magnitude_prune
from repro.config import ScanConfig
from repro.scan import (
    GradientVector,
    ScanContext,
    SparseJacobian,
    dag_from_trace,
    truncated_blelloch_scan,
)

PARAMS = {
    Scale.SMOKE: {"width": 0.25, "input_hw": (16, 16), "prune": 0.97},
    Scale.PAPER: {"width": 1.0, "input_hw": (32, 32), "prune": 0.97},
}
UP_LEVELS = 2  # paper: up-sweep L0–L2, down-sweep L7–L10 (balanced variant)


def _stage_patterns(model: VGG11, input_hw, rng) -> Dict:
    """Per-stage T-Jacobian patterns + baseline costs from one forward.

    The patterns are built the engine's way: the forward recorder of
    :class:`~repro.core.FeedforwardBPPSA`, then
    :func:`~repro.jacobian.layer_tjac_batched` per stage (so a pruned
    conv filter stores only its live taps).
    """
    layers = list(model.features)
    acts = forward_activations(layers, rng.standard_normal((1, 3, *input_hw)))
    patterns: List = []
    baseline: List[tuple] = []
    for layer, x_in, x_out in zip(layers, acts, acts[1:]):
        patterns.append(layer_tjac_batched(layer, x_in, x_out).pattern)
        if isinstance(layer, L.Conv2d):
            baseline.append(
                conv_dgrad_flops(
                    layer.in_channels, layer.out_channels, layer.kernel_size,
                    *x_in.shape[2:], *x_out.shape[2:],
                    weight_density=float((layer.weight.data != 0).mean()),
                )
            )
        else:  # ReLU / max-pool: one elementwise backward
            baseline.append(elementwise_backward_flops(x_in.size))
    return {
        "patterns": patterns,
        "baseline": baseline,
        "names": [type(layer).__name__ for layer in layers],
        "grad_dim": acts[-1].size,
    }


def _measured_steps(stages: Dict, rng, cfg) -> Dict:
    """Execute the truncated scan on the sparse path and group its trace.

    ``cfg`` is the resolved :class:`~repro.config.ScanConfig`: its
    sparse policy decides CSR-vs-dense dispatch, its executor runs the
    scan (gradient-identical on every backend).  Returns the scan's
    :class:`~repro.scan.ScanDAG` (FLOPs as actually executed — SpGEMM
    numeric-phase counts while products stay CSR, dense counts after
    the dispatch densifies) plus the context's measured totals.
    """
    policy = cfg.sparse_policy()
    ctx = ScanContext(sparse=policy)
    items: List = [GradientVector(rng.standard_normal((1, stages["grad_dim"])))]
    # Eq. 5 ordering: last stage's Jacobian first.
    for pattern in reversed(stages["patterns"]):
        items.append(policy.element(SparseJacobian(pattern)))
    with get_executor(cfg.executor) as ex:
        truncated_blelloch_scan(items, ctx.op, up_levels=UP_LEVELS, executor=ex)
    return {
        "dag": dag_from_trace(ctx.trace),
        "measured_total_flops": float(ctx.total_flops),
        "sparse_mode": str(policy),
    }


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Measured per-step FLOP analysis of the pruned VGG-11 scan.

    ``config`` (a :class:`~repro.config.ScanConfig` or spec string)
    names the measured scan's dispatch policy and executor; unset
    fields take the global defaults (``sparse=auto``, ``serial``).
    The truncation depth stays the paper's (up-sweep through
    level 2); the static model runs alongside under the same config.
    """
    p = PARAMS[scale]
    rng = np.random.default_rng(seed)
    model = VGG11(rng=rng, width_multiplier=p["width"])
    magnitude_prune(model, p["prune"], scope="global")
    stages = _stage_patterns(model, p["input_hw"], rng)

    cfg = ScanConfig.coerce(config).resolve()
    measured = _measured_steps(stages, rng, cfg)
    dag = measured["dag"]

    analyzer = StaticScanAnalyzer(sparse=cfg.sparse_policy())
    modeled = analyzer.analyze(
        list(reversed(stages["patterns"])),
        grad_dim=stages["grad_dim"],
        algorithm="truncated",
        up_levels=UP_LEVELS,
    )
    baseline = analyzer.baseline_steps(stages["baseline"])

    steps = dag.all_steps()
    bppsa_critical_max = max(
        s.flops for s, critical in zip(steps, dag.critical()) if critical
    )
    base_max = max(s.flops for s in baseline.all_steps())
    return {
        "dag": dag,
        "baseline": baseline,
        "modeled": modeled,
        "stage_names": stages["names"],
        "bppsa_max_step_flops": max(s.flops for s in steps),
        "bppsa_critical_max_flops": bppsa_critical_max,
        "baseline_max_step_flops": base_max,
        "per_step_ratio": bppsa_critical_max / base_max,
        "measured_total_flops": measured["measured_total_flops"],
        "modeled_total_flops": float(modeled.total_flops),
        "sparse_mode": measured["sparse_mode"],
        "params": p,
    }


def _marked_steps(result: Dict):
    """``(source, step, critical)`` for every BPPSA then baseline step."""
    for source, key in (("bppsa", "dag"), ("baseline", "baseline")):
        dag = result[key]
        for step, critical in zip(dag.all_steps(), dag.critical()):
            yield source, step, critical


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per step).

    BPPSA scan steps and baseline gradient-operator steps are
    concatenated; the ``source`` column tells them apart.
    """
    return [
        {
            "source": source,
            "phase": s.info.phase,
            "level": int(s.info.level),
            "kind": s.kind,
            "dense_mnk": float(s.dense_mnk),
            "flops": float(s.flops),
            "critical": bool(critical),
        }
        for source, s, critical in _marked_steps(result)
    ]


def render_report(result: Dict) -> str:
    """Render the per-step FLOP table — a pure view over :func:`run`."""
    r = result
    headers = ["phase", "level", "kind", "m·n·k (dense)", "FLOPs", "critical"]
    rows = [
        [s.info.phase, s.info.level, s.kind, float(s.dense_mnk), float(s.flops),
         "*" if critical else ""]
        for _, s, critical in _marked_steps(r)
    ]
    return (
        format_table(headers, rows)
        + f"\nmax BPPSA critical-step FLOPs: {r['bppsa_critical_max_flops']:.3e}"
        + f"\nmax baseline gradient-op FLOPs: {r['baseline_max_step_flops']:.3e}"
        + f"\nper-step ratio (want ≈ O(1)): {r['per_step_ratio']:.2f}"
        + f"\nmeasured total FLOPs (sparse={r['sparse_mode']}): "
        + f"{r['measured_total_flops']:.3e}"
        + f"\nmodeled total FLOPs (static analysis): {r['modeled_total_flops']:.3e}"
    )


if __name__ == "__main__":
    print_report(
        "Figure 11: per-step FLOPs, pruned VGG-11 retraining", render_report(run())
    )
