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
applications that really executed.  The old static model is kept as a
cross-check (``modeled_total_flops`` vs ``measured_total_flops``).

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
    StepCost,
    conv_dgrad_flops,
    elementwise_backward_flops,
)
from repro.experiments.common import Scale, format_table, print_report
from repro.jacobian import conv2d_tjac_pruned, maxpool_tjac_batched, relu_tjac_batched
from repro.nn import VGG11
from repro.nn import layers as L
from repro.pruning import magnitude_prune
from repro.config import ScanConfig
from repro.scan import (
    GradientVector,
    ScanContext,
    SparseJacobian,
    truncated_blelloch_scan,
)
from repro.tensor import Tensor, no_grad

PARAMS = {
    Scale.SMOKE: {"width": 0.25, "input_hw": (16, 16), "prune": 0.97},
    Scale.PAPER: {"width": 1.0, "input_hw": (32, 32), "prune": 0.97},
}
UP_LEVELS = 2  # paper: up-sweep L0–L2, down-sweep L7–L10 (balanced variant)


def _stage_patterns(model: VGG11, input_hw, rng) -> Dict:
    """Per-stage T-Jacobian patterns + baseline costs from one forward."""
    x = rng.standard_normal((1, 3, *input_hw))
    acts = [x]
    with no_grad():
        cur = Tensor(x)
        for layer in model.features:
            cur = layer(cur)
            acts.append(cur.data)

    patterns: List = []
    baseline: List[tuple] = []
    names: List[str] = []
    for idx, layer in enumerate(model.features):
        x_in, x_out = acts[idx], acts[idx + 1]
        if isinstance(layer, L.Conv2d):
            hi, wi = x_in.shape[2], x_in.shape[3]
            tj = conv2d_tjac_pruned(
                layer.weight.data, (hi, wi), layer.stride, layer.padding
            )
            density = float((layer.weight.data != 0).mean())
            ho, wo = x_out.shape[2], x_out.shape[3]
            baseline.append(
                conv_dgrad_flops(
                    layer.in_channels, layer.out_channels, layer.kernel_size,
                    hi, wi, ho, wo, weight_density=density,
                )
            )
            names.append(f"conv{sum(1 for n in names if n.startswith('conv')) + 1}")
        elif isinstance(layer, L.ReLU):
            pattern, _ = relu_tjac_batched(x_in.reshape(1, -1))
            tj = pattern
            baseline.append(elementwise_backward_flops(x_in.size))
            names.append("relu")
        elif isinstance(layer, L.MaxPool2d):
            pattern, _ = maxpool_tjac_batched(x_in, layer.kernel_size, layer.stride)
            tj = pattern
            baseline.append(elementwise_backward_flops(x_in.size))
            names.append("maxpool")
        else:  # pragma: no cover - VGG features has no other layer kinds
            raise TypeError(type(layer))
        patterns.append(tj)
    grad_dim = acts[-1].size
    return {
        "patterns": patterns,
        "baseline": baseline,
        "names": names,
        "grad_dim": grad_dim,
    }


def _measured_steps(stages: Dict, rng, cfg) -> Dict:
    """Execute the truncated scan on the sparse path and cost its trace.

    ``cfg`` is the resolved :class:`~repro.config.ScanConfig`: its
    sparse policy decides CSR-vs-dense dispatch, its executor runs the
    scan (gradient-identical on every backend).  Returns the per-⊙
    :class:`StepCost` list (FLOPs as actually executed — SpGEMM
    numeric-phase counts while products stay CSR, dense counts after
    the dispatch densifies) plus the context's measured totals.
    """
    policy = cfg.sparse_policy()
    ctx = ScanContext(sparse=policy)
    items: List = [GradientVector(rng.standard_normal((1, stages["grad_dim"])))]
    # Eq. 5 ordering: last stage's Jacobian first.
    for pattern in reversed(stages["patterns"]):
        items.append(policy.element(SparseJacobian(pattern)))
    truncated_blelloch_scan(
        items, ctx.op, up_levels=UP_LEVELS, executor=cfg.executor
    )

    steps = [
        StepCost(
            phase=rec.info.phase,
            level=rec.info.level,
            kind=rec.kind,
            flops=float(rec.flops),
            dense_mnk=float(rec.dense_mnk),
        )
        for rec in ctx.trace
    ]
    by_level: Dict = {}
    for s in steps:
        by_level.setdefault((s.phase, s.level), []).append(s)
    for group in by_level.values():
        fmax = max(s.flops for s in group)
        for s in group:
            s.critical = s.flops == fmax
    return {
        "steps": steps,
        "measured_total_flops": float(ctx.total_flops),
        "sparse_mode": str(policy),
    }


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """Measured per-step FLOP analysis of the pruned VGG-11 scan.

    ``config`` (a :class:`~repro.config.ScanConfig` or spec string)
    names the measured scan's dispatch policy and executor; unset
    fields follow the ambient ``repro.configure()`` / ``REPRO_SCAN_*``
    defaults.  The truncation depth stays the paper's (up-sweep through
    level 2); the static model is computed alongside as a cross-check.
    """
    p = PARAMS[scale]
    rng = np.random.default_rng(seed)
    model = VGG11(rng=rng, width_multiplier=p["width"])
    magnitude_prune(model, p["prune"], scope="global")
    stages = _stage_patterns(model, p["input_hw"], rng)

    cfg = ScanConfig.coerce(config).resolve()
    measured = _measured_steps(stages, rng, cfg)
    steps = measured["steps"]

    analyzer = StaticScanAnalyzer()
    modeled_steps = analyzer.analyze(
        list(reversed(stages["patterns"])),
        grad_dim=stages["grad_dim"],
        algorithm="truncated",
        up_levels=UP_LEVELS,
    )
    baseline_steps = analyzer.baseline_steps(stages["baseline"])

    bppsa_max = max(s.flops for s in steps)
    bppsa_critical_max = max(s.flops for s in steps if s.critical)
    base_max = max(s.flops for s in baseline_steps)
    return {
        "steps": steps,
        "baseline_steps": baseline_steps,
        "modeled_steps": modeled_steps,
        "stage_names": stages["names"],
        "bppsa_max_step_flops": bppsa_max,
        "bppsa_critical_max_flops": bppsa_critical_max,
        "baseline_max_step_flops": base_max,
        "per_step_ratio": bppsa_critical_max / base_max,
        "measured_total_flops": measured["measured_total_flops"],
        "modeled_total_flops": float(sum(s.flops for s in modeled_steps)),
        "sparse_mode": measured["sparse_mode"],
        "params": p,
    }


def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows (one per step).

    BPPSA scan steps and baseline gradient-operator steps are
    concatenated; the ``source`` column tells them apart.
    """
    out: List[Dict] = []
    sources = (("bppsa", result["steps"]), ("baseline", result["baseline_steps"]))
    for source, steps in sources:
        for s in steps:
            out.append(
                {
                    "source": source,
                    "phase": s.phase,
                    "level": int(s.level),
                    "kind": s.kind,
                    "dense_mnk": float(s.dense_mnk),
                    "flops": float(s.flops),
                    "critical": bool(s.critical),
                    "exact": bool(s.exact),
                }
            )
    return out


def render_report(result: Dict) -> str:
    """Render the per-step FLOP table — a pure view over :func:`run`."""
    r = result
    headers = ["phase", "level", "kind", "m·n·k (dense)", "FLOPs", "critical", "exact"]
    rows = [
        [s.phase, s.level, s.kind, s.dense_mnk, s.flops,
         "*" if s.critical else "", "" if s.exact else "~"]
        for s in r["steps"]
    ]
    base_rows = [
        [s.phase, s.level, s.kind, s.dense_mnk, s.flops, "*", ""]
        for s in r["baseline_steps"]
    ]
    return (
        format_table(headers, rows + base_rows)
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
