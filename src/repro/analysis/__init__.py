"""Static analysis: FLOP counting, sparsity metrics, complexity laws.

Mirrors the paper's methodology for the pruned-VGG-11 micro-benchmark
(Section 4.2): "due to the lack of a fair implementation, we perform
our experiments by calculating the FLOPs needed for each step in our
method and the baseline implementation through static analysis."
"""

from repro.analysis.flops import (
    EstimatePattern,
    StaticScanAnalyzer,
    conv_dgrad_flops,
    elementwise_backward_flops,
)
from repro.analysis.complexity import (
    blelloch_step_complexity,
    linear_step_complexity,
    measured_step_complexity,
)

__all__ = [
    "StaticScanAnalyzer",
    "EstimatePattern",
    "conv_dgrad_flops",
    "elementwise_backward_flops",
    "blelloch_step_complexity",
    "linear_step_complexity",
    "measured_step_complexity",
]
