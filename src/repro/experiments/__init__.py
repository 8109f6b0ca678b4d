"""Experiment harnesses — one module per paper table/figure.

Every module exposes the same split API — the data step and pure views
over it:

* ``run(scale=Scale.SMOKE, config=None) -> dict`` — the full
  structured result (the single execution everything else derives
  from); ``config`` is a :class:`~repro.config.ScanConfig` or spec
  string (``"blelloch/thread:8/sparse=on"``) naming the scan surface
  of the artifacts that run one (some modules add knobs such as
  ``seed=``);
* ``result_rows(result) -> list[dict]`` — flat, JSON-ready rows (what
  :mod:`repro.bench` records);
* ``render_report(result) -> str`` — the rendered plain-text artifact,
  a pure view over the structured data.

Each module also prints the paper's rows/series when executed as a
script (``python -m repro.experiments.fig9_rnn_curve``).

==================  ====================================================
Module              Paper artifact
==================  ====================================================
fig3_pipeline       Fig. 3 pipeline timing diagram + GPipe/PipeDream limits
fig4_schedule       Fig. 4 Blelloch schedule on VGG-11's conv stack
table1_sparsity     Table 1 guaranteed-zero sparsity + generation speedup
fig6_patterns       Fig. 6 transposed-Jacobian sparsity patterns
fig7_convergence    Fig. 7 LeNet-5 BP-vs-BPPSA loss curves
fig8_bitstreams     Fig. 8 bitstream dataset examples
fig9_rnn_curve      Fig. 9 RNN loss vs (simulated) wall-clock
fig10_sensitivity   Fig. 10 speedup vs sequence length and batch size
fig11_flops         Fig. 11 per-step FLOPs, pruned VGG-11 retraining
table2_devices      Table 2 platform catalog
eq6_complexity      Eqs. 6–7 step/work complexity verification
scaling_comparison  Fig. 1's scaling claim vs model-parallel baselines
ablation_truncation §5.2 truncation-depth ablation
==================  ====================================================

``SMOKE`` scale finishes in seconds (CI); ``PAPER`` scale matches the
paper's parameters where feasible on CPU.  Shapes of the reported
series are scale-invariant; BENCHMARKS.md maps every artifact to its
paper figure, knobs, and output format.
"""

from repro.experiments.common import Scale

__all__ = ["Scale"]
