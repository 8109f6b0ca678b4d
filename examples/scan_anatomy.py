#!/usr/bin/env python
"""Anatomy of the modified Blelloch scan (paper Figures 1 and 4).

Walks through the scan on a synthetic chain of transposed Jacobians,
printing every ⊙ application by phase and level with the rule of
``repro.scan.elements.RULES`` that ran it, comparing step counts
against the serial baseline, demonstrating why the down-sweep must
reverse operand order for the non-commutative ⊙, re-running the
scan on each execution backend (``repro.backend``) to show the
results are bitwise-identical, and ending with the declarative
configuration plane (``repro.config``): spec-string round-tripping and
a scan run on the executor its config names.

Run:  python examples/scan_anatomy.py
"""

import numpy as np

from repro.backend import get_executor
from repro.pram import GPUCostModel, PRAMMachine, RTX_2070
from repro.scan import (
    DenseJacobian,
    GradientVector,
    ScanContext,
    blelloch_scan,
    linear_scan,
    simple_op,
    uniform_dag,
)

rng = np.random.default_rng(0)
N, H = 8, 4  # 8 stages of H×H Jacobians (Figure 4's VGG-11 conv stack)

items = [GradientVector(rng.standard_normal((1, H)))]
items += [DenseJacobian(rng.standard_normal((H, H))) for _ in range(N)]

# --- numeric: both algorithms agree --------------------------------------
ref = linear_scan(items, ScanContext().op)
ctx = ScanContext()
out = blelloch_scan(items, ctx.op)
worst = max(
    np.abs(out[p].data - ref[p].data).max() for p in range(1, N + 1)
)
print(f"Blelloch vs linear scan: max |Δ| = {worst:.2e} over {N} outputs")

# --- the schedule ----------------------------------------------------------
print("\n⊙ applications by level (phase d: positions l,r → kind, rule):")
for rec in ctx.trace:
    i = rec.info
    print(
        f"  {i.phase:>4} d={i.level}: a[{i.left}] ⊙ a[{i.right}]  "
        f"({rec.kind}, {rec.rule}: {rec.flops} FLOPs)"
    )

dag = uniform_dag("blelloch", N + 1)
lin = uniform_dag("linear", N + 1)
print(f"\nparallel levels: {dag.num_levels} (vs {lin.num_levels} serial steps)")

machine = PRAMMachine(GPUCostModel(RTX_2070))
sched = machine.schedule(dag)
print(f"simulated makespan on RTX 2070: {sched.makespan_seconds * 1e6:.1f} µs")

# --- pluggable execution backends -----------------------------------------
# The ops of one level are independent, so *where* they run is a plug
# point: any executor (a spec string or a ScanExecutor instance) runs
# the same schedule with the same per-op order, hence bitwise-identical
# outputs.
print("\nexecution backends:")
for spec in ("serial", "thread:2"):
    with get_executor(spec) as ex:
        alt = blelloch_scan(items, ScanContext().op, executor=ex)
    identical = all(
        np.array_equal(alt[p].data, out[p].data) for p in range(1, N + 1)
    )
    print(f"  {spec:>9}: bitwise-identical to serial = {identical}")

# --- non-commutativity: why the down-sweep reverses operands --------------
concat = simple_op(lambda a, b: b + a)  # A ⊙ B = BA on strings
words = list("abcdefg")
result = blelloch_scan(words, concat, identity="")
expected = ["".join(reversed(words[:k])) for k in range(len(words))]
assert result == expected, (result, expected)
print("\nnon-commutative string check:", " ".join(repr(s) for s in result))
print("(each output is the reversed concatenation of the prefix — ⊙ order held)")

# --- the configuration plane ----------------------------------------------
# Every knob above is one declarative value: a ScanConfig, buildable
# from a spec string that round-trips losslessly and passed explicitly
# to whatever runs the scan.
import repro

cfg = repro.ScanConfig.from_spec("blelloch/thread:2/sparse=on")
assert repro.ScanConfig.from_spec(cfg.spec()) == cfg
resolved = cfg.resolve()
print(f"\nScanConfig spec round-trip: {cfg.spec()!r}")
print(f"resolved: {resolved.spec()!r}")

with get_executor(resolved.executor) as ex:
    # Same schedule, same per-op order, still bitwise-identical.
    configured = blelloch_scan(
        items, ScanContext(sparse=resolved.sparse_policy()).op, executor=ex
    )
assert all(
    np.array_equal(configured[p].data, out[p].data) for p in range(1, N + 1)
)
print(
    f"its scan ran on {ex.name} with {ex.workers} workers: "
    "bitwise-identical = True"
)
