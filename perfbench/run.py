"""The repo benchmark: BPPSA training and gradient serving, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py                          # every workload, untraced
    python3 perfbench/run.py --workload rnn_bitstream --seed 1 --seconds 20
    python3 perfbench/run.py --workload pruned_lenet --trace 1

An untraced run (``--trace 0``) prints every end-to-end metric by name
with its unit and sample count.  A traced run (``--trace 1``) runs the
workload for half of ``--seconds`` with a span wrapper around each
layer's public functions, between two untraced quarter-length runs, and
prints every per-layer
metric, the trace coverage and the tracing overhead (traced minus
untraced p50).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Span dumps
and a result record with the environment fingerprint go to ``--out``.

The workloads, metrics and the layer each metric belongs to are
described in ``perfbench/README.md``.
"""

import os
import sys

# Pinned before NumPy loads: with OpenBLAS free to use both cores the
# RNN step p50 wandered 97-132 ms over five runs; pinned to one thread
# it held 90-95 ms.  Scan settings come only from the workloads' specs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
for _var in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_var]
# One CPU for the whole process: the scheduler moved runs between two
# vCPUs that ran the RNN step at 97-106 and 119-165 ms respectively.
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("rnn_bitstream", "pruned_lenet", "serve_mixed")

#: End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
#: Steps and jobs are reported at their fastest and at p90, not at p50:
#: a shared host runs this Python-bound code either at full speed or up
#: to 1.9x slower for spells of a second or more, in a share of each run
#: that varied 0-70% from run to run.  The p50 follows that share (its
#: 10-run spread reached 20-28% of the median), while the fastest sample
#: and p90 each sit inside one speed (spread 3-13%).
END_TO_END = {
    "samples_per_s": "1/s",
    "step_min_ms": "ms",
    "step_p90_ms": "ms",
    "bp_step_min_ms": "ms",
    "jobs_per_s": "1/s",
    "job_p90_ms": "ms",
    "job_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run: name -> unit.  Times and counts
#: are per operation: a training step, or a serve job.
PER_LAYER = {
    "nn.forward_ms": "ms",
    "jacobian.tjac_ms": "ms",
    "jacobian.calls": "count",
    "core.assemble_ms": "ms",
    "core.param_grads_ms": "ms",
    "core.unattributed_ms": "ms",
    "scan.scan_ms": "ms",
    "scan.up_ms": "ms",
    "scan.down_ms": "ms",
    "scan.mid_ms": "ms",
    "scan.ops.mv": "count",
    "scan.ops.mm_dense": "count",
    "scan.ops.spgemm": "count",
    "scan.ops.mixed": "count",
    "scan.ms.mv": "ms",
    "scan.ms.mm_dense": "ms",
    "scan.ms.spgemm": "ms",
    "scan.ms.mixed": "ms",
    "scan.densified": "count",
    "scan.flops": "count",
    "backend.levels": "count",
    "backend.dispatch_ms": "ms",
    "sparse.plan_hits": "count",
    "sparse.plan_misses": "count",
    "sparse.plan_build_ms": "ms",
    "sparse.arena_allocations": "count",
    "sparse.cold_plan_misses": "count",
    "sparse.cold_plan_build_ms": "ms",
    "optim.step_ms": "ms",
    "pruning.reapply_ms": "ms",
    "tensor.forward_ms": "ms",
    "tensor.backward_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.scan_ms": "ms",
    "serve.merge_ms": "ms",
    "serve.jobs_per_group": "count",
    "serve.shared_cache_hit_rate": "ratio",
    "trace.step_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.coverage_pct": "%",
    "trace.open_spans": "count",
}

#: Layer self times plus ``core.unattributed_ms`` must explain at least
#: this share of the traced step (or serve scan) time.
MIN_COVERAGE_PCT = 95.0


def environment() -> dict:
    """What the result depends on besides the code: cores, threads, versions."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy without dict-mode show_config
        blas_version = "unknown"
    return {
        "nproc": NPROC,
        "cpu": CPU,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "executor": "serial",
    }


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation)."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def reset_peak_rss() -> bool:
    """Start a new resident-memory high-water mark; False where the kernel
    offers no reset (then the peak also covers earlier workloads)."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run, peak_mb: float) -> dict:
    """``{metric: (value, unit, samples)}`` from one untraced run."""
    steps, jobs = len(run.step_s), len(run.job_s)
    values = {
        "samples_per_s": (run.samples / run.wall_s, jobs),
        "step_min_ms": (1e3 * percentile(run.step_s, 0), steps),
        "step_p90_ms": (1e3 * percentile(run.step_s, 90), steps),
        "bp_step_min_ms": (1e3 * percentile(run.bp_step_s, 0), len(run.bp_step_s)),
        "jobs_per_s": (run.jobs / run.job_wall_s, jobs),
        "job_p90_ms": (1e3 * percentile(run.job_s, 90), jobs),
        "job_p99_ms": (1e3 * percentile(run.job_s, 99), jobs),
        "setup_s": (percentile(run.setup_s, 50), len(run.setup_s)),
        "peak_rss_mb": (peak_mb, 1),
    }
    return {k: (v, END_TO_END[k], n) for k, (v, n) in values.items()}


def _p50_ms(runs, workload: str) -> float:
    """Step p50 over ``runs`` pooled, or job p50 when serving."""
    key = "job_s" if workload == "serve_mixed" else "step_s"
    return 1e3 * percentile([t for r in runs for t in getattr(r, key)], 50)


def measure(
    workload: str, seed: int, seconds: float, trace: bool, out: Path, size="full"
):
    """Run one workload; returns ``(metrics, attempted, failed, notes)``.

    ``size="tiny"`` shrinks every workload for the self-test.
    """
    from tracing import Tracer
    from workloads import run_workload

    if not trace:
        # The workload's own peak, even after others ran in this process.
        reset_peak_rss()
        run = run_workload(workload, seed, seconds, size=size)
        metrics = end_to_end(run, peak_rss_mb())
        return metrics, run.attempted, run.failed, run.notes

    # Half of ``seconds`` traced, between two untraced quarters, so a host
    # that speeds up or slows down during the run biases the overhead less.
    tracer = Tracer()
    before = run_workload(workload, seed, seconds / 4, size=size)
    traced = run_workload(workload, seed, seconds / 2, tracer, setup_reps=1, size=size)
    after = run_workload(workload, seed, seconds / 4, setup_reps=1, size=size)
    runs = (before, traced, after)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    notes = [note for r in runs for note in r.notes]
    traced_p50 = _p50_ms([traced], workload)
    layers = dict(traced.layers)
    layers["trace.step_p50_ms"] = traced_p50
    layers["trace.overhead_ms"] = traced_p50 - _p50_ms([before, after], workload)
    layers["trace.open_spans"] = float(tracer.open_spans())
    if layers["trace.open_spans"] or layers["trace.coverage_pct"] < MIN_COVERAGE_PCT:
        failed += 1
        notes.append(
            f"trace: {layers['trace.open_spans']:.0f} open spans, coverage "
            f"{layers['trace.coverage_pct']:.1f}% < {MIN_COVERAGE_PCT}%"
        )
    # Plans are built once, in the cold set-up; a steady-state miss means
    # SpGEMM plans are being rebuilt.
    if layers["sparse.plan_misses"] > 0:
        failed += 1
        notes.append(
            f"sparse: {layers['sparse.plan_misses']:.3f} plan misses per "
            "operation after the cold set-up (must be 0)"
        )
    tracer.dump(out / f"spans-{workload}-seed{seed}.json.gz")
    ops = len(traced.job_s if workload == "serve_mixed" else traced.step_s)
    # A layer the workload never enters reads 0 (serve.* on training).
    metrics = {k: (layers.get(k, 0.0), PER_LAYER[k], ops) for k in PER_LAYER}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in one process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / ".out",
                        help="directory for span dumps and result records")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = [args.workload] if args.workload else list(WORKLOADS)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, a, f, notes = measure(
            name, args.seed, args.seconds, bool(args.trace), args.out
        )
        attempted, failed = attempted + a, failed + f
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, (value, unit, n) in found.items():
            print(f"{name:>14} {metric:<28} {value:>14.4f} {unit:<6} n={n}")
        print(f"{name:>14} {'failed_frac':<28} {f / max(a, 1):>14.4f} -      n={a}")
        if args.trace:
            print(f"{name:>14} trace coverage margin: >= {MIN_COVERAGE_PCT}% of "
                  "traced time in layer self times + core.unattributed_ms; "
                  "trace.overhead_ms = traced - untraced p50")
        for note in notes:
            print(f"{name:>14} FAILED: {note}")
        if len(names) > 1:
            found = {f"{name}.{k}": v for k, v in found.items()}
        metrics.update(found)
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "attempted": a,
            "failed": f,
            "notes": notes,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in found.items()},
        }
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
