"""Self-test of the benchmark at a tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks, for every workload: every end-to-end and per-layer metric named
in ``BENCHMARK.json`` is emitted with its unit; the same seed gives
bitwise-identical inputs and loss sequences; the span dump is well
formed with no span left open; no wrapper survives a traced run; a
traced run has no steady-state plan misses; and the peak-memory
high-water mark resets between workloads.  Exits non-zero on the first
failure.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before NumPy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.3


def check(condition: bool, message: str) -> None:
    """Fail the self-test with ``message`` unless ``condition`` holds."""
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declared_metrics() -> None:
    """``BENCHMARK.json`` declares exactly the metrics ``run.py`` emits."""
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, f"end_to_end {e2e} != {run.END_TO_END}")
    check(layers == run.PER_LAYER, "per_layer names/units differ from run.py")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOADS), f"workloads {names} != {run.WORKLOADS}")


def check_metrics(name: str, out: Path) -> None:
    """Both kinds of run emit every metric with its unit and no failure."""
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        metrics, attempted, failed, notes = run.measure(
            name, 3, SECONDS, trace, out, size="tiny"
        )
        check(failed == 0, f"{name} trace={trace}: {notes}")
        check(attempted > 0, f"{name} trace={trace}: nothing attempted")
        check(set(metrics) == set(expected), f"{name}: metric names differ")
        for metric, (value, unit, samples) in metrics.items():
            check(unit == expected[metric], f"{name} {metric}: unit {unit}")
            check(np.isfinite(value), f"{name} {metric} = {value}")
            check(samples > 0, f"{name} {metric}: no samples")


def check_spans(name: str, out: Path) -> None:
    """The traced run's span dump is well formed and fully closed."""
    spans = tracing.load_spans(out / f"spans-{name}-seed3.json.gz")
    check(len(spans) > 0, f"{name}: empty span dump")
    try:
        tracing.check_well_formed(spans)
    except ValueError as exc:
        check(False, f"{name}: {exc}")


def check_wrappers_removed() -> None:
    """Removing the patches restores every original attribute."""
    patches = tracing.instrument(tracing.Tracer())
    installed = list(patches.installed)
    check(len(installed) > 20, "too few layer wrappers installed")
    patches.remove()
    for owner, attr, original in installed:
        check(
            tracing.current_value(owner, attr) is original,
            f"{owner!r}.{attr} still wrapped",
        )


def check_peak_rss_reset() -> None:
    """``peak_rss_mb`` is each workload's own: a reset forgets an earlier,
    higher peak, so one workload's memory cannot hide behind another's."""
    if not run.reset_peak_rss():
        print("--  peak RSS cannot be reset here; peaks are cumulative")
        return
    ballast = np.ones(64 * 2**20 // 8)  # 64 MB, every page touched
    high = run.peak_rss_mb()
    del ballast
    run.reset_peak_rss()
    low = run.peak_rss_mb()
    check(high - low > 32, f"peak RSS not reset: {high:.0f} MB, then {low:.0f} MB")
    print("ok  peak RSS resets between workloads")


def check_determinism() -> None:
    """Same seed: identical inputs and losses; another seed: other inputs."""
    for make in (workloads._rnn_spec, workloads._lenet_spec):
        spec = make("tiny")
        a, b, c = spec.make_batches(5), spec.make_batches(5), spec.make_batches(6)
        check(
            all(np.array_equal(x1, x2) and np.array_equal(y1, y2)
                for (x1, y1), (x2, y2) in zip(a, b)),
            f"{spec.name}: same seed gave different batches",
        )
        check(not np.array_equal(a[0][0], c[0][0]), f"{spec.name}: seed ignored")
        first = workloads.run_training(spec, 5, SECONDS, setup_reps=1)
        again = workloads.run_training(spec, 5, SECONDS, setup_reps=1)
        n = min(len(first.losses), len(again.losses))
        check(n >= 3, f"{spec.name}: too few steps")
        check(first.losses[:n] == again.losses[:n], f"{spec.name}: losses differ")
    one = workloads.make_serve_jobs(5, "tiny")
    two = workloads.make_serve_jobs(5, "tiny")
    check(
        all(
            np.array_equal(i1.data, i2.data)
            for m1, m2 in zip(one, two)
            for (_, items1), (_, items2) in zip(m1, m2)
            for i1, i2 in zip(items1, items2)
        ),
        "serve_mixed: same seed gave different jobs",
    )


def main() -> int:
    """Run every check; prints one line per check passed."""
    check_declared_metrics()
    print("ok  BENCHMARK.json matches the emitted metrics")
    check_wrappers_removed()
    print("ok  every wrapper is removed")
    check_peak_rss_reset()
    check_determinism()
    print("ok  same seed, same inputs and losses")
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name in run.WORKLOADS:
            check_metrics(name, Path(tmp))
            check_spans(name, Path(tmp))
            print(f"ok  {name}: every metric with its unit; spans well formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
