"""``python -m repro.bench`` — run the artifact × backend sweep.

Examples::

    # CI smoke sweep over two backends, JSON into benchmarks/results/
    python -m repro.bench --scale smoke --backends serial,thread:2

    # one artifact, more repeats, custom output directory
    python -m repro.bench --artifacts fig9_rnn_curve --repeats 5 --out /tmp/b

    # add the dense-vs-sparse axis: sparse-sensitive artifacts run per
    # dispatch mode per backend ("serial[sparse=off]", "serial[sparse=on]", …)
    python -m repro.bench --scale smoke --backends serial,thread:2 --sparse
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.bench.runner import artifact_names, run_bench
from repro.bench.writer import write_results
from repro.experiments.common import Scale, format_table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the paper artifacts across scan backends "
        "and write machine-readable BENCH_*.json / bench.json results.",
    )
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.SMOKE.value,
        help="experiment size preset (default smoke)",
    )
    parser.add_argument(
        "--backends",
        default="serial",
        help="comma-separated executor specs for backend-sensitive "
        'artifacts, e.g. "serial,thread:2" (default serial)',
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        help="comma-separated artifact names to run (default: all: "
        + ", ".join(artifact_names())
        + ")",
    )
    parser.add_argument(
        "--sparse",
        action="store_true",
        help="sweep the dense-vs-sparse dispatch axis: sparse-sensitive "
        "artifacts run once per mode (off, on) per backend, recorded as "
        '"<backend>[sparse=<mode>]" in place of their plain-key '
        "measurement (compare against a baseline taken with --sparse)",
    )
    parser.add_argument(
        "--sparse-modes",
        default="off,on",
        help="comma-separated dispatch modes for the --sparse axis "
        "(default off,on; auto is also valid)",
    )
    parser.add_argument(
        "--warmup", type=int, default=0, help="un-timed runs per measurement"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="timed runs per measurement"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="output directory (default benchmarks/results)",
    )
    args = parser.parse_args(argv)

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    artifacts = (
        [a.strip() for a in args.artifacts.split(",") if a.strip()]
        if args.artifacts
        else None
    )
    sparse_modes = (
        [m.strip() for m in args.sparse_modes.split(",") if m.strip()]
        if args.sparse
        else None
    )
    records = run_bench(
        Scale(args.scale),
        backends,
        artifacts,
        warmup=args.warmup,
        repeats=args.repeats,
        sparse_modes=sparse_modes,
        progress=print,
    )
    combined = write_results(records, args.out)
    print()
    print(
        format_table(
            ["artifact", "backend", "median (ms)", "IQR (ms)", "rows"],
            [
                [
                    r.artifact,
                    r.backend,
                    f"{r.timing.median_s * 1e3:.2f}",
                    f"{r.timing.iqr_s * 1e3:.2f}",
                    r.num_rows,
                ]
                for r in records
            ],
        )
    )
    print(f"\n{len(records)} records -> {combined}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
