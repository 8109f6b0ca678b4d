"""Command line: render the bench corpus into a static site.

::

    python -m repro.dashboard --out site/
    python -m repro.dashboard --out site/ --results benchmarks/results \\
        --baseline benchmarks/baseline/bench.json --history snapshots/

With no ``--baseline`` flags, the checked-in baseline
(``benchmarks/baseline/bench.json``, when it exists) is used — the
same records the CI gate compares against.  Pass ``--baseline`` one or
more times to override (merged first-wins), or ``--no-baseline`` to
skip the delta view's data entirely (the page is still written, empty,
to keep the URL scheme stable).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.bench.compare import DEFAULT_TOLERANCE
from repro.bench.record import SchemaError
from repro.dashboard.loader import load_baselines, load_history, load_results_dir
from repro.dashboard.pages import build_site

#: The baseline used by default, when it exists.
DEFAULT_BASELINE = pathlib.Path("benchmarks/baseline/bench.json")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dashboard",
        description="Render the bench corpus into a static HTML site.",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        required=True,
        help="output directory for the site (created if missing)",
    )
    parser.add_argument(
        "--results",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory holding bench.json / BENCH_*.json "
        "(default: benchmarks/results)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        action="append",
        default=None,
        help="baseline result file for the delta view; repeatable, "
        "merged first-wins (default: the checked-in baseline)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="render without any baseline (empty delta view)",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=None,
        help="directory of prior bench.json snapshots for trend tables",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fractional slowdown coloring a delta as a regression "
        f"(default {DEFAULT_TOLERANCE}, same as repro.bench.compare)",
    )
    args = parser.parse_args(argv)

    baseline_paths: List[pathlib.Path]
    if args.no_baseline:
        baseline_paths = []
    elif args.baseline is not None:
        baseline_paths = list(args.baseline)
    else:
        baseline_paths = [DEFAULT_BASELINE] if DEFAULT_BASELINE.is_file() else []

    try:
        current = load_results_dir(args.results)
        baseline = load_baselines(baseline_paths)
        history = load_history(args.history)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: cannot load bench results: {exc}")
        return 2
    written = build_site(
        args.out, current, baseline, history, tolerance=args.tolerance
    )
    print(
        f"wrote {len(written)} page(s) to {args.out} "
        f"({len(current)} record(s), {len(baseline)} baseline record(s), "
        f"{len(history)} history snapshot(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
