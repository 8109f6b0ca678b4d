"""Regenerate the analytic artifacts' golden rows after an intentional change.

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/regen_analytic_rows.py

Reruns every artifact of ``tests/test_analytic_golden.py`` at smoke
scale and writes their ``result_rows`` over
``tests/golden/analytic_rows.json``.  Review the diff before
committing: the golden exists so that a changed schedule, FLOP count
or cost-model number is always a conscious decision.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/ for the artifact table

from test_analytic_golden import ARTIFACTS, GOLDEN, analytic_rows  # noqa: E402


def main() -> None:
    """Rerun the artifacts and rewrite the golden file."""
    rows = {name: analytic_rows(name) for name in sorted(ARTIFACTS)}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
