"""The BENCHMARKS.md artifact table, rendered from the bench runner.

:data:`repro.bench.runner.ARTIFACTS` states every artifact once: its
name, the part of the paper it reproduces, a one-line summary and the
axes it is swept on.  The dashboard index (:mod:`repro.dashboard.pages`)
and this table both render from it.  The committed BENCHMARKS.md embeds
:func:`markdown_table` between the ``artifact-table`` markers;
``python -m repro.dashboard.catalog`` prints it, and
``tests/test_dashboard.py`` asserts the committed file matches it byte
for byte.
"""

from __future__ import annotations

from repro.bench.runner import ARTIFACTS


def markdown_table() -> str:
    """The BENCHMARKS.md artifact table, one row per bench artifact."""
    lines = [
        "| artifact | paper anchor | measures | swept axes |",
        "| --- | --- | --- | --- |",
    ]
    for artifact in ARTIFACTS:
        lines.append(
            f"| `{artifact.name}` | {artifact.paper} | {artifact.summary} "
            f"| {artifact.axes} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(markdown_table())
