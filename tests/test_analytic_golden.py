"""Golden rows for the analytic artifacts.

The seven artifacts below compute their numbers from schedules, cost
models and static FLOP analysis, not from timings, so their smoke-scale
``result_rows`` are deterministic.  This module pins them against
``tests/golden/analytic_rows.json``: counts, strings and flags must
match exactly and floats to a relative 1e-12 (the last bits may move
with the NumPy version).  After an intentional change to one of these
numbers, regenerate the file with
``python tests/golden/regen_analytic_rows.py`` and review its diff.
"""

import json
import pathlib

import pytest

from repro.experiments import (
    ablation_truncation,
    eq6_complexity,
    fig4_schedule,
    fig10_sensitivity,
    fig11_flops,
    scaling_comparison,
    table2_devices,
)
from repro.experiments.common import Scale

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "analytic_rows.json"

ARTIFACTS = {
    "table2_devices": table2_devices,
    "fig4_schedule": fig4_schedule,
    "eq6_complexity": eq6_complexity,
    "scaling_comparison": scaling_comparison,
    "fig10_sensitivity": fig10_sensitivity,
    "fig11_flops": fig11_flops,
    "ablation_truncation": ablation_truncation,
}


def analytic_rows(name: str) -> list:
    """The smoke-scale ``result_rows`` of artifact ``name``."""
    module = ARTIFACTS[name]
    return module.result_rows(module.run(Scale.SMOKE))


def _assert_matches(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert got == pytest.approx(want, rel=1e-12), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_rows_match_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    _assert_matches(analytic_rows(name), want, name)
