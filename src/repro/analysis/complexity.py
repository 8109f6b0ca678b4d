"""Runtime-complexity laws (paper Section 3.6, Eqs. 6–7) and their
empirical verification hooks.

``S_Blelloch(n) = Θ(log n)`` when ``p > n``, else ``Θ(n/p + log p)``;
``W_Blelloch(n) = Θ(n)``; the linear scan (≡ BP) has ``S = W = Θ(n)``.
The *measured* counterparts are obtained by scheduling the actual scan
DAG, so tests can check the theory against the implementation rather
than against itself.
"""

from __future__ import annotations

import math

from repro.scan.dag import uniform_dag
from repro.pram.machine import step_count, work_count


def blelloch_step_complexity(n: int, p: int) -> float:
    """Eq. 6's asymptotic form (up to constants): the theory curve."""
    if n <= 0:
        return 0.0
    if p >= n:
        return math.log2(max(n, 2))
    return n / p + math.log2(max(p, 2))


def linear_step_complexity(n: int) -> int:
    """S_linear(n) = Θ(n) — the baseline BP's critical path."""
    return n


def measured_step_complexity(n: int, p: int) -> int:
    """Critical-path steps of the *implemented* scan on ``p`` workers."""
    return step_count(uniform_dag("blelloch", n + 1), p)


def measured_work(n: int) -> int:
    """Total ⊙ applications of the implemented scan."""
    return work_count(uniform_dag("blelloch", n + 1))
