"""Environment fingerprinting — *where* a benchmark number was taken.

Timing results are only comparable within one environment; the
fingerprint travels inside every :class:`~repro.bench.record.BenchRecord`
so :mod:`repro.bench.compare` can warn when two files came from
different machines or library versions.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

import numpy as np

#: Fingerprint keys whose disagreement makes timings incomparable.
COMPARABILITY_KEYS = ("python", "numpy", "machine", "cpu_count")


def environment_fingerprint() -> Dict[str, Any]:
    """One-line description of the measurement environment.

    Captures the interpreter (version + implementation), the NumPy
    version (BLAS dispatch changes between releases), the platform and
    CPU count — everything needed to judge whether two timing records
    are comparable.  Which scan configuration produced a record is the
    record's own ``config``, not part of the environment.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Whether timings fingerprinted by ``a`` and ``b`` can be compared.

    Only the keys in :data:`COMPARABILITY_KEYS` matter; other keys,
    such as the ``scan_backend_env`` / ``scan_sparse_env`` /
    ``scan_config`` that older records carry, are ignored.
    """
    return all(a.get(k) == b.get(k) for k in COMPARABILITY_KEYS)
