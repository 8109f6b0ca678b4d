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

from repro.backend import ENV_VAR
from repro.config import current_config
from repro.scan import SPARSE_ENV_VAR

#: Fingerprint keys whose disagreement makes timings incomparable.
COMPARABILITY_KEYS = ("python", "numpy", "machine", "cpu_count")


def environment_fingerprint() -> Dict[str, Any]:
    """One-line description of the measurement environment.

    Captures the interpreter (version + implementation), the NumPy
    version (BLAS dispatch changes between releases), the platform and
    CPU count, the raw ``REPRO_SCAN_BACKEND`` / ``REPRO_SCAN_SPARSE``
    environment variables, and — under ``scan_config`` — the fully
    resolved ambient :class:`~repro.config.ScanConfig` (what an engine
    built with no explicit arguments would adopt, overlays and env
    vars already folded in) — everything needed to judge whether two
    timing records are comparable and exactly which configuration
    plane produced them.
    """
    try:
        scan_config = current_config().to_dict()
    except (ValueError, TypeError) as exc:
        # A malformed REPRO_SCAN_* value must not take down record
        # writing for artifacts that run no scan; the raw env strings
        # below still identify the culprit, and scan-dependent
        # artifacts fail at their own resolution point as before.
        scan_config = {"error": str(exc)}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "scan_backend_env": os.environ.get(ENV_VAR),
        "scan_sparse_env": os.environ.get(SPARSE_ENV_VAR),
        "scan_config": scan_config,
    }


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Whether timings fingerprinted by ``a`` and ``b`` can be compared.

    Only the keys in :data:`COMPARABILITY_KEYS` matter; a different
    ``scan_backend_env`` does not invalidate a comparison by itself.
    """
    return all(a.get(k) == b.get(k) for k in COMPARABILITY_KEYS)
