"""Density-threshold dispatch between dense and CSR/SpGEMM composition.

The paper's speed argument rests on exploiting Jacobian sparsity, but
sparse storage is only a win while operands stay sparse: products lose
sparsity as the Blelloch up-sweep composes longer and longer layer
ranges (Section 5.2).  :class:`SparsePolicy` is the single decision
point for *when the scan computes in CSR and when it densifies*:

* at **assembly time** an engine asks :meth:`SparsePolicy.element`
  whether a stage's transposed Jacobian enters the scan as a
  :class:`~repro.scan.elements.SparseJacobian` or is materialized
  dense;
* at **composition time** :class:`~repro.scan.elements.ScanContext`
  asks :meth:`SparsePolicy.keep_product_sparse` whether an SpGEMM
  product stays CSR or converts to dense storage for the levels above.

Modes (``REPRO_SCAN_SPARSE`` environment variable, or the ``sparse=``
argument accepted by the scan context, both BPPSA engines, the
trainer, and the fig7/fig9/fig11 entry points):

``auto`` (default)
    Keep CSR while density ≤ ``densify_threshold`` (override with
    ``REPRO_SCAN_SPARSE_THRESHOLD``), densify above it.
``on``
    Always compose in CSR; never densify.  (Equivalent to ``auto``
    with ``densify_threshold=None``.)
``off``
    Pure dense path: every sparse element is densified before it is
    combined.  This is the reference the sparse path is validated
    against.

Spec strings accept an optional threshold suffix, mirroring the
backend registry's ``"thread:8"`` grammar: ``"auto:0.4"`` keeps CSR up
to 40 % density.

For any *fixed* policy, gradients are bitwise-identical across all
execution backends (serial / thread) — the policy decides
*what* each ⊙ computes, the backend only decides *where*, and every
backend runs the same kernels in the same per-op association order.
Dense-mode and sparse-mode gradients agree up to floating-point
reassociation (the same caveat the paper states for BPPSA vs. BP,
Section 3.5): CSR kernels sum each output entry's contributions in
column order, while BLAS may re-associate the equivalent dense sums.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

#: Environment variable naming the default sparse mode (spec grammar).
SPARSE_ENV_VAR = "REPRO_SCAN_SPARSE"

#: Environment variable overriding the default densify threshold.
THRESHOLD_ENV_VAR = "REPRO_SCAN_SPARSE_THRESHOLD"

#: Recognized dispatch modes.
SPARSE_MODES = ("auto", "on", "off")

#: Default density above which ``auto`` mode densifies a product.
DEFAULT_DENSIFY_THRESHOLD = 0.25


def _env_threshold() -> float:
    """``$REPRO_SCAN_SPARSE_THRESHOLD`` or the default."""
    raw = os.environ.get(THRESHOLD_ENV_VAR)
    if raw is None or raw == "":
        return DEFAULT_DENSIFY_THRESHOLD
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"invalid {THRESHOLD_ENV_VAR} value {raw!r} (expected a float)"
        ) from None


@dataclass(frozen=True)
class SparsePolicy:
    """The dense-vs-sparse dispatch decisions for one scan context.

    Parameters
    ----------
    mode:
        ``"auto"``, ``"on"``, or ``"off"`` (see module docstring).
    densify_threshold:
        Density bound used by ``auto`` mode: CSR is kept while
        ``density <= densify_threshold``.  ``None`` disables
        densification (making ``auto`` behave like ``on``).  Ignored
        by ``on`` and ``off``.
    """

    mode: str = "auto"
    densify_threshold: Optional[float] = DEFAULT_DENSIFY_THRESHOLD

    def __post_init__(self) -> None:
        if self.mode not in SPARSE_MODES:
            raise ValueError(
                f"sparse mode must be one of {SPARSE_MODES}, got {self.mode!r}"
            )
        t = self.densify_threshold
        if t is not None and not 0.0 <= float(t) <= 1.0:
            raise ValueError(f"densify_threshold must be in [0, 1], got {t!r}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "SparsePolicy":
        """Parse a ``"mode"`` or ``"mode:threshold"`` spec string."""
        mode, sep, threshold = spec.partition(":")
        if not sep:
            return cls(mode=mode, densify_threshold=_env_threshold())
        try:
            value = float(threshold)
        except ValueError:
            raise ValueError(
                f"invalid densify threshold {threshold!r} in sparse spec {spec!r}"
            ) from None
        return cls(mode=mode, densify_threshold=value)

    @classmethod
    def from_env(cls) -> "SparsePolicy":
        """The ambient policy: ``repro.configure()`` overrides, then
        ``$REPRO_SCAN_SPARSE`` / ``$REPRO_SCAN_SPARSE_THRESHOLD``, then
        ``auto`` at the default threshold.

        Resolution is delegated to :meth:`repro.config.ScanConfig.resolve`,
        the single resolution point of the configuration plane.
        """
        # Lazy import: repro.config imports this module at load time.
        from repro.config import ScanConfig

        return ScanConfig().resolve().sparse_policy()

    @classmethod
    def resolve(cls, spec: Union["SparsePolicy", str, None]) -> "SparsePolicy":
        """Resolve a ``sparse=`` argument to a concrete policy.

        * a :class:`SparsePolicy` → returned unchanged;
        * a spec string (``"auto"``, ``"on"``, ``"off"``, ``"auto:0.4"``)
          → parsed;
        * ``None`` → the ambient policy (:meth:`from_env`).
        """
        if isinstance(spec, SparsePolicy):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        if spec is None:
            return cls.from_env()
        raise TypeError(
            f"sparse spec must be a SparsePolicy, string, or None; "
            f"got {type(spec).__name__}"
        )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def keep_element_sparse(self, density: float) -> bool:
        """Whether a scan *input* of the given density enters as CSR."""
        return self._keep(density)

    def keep_product_sparse(self, density: float) -> bool:
        """Whether an SpGEMM *product* of the given density stays CSR."""
        return self._keep(density)

    def _keep(self, density: float) -> bool:
        if self.mode == "off":
            return False
        if self.mode == "on":
            return True
        return self.densify_threshold is None or density <= self.densify_threshold

    def element(self, el):
        """Apply the assembly-time decision to one scan element.

        :class:`~repro.scan.elements.SparseJacobian` inputs above the
        dispatch boundary are materialized dense; everything else
        passes through unchanged.
        """
        from repro.scan.elements import SparseJacobian  # circular-safe

        if isinstance(el, SparseJacobian) and not self.keep_element_sparse(
            el.pattern.density
        ):
            return el.to_dense()
        return el

    def __str__(self) -> str:
        if self.mode == "auto" and self.densify_threshold is not None:
            return f"auto:{self.densify_threshold:g}"
        return self.mode
