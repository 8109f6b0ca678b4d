"""Density dispatch between dense and CSR/SpGEMM composition.

The paper's speed argument rests on exploiting Jacobian sparsity, but
sparse storage is only a win while operands stay sparse: products lose
sparsity as the Blelloch up-sweep composes longer and longer layer
ranges (Section 5.2).  :class:`SparsePolicy` is the single decision
point for *when the scan computes in CSR and when it densifies*, and
:meth:`SparsePolicy.keep_sparse` makes that decision twice:

* at **assembly time** an engine asks :meth:`SparsePolicy.element`
  whether a stage's transposed Jacobian enters the scan as a
  :class:`~repro.scan.elements.SparseJacobian` or is materialized
  dense;
* at **composition time** the ``mm.spgemm`` rule of
  :data:`~repro.scan.elements.RULES` asks whether its product stays
  CSR or converts to dense storage for the levels above.

:class:`~repro.analysis.StaticScanAnalyzer` decides both alike.  Modes
(the ``sparse=`` argument of the scan context, the feedforward engine
and the analyzer, or a config's ``sparse`` field):

``auto`` (default)
    Keep CSR while density ≤ :attr:`SparsePolicy.AUTO_CUTOFF` (0.25),
    densify above it.  The cutoff is a constant, not a knob: a
    calibrated cost rule is to replace it (ROADMAP.md, item 3).
``on``
    Always compose in CSR; never densify.
``off``
    Pure dense path: every sparse element is densified before it is
    combined.  This is the reference the sparse path is validated
    against.

For any *fixed* mode, gradients are bitwise-identical across all
execution backends (serial / thread) — the policy decides
*what* each ⊙ computes, the backend only decides *where*, and every
backend runs the same kernels in the same per-op association order.
Dense-mode and sparse-mode gradients agree up to floating-point
reassociation (the same caveat the paper states for BPPSA vs. BP,
Section 3.5): CSR kernels sum each output entry's contributions in
column order, while BLAS may re-associate the equivalent dense sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

#: Recognized dispatch modes.
SPARSE_MODES = ("auto", "on", "off")


@dataclass(frozen=True)
class SparsePolicy:
    """The dense-vs-sparse dispatch decisions for one scan context.

    ``mode`` is ``"auto"``, ``"on"`` or ``"off"`` (see the module
    docstring).
    """

    mode: str = "auto"

    #: Density up to which ``auto`` keeps an operand in CSR.
    AUTO_CUTOFF: ClassVar[float] = 0.25

    def __post_init__(self) -> None:
        if self.mode not in SPARSE_MODES:
            raise ValueError(
                f"sparse mode must be one of {SPARSE_MODES}, got {self.mode!r}"
            )

    @classmethod
    def resolve(cls, spec: Union["SparsePolicy", str, None]) -> "SparsePolicy":
        """Resolve a ``sparse=`` argument to a concrete policy.

        * a :class:`SparsePolicy` → returned unchanged;
        * a mode string (``"auto"``, ``"on"``, ``"off"``) → that mode;
        * ``None`` → ``auto``, the default mode.
        """
        if isinstance(spec, SparsePolicy):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if spec is None:
            return cls()
        raise TypeError(
            f"sparse spec must be a SparsePolicy, string, or None; "
            f"got {type(spec).__name__}"
        )

    def keep_sparse(self, density: float) -> bool:
        """Whether an operand of the given density is stored CSR: a
        scan input at assembly, an SpGEMM product at composition."""
        if self.mode == "auto":
            return density <= self.AUTO_CUTOFF
        return self.mode == "on"

    def element(self, el):
        """Apply the assembly-time decision to one scan element.

        :class:`~repro.scan.elements.SparseJacobian` inputs above the
        dispatch boundary are materialized dense; everything else
        passes through unchanged.
        """
        from repro.scan.elements import CSR  # circular-safe

        if el.kind == CSR and not self.keep_sparse(el.pattern.density):
            return el.to_dense()
        return el

    def __str__(self) -> str:
        return self.mode
