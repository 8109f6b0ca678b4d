"""Magnitude-based weight pruning (See et al., 2016).

``magnitude_prune`` zeroes the smallest-|w| fraction of weights, either
globally across all prunable tensors (the paper's setting: "pruning
away 97 % of the weights in all convolution and linear operators") or
per layer.  Masks are persistent: re-apply after every optimizer step
during retraining so pruned weights stay zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Literal

import numpy as np

from repro.nn import layers as L
from repro.nn.module import Module, Parameter


@dataclass
class MaskSet:
    """Binary keep-masks keyed by the parameters they mask.

    Keys are the :class:`Parameter` objects themselves (hashed by
    identity), not their ``id``: holding the reference keeps a masked
    parameter alive, so a later model's parameters can never reuse its
    id and be matched by mistake.
    """

    masks: Dict[Parameter, np.ndarray] = field(default_factory=dict)

    def sparsity(self) -> float:
        total = sum(m.size for m in self.masks.values())
        kept = sum(int(m.sum()) for m in self.masks.values())
        return 1.0 - kept / total if total else 0.0

    def reapply(self, model: Module) -> None:
        """Re-zero pruned weights in place.

        Call after every optimizer step during retraining: the step
        updates *all* weights (gradients at pruned positions are
        generally nonzero), so without re-application the mask silently
        erodes.  Equivalent to :func:`apply_masks` but lives on the
        mask set so retrain loops cannot pair a model with the wrong
        masks.
        """
        apply_masks(model, self)

    def assert_applied(self, model: Module) -> None:
        """Raise ``AssertionError`` if any masked weight is nonzero.

        The persistence check for retrain loops: after
        ``opt.step(); masks.reapply(model)`` this must always pass —
        the ``pruned_sparsity`` workload asserts it every step so a
        drifting mask fails loudly instead of quietly densifying the
        Jacobians it is supposed to keep sparse.
        """
        for p in model.parameters():
            mask = self.masks.get(p)
            if mask is None:
                continue
            leaked = (p.data != 0.0) & (mask == 0.0)
            if leaked.any():
                raise AssertionError(
                    f"{int(leaked.sum())} pruned weight(s) are nonzero; "
                    "call MaskSet.reapply(model) after each optimizer step"
                )

    def __len__(self) -> int:
        return len(self.masks)


def _prunable_weights(model: Module) -> List[Parameter]:
    """Weights of all Conv2d and Linear layers (biases are kept)."""
    out: List[Parameter] = []
    for module in model.modules():
        if isinstance(module, (L.Conv2d, L.Linear)):
            out.append(module.weight)
    return out


def magnitude_prune(
    model: Module,
    fraction: float,
    scope: Literal["global", "layer"] = "global",
) -> MaskSet:
    """Prune the smallest-magnitude ``fraction`` of prunable weights.

    Returns the mask set *and* applies it to the model in place.

    Global pruning of an untrained model ranks weights by their
    initialization scale, so it can empty a whole layer; every layer
    below an emptied one then gets an identically zero gradient.  One
    ``RuntimeWarning`` names the emptied weights' shapes; the masks are
    returned unchanged.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    weights = _prunable_weights(model)
    if not weights:
        raise ValueError("model has no prunable Conv2d/Linear weights")
    mask_set = MaskSet()

    if scope == "global":
        flat = np.concatenate([np.abs(w.data).reshape(-1) for w in weights])
        k = int(fraction * flat.size)
        threshold = np.partition(flat, k)[k] if k > 0 else -np.inf
        for w in weights:
            mask_set.masks[w] = (np.abs(w.data) >= threshold).astype(np.float64)
    elif scope == "layer":
        for w in weights:
            flat = np.abs(w.data).reshape(-1)
            k = int(fraction * flat.size)
            threshold = np.partition(flat, k)[k] if k > 0 else -np.inf
            mask_set.masks[w] = (np.abs(w.data) >= threshold).astype(np.float64)
    else:
        raise ValueError(f"unknown scope {scope!r}")

    apply_masks(model, mask_set)
    emptied = [w.data.shape for w, m in mask_set.masks.items() if not m.any()]
    if emptied:
        warnings.warn(
            f"magnitude_prune({fraction}, scope={scope!r}) kept no weight of "
            f"shape(s) {emptied}: every layer before them gets a zero gradient",
            RuntimeWarning,
            stacklevel=2,
        )
    return mask_set


def apply_masks(model: Module, mask_set: MaskSet) -> None:
    """Zero out pruned weights (call after every retraining step)."""
    for p in model.parameters():
        mask = mask_set.masks.get(p)
        if mask is not None:
            p.data = p.data * mask


def model_sparsity(model: Module) -> float:
    """Fraction of exactly-zero entries among prunable weights."""
    weights = _prunable_weights(model)
    total = sum(w.data.size for w in weights)
    zeros = sum(int((w.data == 0).sum()) for w in weights)
    return zeros / total if total else 0.0
