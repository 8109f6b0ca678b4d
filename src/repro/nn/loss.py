"""Loss functions (cross-entropy, as in both paper benchmarks)."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, ops
from repro.nn.module import Module


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets``.

    ``log_probs``: (B, C) log-probabilities; ``targets``: (B,) ints.
    """
    targets = np.asarray(targets)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


class CrossEntropyLoss(Module):
    """Softmax cross-entropy on raw logits (log-softmax + NLL)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return nll_loss(ops.log_softmax(logits, axis=-1), targets)


def softmax_xent_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Closed-form ∂(mean CE)/∂logits = (softmax - onehot) / B.

    Used by the BPPSA engine to seed the scan with ``∇x_n ℓ`` without
    running the taped backward pass.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    grad = probs.copy()
    grad[np.arange(batch), np.asarray(targets)] -= 1.0
    return grad / batch
