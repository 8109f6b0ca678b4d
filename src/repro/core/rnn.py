"""BPPSA for the vanilla RNN classifier (paper Section 4.1).

The backward pass of an unrolled RNN computes ``∇h_t ℓ`` for
``t = T … 1`` through a chain of ``T`` matrix–vector products — the
longest sequential dependency in the paper's evaluation.  Here that
chain becomes an exclusive scan over

    [∇h_T ℓ, (∂h_T/∂h_{T−1})^T, …, (∂h_1/∂h_0)^T]

with per-sample H×H Jacobians ``W_hh^T · diag(1 − h_t²)`` (Eq. 9
differentiated), after which all parameter gradients follow from Eq. 2
with no dependency along t.  Each Jacobian stays structured
(:class:`~repro.scan.ScaledShared`: the shared ``W_hh`` plus one
H-vector per sample), so no step materializes a T×B×H×H tensor.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backend import ScanExecutor
from repro.config import ScanConfig
from repro.core.engine import EngineCore
from repro.nn.loss import softmax_xent_grad
from repro.nn.layers import Linear
from repro.nn.rnn import RNN, RNNCell, RNNClassifier
from repro.scan import (
    GradientVector,
    ScaledShared,
    blelloch_scan,
    hillis_steele_scan,
    linear_scan,
    truncated_blelloch_scan,
)


def hidden_jacobian_elements(rnn: RNN, hidden: np.ndarray) -> List[ScaledShared]:
    """``(∂h_t/∂h_{t−1})^T = W_hh^T · diag(1 − h_t²)`` for each step of
    ``hidden`` (T, B, H), in time order, as structured scan elements.

    Both RNN engines build their scan arrays here, so their ⊙ operands
    are the same bits.  The elements share one pair table, built once
    per call, that is, per scan.
    """
    w_hh = rnn.cell.weight_hh.data
    pairs = ScaledShared.pair_table(w_hh)
    return [ScaledShared(w_hh, damp, pairs) for damp in 1.0 - hidden**2]


def hidden_states(
    cell: RNNCell, x: np.ndarray, h0: Optional[np.ndarray] = None
) -> np.ndarray:
    """Eq. 9 unrolled: ``h_t = tanh(x_t W_ih^T + h_{t−1} W_hh^T + b)``.

    ``x`` is (B, T, I) and ``h0`` the (B, H) state before its first
    step (zeros when ``None``); returns ``h_1 … h_T`` as (T, B, H).
    Both RNN engines run their forward pass here: :class:`RNNBPPSA`
    over the whole sequence, and each pipeline stage of
    :class:`~repro.pipeline.StagedRNNBPPSA` over its own span from the
    boundary state it is handed.
    """
    batch, seq_len, _ = x.shape
    w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data
    b = cell.bias_ih.data + cell.bias_hh.data
    h = np.zeros((batch, cell.hidden_size)) if h0 is None else h0
    hs = np.empty((seq_len, batch, cell.hidden_size))
    for t in range(seq_len):
        h = np.tanh(x[:, t, :] @ w_ih.T + h @ w_hh.T + b)
        hs[t] = h
    return hs


def head_logits(head: Linear, h: np.ndarray) -> np.ndarray:
    """The classifier head's logits (B, C) from the last hidden state."""
    logits = h @ head.weight.data.T
    if head.bias is not None:
        logits = logits + head.bias.data
    return logits


class RNNBPPSA(EngineCore):
    """Scan-based gradient engine for :class:`~repro.nn.rnn.RNNClassifier`.

    ``config`` names the scan (:class:`~repro.config.ScanConfig`, spec
    string, or mapping — see :func:`repro.build_engine`) and
    ``executor`` is a :class:`~repro.backend.ScanExecutor` instance the
    caller owns, or ``None`` for one built from ``self.config.executor``
    and released by :meth:`close`; both are fixed at construction (see
    :class:`~repro.core.engine.EngineCore`).  Every backend yields
    bitwise-identical gradients.

    The config's sparse mode changes no gradient: the engine builds
    every scan element itself (:func:`hidden_jacobian_elements`), and
    those structured Jacobians never reach a CSR kernel.
    """

    def __init__(
        self,
        model: RNNClassifier,
        config: Union[ScanConfig, str, Mapping, None] = None,
        executor: Optional[ScanExecutor] = None,
    ) -> None:
        super().__init__(config, executor)
        self.model = model

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pure-NumPy forward pass; returns logits and caches h_1..h_T."""
        self._x = np.asarray(x, dtype=np.float64)
        self._hidden = hidden_states(self.model.rnn.cell, self._x)
        return head_logits(self.model.head, self._hidden[-1])

    # ------------------------------------------------------------------
    def compute_gradients(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """BPPSA gradients ``{id(param): grad}`` for one mini-batch."""
        logits = self.forward(x)
        self.last_logits = logits
        grad_logits = softmax_xent_grad(logits, targets)  # (B, C)

        head = self.model.head
        h_last = self._hidden[-1]  # (B, H)
        grads: Dict[int, np.ndarray] = {
            id(head.weight): grad_logits.T @ h_last,
        }
        if head.bias is not None:
            grads[id(head.bias)] = grad_logits.sum(axis=0)

        grad_h_last = grad_logits @ head.weight.data  # ∇h_T ℓ, (B, H)
        hidden_grads = self.scan_hidden_grads(grad_h_last)  # (T, B, H)

        rnn = self.model.rnn
        param = rnn.parameter_gradients_from_hidden_grads(
            self._x, self._hidden, hidden_grads
        )
        cell = rnn.cell
        grads[id(cell.weight_ih)] = param["weight_ih"]
        grads[id(cell.weight_hh)] = param["weight_hh"]
        grads[id(cell.bias_ih)] = param["bias_ih"]
        grads[id(cell.bias_hh)] = param["bias_hh"]
        return grads

    def scan_hidden_grads(self, grad_h_last: np.ndarray) -> np.ndarray:
        """Run the scan; returns ``∇h_t ℓ`` stacked as (T, B, H)."""
        seq_len = self._hidden.shape[0]
        jacs = hidden_jacobian_elements(self.model.rnn, self._hidden)
        # Array order: T_J(h_T), T_J(h_{T−1}), …, T_J(h_1).
        items: List = [GradientVector(grad_h_last), *reversed(jacs)]

        self.context.reset_trace()
        algorithm = self.config.algorithm
        if algorithm == "linear":
            scanned = linear_scan(items, self.context.op)
        elif algorithm == "hillis_steele":
            scanned = hillis_steele_scan(
                items, self.context.op, executor=self.executor
            )
        elif algorithm == "truncated":
            scanned = truncated_blelloch_scan(
                items,
                self.context.op,
                up_levels=self.config.up_levels,
                executor=self.executor,
            )
        else:
            scanned = blelloch_scan(items, self.context.op, executor=self.executor)

        # out[p] = ∇h_{T−p+1} for p = 1..T.
        batch, hidden = grad_h_last.shape
        out = np.empty((seq_len, batch, hidden))
        for p in range(1, seq_len + 1):
            out[seq_len - p] = scanned[p].data
        return out
