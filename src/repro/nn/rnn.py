"""Vanilla (Elman, 1990) recurrent network — the paper's main workload.

The paper's Eq. 9::

    h_t = tanh(W_ih x_t + b_ih + W_hh h_{t-1} + b_hh)

The backward recurrence ``∇h_t ℓ ← (∂h_{t+1}/∂h_t)^T ∇h_{t+1} ℓ`` over a
sequence of length ``T`` is exactly the strong sequential dependency
BPPSA parallelizes.  The engines scan the per-step transposed Jacobians
``(∂h_{t}/∂h_{t-1})^T = W_hh^T diag(1 - h_t²)`` (Eq. 5) structured, as
:func:`repro.core.rnn.hidden_jacobian_elements` builds them;
:meth:`RNN.hidden_jacobians_T` materializes them dense.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, ops


class RNNCell(Module):
    """One step of the Elman recurrence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(
            rng.uniform(-bound, bound, size=(hidden_size, input_size))
        )
        self.weight_hh = Parameter(
            rng.uniform(-bound, bound, size=(hidden_size, hidden_size))
        )
        self.bias_ih = Parameter(rng.uniform(-bound, bound, size=(hidden_size,)))
        self.bias_hh = Parameter(rng.uniform(-bound, bound, size=(hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """``x``: (B, input_size); ``h``: (B, hidden_size) → new hidden."""
        pre = x @ self.weight_ih.T + self.bias_ih + h @ self.weight_hh.T + self.bias_hh
        return ops.tanh(pre)


class RNN(Module):
    """Unrolled vanilla RNN over a full sequence.

    ``forward`` returns the final hidden state (what the paper's
    classifier consumes) and keeps the full hidden trajectory available
    via :meth:`last_hidden_states` for Jacobian extraction.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.cell = RNNCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._hidden_trajectory: List[Tensor] = []

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tensor:
        """``x``: (B, T, input_size) → final hidden state (B, hidden)."""
        batch, seq_len, _ = x.shape
        h = (
            h0
            if h0 is not None
            else Tensor(np.zeros((batch, self.hidden_size), dtype=x.data.dtype))
        )
        trajectory: List[Tensor] = []
        for t in range(seq_len):
            h = self.cell(x[:, t, :], h)
            trajectory.append(h)
        self._hidden_trajectory = trajectory
        return h

    def last_hidden_states(self) -> List[Tensor]:
        """Hidden states h_1..h_T from the most recent forward pass."""
        return list(self._hidden_trajectory)

    # ------------------------------------------------------------------
    # BPPSA hooks
    # ------------------------------------------------------------------
    def hidden_jacobians_T(self, hidden_states: np.ndarray) -> np.ndarray:
        """Batched transposed Jacobians ``(∂h_t/∂h_{t-1})^T``.

        Parameters
        ----------
        hidden_states:
            Array (T, B, H) of tanh outputs h_1..h_T.

        Returns
        -------
        C-contiguous array (T, B, H, H) where entry ``[t, b]`` is
        ``W_hh^T @ diag(1 - h_t[b]**2)`` — the per-sample transposed
        Jacobian at position t, bitwise what the scan engines' structured
        :class:`~repro.scan.ScaledShared` elements densify to.
        """
        w_hh_t = self.cell.weight_hh.data.T  # (H, H)
        damp = 1.0 - hidden_states**2  # (T, B, H)
        # (H, H) * (T, B, 1, H) — scale *columns* j of W_hh^T by damp_j.
        return np.multiply(w_hh_t, damp[:, :, None, :], order="C")

    def parameter_gradients_from_hidden_grads(
        self,
        x: np.ndarray,
        hidden_states: np.ndarray,
        hidden_grads: np.ndarray,
        h0: Optional[np.ndarray] = None,
    ) -> dict:
        """Eq. 2: parameter gradients given every ``∇h_t ℓ``.

        All time steps are independent here — the paper's point is that
        once the scan has produced the hidden-state gradients, the
        parameter gradients parallelize trivially.

        Parameters
        ----------
        x: (B, T, input_size) input sequence.
        hidden_states: (T, B, H) hidden trajectory h_1..h_T.
        hidden_grads: (T, B, H) gradients ∇h_t ℓ.
        h0: optional initial hidden state (defaults to zeros).
        """
        t_len, batch, hidden = hidden_states.shape
        if h0 is None:
            h0 = np.zeros((batch, hidden), dtype=hidden_states.dtype)
        prev = np.concatenate([h0[None], hidden_states[:-1]], axis=0)  # (T, B, H)
        # Backprop through the tanh of each step: pre-activation grads.
        pre_grads = hidden_grads * (1.0 - hidden_states**2)  # (T, B, H)
        flat_pre = pre_grads.reshape(-1, hidden)  # (T*B, H)
        grad_w_ih = flat_pre.T @ x.transpose(1, 0, 2).reshape(-1, self.input_size)
        grad_w_hh = flat_pre.T @ prev.reshape(-1, hidden)
        grad_b = flat_pre.sum(axis=0)
        return {
            "weight_ih": grad_w_ih,
            "weight_hh": grad_w_hh,
            "bias_ih": grad_b,
            "bias_hh": grad_b.copy(),
        }


class RNNClassifier(Module):
    """RNN + linear + softmax classifier from the paper's Section 4.1."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        from repro.nn.layers import Linear

        self.rnn = RNN(input_size, hidden_size, rng=rng)
        self.head = Linear(hidden_size, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Return class logits from the final hidden state."""
        h_last = self.rnn(x)
        return self.head(h_last)
