"""Layer → transposed-Jacobian dispatch for the BPPSA engine.

Given a layer module and the activations recorded during the forward
pass, produce the stage's transposed Jacobian as a
:class:`BatchedJacobian` — one logical (d_in × d_out) matrix per sample,
stored either densely or as a shared CSR pattern with per-sample data
(the deterministic-sparsity representation of Section 3.3).

A batched network stage is block-diagonal across samples, so the scan
runs per-sample mathematically while the implementation vectorizes
across the batch through the shared pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.jacobian.attention import (
    attention_tjac_batched,
    layernorm_tjac_batched,
    linear_tjac_positionwise,
)
from repro.jacobian.conv import conv2d_tjac
from repro.jacobian.linear import linear_tjac, linear_tjac_csr
from repro.jacobian.pointwise import tanh_tjac_batched, relu_tjac_batched
from repro.jacobian.pool import avgpool_tjac, maxpool_tjac_batched
from repro.nn import layers as L
from repro.nn.attention import LayerNorm, SelfAttention
from repro.sparse import CSRMatrix


@dataclass
class BatchedJacobian:
    """A batch of per-sample transposed Jacobians for one stage.

    Exactly one of the storage forms is used:

    * ``dense`` — array of shape (d_in, d_out) shared across the batch,
      or (B, d_in, d_out) per-sample;
    * ``pattern`` + ``data`` — shared CSR pattern with per-sample values
      (``data`` shape (B, nnz)), or ``data=None`` when the pattern's own
      values are shared by every sample (e.g. convolution, whose
      Jacobian depends only on the filter weights).
    """

    shape: Tuple[int, int]
    dense: Optional[np.ndarray] = None
    pattern: Optional[CSRMatrix] = None
    data: Optional[np.ndarray] = None

    @property
    def is_sparse(self) -> bool:
        return self.pattern is not None

    @property
    def is_shared(self) -> bool:
        """True when all samples share one value array."""
        if self.is_sparse:
            return self.data is None
        return self.dense is not None and self.dense.ndim == 2

    def per_sample_dense(self, batch: int) -> np.ndarray:
        """Materialize (B, d_in, d_out) dense Jacobians (tests/debug)."""
        if self.is_sparse:
            base = self.pattern
            if self.data is None:
                return np.broadcast_to(
                    base.to_dense(), (batch, *self.shape)
                ).copy()
            out = np.zeros((batch, *self.shape))
            rows = base.row_ids()
            out[:, rows, base.indices] = self.data
            return out
        if self.dense.ndim == 2:
            return np.broadcast_to(self.dense, (batch, *self.shape)).copy()
        return self.dense


#: Every layer type :func:`layer_tjac_batched` has a generator for.
_TJAC_LAYER_TYPES = (
    L.Flatten,
    L.Linear,
    LayerNorm,
    SelfAttention,
    L.Conv2d,
    L.ReLU,
    L.LeakyReLU,
    L.ELU,
    L.Tanh,
    L.Sigmoid,
    L.MaxPool2d,
    L.AvgPool2d,
)


def has_tjac(layer) -> bool:
    """Whether :func:`layer_tjac_batched` returns a Jacobian for ``layer``.

    ``False`` for identity-Jacobian stages (:class:`Flatten`); raises
    the same ``TypeError`` for unsupported layer types — all without
    building anything, so an engine that skips a layer's Jacobian still
    rejects a layer it could not differentiate.
    """
    if not isinstance(layer, _TJAC_LAYER_TYPES):
        raise _no_generator(layer)
    return not isinstance(layer, L.Flatten)


def _no_generator(layer) -> TypeError:
    return TypeError(
        f"no transposed-Jacobian generator for layer type {type(layer).__name__}"
    )


def layer_tjac_batched(
    layer,
    x_in: np.ndarray,
    x_out: np.ndarray,
    sparse_linear_tol: Optional[float] = None,
) -> Optional[BatchedJacobian]:
    """Transposed Jacobian of ``layer`` given its batched input/output.

    Returns ``None`` for identity-Jacobian stages (:class:`Flatten`),
    which the engine may skip entirely.  Raises ``TypeError`` for
    unsupported layer types so silent wrong gradients are impossible.
    """
    if not has_tjac(layer):
        return None

    if isinstance(layer, L.Linear):
        w = layer.weight.data
        if x_in.ndim == 3:
            # Position-wise application on (B, T, d): the flattened
            # stage Jacobian is kron(I_T, W^T) — block-diagonal with
            # guaranteed zeros off-block, density exactly 1/T.
            csr = linear_tjac_positionwise(w, x_in.shape[1])
            return BatchedJacobian(shape=csr.shape, pattern=csr)
        if sparse_linear_tol is not None:
            csr = linear_tjac_csr(w, tol=sparse_linear_tol)
            return BatchedJacobian(shape=csr.shape, pattern=csr)
        tj = linear_tjac(w)
        return BatchedJacobian(shape=tj.shape, dense=tj)

    if isinstance(layer, LayerNorm):
        pattern, data = layernorm_tjac_batched(x_in, eps=layer.eps)
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, SelfAttention):
        dense = attention_tjac_batched(layer, x_in)
        return BatchedJacobian(shape=dense.shape[1:], dense=dense)

    if isinstance(layer, L.Conv2d):
        _, _, hi, wi = x_in.shape
        csr = conv2d_tjac(
            layer.weight.data, (hi, wi), stride=layer.stride, padding=layer.padding
        )
        return BatchedJacobian(shape=csr.shape, pattern=csr)

    if isinstance(layer, L.ReLU):
        pattern, data = relu_tjac_batched(x_in.reshape(x_in.shape[0], -1))
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, L.LeakyReLU):
        flat = x_in.reshape(x_in.shape[0], -1)
        pattern, _ = relu_tjac_batched(flat)  # same diagonal pattern
        data = np.where(flat > 0, 1.0, layer.negative_slope)
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, L.ELU):
        x_flat = x_in.reshape(x_in.shape[0], -1)
        y_flat = x_out.reshape(x_out.shape[0], -1)
        pattern, _ = relu_tjac_batched(x_flat)
        data = np.where(x_flat > 0, 1.0, y_flat + layer.alpha)
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, L.Tanh):
        pattern, data = tanh_tjac_batched(x_out.reshape(x_out.shape[0], -1))
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, L.Sigmoid):
        y = x_out.reshape(x_out.shape[0], -1)
        pattern, _ = relu_tjac_batched(y)  # reuse the diagonal pattern
        return BatchedJacobian(
            shape=pattern.shape, pattern=pattern, data=y * (1.0 - y)
        )

    if isinstance(layer, L.MaxPool2d):
        pattern, data = maxpool_tjac_batched(
            x_in, layer.kernel_size, layer.stride
        )
        return BatchedJacobian(shape=pattern.shape, pattern=pattern, data=data)

    if isinstance(layer, L.AvgPool2d):
        _, c, hi, wi = x_in.shape
        csr = avgpool_tjac(c, hi, wi, layer.kernel_size, layer.stride)
        return BatchedJacobian(shape=csr.shape, pattern=csr)

    raise _no_generator(layer)
