"""Layer → transposed-Jacobian dispatch for the BPPSA engine.

Given a layer module and the activations recorded during the forward
pass, produce the stage's transposed Jacobian as the scan element that
holds it — one logical (d_in × d_out) matrix per sample, stored either
as a :class:`~repro.scan.DenseJacobian` or as a
:class:`~repro.scan.SparseJacobian`: a shared CSR pattern with
per-sample data (the deterministic-sparsity representation of
Section 3.3).  Either is ``shared`` when every sample has the same
values.

A batched network stage is block-diagonal across samples, so the scan
runs per-sample mathematically while the implementation vectorizes
across the batch through the shared pattern.
"""

from __future__ import annotations

from typing import Optional, Union

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
from repro.scan.elements import DenseJacobian, SparseJacobian


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
) -> Union[DenseJacobian, SparseJacobian, None]:
    """Transposed Jacobian of ``layer`` given its batched input/output.

    Returns the scan element holding it, or ``None`` for
    identity-Jacobian stages (:class:`Flatten`), which the engine may
    skip entirely.  Raises ``TypeError`` for unsupported layer types so
    silent wrong gradients are impossible.
    """
    if not has_tjac(layer):
        return None

    if isinstance(layer, L.Linear):
        w = layer.weight.data
        if x_in.ndim == 3:
            # Position-wise application on (B, T, d): the flattened
            # stage Jacobian is kron(I_T, W^T) — block-diagonal with
            # guaranteed zeros off-block, density exactly 1/T.
            return SparseJacobian(linear_tjac_positionwise(w, x_in.shape[1]))
        if sparse_linear_tol is not None:
            return SparseJacobian(linear_tjac_csr(w, tol=sparse_linear_tol))
        return DenseJacobian(linear_tjac(w))

    if isinstance(layer, LayerNorm):
        pattern, data = layernorm_tjac_batched(x_in, eps=layer.eps)
        return SparseJacobian(pattern, data)

    if isinstance(layer, SelfAttention):
        return DenseJacobian(attention_tjac_batched(layer, x_in))

    if isinstance(layer, L.Conv2d):
        _, _, hi, wi = x_in.shape
        return SparseJacobian(
            conv2d_tjac(
                layer.weight.data, (hi, wi), stride=layer.stride, padding=layer.padding
            )
        )

    if isinstance(layer, L.ReLU):
        pattern, data = relu_tjac_batched(x_in.reshape(x_in.shape[0], -1))
        return SparseJacobian(pattern, data)

    if isinstance(layer, L.LeakyReLU):
        flat = x_in.reshape(x_in.shape[0], -1)
        pattern, _ = relu_tjac_batched(flat)  # same diagonal pattern
        data = np.where(flat > 0, 1.0, layer.negative_slope)
        return SparseJacobian(pattern, data)

    if isinstance(layer, L.ELU):
        x_flat = x_in.reshape(x_in.shape[0], -1)
        y_flat = x_out.reshape(x_out.shape[0], -1)
        pattern, _ = relu_tjac_batched(x_flat)
        data = np.where(x_flat > 0, 1.0, y_flat + layer.alpha)
        return SparseJacobian(pattern, data)

    if isinstance(layer, L.Tanh):
        pattern, data = tanh_tjac_batched(x_out.reshape(x_out.shape[0], -1))
        return SparseJacobian(pattern, data)

    if isinstance(layer, L.Sigmoid):
        y = x_out.reshape(x_out.shape[0], -1)
        pattern, _ = relu_tjac_batched(y)  # reuse the diagonal pattern
        return SparseJacobian(pattern, y * (1.0 - y))

    if isinstance(layer, L.MaxPool2d):
        pattern, data = maxpool_tjac_batched(
            x_in, layer.kernel_size, layer.stride
        )
        return SparseJacobian(pattern, data)

    if isinstance(layer, L.AvgPool2d):
        _, c, hi, wi = x_in.shape
        return SparseJacobian(avgpool_tjac(c, hi, wi, layer.kernel_size, layer.stride))

    raise _no_generator(layer)
