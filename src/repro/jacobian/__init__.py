"""Analytical transposed-Jacobian generators (paper Sections 3.3–3.4).

For each forward operator the paper's method needs the *transposed*
Jacobian ``(∂x_{i+1}/∂x_i)^T`` — shape ``(dim_in, dim_out)`` — generated
directly in CSR rather than column-by-column through autograd.  This
package provides:

* exact generators for convolution (any kernel/stride/padding), ReLU,
  tanh/sigmoid (diagonal), max-pool, avg-pool, and linear layers; the
  one conv generator, :func:`conv2d_tjac`, stores only the entries of
  nonzero filter taps, so a pruned filter yields a pruned Jacobian
  (Section 4.2);
* :func:`conv3x3p1_tjac_paper` — a faithful implementation of the
  paper's Algorithms 2–4 (3×3 convolution, padding 1) including its
  structural-zero border layout;
* the *slow baseline* of Table 1: building the Jacobian one column at a
  time through the autodiff tape (:func:`autograd_tjac`);
* sparsity formulas for Table 1 (:mod:`repro.jacobian.sparsity`);
* a layer → Jacobian dispatch used by the BPPSA engine.

Index convention: a single-sample activation of shape (C, H, W) is
flattened in C order, ``flat = c·H·W + y·W + x``.
"""

from repro.jacobian.conv import conv2d_tjac, conv3x3p1_tjac_paper
from repro.jacobian.pointwise import (
    relu_tjac,
    relu_tjac_batched,
    sigmoid_tjac,
    tanh_tjac,
    tanh_tjac_batched,
)
from repro.jacobian.pool import (
    avgpool_tjac,
    maxpool_tjac,
    maxpool_tjac_batched,
)
from repro.jacobian.attention import (
    attention_tjac_batched,
    layernorm_tjac_batched,
    linear_tjac_positionwise,
    softmax_jac,
)
from repro.jacobian.linear import linear_tjac, linear_tjac_csr
from repro.jacobian.autograd_gen import autograd_tjac
from repro.jacobian.dispatch import layer_tjac_batched
from repro.jacobian.sparsity import (
    conv_guaranteed_sparsity,
    maxpool_guaranteed_sparsity,
    relu_guaranteed_sparsity,
)

__all__ = [
    "conv2d_tjac",
    "conv3x3p1_tjac_paper",
    "relu_tjac",
    "relu_tjac_batched",
    "tanh_tjac",
    "tanh_tjac_batched",
    "sigmoid_tjac",
    "maxpool_tjac",
    "maxpool_tjac_batched",
    "avgpool_tjac",
    "linear_tjac",
    "linear_tjac_csr",
    "linear_tjac_positionwise",
    "attention_tjac_batched",
    "layernorm_tjac_batched",
    "softmax_jac",
    "autograd_tjac",
    "layer_tjac_batched",
    "conv_guaranteed_sparsity",
    "maxpool_guaranteed_sparsity",
    "relu_guaranteed_sparsity",
]
