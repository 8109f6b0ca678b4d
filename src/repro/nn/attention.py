"""Attention-block layers: LayerNorm, single-head SelfAttention, and the
TransformerBlock workload model.

These are the attention workloads: operators whose transposed
Jacobians have *block* structure rather than the diagonal/banded
patterns of the seed models.  LayerNorm's Jacobian is block-diagonal
across sequence positions (each position mixes only within its own
``d_model`` slice); a position-wise Linear applied to a (B, T, d) input
is ``kron(I_T, W^T)`` — density exactly ``1/T``; and softmax attention
mixes every position with every other, producing the one structurally
dense stage in the chain.  Together they exercise the
:class:`~repro.scan.SparsePolicy` crossover regime that the seed
LeNet/VGG/RNN stacks never reach.

Everything is built from the existing :mod:`repro.tensor` autograd
primitives, so ``autograd_tjac`` remains the ground truth the
analytical generators in :mod:`repro.jacobian.attention` are validated
against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module, Parameter, Sequential
from repro.tensor import Tensor, ops


class LayerNorm(Module):
    """Layer normalization over the last axis (non-affine).

    ``y = (x − mean(x)) / sqrt(var(x) + eps)`` per position.  The affine
    gain/bias of the standard formulation is deliberately omitted: the
    normalization itself is the interesting Jacobian (a symmetric
    rank-2 correction of a scaled identity, block-diagonal across
    positions), while a trailing affine would just be another Linear
    stage the engine already supports.
    """

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_dim = normalized_dim
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered**2.0).mean(axis=-1, keepdims=True)
        return centered / ((var + self.eps) ** 0.5)

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_dim}, eps={self.eps})"


class SelfAttention(Module):
    """Single-head scaled dot-product self-attention with residual.

    For a (B, T, d) input ``X``: ``Q = X Wq^T``, ``K = X Wk^T``,
    ``V = X Wv^T``, ``A = softmax_rows(Q K^T / sqrt(d))``, and
    ``Y = X + A V``.  The residual is folded *into* the stage (rather
    than expressed as a skip edge) so the block stays a pure function
    chain the scan engine can consume; the stage Jacobian is then
    ``I + J_attn``.

    Weights follow the :class:`~repro.nn.layers.Linear` convention
    (``W`` of shape (out, in), applied as ``x @ W.T``) so the same
    initializers and pruning machinery apply.
    """

    def __init__(
        self, d_model: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        from repro.nn import init

        self.d_model = d_model
        self.scale = 1.0 / float(np.sqrt(d_model))
        shape = (d_model, d_model)
        self.wq = Parameter(init.kaiming_uniform(shape, rng))
        self.wk = Parameter(init.kaiming_uniform(shape, rng))
        self.wv = Parameter(init.kaiming_uniform(shape, rng))

    def forward(self, x: Tensor) -> Tensor:
        q = x @ self.wq.T
        k = x @ self.wk.T
        v = x @ self.wv.T
        scores = (q @ k.transpose(0, 2, 1)) * self.scale
        attn = ops.softmax(scores, axis=-1)
        return x + attn @ v

    def attention_arrays(self, x_in: np.ndarray) -> dict:
        """Recompute the forward's intermediates from a recorded input.

        Mirrors :meth:`forward` exactly (including the max-shifted
        softmax of :class:`repro.tensor.ops.Softmax`) on raw arrays, so
        the analytical Jacobian generator and the Eq. 2 parameter-grad
        contraction see the same values the taped forward produced.
        """
        x = np.asarray(x_in, dtype=np.float64)
        q = x @ self.wq.data.T
        k = x @ self.wk.data.T
        v = x @ self.wv.data.T
        scores = (q @ np.swapaxes(k, -1, -2)) * self.scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        return {"q": q, "k": k, "v": v, "attn": attn, "av": attn @ v}

    def __repr__(self) -> str:
        return f"SelfAttention(d_model={self.d_model})"


class TransformerBlock(Sequential):
    """One pre-built transformer block as a scan-ready layer chain.

    ``SelfAttention → LayerNorm → Linear(d, d_ff) → ReLU →
    Linear(d_ff, d) → LayerNorm`` — the post-LN single-head variant,
    with the attention residual inside the attention stage.  (The MLP
    residual of the textbook block is omitted: a skip edge across
    stages would break the function-chain factorization Eq. 5 scans;
    the attention stage keeps its residual because it is internal to
    one stage.)

    Subclassing :class:`~repro.nn.module.Sequential` means
    :func:`repro.build_engine` dispatches it to
    :class:`~repro.core.FeedforwardBPPSA` unchanged.
    """

    def __init__(
        self,
        seq_len: int,
        d_model: int,
        d_ff: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        d_ff = d_ff if d_ff is not None else 2 * d_model
        super().__init__(
            SelfAttention(d_model, rng=rng),
            LayerNorm(d_model),
            Linear(d_model, d_ff, rng=rng),
            ReLU(),
            Linear(d_ff, d_model, rng=rng),
            LayerNorm(d_model),
        )
        self.seq_len = seq_len
        self.d_model = d_model
        self.d_ff = d_ff

    def __repr__(self) -> str:
        return (
            f"TransformerBlock(T={self.seq_len}, d={self.d_model}, "
            f"d_ff={self.d_ff})"
        )


def make_transformer_classifier(
    seq_len: int,
    d_model: int,
    n_classes: int,
    d_ff: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """A transformer block with a flatten + linear classification head.

    Returns a flat :class:`~repro.nn.module.Sequential` (block stages
    spliced inline, not nested) so every stage is visible to the
    engine's layer walk, ending in (B, n_classes) logits for the
    engine's softmax-cross-entropy seed.
    """
    from repro.nn.layers import Flatten

    rng = rng if rng is not None else np.random.default_rng()
    block = TransformerBlock(seq_len, d_model, d_ff=d_ff, rng=rng)
    head = Linear(seq_len * d_model, n_classes, rng=rng)
    return Sequential(*(list(block) + [Flatten(), head]))
