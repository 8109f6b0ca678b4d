"""Differentiable primitive operations.

Each primitive is a :class:`~repro.tensor.function.Function` subclass
plus a thin functional wrapper.  Shapes follow NumPy/PyTorch
conventions; convolution and pooling use NCHW layout and are implemented
with vectorized ``im2col``/``col2im`` (no Python loops over pixels), per
the project's performance guide.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.tensor.function import Context, Function, unbroadcast

Axis = Union[None, int, Tuple[int, ...]]


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------
class Add(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.shapes = (a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        sa, sb = ctx.shapes
        return unbroadcast(g, sa), unbroadcast(g, sb)


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.shapes = (a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        sa, sb = ctx.shapes
        return unbroadcast(g, sa), unbroadcast(-g, sb)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        a, b = ctx.saved_tensors
        return unbroadcast(g * b, a.shape), unbroadcast(g * a, b.shape)


class Div(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        a, b = ctx.saved_tensors
        return unbroadcast(g / b, a.shape), unbroadcast(-g * a / (b * b), b.shape)


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return -a

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        return (-g,)


class Power(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, exponent: float = 2.0) -> np.ndarray:
        ctx.save_for_backward(a)
        ctx.exponent = exponent
        return a**exponent

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (a,) = ctx.saved_tensors
        p = ctx.exponent
        return (g * p * a ** (p - 1),)


# ---------------------------------------------------------------------------
# transcendental / nonlinearities
# ---------------------------------------------------------------------------
class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (out,) = ctx.saved_tensors
        return (g * out,)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (a,) = ctx.saved_tensors
        return (g / a,)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (out,) = ctx.saved_tensors
        return (g * (1.0 - out * out),)


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (out,) = ctx.saved_tensors
        return (g * out * (1.0 - out),)


class ReLU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (mask,) = ctx.saved_tensors
        return (g * mask,)


class LeakyReLU(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, negative_slope: float = 0.01
    ) -> np.ndarray:
        scale = np.where(a > 0, 1.0, negative_slope)
        ctx.save_for_backward(scale)
        return a * scale

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (scale,) = ctx.saved_tensors
        return (g * scale,)


class ELU(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        neg = alpha * (np.exp(np.minimum(a, 0.0)) - 1.0)
        out = np.where(a > 0, a, neg)
        # derivative: 1 for a>0, out+alpha (= alpha·e^a) otherwise
        ctx.save_for_backward(np.where(a > 0, 1.0, neg + alpha))
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (scale,) = ctx.saved_tensors
        return (g * scale,)


# ---------------------------------------------------------------------------
# reductions & shape manipulation
# ---------------------------------------------------------------------------
class Sum(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False
    ) -> np.ndarray:
        ctx.in_shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        g = _expand_reduced(g, ctx.in_shape, ctx.axis, ctx.keepdims)
        return (np.broadcast_to(g, ctx.in_shape).copy(),)


class Mean(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False
    ) -> np.ndarray:
        ctx.in_shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        out = a.mean(axis=axis, keepdims=keepdims)
        ctx.count = a.size / max(out.size, 1)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        g = _expand_reduced(g, ctx.in_shape, ctx.axis, ctx.keepdims)
        return (np.broadcast_to(g, ctx.in_shape) / ctx.count,)


class Max(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False
    ) -> np.ndarray:
        out = a.max(axis=axis, keepdims=True)
        mask = a == out
        # Split gradient evenly among ties for a well-defined subgradient.
        ctx.save_for_backward(mask, mask.sum(axis=axis, keepdims=True))
        ctx.axis = axis
        ctx.keepdims = keepdims
        ctx.in_shape = a.shape
        if keepdims:
            return out
        if axis is not None:
            return np.squeeze(out, axis=axis)
        return out.reshape(())

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        mask, counts = ctx.saved_tensors
        g = _expand_reduced(g, ctx.in_shape, ctx.axis, ctx.keepdims)
        return (mask * (g / counts),)


class Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: Tuple[int, ...] = ()) -> np.ndarray:
        ctx.in_shape = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        return (g.reshape(ctx.in_shape),)


class Transpose(Function):
    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axes: Optional[Tuple[int, ...]] = None
    ) -> np.ndarray:
        ctx.axes = axes
        return np.transpose(a, axes)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        if ctx.axes is None:
            return (np.transpose(g),)
        inverse = np.argsort(ctx.axes)
        return (np.transpose(g, inverse),)


class GetItem(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, idx=None) -> np.ndarray:
        ctx.in_shape = a.shape
        ctx.idx = idx
        return a[idx]

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        out = np.zeros(ctx.in_shape, dtype=g.dtype)
        np.add.at(out, ctx.idx, g)
        return (out,)


class Concatenate(Function):
    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        ctx.axis = axis
        ctx.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        splits = np.cumsum(ctx.sizes)[:-1]
        return tuple(np.split(g, splits, axis=ctx.axis))


class Stack(Function):
    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        ctx.axis = axis
        return np.stack(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        parts = np.split(g, g.shape[ctx.axis], axis=ctx.axis)
        return tuple(np.squeeze(p, axis=ctx.axis) for p in parts)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------
class MatMul(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        a, b = ctx.saved_tensors
        if a.ndim == 1 and b.ndim == 1:  # inner product
            return g * b, g * a
        if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
            return g @ b.T, np.outer(a, g)
        if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
            return np.outer(g, b), a.T @ g
        ga = g @ np.swapaxes(b, -1, -2)
        gb = np.swapaxes(a, -1, -2) @ g
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)


# ---------------------------------------------------------------------------
# im2col-based convolution and pooling (NCHW)
# ---------------------------------------------------------------------------
def im2col_indices(
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays mapping padded input pixels to column-matrix entries."""
    _, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(ho), wo)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(wo), ho)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, ho, wo


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """(N, C, H, W) → (C*kh*kw, N*Ho*Wo) column matrix."""
    n = x.shape[0]
    k, i, j, ho, wo = im2col_indices(x.shape, kh, kw, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    cols = x[:, k, i, j]  # (N, C*kh*kw, Ho*Wo)
    return cols.transpose(1, 2, 0).reshape(cols.shape[1], ho * wo * n)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add back to image layout)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    k, i, j, ho, wo = im2col_indices(x_shape, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(c * kh * kw, ho * wo, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


class Conv2d(Function):
    """2-D cross-correlation (the deep-learning "convolution"), NCHW.

    ``input_grad=False`` (PyTorch's ``needs_input_grad``) skips the
    input gradient — its ``col2im`` scatter — in ``backward``, which
    then returns ``None`` for ``x``; :func:`conv2d` sets it from
    ``x.requires_grad``, so a first layer reading data pays nothing
    for it.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        input_grad: bool = True,
    ) -> np.ndarray:
        n, c, h, w = x.shape
        co, ci, kh, kw = weight.shape
        if ci != c:
            raise ValueError(f"channel mismatch: input {c} vs weight {ci}")
        cols = im2col(x, kh, kw, stride, padding)  # (C*kh*kw, N*Ho*Wo)
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (w + 2 * padding - kw) // stride + 1
        out = weight.reshape(co, -1) @ cols  # (co, N*Ho*Wo)
        out = out.reshape(co, ho, wo, n).transpose(3, 0, 1, 2)
        if bias is not None:
            out = out + bias.reshape(1, co, 1, 1)
        ctx.save_for_backward(cols, weight)
        ctx.x_shape = x.shape
        ctx.conf = (stride, padding, bias is not None, input_grad)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        cols, weight = ctx.saved_tensors
        stride, padding, has_bias, input_grad = ctx.conf
        co, ci, kh, kw = weight.shape
        g_mat = g.transpose(1, 2, 3, 0).reshape(co, -1)  # (co, Ho*Wo*N)
        grad_w = (g_mat @ cols.T).reshape(weight.shape)
        grad_x = None
        if input_grad:
            grad_cols = weight.reshape(co, -1).T @ g_mat
            grad_x = col2im(grad_cols, ctx.x_shape, kh, kw, stride, padding)
        grad_b = g.sum(axis=(0, 2, 3)) if has_bias else None
        return grad_x, grad_w, grad_b


class MaxPool2d(Function):
    """Max pooling, NCHW, kernel == window, configurable stride."""

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        kernel_size: int = 2,
        stride: Optional[int] = None,
    ) -> np.ndarray:
        stride = stride if stride is not None else kernel_size
        n, c, h, w = x.shape
        kh = kw = kernel_size
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        # View each (N, C) plane as columns of pooling windows.
        x_reshaped = x.reshape(n * c, 1, h, w)
        cols = im2col(x_reshaped, kh, kw, stride, 0)  # (kh*kw, N*C*Ho*Wo)
        argmax = np.argmax(cols, axis=0)
        out = cols[argmax, np.arange(cols.shape[1])]
        out = out.reshape(ho, wo, n * c).transpose(2, 0, 1).reshape(n, c, ho, wo)
        ctx.argmax = argmax
        ctx.cols_shape = cols.shape
        ctx.x_shape = x.shape
        ctx.conf = (kernel_size, stride)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        kernel_size, stride = ctx.conf
        n, c, h, w = ctx.x_shape
        grad_cols = np.zeros(ctx.cols_shape, dtype=g.dtype)
        g_flat = g.reshape(n * c, -1).reshape(n * c, g.shape[2] * g.shape[3])
        # Column order produced in forward: (Ho*Wo, N*C) flattened as
        # reshape(ho, wo, n*c); invert that ordering.
        g_cols = g.reshape(n, c, -1).reshape(n * c, -1).T.reshape(-1)
        grad_cols[ctx.argmax, np.arange(grad_cols.shape[1])] = g_cols
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), kernel_size, kernel_size, stride, 0
        )
        del g_flat
        return (grad_x.reshape(n, c, h, w),)


class AvgPool2d(Function):
    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        kernel_size: int = 2,
        stride: Optional[int] = None,
    ) -> np.ndarray:
        stride = stride if stride is not None else kernel_size
        n, c, h, w = x.shape
        kh = kw = kernel_size
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        x_reshaped = x.reshape(n * c, 1, h, w)
        cols = im2col(x_reshaped, kh, kw, stride, 0)
        out = cols.mean(axis=0)
        out = out.reshape(ho, wo, n * c).transpose(2, 0, 1).reshape(n, c, ho, wo)
        ctx.cols_shape = cols.shape
        ctx.x_shape = x.shape
        ctx.conf = (kernel_size, stride)
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        kernel_size, stride = ctx.conf
        n, c, h, w = ctx.x_shape
        g_cols = g.reshape(n, c, -1).reshape(n * c, -1).T.reshape(-1)
        grad_cols = np.broadcast_to(
            g_cols / (kernel_size * kernel_size), ctx.cols_shape
        ).copy()
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), kernel_size, kernel_size, stride, 0
        )
        return (grad_x.reshape(n, c, h, w),)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------
class LogSoftmax(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logsumexp
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (out,) = ctx.saved_tensors
        softmax = np.exp(out)
        return (g - softmax * g.sum(axis=ctx.axis, keepdims=True),)


class Softmax(Function):
    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, g: np.ndarray):
        (out,) = ctx.saved_tensors
        dot = (g * out).sum(axis=ctx.axis, keepdims=True)
        return (out * (g - dot),)


# ---------------------------------------------------------------------------
# functional wrappers
# ---------------------------------------------------------------------------
# wrapper table reads best one per line
# fmt: off
def add(a, b): return Add.apply(a, b)
def sub(a, b): return Sub.apply(a, b)
def mul(a, b): return Mul.apply(a, b)
def div(a, b): return Div.apply(a, b)
def neg(a): return Neg.apply(a)
def power(a, exponent): return Power.apply(a, exponent=exponent)
def exp(a): return Exp.apply(a)
def log(a): return Log.apply(a)
def tanh(a): return Tanh.apply(a)
def sigmoid(a): return Sigmoid.apply(a)
def relu(a): return ReLU.apply(a)
def leaky_relu(a, negative_slope=0.01):
    return LeakyReLU.apply(a, negative_slope=negative_slope)
def elu(a, alpha=1.0): return ELU.apply(a, alpha=alpha)
def matmul(a, b): return MatMul.apply(a, b)
def reshape(a, shape): return Reshape.apply(a, shape=tuple(shape))
def transpose(a, axes=None): return Transpose.apply(a, axes=axes)
def getitem(a, idx): return GetItem.apply(a, idx=idx)
# fmt: on


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims=False):
    return Mean.apply(a, axis=axis, keepdims=keepdims)


def maximum(a, axis=None, keepdims=False):
    return Max.apply(a, axis=axis, keepdims=keepdims)


def concatenate(tensors, axis=0):
    return Concatenate.apply(*tensors, axis=axis)


def stack(tensors, axis=0):
    return Stack.apply(*tensors, axis=axis)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    input_grad = getattr(x, "requires_grad", False)  # False for raw arrays
    return Conv2d.apply(
        x, weight, bias, stride=stride, padding=padding, input_grad=input_grad
    )


def max_pool2d(x, kernel_size, stride=None):
    return MaxPool2d.apply(x, kernel_size=kernel_size, stride=stride)


def avg_pool2d(x, kernel_size, stride=None):
    return AvgPool2d.apply(x, kernel_size=kernel_size, stride=stride)


def log_softmax(a, axis=-1):
    return LogSoftmax.apply(a, axis=axis)


def softmax(a, axis=-1):
    return Softmax.apply(a, axis=axis)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _expand_reduced(
    g: np.ndarray, in_shape: Tuple[int, ...], axis: Axis, keepdims: bool
) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts against ``in_shape``."""
    if axis is None or keepdims:
        if axis is None and not keepdims:
            return np.asarray(g).reshape((1,) * len(in_shape))
        return np.asarray(g)
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % len(in_shape) for a in axis)
    shape = tuple(1 if i in axis else s for i, s in enumerate(in_shape))
    return np.asarray(g).reshape(shape)
