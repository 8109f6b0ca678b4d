"""The :class:`Tensor` type: an ndarray with a gradient tape.

``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied
to it so that :meth:`Tensor.backward` can compute gradients of a scalar
loss with respect to every ``requires_grad`` leaf — classic reverse-mode
automatic differentiation (Rumelhart et al., 1988), the algorithm BPPSA
reformulates as a scan.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations are currently being taped."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling tape recording (e.g. for evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A differentiable n-dimensional array.

    Parameters
    ----------
    data:
        Array (or scalar / nested list) holding the tensor's values.
        Stored as ``float64`` by default for tight numerical agreement
        between BP and BPPSA in tests; pass ``dtype`` to override.
    requires_grad:
        If true, gradients w.r.t. this tensor are accumulated into
        ``self.grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):  # pragma: no cover - convenience
            data = data.data
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype.kind in "iub":  # promote ints/bools to float
            arr = arr.astype(np.float64)
        elif dtype is None and arr.dtype == np.float32:
            pass  # keep caller-provided float32
        elif dtype is None:
            arr = arr.astype(np.float64, copy=False)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size == 1:
            return float(self.data.reshape(-1)[0])
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # autograd
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient (``dL/dself``).  Defaults to 1 for scalar
            tensors, mirroring common autograd semantics.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = grad.reshape(self.data.shape)

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}

        for tensor in order:
            node = tensor._node
            g = grads.pop(id(tensor), None)
            if g is None:
                continue
            if tensor.requires_grad and node is None:
                # Leaf: accumulate into .grad
                tensor.grad = g if tensor.grad is None else tensor.grad + g
                continue
            if tensor.requires_grad:
                # Non-leaf with retained grad semantics: keep for inspection.
                pass
            if node is None:
                continue
            input_grads = node.backward(g)
            for inp, ig in zip(node.inputs, input_grads):
                if inp is None or ig is None or not inp.requires_grad:
                    continue
                ig = np.asarray(ig)
                if inp._node is None:
                    inp.grad = ig if inp.grad is None else inp.grad + ig
                else:
                    key = id(inp)
                    if key in grads:
                        grads[key] = grads[key] + ig
                    else:
                        grads[key] = ig

    # ------------------------------------------------------------------
    # operator sugar (implementations live in repro.tensor.ops)
    # ------------------------------------------------------------------
    def _ops(self):
        from repro.tensor import ops

        return ops

    # operator table reads best one per line
    # fmt: off
    def __add__(self, other): return self._ops().add(self, _wrap(other))
    def __radd__(self, other): return self._ops().add(_wrap(other), self)
    def __sub__(self, other): return self._ops().sub(self, _wrap(other))
    def __rsub__(self, other): return self._ops().sub(_wrap(other), self)
    def __mul__(self, other): return self._ops().mul(self, _wrap(other))
    def __rmul__(self, other): return self._ops().mul(_wrap(other), self)
    def __truediv__(self, other): return self._ops().div(self, _wrap(other))
    def __rtruediv__(self, other): return self._ops().div(_wrap(other), self)
    def __neg__(self): return self._ops().neg(self)
    def __matmul__(self, other): return self._ops().matmul(self, _wrap(other))
    def __pow__(self, exponent: float): return self._ops().power(self, exponent)
    def __getitem__(self, idx): return self._ops().getitem(self, idx)
    # fmt: on

    def sum(self, axis=None, keepdims: bool = False):
        return self._ops().sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return self._ops().mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._ops().reshape(self, shape)

    def transpose(self, *axes: int):
        return self._ops().transpose(self, axes if axes else None)

    @property
    def T(self):
        return self.transpose()

    # pointwise-method table, one per line
    # fmt: off
    def exp(self): return self._ops().exp(self)
    def log(self): return self._ops().log(self)
    def tanh(self): return self._ops().tanh(self)
    def sigmoid(self): return self._ops().sigmoid(self)
    def relu(self): return self._ops().relu(self)
    # fmt: on


def _wrap(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


def _topological_order(root: Tensor) -> List[Tensor]:
    """Tensors reachable from ``root``'s tape, root first (reverse topo)."""
    visited: set[int] = set()
    order: List[Tensor] = []
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        node = tensor._node
        if node is not None:
            for inp in node.inputs:
                if inp is not None and inp._node is not None and id(inp) not in visited:
                    stack.append((inp, False))
    order.reverse()
    return order
