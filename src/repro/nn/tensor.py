"""Reverse-mode automatic differentiation over numpy arrays.

This is the core of the PyTorch substitute.  A :class:`Tensor` wraps a
dense array together with an optional gradient and a closure that
back-propagates into its parents.  Calling :meth:`Tensor.backward` on a
scalar output walks the recorded graph in reverse topological order.

The op set is deliberately the subset NeuroPlan's networks need: dense
linear algebra, elementwise activations, reductions, row-wise softmax
machinery, concatenation and row gathering.  Binary ops support numpy
broadcasting; gradients are un-broadcast back to each parent's shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from repro.errors import NNError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for backprop."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A dense array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything coercible to a float64 array.
    requires_grad:
        If True, gradients accumulate into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def ensure(value: "Tensor | float | int | np.ndarray") -> "Tensor":
        """Coerce ``value`` to a (constant) Tensor."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying data array itself (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant Tensor sharing this tensor's data."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Gradient bookkeeping
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to ones, which is only sensible for scalar
        outputs; supplying it explicitly supports vector-Jacobian products.
        """
        if grad is None:
            if self.data.size != 1:
                raise NNError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise NNError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape}"
            )

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                node._push(node_grad, grads)

    def _push(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the backward closure, routing parent grads via ``grads``."""
        contributions = self._backward(grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not (
                parent.requires_grad or parent._backward is not None
            ):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    def _topological_order(self) -> list["Tensor"]:
        """Return nodes reachable from self, outputs first."""
        visited: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape))

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * b.data, a.shape),
                _unbroadcast(grad * a.data, b.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / b.data, a.shape),
                _unbroadcast(-grad * a.data / (b.data**2), b.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise NNError("only scalar exponents are supported")
        data = self.data**exponent
        base = self

        def backward(grad: np.ndarray):
            return (grad * exponent * base.data ** (exponent - 1),)

        return Tensor._from_op(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                # Dot product: grad is a scalar.
                return (grad * b_data, grad * a_data)
            if a_data.ndim == 1:
                # (k,) @ (k, m) -> (m,)
                return (b_data @ grad, np.outer(a_data, grad))
            if b_data.ndim == 1:
                # (n, k) @ (k,) -> (n,)
                return (np.outer(grad, b_data), a_data.T @ grad)
            grad_a = grad @ b_data.swapaxes(-1, -2)
            grad_b = a_data.swapaxes(-1, -2) @ grad
            return (_unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape))

        return Tensor._from_op(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        src = self

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, src.shape).copy(),)

        return Tensor._from_op(_as_array(data), (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        src = self

        def backward(grad: np.ndarray):
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = (src.data == d).astype(np.float64)
            # Split gradient evenly among ties to keep the Jacobian finite.
            counts = (
                mask.sum(axis=axis, keepdims=True)
                if axis is not None
                else mask.sum()
            )
            return (mask * g / counts,)

        return Tensor._from_op(_as_array(data), (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        src = self

        def backward(grad: np.ndarray):
            return (grad * (src.data > 0.0),)

        return Tensor._from_op(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        data = np.where(self.data > 0.0, self.data, negative_slope * self.data)
        src = self

        def backward(grad: np.ndarray):
            slope = np.where(src.data > 0.0, 1.0, negative_slope)
            return (grad * slope,)

        return Tensor._from_op(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data**2),)

        return Tensor._from_op(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._from_op(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._from_op(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        src = self

        def backward(grad: np.ndarray):
            return (grad / src.data,)

        return Tensor._from_op(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        src = self

        def backward(grad: np.ndarray):
            return (grad * np.sign(src.data),)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        src_shape = self.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(src_shape),)

        return Tensor._from_op(data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray):
            return (grad.T,)

        return Tensor._from_op(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def gather_rows(self, indices) -> "Tensor":
        """Select rows ``indices`` along the first axis (keeps gradients)."""
        idx = np.asarray(indices, dtype=np.int64)
        data = self.data[idx]
        src = self

        def backward(grad: np.ndarray):
            out = np.zeros_like(src.data)
            np.add.at(out, idx, grad)
            return (out,)

        return Tensor._from_op(data, (self,), backward)

    def take(self, row_indices, col_indices) -> "Tensor":
        """Fancy-index elements ``(row_indices[i], col_indices[i])``."""
        rows = np.asarray(row_indices, dtype=np.int64)
        cols = np.asarray(col_indices, dtype=np.int64)
        data = self.data[rows, cols]
        src = self

        def backward(grad: np.ndarray):
            out = np.zeros_like(src.data)
            np.add.at(out, (rows, cols), grad)
            return (out,)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # Static combinators
    # ------------------------------------------------------------------
    @staticmethod
    def sparse_matmul(matrix, tensor: "Tensor") -> "Tensor":
        """Left-multiply by a constant sparse matrix: ``matrix @ tensor``.

        ``matrix`` is a ``scipy.sparse`` matrix, treated as a constant (no
        gradient flows into it); the gradient with respect to ``tensor``
        is ``matrix.T @ grad``.
        This is the GNN propagation primitive: one sparse matvec per
        layer instead of a dense ``n x n`` product.
        """
        tensor = Tensor.ensure(tensor)
        data = _as_array(matrix @ tensor.data)

        def backward(grad: np.ndarray):
            return (_as_array(matrix.T @ grad),)

        return Tensor._from_op(data, (tensor,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad: np.ndarray):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor._from_op(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor._from_op(data, tuple(tensors), backward)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise select; ``condition`` is a constant boolean array."""
        cond = np.asarray(condition, dtype=bool)
        a = Tensor.ensure(a)
        b = Tensor.ensure(b)
        data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(np.where(cond, grad, 0.0), a.shape),
                _unbroadcast(np.where(cond, 0.0, grad), b.shape),
            )

        return Tensor._from_op(data, (a, b), backward)
