"""Dense tensors with reverse-mode automatic differentiation.

Tensors hold row-major numpy arrays in the calling thread's compute
dtype (float32 by default, float64 inside a `precision("f64")` block, as
gradient checks use). Gradients are accumulated, never overwritten, so
shared parameters work.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Optional, Sequence

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}
# Per-thread state: a `no_grad` or `precision` block affects only its own thread.
_DTYPE = ContextVar("portraitflow_dtype", default=np.float32)
_GRAD = ContextVar("portraitflow_grad", default=True)


@contextmanager
def no_grad():
    """Skip graph construction inside the block (inference speed)."""
    token = _GRAD.set(False)
    try:
        yield
    finally:
        _GRAD.reset(token)


@contextmanager
def precision(name: str):
    """Temporarily switch the calling thread's compute dtype, "f32" or "f64"."""
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected one of {sorted(_DTYPES)}")
    token = _DTYPE.set(_DTYPES[name])
    try:
        yield
    finally:
        _DTYPE.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph.

    `data` is a numpy array in the run-wide dtype. Setting
    `requires_grad=True` marks a leaf whose `grad` is filled in by
    `backward()` on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=_DTYPE.get())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    # bookkeeping

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # graph construction helpers

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _result(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        if _GRAD.get() and any(p.requires_grad or p._parents for p in parents):
            return Tensor(data, _parents=tuple(parents), _backward=backward)
        return Tensor(data)

    def backward(self) -> None:
        """Backpropagate from this scalar through the graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self, other
        out_data = a.data + b.data

        def backward(g):
            a._accumulate(_unbroadcast(g, a.data.shape))
            b._accumulate(_unbroadcast(g, b.data.shape))

        return self._result(out_data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self, other
        out_data = a.data - b.data

        def backward(g):
            a._accumulate(_unbroadcast(g, a.data.shape))
            b._accumulate(_unbroadcast(-g, b.data.shape))

        return self._result(out_data, (a, b), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) - self

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            a._accumulate(-g)

        return self._result(-a.data, (a,), backward)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self, other
        out_data = a.data * b.data

        def backward(g):
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return self._result(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError(f"matmul needs 2d+ operands, got {a.data.shape} and {b.data.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ValueError(f"matmul inner extents differ: {a.data.shape} x {b.data.shape}")
        out_data = a.data @ b.data

        def backward(g):
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

        return self._result(out_data, (a, b), backward)

    def square(self) -> "Tensor":
        a = self

        def backward(g):
            a._accumulate(g * (2.0 * a.data))

        return self._result(a.data * a.data, (a,), backward)

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def backward(g):
            a._accumulate(g.reshape(a.data.shape))

        return self._result(out_data, (a,), backward)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        a = self
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            a._accumulate(np.transpose(g, inverse))

        return self._result(np.transpose(a.data, axes), (a,), backward)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Contiguous slice [start, start+length) along `axis`."""
        a = self
        index = [slice(None)] * a.data.ndim
        index[axis] = slice(start, start + length)
        index = tuple(index)

        def backward(g):
            full = np.zeros_like(a.data)
            full[index] = g
            a._accumulate(full)

        return self._result(a.data[index], (a,), backward)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

        return self._result(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor._wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            t._accumulate(g[tuple(index)])
            offset += size

    return Tensor._result(out_data, tensors, backward)

