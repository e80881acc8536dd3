"""Dense tensors with reverse-mode automatic differentiation.

Tensors hold row-major numpy arrays in the calling thread's compute
dtype (float32 by default, float64 inside a `precision("f64")` block, as
gradient checks use). Gradients are accumulated, never overwritten, so
shared parameters work. A node adopts the first gradient array it is sent
instead of copying it; `backward()` frees every intermediate node's
gradient once used, so only leaves hold one afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Sequence

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
        """Add `grad` into `self.grad`; a constant leaf keeps none. The
        first array is adopted, not copied: the upstream gradient it may
        view is dead once the calling backward returns."""
        if not (self.requires_grad or self._parents):
            return
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=False)
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
        """The op's node; its parents are only the operands a gradient reaches."""
        if _GRAD.get():
            parents = tuple(p for p in parents if p.requires_grad or p._parents)
            if parents:
                return Tensor(data, _parents=parents, _backward=backward)
        return Tensor(data)

    def backward(self) -> None:
        """Backpropagate from this scalar through the graph. Leaves keep
        their gradients; each intermediate node's is freed once its own
        backward has run, so a second `backward()` over a shared subgraph
        sends only its own gradient."""
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
                node.grad = None

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self, other
        out_data = a.data + b.data

        def backward(g):
            a._accumulate(_unbroadcast(g, a.data.shape))
            gb = _unbroadcast(g, b.data.shape)
            # unsummed, gb views g, which `a` may have adopted
            b._accumulate(gb.copy() if gb.size == g.size else gb)

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
        return self * self

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

    def sum(self, axis=None) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis)

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

        return self._result(out_data, (a,), backward)

    def mean(self, axis=None) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis) * (1.0 / float(count))
