"""Dense tensors with reverse-mode automatic differentiation.

Tensors hold row-major numpy arrays in the calling thread's compute
dtype (float32 by default, float64 inside a `precision("f64")` block, as
gradient checks use). An op's result is a `Tensor` holding its `data` and,
when a gradient reaches one of its operands, a small graph node: the
node's gradient, its operands' nodes and a backward closure that keeps
only the arrays and shapes it reads. So an op result's data is freed once
the caller drops the tensor, unless some backward reads it. A
`requires_grad` leaf owns a node with no parents and no backward. Gradients
are accumulated, never overwritten, so shared parameters work. A node
adopts the first gradient array it is sent instead of copying it;
`backward()` frees each op result's gradient once used, so only leaf
nodes keep one afterwards.
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


class _Node:
    """The graph record of a gradient: the gradient, its operands' nodes and
    the backward that sends them theirs (a leaf's has neither). No `data`."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._backward = backward

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add `grad` into `self.grad`. The first array is adopted, not
        copied: the upstream gradient it may view is dead once the calling
        backward returns."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad


def _targets(*operands: "Tensor") -> tuple:
    """Where each operand's gradient goes: its node, or None for a constant
    (and for all under `no_grad`). A backward reads an array only for a
    non-None target."""
    if not _GRAD.get():
        return (None,) * len(operands)
    return tuple(t._node for t in operands)


class Tensor:
    """A numpy array in the run-wide dtype and, for an op result that a
    gradient reaches, its graph node. Building it with `requires_grad=True`
    marks a leaf whose `grad` is filled in by `backward()` on a downstream
    scalar; such a leaf owns a node with no parents."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE.get())
        self._node: Optional[_Node] = _Node() if requires_grad else None

    # ------------------------------------------------------------------
    # bookkeeping

    @property
    def requires_grad(self) -> bool:
        """Whether this is a leaf that takes a gradient; fixed when built."""
        return self._node is not None and not self._node._parents

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._node.grad = value

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # graph construction helpers

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _result(data, targets: Sequence, backward) -> "Tensor":
        """The op's result; its node's parents are the operands' non-None
        gradient targets, and it has no node when there are none. It tests
        `_GRAD` first, so a `no_grad` forward does no extra work."""
        out = Tensor(data)
        if _GRAD.get():
            parents = tuple(t for t in targets if t is not None)
            if parents:
                out._node = _Node(parents, backward)
        return out

    def backward(self) -> None:
        """Backpropagate from this scalar through the graph; a constant has
        none, and returns at once. Leaves keep their gradients; each op
        result's is freed once its own backward has run, so a second
        `backward()` over a shared subgraph sends only its own gradient."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        root = self._node
        if root is None:
            return
        order: list = []
        seen: set[int] = set()
        stack: list = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        ta, tb = _targets(self, other)
        a_shape, b_shape = self.data.shape, other.data.shape

        def backward(g):
            if ta is not None:
                ta._accumulate(_unbroadcast(g, a_shape))
            if tb is not None:
                gb = _unbroadcast(g, b_shape)
                # unsummed, gb views g, which `a` may have adopted
                tb._accumulate(gb.copy() if gb.size == g.size else gb)

        return self._result(self.data + other.data, (ta, tb), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._wrap(other)
        ta, tb = _targets(self, other)
        a_shape, b_shape = self.data.shape, other.data.shape

        def backward(g):
            if ta is not None:
                ta._accumulate(_unbroadcast(g, a_shape))
            if tb is not None:
                tb._accumulate(_unbroadcast(-g, b_shape))

        return self._result(self.data - other.data, (ta, tb), backward)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        ta, tb = _targets(self, other)
        a_shape, b_shape = self.data.shape, other.data.shape
        # each operand's gradient reads the other's data
        a_data = self.data if tb is not None else None
        b_data = other.data if ta is not None else None

        def backward(g):
            if ta is not None:
                ta._accumulate(_unbroadcast(g * b_data, a_shape))
            if tb is not None:
                tb._accumulate(_unbroadcast(g * a_data, b_shape))

        return self._result(self.data * other.data, (ta, tb), backward)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs 2d+ operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner extents differ: {a.shape} x {b.shape}")
        ta, tb = _targets(self, other)
        a_shape, b_shape = a.shape, b.shape
        a_t = np.swapaxes(a, -1, -2) if tb is not None else None
        b_t = np.swapaxes(b, -1, -2) if ta is not None else None

        def backward(g):
            if ta is not None:
                ta._accumulate(_unbroadcast(g @ b_t, a_shape))
            if tb is not None:
                tb._accumulate(_unbroadcast(a_t @ g, b_shape))

        return self._result(a @ b, (ta, tb), backward)

    def square(self) -> "Tensor":
        return self * self

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, *shape) -> "Tensor":
        (ta,) = _targets(self)
        a_shape = self.data.shape

        def backward(g):
            ta._accumulate(g.reshape(a_shape))

        return self._result(self.data.reshape(shape), (ta,), backward)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        (ta,) = _targets(self)
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            ta._accumulate(np.transpose(g, inverse))

        return self._result(np.transpose(self.data, axes), (ta,), backward)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        """Contiguous slice [start, start+length) along `axis`."""
        (ta,) = _targets(self)
        a_shape, dtype = self.data.shape, self.data.dtype
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, start + length)
        index = tuple(index)

        def backward(g):
            full = np.zeros(a_shape, dtype)
            full[index] = g
            ta._accumulate(full)

        return self._result(self.data[index], (ta,), backward)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None) -> "Tensor":
        (ta,) = _targets(self)
        a_shape = self.data.shape

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            ta._accumulate(np.broadcast_to(g, a_shape).copy())

        return self._result(self.data.sum(axis=axis), (ta,), backward)

    def mean(self, axis=None) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis) * (1.0 / float(count))
