"""Differentiable building blocks: softmax, layer norm, attention, silu.

All operations act on the trailing axis (or trailing two axes for
attention) and broadcast over any leading batch axes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, _unbroadcast

LAYER_NORM_EPS = 1e-5
NEG_INF = float("-inf")


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    Rows containing -inf entries give those positions exactly zero
    weight. A row that is entirely -inf is rejected upstream (see
    `attention`); here it would produce NaNs.
    """
    x = Tensor._wrap(x)
    if x.data.shape[-1] < 1:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {x.data.shape}")
    shifted = x.data - np.max(x.data, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        x._accumulate(out_data * (g - inner))

    return Tensor._result(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Zero-variance rows normalize to zeros (the epsilon keeps the
    denominator finite), so constant inputs map to `bias`.
    """
    x, gain, bias = Tensor._wrap(x), Tensor._wrap(gain), Tensor._wrap(bias)
    width = x.data.shape[-1]
    if gain.data.shape[-1] != width or bias.data.shape[-1] != width:
        raise ValueError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match normalized width {width}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        gxhat = g * gain.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (gxhat - m1 - xhat * m2))
        gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        bias._accumulate(_unbroadcast(g, bias.data.shape))

    return Tensor._result(out_data, (x, gain, bias), backward)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = Tensor._wrap(x)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out_data = x.data * sig

    def backward(g):
        x._accumulate(g * (sig * (1.0 + x.data * (1.0 - sig))))

    return Tensor._result(out_data, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[Tensor] = None) -> Tensor:
    """Scaled dot-product attention over the trailing two axes.

    `mask` is additive with entries 0 (keep) or -inf (block); blocked
    keys receive exactly zero weight. A fully blocked query row is a
    degenerate attention row and raises.
    """
    q, k, v = Tensor._wrap(q), Tensor._wrap(k), Tensor._wrap(v)
    head_dim = q.data.shape[-1]
    if head_dim < 1:
        raise ValueError("attention head dimension must be positive")
    if k.data.shape[-1] != head_dim:
        raise ValueError(f"q/k widths differ: {q.data.shape} vs {k.data.shape}")
    if v.data.shape[-2] != k.data.shape[-2]:
        raise ValueError(f"k/v lengths differ: {k.data.shape} vs {v.data.shape}")
    swap_last = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = (q @ k.transpose(swap_last)) * (1.0 / float(np.sqrt(head_dim)))
    if mask is not None:
        mask = Tensor._wrap(mask)
        blocked = np.isneginf(mask.data)
        if not np.logical_or(mask.data == 0.0, blocked).all():
            raise ValueError("attention mask entries must be 0 or -inf")
        if blocked.all(axis=-1).any():
            raise ValueError("attention mask blocks an entire query row")
        scores = scores + mask
    weights = softmax_lastaxis(scores)
    return weights @ v
