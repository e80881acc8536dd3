"""Differentiable building blocks: softmax, linear, layer norm, attention, silu.

All operations act on the trailing axis (or trailing two axes for
attention) and broadcast over any leading batch axes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, _unbroadcast

LAYER_NORM_EPS = 1e-5
NEG_INF = float("-inf")


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis, computed in place in `scores`."""
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    Rows containing -inf entries give those positions exactly zero
    weight. A row that is entirely -inf is rejected upstream (see
    `attention`); here it would produce NaNs.
    """
    x = Tensor._wrap(x)
    if x.data.shape[-1] < 1:
        raise ValueError(f"softmax needs a non-empty last axis, got shape {x.data.shape}")
    out_data = _softmax_inplace(x.data.copy())

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        x._accumulate(out_data * (g - inner))

    return Tensor._result(out_data, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for `x` [... x c_in], `w` [c_in x c_out], `b` [c_out], as
    one node. The leading axes are flattened, so the forward is one GEMM;
    the backward is g w^T for x (skipped when x is a constant), one
    x^T g GEMM for w and a row sum for b."""
    x, w, b = Tensor._wrap(x), Tensor._wrap(w), Tensor._wrap(b)
    c_in, c_out = w.data.shape
    if x.data.shape[-1] != c_in or b.data.shape != (c_out,):
        raise ValueError(f"linear shapes do not fit: x {x.data.shape}, "
                         f"w {w.data.shape}, b {b.data.shape}")
    x2 = x.data.reshape(-1, c_in)
    out_data = (x2 @ w.data).reshape(x.data.shape[:-1] + (c_out,))
    out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, c_out)
        if x.requires_grad or x._parents:
            x._accumulate((g2 @ w.data.T).reshape(x.data.shape))
        w._accumulate(x2.T @ g2)
        b._accumulate(g2.sum(axis=0))

    return Tensor._result(out_data, (x, w, b), backward)


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


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[Tensor] = None,
              heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention for `q` [... x n_q x c] and
    `k`, `v` [... x n_k x c], as one node; leading axes broadcast as in
    matmul. The width `c` splits into `heads` heads of c/heads, attended
    separately and merged back, so the output is [... x n_q x c].

    `mask` is an [n_q x n_k] additive mask shared by all heads, with
    entries 0 (keep) or -inf (block); blocked keys receive exactly zero
    weight. A fully blocked query row is a degenerate attention row and
    raises. The backward is closed form from the saved weights P:
    dV = P^T dO, dP = dO V^T and dS = scale * P * (dP - rowsum(dP * P)),
    where rowsum(dP * P) equals rowsum(dO * O) (FlashAttention's D), the
    cheaper of the two.
    """
    q, k, v = Tensor._wrap(q), Tensor._wrap(k), Tensor._wrap(v)
    width = q.data.shape[-1]
    if heads < 1 or width < 1 or width % heads:
        raise ValueError(f"attention width {width} does not split into {heads} heads")
    if k.data.shape[-1] != width or v.data.shape[-1] != width:
        raise ValueError(f"q/k/v widths differ: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if v.data.shape[-2] != k.data.shape[-2]:
        raise ValueError(f"k/v lengths differ: {k.data.shape} vs {v.data.shape}")

    def split(a):  # [... x n x c] -> [... x heads x n x c/heads], a view
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, width // heads)), -2, -3)

    def merge(a):  # the inverse of `split`, one copy
        a = np.swapaxes(a, -2, -3)
        return a.reshape(a.shape[:-2] + (width,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / float(np.sqrt(width // heads))
    weights = qh @ np.swapaxes(kh, -1, -2)
    weights *= scale
    if mask is not None:
        mask = Tensor._wrap(mask).data
        if mask.shape != weights.shape[-2:]:
            raise ValueError(f"attention mask must be [n_q x n_k] = "
                             f"{weights.shape[-2:]}, got {mask.shape}")
        blocked = np.isneginf(mask)
        if not np.logical_or(mask == 0.0, blocked).all():
            raise ValueError("attention mask entries must be 0 or -inf")
        if blocked.all(axis=-1).any():
            raise ValueError("attention mask blocks an entire query row")
        weights += mask
    _softmax_inplace(weights)
    out_heads = weights @ vh

    def backward(g):
        g = split(g)
        v._accumulate(merge(_unbroadcast(np.swapaxes(weights, -1, -2) @ g, vh.shape)))
        # scale folded into dO; rowsum(dP * P) taken as rowsum(dO * O),
        # over the head width instead of the key length
        g = g * scale
        ds = g @ np.swapaxes(vh, -1, -2)
        ds -= (g * out_heads).sum(axis=-1, keepdims=True)
        ds *= weights
        q._accumulate(merge(_unbroadcast(ds @ kh, qh.shape)))
        k._accumulate(merge(_unbroadcast(np.swapaxes(ds, -1, -2) @ qh, kh.shape)))

    return Tensor._result(merge(out_heads), (q, k, v), backward)
