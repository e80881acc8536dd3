"""Differentiable building blocks: softmax, linear, layer norm, attention, silu.

The ops act on the trailing axis (two for attention) and broadcast over leading axes;
`dense`, `bias_name` and `init_params` are the rule every trainable layer follows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .rng import RngState
from .tensor import Tensor, _targets, _unbroadcast

LAYER_NORM_EPS = 1e-5
INIT_SCALE = 0.02  # std of every random weight `init_params` draws


def _softmax_inplace(scores: np.ndarray, axis: int) -> np.ndarray:
    """Stabilized softmax over `axis`, computed in place in `scores`."""
    scores -= np.max(scores, axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=axis, keepdims=True)
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
    (tx,) = _targets(x)
    out_data = _softmax_inplace(x.data.copy(), axis=-1)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        tx._accumulate(out_data * (g - inner))

    return Tensor._result(out_data, (tx,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for `x` [... x c_in], `w` [c_in x c_out], `b` [c_out], as
    one node. The leading axes are flattened, so the forward is one GEMM;
    the backward is g w^T for x, one x^T g GEMM for w and a row sum for b,
    each skipped for a constant, so x is kept only when w takes a gradient."""
    x, w, b = Tensor._wrap(x), Tensor._wrap(w), Tensor._wrap(b)
    c_in, c_out = w.data.shape
    if x.data.shape[-1] != c_in or b.data.shape != (c_out,):
        raise ValueError(f"linear shapes do not fit: x {x.data.shape}, "
                         f"w {w.data.shape}, b {b.data.shape}")
    tx, tw, tb = _targets(x, w, b)
    x2 = x.data.reshape(-1, c_in)
    out_data = (x2 @ w.data).reshape(x.data.shape[:-1] + (c_out,))
    out_data += b.data
    x_shape = x.data.shape
    x_kept = x2 if tw is not None else None
    w_kept = w.data if tx is not None else None

    def backward(g):
        g2 = g.reshape(-1, c_out)
        if tx is not None:
            tx._accumulate((g2 @ w_kept.T).reshape(x_shape))
        if tw is not None:
            tw._accumulate(x_kept.T @ g2)
        if tb is not None:
            tb._accumulate(g2.sum(axis=0))

    return Tensor._result(out_data, (tx, tw, tb), backward)


def bias_name(weight: str) -> str:
    """The bias of the linear layer whose weight is `weight`: `x.w` has
    `x.b`, `x.wk` has `x.wk_b`."""
    return weight[:-1] + "b" if weight.endswith(".w") else weight + "_b"


def dense(x: Tensor, params: Dict[str, Tensor], weight: str) -> Tensor:
    """The linear layer `params[weight]`, with its bias `bias_name(weight)`."""
    return linear(x, params[weight], params[bias_name(weight)])


def init_params(shapes: Iterable[Tuple[str, Tuple[int, ...]]], rng: RngState, tag: str,
                zero: Tuple[str, ...] = ()) -> Dict[str, Tensor]:
    """The one init rule of the trainable tensors: a bias (the `bias_name` of
    a name in `shapes`) or a name ending in one of `zero` starts at zero; any
    other is `rng.normal(tag, name) * INIT_SCALE`, `name` without `tag.`."""
    shapes = dict(shapes)
    biases = {bias_name(name) for name in shapes}
    return {name: Tensor(np.zeros(shape) if name in biases or name.endswith(zero) else
                         rng.normal(tag, name.removeprefix(f"{tag}."), size=shape) * INIT_SCALE,
                         requires_grad=True)
            for name, shape in shapes.items()}


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then modulate as
    adaLN does, xhat * (1 + scale) + shift, in one node. Zero-variance rows
    normalize to zeros (`LAYER_NORM_EPS` keeps the denominator finite), so
    constant inputs map to `shift`.
    """
    x, scale, shift = Tensor._wrap(x), Tensor._wrap(scale), Tensor._wrap(shift)
    width = x.data.shape[-1]
    if scale.data.shape[-1] != width or shift.data.shape[-1] != width:
        raise ValueError(
            f"layer_norm scale/shift shapes {scale.data.shape}/{shift.data.shape} "
            f"do not match normalized width {width}")
    tx, tscale, tshift = _targets(x, scale, shift)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    gain = 1.0 + scale.data
    out_data = xhat * gain + shift.data
    scale_shape, shift_shape = scale.data.shape, shift.data.shape

    def backward(g):
        if tx is not None:
            gxhat = g * gain
            m1 = gxhat.mean(axis=-1, keepdims=True)
            m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
            tx._accumulate(inv * (gxhat - m1 - xhat * m2))
        if tscale is not None:
            tscale._accumulate(_unbroadcast(g * xhat, scale_shape))
        if tshift is not None:
            tshift._accumulate(_unbroadcast(g, shift_shape))

    return Tensor._result(out_data, (tx, tscale, tshift), backward)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    x = Tensor._wrap(x)
    (tx,) = _targets(x)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    # the backward reads only the slope, not x and sig
    slope = sig * (1.0 + x.data * (1.0 - sig)) if tx is not None else None

    def backward(g):
        tx._accumulate(g * slope)

    return Tensor._result(x.data * sig, (tx,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[Tensor] = None,
              heads: int = 1, blocks: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention for `q` [... x n_q x c] and
    `k`, `v` [... x n_k x c], as one node; leading axes broadcast as in
    matmul. The width `c` splits into `heads` heads of c/heads, and both
    lengths into `blocks` equal contiguous blocks that each attend only
    within themselves (frame-scoped audio attention is `blocks=f`); all are
    attended separately and merged back, so the output is [... x n_q x c].

    `mask` is an [n_q/blocks x n_k/blocks] additive mask shared by all
    blocks and heads, with entries 0 (keep) or -inf (block); blocked keys
    receive exactly zero weight. A fully blocked query row is a degenerate
    attention row and raises.

    Scores are stored key-major, S^T = K Q^T per block and head, so the
    softmax reduces over axis -2 in whole contiguous rows, far faster than
    over the short audio and identity key axes. The backward is closed
    form from the saved P^T: dV = P^T dO, dS^T = scale * P^T * (V dO^T - D)
    with FlashAttention's D = rowsum(dO * O) (equal to rowsum(dP * P), but
    taken over the head width), dQ = (dS^T)^T K and dK = dS^T Q.
    """
    q, k, v = Tensor._wrap(q), Tensor._wrap(k), Tensor._wrap(v)
    tq, tk, tv = _targets(q, k, v)
    width = q.data.shape[-1]
    if heads < 1 or width < 1 or width % heads:
        raise ValueError(f"attention width {width} does not split into {heads} heads")
    if k.data.shape[-1] != width or v.data.shape[-1] != width:
        raise ValueError(f"q/k/v widths differ: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if v.data.shape[-2] != k.data.shape[-2]:
        raise ValueError(f"k/v lengths differ: {k.data.shape} vs {v.data.shape}")
    if blocks < 1 or q.shape[-2] % blocks or k.shape[-2] % blocks:
        raise ValueError(f"lengths {q.shape[-2]}, {k.shape[-2]} not divisible by {blocks} blocks")

    def split(a):  # [... x n x c] -> [... x blocks x heads x n/blocks x c/heads], a view
        shape = a.shape[:-2] + (blocks, a.shape[-2] // blocks, heads, width // heads)
        return np.swapaxes(a.reshape(shape), -2, -3)

    def merge(a):  # the inverse of `split`, one copy
        a = np.swapaxes(a, -2, -3)
        return a.reshape(a.shape[:-4] + (a.shape[-4] * a.shape[-3], width))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / float(np.sqrt(width // heads))
    weights_t = kh @ np.swapaxes(qh, -1, -2)
    weights_t *= scale
    if mask is not None:
        mask = Tensor._wrap(mask).data
        n_k, n_q = weights_t.shape[-2:]
        if mask.shape != (n_q, n_k):
            raise ValueError(f"attention mask must be [n_q x n_k] = "
                             f"{(n_q, n_k)}, got {mask.shape}")
        blocked = np.isneginf(mask)
        if not np.logical_or(mask == 0.0, blocked).all():
            raise ValueError("attention mask entries must be 0 or -inf")
        if blocked.all(axis=-1).any():
            raise ValueError("attention mask blocks an entire query row")
        weights_t += mask.T
    _softmax_inplace(weights_t, axis=-2)
    out_data = merge(np.swapaxes(weights_t, -1, -2) @ vh)

    def backward(g):
        g = split(g)
        if tv is not None:
            tv._accumulate(merge(_unbroadcast(weights_t @ g, vh.shape)))
        g = g * scale  # scale folded into dO
        ds_t = vh @ np.swapaxes(g, -1, -2)
        ds_t -= np.einsum("...qd,...qd->...q", g, split(out_data))[..., None, :]
        ds_t *= weights_t
        if tq is not None:
            tq._accumulate(merge(_unbroadcast(np.swapaxes(ds_t, -1, -2) @ kh, qh.shape)))
        if tk is not None:
            tk._accumulate(merge(_unbroadcast(ds_t @ qh, kh.shape)))

    return Tensor._result(out_data, (tq, tk, tv), backward)
