"""Minimal dense-tensor math with reverse-mode gradients."""

from .functional import LAYER_NORM_EPS, attention, layer_norm, silu, softmax_lastaxis
from .gradcheck import grad_check
from .rng import RngState
from .serialize import load_tensor, save_tensor
from .tensor import Tensor, concat, no_grad, precision

__all__ = [
    "LAYER_NORM_EPS",
    "RngState",
    "Tensor",
    "attention",
    "concat",
    "grad_check",
    "layer_norm",
    "load_tensor",
    "no_grad",
    "precision",
    "save_tensor",
    "silu",
    "softmax_lastaxis",
]
