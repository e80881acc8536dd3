"""Minimal dense-tensor math with reverse-mode gradients."""

from .functional import (INIT_SCALE, LAYER_NORM_EPS, attention, bias_name, dense, init_params,
                         layer_norm, linear, silu, softmax_lastaxis)
from .gradcheck import grad_check
from .rng import RngState
from .serialize import load_tensor, save_tensor
from .tensor import Tensor, no_grad, precision

__all__ = [
    "INIT_SCALE",
    "LAYER_NORM_EPS",
    "RngState",
    "Tensor",
    "attention",
    "bias_name",
    "dense",
    "grad_check",
    "init_params",
    "layer_norm",
    "linear",
    "load_tensor",
    "no_grad",
    "precision",
    "save_tensor",
    "silu",
    "softmax_lastaxis",
]
