"""Finite-difference verification of reverse-mode gradients.

The whole computation is rebuilt at float64; the caller's function must
be deterministic (fix any random draws before calling).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from .rng import RngState
from .tensor import Tensor, precision

GRAD_CHECK_EPS = 1e-5  # central-difference step


def grad_check(f: Callable[[Dict[str, Tensor]], Tensor],
               params: Dict[str, Tensor],
               max_coords_per_param: Optional[int] = None,
               rng: Optional[RngState] = None) -> float:
    """Max relative error between analytic and central-difference grads.

    `f` maps a named-parameter dict to a scalar Tensor. Every parameter
    coordinate is checked unless `max_coords_per_param` caps it, in
    which case a seeded random subset per parameter is used (pass `rng`
    for a non-default subset). The error for one coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    with precision("f64"):
        params64 = {name: Tensor(p.data.astype(np.float64), requires_grad=True)
                    for name, p in params.items()}
        loss = f(params64)
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("loss is non-finite before perturbation")
        loss.backward()

        picker = (rng or RngState(0))
        worst = 0.0
        for name, p in params64.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(analytic).all():
                raise FloatingPointError(f"non-finite analytic gradient in parameter {name!r}")
            flat = p.data.reshape(-1)
            n = flat.size
            if max_coords_per_param is not None and n > max_coords_per_param:
                coords = picker.stream("gradcheck", name).choice(n, size=max_coords_per_param,
                                                                 replace=False)
            else:
                coords = range(n)
            aflat = analytic.reshape(-1)
            for idx in coords:
                original = flat[idx]
                flat[idx] = original + GRAD_CHECK_EPS
                hi = float(f(params64).data)
                flat[idx] = original - GRAD_CHECK_EPS
                lo = float(f(params64).data)
                flat[idx] = original
                numeric = (hi - lo) / (2.0 * GRAD_CHECK_EPS)
                if not np.isfinite(numeric):
                    raise FloatingPointError(
                        f"non-finite finite-difference value in parameter {name!r}")
                err = abs(aflat[idx] - numeric) / max(1.0, abs(numeric))
                if err > worst:
                    worst = err
        return float(worst)
