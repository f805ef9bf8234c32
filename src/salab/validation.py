"""Finite-difference validation of backward passes."""

from __future__ import annotations

import numpy as np

from . import simplex
from .autodiff import bce_with_logits, central_difference_error, grad_check
from .rng import derive_rng
from .simplex import MappingKind


def boundary_margin(z: np.ndarray, kind: MappingKind) -> float:
    """Distance of the closest score to the support threshold (inf for softmax)."""
    if kind.alpha == 1.0:
        return float("inf")
    _, tau = simplex.apply_mapping_nd(z, kind)
    return float(np.min(np.abs(kind.scaled(z) - tau)))


def mapping_max_grad_error(kind: MappingKind, trials: int, seed: int) -> float:
    """Max relative error of `mapping_backward_nd` vs central differences
    (step 1e-6) of sum(p * u) over random (z, upstream u) pairs.

    Inputs closer than 1e-3 to a support boundary are resampled; the
    forward map is non-differentiable exactly there.
    """
    rng = derive_rng(seed, "gradcheck", str(kind))
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        z = rng.normal(0.0, 2.0, n)
        while boundary_margin(z, kind) < 1e-3:
            z = rng.normal(0.0, 2.0, n)
        u = rng.normal(0.0, 1.0, n)
        a = simplex.mapping_backward_nd(simplex.apply_mapping_nd(z, kind)[0], u, kind)
        err = central_difference_error(lambda: float((simplex.apply_mapping_nd(z, kind)[0] * u).sum()),
                                       z, a, 1e-6)
        worst = max(worst, err)
    return worst


def model_grad_error(model, batch) -> float:
    """grad_check over every model parameter through the training loss.

    The model should be built with float64 storage.
    """
    def loss():
        logits = model.forward(batch, training=False)
        return bce_with_logits(logits, batch.labels)

    return grad_check(loss, model.params)
