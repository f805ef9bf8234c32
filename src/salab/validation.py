"""Finite-difference validation of backward passes."""

from __future__ import annotations

import numpy as np

from . import simplex
from .autodiff import Tensor, bce_with_logits, no_grad
from .rng import derive_rng
from .simplex import MappingKind


def worst(errors) -> float:
    """The one reduction of every check: the largest error, NaN if any
    error is NaN (so that a check fails on it), 0.0 if there are none."""
    return float(np.max(errors, initial=0.0))


def central_difference_error(value, x: np.ndarray, analytic: np.ndarray, eps: float) -> float:
    """Max relative error |a - num| / (1 + |a| + |num|) of `analytic`, the
    gradient of the float `value()` with respect to x, against central
    differences of step eps; x is perturbed in place one entry at a time."""
    flat = x.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = value()
        flat[i] = orig - eps
        lo = value()
        flat[i] = orig
        num[i] = (hi - lo) / (2.0 * eps)
    a = analytic.reshape(-1)
    return worst(np.abs(a - num) / (1.0 + np.abs(a) + np.abs(num)))


def grad_check(f, tensors: dict[str, Tensor], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` is a zero-argument callable returning a scalar Tensor built from
    the given tensors (which should be float64 for a sharp comparison).
    """
    for p in tensors.values():
        p.zero_grad()
    f().backward()
    with no_grad():  # the central differences need values only, and leave each .grad as it is
        return worst([central_difference_error(lambda: f().item(), p.data,
                                               np.zeros_like(p.data) if p.grad is None else p.grad, eps)
                      for p in tensors.values()])


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
    errors = []
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        z = rng.normal(0.0, 2.0, n)
        while boundary_margin(z, kind) < 1e-3:
            z = rng.normal(0.0, 2.0, n)
        u = rng.normal(0.0, 1.0, n)
        a = simplex.mapping_backward_nd(simplex.apply_mapping_nd(z, kind)[0], u, kind)
        errors.append(central_difference_error(lambda: float((simplex.apply_mapping_nd(z, kind)[0] * u).sum()),
                                               z, a, 1e-6))
    return worst(errors)


def model_grad_error(model, batch) -> float:
    """grad_check over every model parameter through the training loss.

    The model should be built with float64 storage.
    """
    def loss():
        logits = model.forward(batch, training=False)
        return bce_with_logits(logits, batch.labels)

    return grad_check(loss, model.params)
