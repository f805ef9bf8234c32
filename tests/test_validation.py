"""Finite-difference gradient checks: their one reduction, a NaN gradient, the boundary redraw."""

import math

import numpy as np
import pytest

from salab import simplex, validation
from salab.autodiff import Tensor, _node
from salab.simplex import MappingKind
from salab.validation import boundary_margin, grad_check, mapping_max_grad_error, worst


def test_worst_keeps_a_nan_and_reads_zero_for_no_errors():
    assert worst([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(worst([0.0, np.nan, 1.0]))
    assert math.isnan(worst(np.array([np.nan, 0.0])))
    assert worst([]) == 0.0
    assert worst(np.empty(0)) == 0.0


def test_grad_check_of_a_nan_gradient_is_nan():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def f():
        return _node((x.data ** 2).sum(), (x,), lambda g: np.full(2, np.nan))

    assert math.isnan(grad_check(f, {"x": x}))


def test_mapping_max_grad_error_of_a_nan_backward_is_nan(monkeypatch):
    monkeypatch.setattr(simplex, "mapping_backward_nd", lambda p, g, kind: np.full_like(g, np.nan))
    for name in ("softmax", "sparsemax", "entmax15", "entmax:1.3", "entmax:3"):
        assert math.isnan(mapping_max_grad_error(MappingKind.parse(name), trials=3, seed=0))


class PlantedRng:
    """A generator whose first score draw is `z` (and its size `len(z)`); later draws are `real`'s."""

    def __init__(self, real, z):
        self.real, self.planted = real, [z]

    def integers(self, low, high):
        return len(self.planted[0]) if self.planted else self.real.integers(low, high)

    def normal(self, loc, scale, size):
        return self.planted.pop() if self.planted else self.real.normal(loc, scale, size)


@pytest.mark.parametrize("name, z", [
    ("sparsemax", [1.0, 5e-4]),             # the second entry lies 2.5e-4 above tau
    ("entmax15", [2.0, 0.0, -0.5]),         # one-hot: the second entry sits on tau
    ("entmax:3", [0.0, -0.5 + 1e-4]),       # the second entry lies 1e-8 above tau
    ("entmax:1.3", [0.0, -10 / 3, 1e-4 - 10 / 3]),  # one-hot: the second entry sits on tau
])
def test_mapping_max_grad_error_redraws_a_score_vector_near_a_support_boundary(monkeypatch, name, z):
    kind, z = MappingKind.parse(name), np.array(z)
    assert boundary_margin(z, kind) < 1e-3
    real = validation.derive_rng
    monkeypatch.setattr(validation, "derive_rng", lambda *key: PlantedRng(real(*key), z.copy()))
    checked = []
    central = validation.central_difference_error
    monkeypatch.setattr(validation, "central_difference_error",
                        lambda value, x, a, eps: checked.append(x.copy()) or central(value, x, a, eps))
    assert mapping_max_grad_error(kind, trials=1, seed=0) <= 1e-4
    assert len(checked) == 1
    assert not np.array_equal(checked[0], z)
    assert boundary_margin(checked[0], kind) >= 1e-3
