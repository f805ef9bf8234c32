"""Fixtures shared by the test modules."""

import csv
import functools
import types

import numpy as np
import pytest


def _read_heatmap(path) -> tuple[np.ndarray, list[str], list[str]]:
    """A heatmap CSV read back with the csv module: (weights, row labels, column labels)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    weights = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return weights, [r[0] for r in rows[1:]], rows[0][1:]


@pytest.fixture
def read_heatmap():
    """The CSV oracle for `evaluation.export_heatmap`'s files."""
    return _read_heatmap


def _saved_arrays(output) -> list[np.ndarray]:
    """Every array that the gradient functions on `output`'s tape hold, once
    each: closure cells and partial arguments, followed through every entry
    the tape links, never into a Tensor's own data."""
    arrays, seen, stack = [], set(), [output._entry]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, functools.partial):
            stack += [obj.func, *obj.args]
        elif isinstance(obj, tuple):
            stack += obj
        elif isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif hasattr(obj, "_parents"):  # a tape entry, or a Tensor: its links, not its data
            stack += [obj._backward, obj._parents]
    return arrays


@pytest.fixture
def saved_arrays():
    """The arrays a tape holds until backward (see `_saved_arrays`)."""
    return _saved_arrays
