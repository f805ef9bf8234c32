"""Fixtures shared by the test modules."""

import csv

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
