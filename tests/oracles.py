"""Brute-force reference oracles, kept independent of the code they check.

`test_simplex`, `test_evaluation` and `test_acceptance` import them from here.
"""

import itertools

import numpy as np


def projection_oracle(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex by support enumeration.

    For each candidate support S the projection restricted to S is
    z_S - tau with tau = (sum(z_S) - 1)/|S|; the true solution is the
    feasible candidate closest to z.
    """
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    best, best_dist = None, np.inf
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            idx = list(S)
            tau = (z[idx].sum() - 1.0) / r
            p = np.zeros(n)
            p[idx] = z[idx] - tau
            if np.any(p[idx] < -1e-12):
                continue
            dist = float(((p - z) ** 2).sum())
            if dist < best_dist:
                best, best_dist = np.maximum(p, 0.0), dist
    return best


def entmax15_root_oracle(z: np.ndarray) -> np.ndarray:
    """Solve sum(max(z/2 - tau, 0)^2) = 1 by bisection to 1e-12."""
    z = np.asarray(z, dtype=np.float64) / 2.0
    lo, hi = float(z.min()) - 1.0, float(z.max())
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float((np.maximum(z - mid, 0.0) ** 2).sum()) >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0) ** 2


def auc_roc_oracle(records):
    """The share of (positive, negative) pairs ranked right, ties counting half."""
    total = correct = 0.0
    for p in records:
        if p.label != 1:
            continue
        for q in records:
            if q.label != 0:
                continue
            total += 1
            correct += 1.0 if p.score > q.score else (0.5 if p.score == q.score else 0.0)
    return correct / total


def auc_pr_oracle(records):
    """Average precision over the ranking by score, ties broken by doc_id."""
    ranked = sorted(records, key=lambda r: (-r.score, r.doc_id))
    n_pos = sum(r.label for r in records)
    total = 0.0
    for i, r in enumerate(ranked):
        if r.label == 1:
            total += sum(q.label for q in ranked[: i + 1]) / (i + 1)
    return total / n_pos
