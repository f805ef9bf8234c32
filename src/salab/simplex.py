"""Probability-simplex mappings that normalise attention scores.

A mapping is alpha-entmax, named by alpha alone.  Softmax (alpha 1), sparsemax
(2, the Euclidean projection onto the simplex) and 1.5-entmax have exact
solvers, the last two sort-based.  Every other alpha finds its threshold by
root finding: Newton's method for alpha in (1, 2), bisection for alpha in
(2, 4].  Every solver maps the last axis of an array of any shape, a 1-D
vector included; `apply_mapping_nd` dispatches on alpha, and
`mapping_backward_nd` is the backward pass of the whole family.  An empty
row raises ValueError.  A row holding NaN or +Inf, or only -Inf, maps to a
row that is not all finite, and leaves the other rows of the call as they
would be alone; -Inf among finite scores maps to exact 0.

All arithmetic runs in float64 regardless of the caller's dtype: the
threshold selection is branchy and loses support entries in float32.
Every mapping subtracts the per-row max first, which makes translation
invariance exact rather than approximate; `MappingKind.scaled` is the one
place that maps scores into a sparse mapping's threshold domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities below this are snapped to exact zero for sparse mappings
# so the support mask agrees bit-for-bit with the backward pass.
SPARSE_FLOOR = 1e-12

# Halvings of the bisection bracket [-1, 0] for alpha >= 2, which leave it
# 2**-50 wide (a few float64 ulps); a fixed count keeps runs bit-reproducible.
BISECT_ITERS = 50

# Newton steps for 1 < alpha < 2 from `entmax_bisect_nd`'s lower bound; a fixed count keeps
# runs bit-reproducible and rows independent of their batch.  On all-equal, near-equal,
# two-level, block, linear, one-top, Gaussian, uniform, exponential, Cauchy, geometric and
# masked rows of length 1-1000, alpha 1.0001-1.999, the norm form met a 200-step bisection
# (1e-12 or twice its own error; same zeros) in at most 5 steps, 4 off one-top rows (on the
# sum: 6).  6 keeps a step of margin, but for length-1000 one-top rows at the support's edge.
NEWTON_ITERS = 6


# the named spellings of alpha; any other alpha is spelled entmax:<alpha>
_NAMED_ALPHAS = {"softmax": 1.0, "entmax15": 1.5, "sparsemax": 2.0}
_NAMES = {alpha: name for name, alpha in _NAMED_ALPHAS.items()}


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims, taken across a row-minor copy: numpy
    pays a cost per row reduced along a short last axis, and attention has
    at least as many rows (queries) as entries (keys) per row."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T).max(0).reshape(x.shape[:-1] + (1,))


@dataclass(frozen=True)
class MappingKind:
    """Which normaliser to use inside attention: alpha-entmax at `alpha`.

    alpha = 1 is softmax; otherwise alpha lies in (1, 4].
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha == 1.0 or 1.0 < self.alpha <= 4.0):
            raise ValueError(f"alpha must be 1 or lie in (1, 4], got {self.alpha!r}")

    @classmethod
    def entmax(cls, alpha: float) -> "MappingKind":
        """alpha-entmax for alpha in (1, 4]; alpha = 1 is spelled softmax."""
        if not 1.0 < float(alpha) <= 4.0:
            raise ValueError(f"entmax alpha must lie in (1, 4], got {alpha!r}")
        return cls(float(alpha))

    @classmethod
    def parse(cls, text: str) -> "MappingKind":
        """Parse CLI syntax: softmax | sparsemax | entmax15 | entmax:<alpha>."""
        text = text.strip().lower()
        if text.startswith("entmax:"):
            try:
                alpha = float(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"mapping {text!r}: alpha must be a number") from None
            return cls.entmax(alpha)
        if text not in _NAMED_ALPHAS:
            raise ValueError(f"unknown mapping name: {text!r}")
        return cls(_NAMED_ALPHAS[text])

    @property
    def name(self) -> str:
        return _NAMES.get(self.alpha, f"entmax:{self.alpha:g}")

    def __str__(self) -> str:
        return self.name

    def scaled(self, z: np.ndarray) -> np.ndarray:
        """(alpha - 1) * (z - max z) over the last axis, in float64.

        This is the domain the sparse solvers threshold in: p_i > 0
        exactly where the scaled score exceeds the threshold tau.
        """
        z = np.asarray(z, dtype=np.float64)
        return (self.alpha - 1.0) * (z - _row_max(z))


def softmax_nd(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - _row_max(z))
    return e / e.sum(axis=-1, keepdims=True)


def sparsemax_nd(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sparsemax; returns (p, tau).

    Sort each row descending, find the largest k with
    1 + k*z_(k) > sum of the top k, then threshold at
    tau = (topk_sum - 1) / k and clip.
    """
    z = MappingKind.parse("sparsemax").scaled(z)
    n = z.shape[-1]
    zs = -np.sort(-z, axis=-1)
    cs = np.cumsum(zs, axis=-1)
    k = np.arange(1, n + 1, dtype=np.float64)
    support = 1.0 + k * zs > cs
    k_star = support.sum(axis=-1, keepdims=True)
    top = cs.reshape(-1, n)[np.arange(k_star.size), k_star.reshape(-1) - 1]  # one flat index
    tau = (top.reshape(k_star.shape) - 1.0) / k_star
    p = np.maximum(z - tau, 0.0)
    p[p < SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


def entmax15_nd(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised exact 1.5-entmax; returns (p, tau) in the z/2 domain."""
    z = MappingKind.parse("entmax15").scaled(z)
    n = z.shape[-1]
    # tau >= -1, so a floor at -1e150 changes no sum up to the support's last
    # entry, and past it keeps the sums of squares finite (-Inf included) for
    # rows of up to 1e8 entries
    zs = np.maximum(-np.sort(-z, axis=-1), -1e150)
    k = np.arange(1, n + 1, dtype=np.float64)
    mean = np.cumsum(zs, axis=-1) / k
    ss = k * (np.cumsum(zs**2, axis=-1) / k - mean**2)
    delta = np.maximum((1.0 - ss) / k, 0.0)
    tau_candidates = mean - np.sqrt(delta)
    k_star = (tau_candidates <= zs).sum(axis=-1, keepdims=True)
    tau = tau_candidates.reshape(-1, n)[np.arange(k_star.size), k_star.reshape(-1) - 1]
    tau = tau.reshape(k_star.shape)
    p = np.maximum(z - tau, 0.0) ** 2
    p[p < SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


def entmax_bisect_nd(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generic alpha-entmax by root finding on the threshold; returns (p, tau).

    Solves f(tau) = sum_i max(zz_i - tau, 0)**(1/(alpha-1)) - 1 = 0 for the
    scaled scores zz, whose maximum is 0.  The root lies in [-1, 0]: at -1
    the top entry alone contributes 1, at 0 nothing does.  Masked columns
    (large negative fills) do not widen this bracket.

    For 1 < alpha < 2, Newton's method finds the same root of the norm
    F(tau) = S_a**(1/a) - 1, S_b = sum_i max(zz_i - tau, 0)**b, a = 1/(alpha-1):
    convex, decreasing and closer to linear than f, so from below it climbs to the
    root without overshooting, each step adding (S_a - S_a**(2 - alpha)) / S_(a-1).
    The top entry stays in the support, so the slope is never 0.  The start is the
    largest lower bound mean(top k of zz) - k**(1 - alpha), k = 1..n (by Jensen the
    top k alone give f >= 0 there; k = 1 is the bracket's -1).  For alpha >= 2, f is
    concave with a slope that blows up at the support's edge (at alpha = 2 a Newton
    step would compute 0**0 = 1 outside the support), and the bracket is bisected.
    """
    zz = MappingKind.entmax(alpha).scaled(z)
    inv = 1.0 / (alpha - 1.0)
    if inv > 1.0:
        zs = -np.sort(-zz, axis=-1)
        k = np.arange(1, zz.shape[-1] + 1, dtype=np.float64)
        tau = _row_max(np.cumsum(zs, axis=-1) / k - k ** (1.0 - alpha))
        # tau only rises from here, so an entry at or below it (masked ones
        # included) never enters the support.  Newton runs on the flat
        # candidates alone, and reduceat sums each row's segment on its own.
        # No segment is empty: a finite row's max (0) lies above tau, and a
        # row holding NaN has a NaN tau, so the test keeps its every entry.
        cand = np.flatnonzero(~(zz <= tau))
        row = cand // zz.shape[-1]
        starts = np.searchsorted(row, np.arange(tau.size))
        zc = zz.reshape(-1)[cand]
        tau = tau.reshape(-1)
        for _ in range(NEWTON_ITERS):
            d = np.maximum(zc - tau[row], 0.0)
            t = d ** (inv - 1.0)
            sa = np.add.reduceat(t * d, starts)
            tau += (sa - sa ** (2.0 - alpha)) / np.add.reduceat(t, starts)
        pc = np.maximum(zc - tau[row], 0.0) ** inv
        pc[pc < SPARSE_FLOOR] = 0.0
        p = np.zeros(zz.size)
        p[cand] = pc
        return p.reshape(zz.shape), tau.reshape(zz.shape[:-1])
    else:
        lo = np.full(zz.shape[:-1] + (1,), -1.0)
        hi = np.zeros_like(lo)
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            f = (np.maximum(zz - mid, 0.0) ** inv).sum(axis=-1, keepdims=True) - 1.0
            lo = np.where(f >= 0.0, mid, lo)
            hi = np.where(f >= 0.0, hi, mid)
        tau = 0.5 * (lo + hi)
    p = np.maximum(zz - tau, 0.0) ** inv
    p[p < SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


# the exact solver of each named alpha, returning (p, tau); every other alpha is root-found
_EXACT = {"softmax": lambda z: (softmax_nd(z), np.full(np.shape(z)[:-1], np.nan)),
          "entmax15": entmax15_nd, "sparsemax": sparsemax_nd}


def apply_mapping_nd(z: np.ndarray, kind: MappingKind) -> tuple[np.ndarray, np.ndarray]:
    """Map the last axis by alpha's solver; returns (p, tau), tau NaN for softmax."""
    exact = _EXACT.get(_NAMES.get(kind.alpha))
    return exact(z) if exact else entmax_bisect_nd(z, kind.alpha)


def mapping_backward_nd(
    p: np.ndarray, upstream: np.ndarray, kind: MappingKind
) -> np.ndarray:
    """Jacobian-vector product shared by the whole family.

    With g_i = p_i**(2 - alpha) on the support (softmax g = p, sparsemax
    g = support indicator, 1.5-entmax g = sqrt(p)):

        dz = g * u - (sum(g * u) / sum(g)) * g

    Finite-difference validation pins the leading constant at exactly 1
    for every member, so none is applied.
    """
    p = np.asarray(p, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if p.shape != upstream.shape:
        raise ValueError(
            f"probability/upstream length mismatch: {p.shape} vs {upstream.shape}"
        )
    g = np.where(p > 0.0, p, 1.0) ** (2.0 - kind.alpha) * (p > 0.0)
    gu = (g * upstream).sum(axis=-1, keepdims=True)
    gs = g.sum(axis=-1, keepdims=True)
    return g * upstream - (gu / gs) * g

