"""Probability-simplex mappings that normalise attention scores.

A mapping is alpha-entmax, named by alpha alone.  Softmax (alpha 1), sparsemax
(2, the Euclidean projection onto the simplex) and 1.5-entmax have exact
solvers, the last two sort-based.  Every other alpha finds its threshold by
root finding: Newton's method for alpha in (1, 2), bisection for alpha in
(2, 4].  Each comes in a 1-D public form and an ``*_nd`` form vectorised over
the last axis.

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

# Newton steps for 1 < alpha < 2, from the sort-based lower bound in
# `entmax_bisect_nd`.  The count is fixed, not a convergence test, so runs
# are bit-reproducible and a row's result does not depend on the other rows
# in its batch.  Over all-equal, two-level, Gaussian, uniform, exponential,
# Cauchy and geometric rows of length 2 to 1000 at alpha 1.0001 to 1.999,
# at most 6 steps brought every row within 1e-12 of a 200-step bisection
# (or within twice that bisection's own error, where it is larger); from
# tau = -1 it took 11.  One step of margin gives 7.
NEWTON_ITERS = 7


# the named spellings of alpha; any other alpha is spelled entmax:<alpha>
_NAMED_ALPHAS = {"softmax": 1.0, "entmax15": 1.5, "sparsemax": 2.0}
_NAMES = {alpha: name for name, alpha in _NAMED_ALPHAS.items()}


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
    def softmax(cls) -> "MappingKind":
        return cls(1.0)

    @classmethod
    def sparsemax(cls) -> "MappingKind":
        return cls(2.0)

    @classmethod
    def entmax15(cls) -> "MappingKind":
        return cls(1.5)

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
        return (self.alpha - 1.0) * (z - z.max(axis=-1, keepdims=True))


@dataclass(frozen=True)
class SupportInfo:
    """Threshold and support of a sparse mapping's output."""

    threshold: float
    support_size: int
    support_mask: np.ndarray


def _check_input(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("input must be a non-empty 1-D vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("input contains NaN or Inf")
    return z


# ---------------------------------------------------------------------------
# batched forms, last axis

def softmax_nd(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sparsemax_nd(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sparsemax; returns (p, tau).

    Sort each row descending, find the largest k with
    1 + k*z_(k) > sum of the top k, then threshold at
    tau = (topk_sum - 1) / k and clip.
    """
    z = MappingKind.sparsemax().scaled(z)
    n = z.shape[-1]
    zs = -np.sort(-z, axis=-1)
    cs = np.cumsum(zs, axis=-1)
    k = np.arange(1, n + 1, dtype=np.float64)
    support = 1.0 + k * zs > cs
    k_star = support.sum(axis=-1, keepdims=True)
    tau = (np.take_along_axis(cs, k_star - 1, axis=-1) - 1.0) / k_star
    p = np.maximum(z - tau, 0.0)
    p[p < SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


def entmax15_nd(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised exact 1.5-entmax; returns (p, tau) in the z/2 domain."""
    z = MappingKind.entmax15().scaled(z)
    n = z.shape[-1]
    zs = -np.sort(-z, axis=-1)
    k = np.arange(1, n + 1, dtype=np.float64)
    mean = np.cumsum(zs, axis=-1) / k
    mean_sq = np.cumsum(zs**2, axis=-1) / k
    ss = k * (mean_sq - mean**2)
    delta = np.maximum((1.0 - ss) / k, 0.0)
    tau_candidates = mean - np.sqrt(delta)
    k_star = (tau_candidates <= zs).sum(axis=-1, keepdims=True)
    tau = np.take_along_axis(tau_candidates, k_star - 1, axis=-1)
    p = np.maximum(z - tau, 0.0) ** 2
    p[p < SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


def entmax_bisect_nd(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generic alpha-entmax by root finding on the threshold; returns (p, tau).

    Solves f(tau) = sum_i max(zz_i - tau, 0)**(1/(alpha-1)) - 1 = 0 for the
    scaled scores zz, whose maximum is 0.  The root lies in [-1, 0]: at -1
    the top entry alone contributes 1, at 0 nothing does.  Masked columns
    (large negative fills) do not widen this bracket.

    For 1 < alpha < 2, f is convex and decreasing, so Newton's method
    started below the root climbs to it without overshooting; the top entry
    stays in the support, so the slope is never 0.  The start is the largest
    of the lower bounds mean(top k of zz) - k**(1 - alpha), k = 1..n: by
    Jensen's inequality the top k entries alone already give f >= 0 there,
    and k = 1 is the bracket's -1.  For alpha >= 2, f is concave with a
    slope that blows up at the support's edge, and the bracket is bisected.
    (At alpha = 2 the Newton step would compute 0**0 = 1 for entries outside
    the support.)
    """
    zz = MappingKind.entmax(alpha).scaled(z)
    inv = 1.0 / (alpha - 1.0)
    if inv > 1.0:
        zs = -np.sort(-zz, axis=-1)
        k = np.arange(1, zz.shape[-1] + 1, dtype=np.float64)
        tau = (np.cumsum(zs, axis=-1) / k - k ** (1.0 - alpha)).max(axis=-1, keepdims=True)
        for _ in range(NEWTON_ITERS):
            d = np.maximum(zz - tau, 0.0)
            t = d ** (inv - 1.0)
            f = (t * d).sum(axis=-1, keepdims=True) - 1.0
            tau += f / (inv * t.sum(axis=-1, keepdims=True))
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


def apply_mapping_nd(
    z: np.ndarray, kind: MappingKind, return_threshold: bool = False
):
    """Dispatch on alpha over the last axis. Threshold rows are NaN for softmax."""
    if kind.alpha == 1.0:
        p = softmax_nd(z)
        tau = np.full(p.shape[:-1], np.nan)
    elif kind.alpha == 2.0:
        p, tau = sparsemax_nd(z)
    elif kind.alpha == 1.5:
        p, tau = entmax15_nd(z)
    else:
        p, tau = entmax_bisect_nd(z, kind.alpha)
    if return_threshold:
        return p, tau
    return p


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


# ---------------------------------------------------------------------------
# 1-D public API

def softmax(z) -> np.ndarray:
    return softmax_nd(_check_input(z))


def _with_support(z, kind: MappingKind) -> tuple[np.ndarray, SupportInfo]:
    z = _check_input(z)
    p, tau = apply_mapping_nd(z, kind, return_threshold=True)
    # tau thresholds kind.scaled(z); report it against (alpha - 1) * z,
    # the caller's untranslated coordinates
    tau = float(tau) + (kind.alpha - 1.0) * float(z.max())
    mask = p > 0.0
    return p, SupportInfo(tau, int(mask.sum()), mask)


def sparsemax(z) -> tuple[np.ndarray, SupportInfo]:
    return _with_support(z, MappingKind.sparsemax())


def entmax15(z) -> tuple[np.ndarray, SupportInfo]:
    return _with_support(z, MappingKind.entmax15())


def entmax_bisect(z, alpha: float) -> np.ndarray:
    """alpha-entmax of a 1-D vector by `entmax_bisect_nd`'s root finding."""
    p, _ = entmax_bisect_nd(_check_input(z), alpha)
    return p


def mapping_backward(p, upstream, kind: MappingKind) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if p.ndim != 1 or upstream.ndim != 1:
        raise ValueError("expected 1-D vectors")
    return mapping_backward_nd(p, upstream, kind)
