"""Simplex mapping tests: frozen examples, independent oracles, properties."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salab import simplex as sx
from salab.attention import MASK_FILL
from salab.simplex import MappingKind

ALL_KINDS = [
    MappingKind.softmax(),
    MappingKind.sparsemax(),
    MappingKind.entmax15(),
    MappingKind.entmax(1.3),
]


# ---------------------------------------------------------------------------
# independent oracles

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
            tau = (z[list(S)].sum() - 1.0) / r
            p = np.zeros(n)
            p[list(S)] = z[list(S)] - tau
            if np.any(p[list(S)] < -1e-12):
                continue
            dist = float(((p - z) ** 2).sum())
            if dist < best_dist:
                best, best_dist = np.maximum(p, 0.0), dist
    return best


def entmax15_root_oracle(z: np.ndarray) -> np.ndarray:
    """Solve sum(max(z/2 - tau, 0)^2) = 1 by bisection to 1e-12."""
    z = np.asarray(z, dtype=np.float64) / 2.0

    def f(tau):
        return float((np.maximum(z - tau, 0.0) ** 2).sum()) - 1.0

    lo, hi = float(z.min()) - 1.0, float(z.max())
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0) ** 2


def entmax_bisect_oracle(z: np.ndarray, alpha: float, iters: int = 200):
    """alpha-entmax over the last axis by `iters` halvings of [-1, 0].

    Thresholds (alpha - 1) * (z - max z), whose root lies in [-1, 0];
    returns (p, tau) with p snapped below `SPARSE_FLOOR` like the solvers.
    """
    z = np.asarray(z, dtype=np.float64)
    zz = (alpha - 1.0) * (z - z.max(axis=-1, keepdims=True))
    inv = 1.0 / (alpha - 1.0)
    lo = np.full(zz.shape[:-1] + (1,), -1.0)
    hi = np.zeros_like(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f = (np.maximum(zz - mid, 0.0) ** inv).sum(axis=-1, keepdims=True) - 1.0
        lo = np.where(f >= 0.0, mid, lo)
        hi = np.where(f >= 0.0, hi, mid)
    tau = 0.5 * (lo + hi)
    p = np.maximum(zz - tau, 0.0) ** inv
    p[p < sx.SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


# ---------------------------------------------------------------------------
# frozen examples

def test_softmax_examples():
    np.testing.assert_allclose(sx.softmax([0, 0, 0]), [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(sx.softmax([math.log(2), 0]), [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(sx.softmax([1, 0]), [0.7311, 0.2689], atol=1e-4)


def test_sparsemax_examples():
    p, info = sx.sparsemax([0.0, 0.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
    assert info.support_size == 2 and info.threshold == pytest.approx(-0.5)

    p, info = sx.sparsemax([2.0, 0.0])
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert info.support_size == 1 and info.threshold == pytest.approx(1.0)

    p, info = sx.sparsemax([1.0, 0.5])
    np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)
    assert info.threshold == pytest.approx(0.25) and info.support_size == 2

    p, info = sx.sparsemax([0.5, 0.2, -0.1])
    np.testing.assert_allclose(p, [0.6333, 0.3333, 0.0333], atol=1e-4)
    assert info.support_size == 3


def test_sparsemax_examples_match_projection_oracle():
    for z in ([2.0, 0.0], [1.0, 0.5], [0.5, 0.2, -0.1]):
        p, _ = sx.sparsemax(z)
        np.testing.assert_allclose(p, projection_oracle(z), atol=1e-9)


def test_entmax15_examples():
    p, _ = sx.entmax15([0.0, 0.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
    p, _ = sx.entmax15([1.0, 0.0])
    np.testing.assert_allclose(p, [0.8307, 0.1693], atol=1e-3)
    np.testing.assert_allclose(p, entmax15_root_oracle([1.0, 0.0]), atol=1e-9)


def test_interpolation_ordering_example():
    soft = sx.softmax([1.0, 0.0])
    ent, _ = sx.entmax15([1.0, 0.0])
    sp, _ = sx.sparsemax([1.0, 0.0])
    assert soft.max() < ent.max() < sp.max()
    assert soft.max() == pytest.approx(0.7311, abs=1e-4)
    assert ent.max() == pytest.approx(0.8307, abs=1e-4)
    assert sp.max() == pytest.approx(1.0)


def test_entmax_bisect_examples():
    np.testing.assert_allclose(
        sx.entmax_bisect([1.0, 0.5], 2.0), [0.75, 0.25], atol=1e-6
    )
    np.testing.assert_allclose(
        sx.entmax_bisect([1.0, 0.0], 1.5), [0.8307, 0.1693], atol=1e-4
    )
    np.testing.assert_allclose(
        sx.entmax_bisect([1.0, 0.0], 1.001), sx.softmax([1.0, 0.0]), atol=1e-2
    )


@pytest.mark.parametrize("alpha", [1.3, 1.5, 2.0, 3.0, 4.0])
def test_bisect_masked_rows_stay_on_simplex(alpha):
    """Masked columns (the attention fill) do not loosen the threshold."""
    rng = np.random.default_rng(10)
    z = rng.normal(0, 3, (700, 12))
    masked = rng.random(z.shape).argsort(axis=-1) < (np.arange(700) % 7)[:, None]  # 0-6 of 12
    z[masked] = MASK_FILL
    p, _ = sx.entmax_bisect_nd(z, alpha)
    assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-8
    assert np.all(p[masked] == 0.0)


def test_backward_examples():
    sp = MappingKind.sparsemax()
    np.testing.assert_allclose(
        sx.mapping_backward([1.0, 0.0], [3.7, -1.2], sp), [0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        sx.mapping_backward([0.75, 0.25], [1.0, 0.0], sp), [0.5, -0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        sx.mapping_backward([1 / 3] * 3, [1.0, 1.0, 1.0], MappingKind.softmax()),
        [0.0, 0.0, 0.0],
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# argument validation

@pytest.mark.parametrize("fn", [sx.softmax, sx.sparsemax, sx.entmax15])
def test_rejects_empty_and_nonfinite(fn):
    with pytest.raises(ValueError):
        fn([])
    with pytest.raises(ValueError):
        fn([1.0, np.nan])
    with pytest.raises(ValueError):
        fn([np.inf, 0.0])


def test_entmax_bisect_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sx.entmax_bisect([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        sx.entmax_bisect([1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        MappingKind.entmax(5.0)


def test_backward_rejects_length_mismatch():
    with pytest.raises(ValueError):
        sx.mapping_backward([0.5, 0.5], [1.0], MappingKind.softmax())


def test_mapping_kind_parse_roundtrip():
    for text in ("softmax", "sparsemax", "entmax15", "entmax:1.7"):
        assert str(MappingKind.parse(text)) == text


def test_mapping_kind_is_its_alpha():
    assert MappingKind.parse("entmax:2") == MappingKind.sparsemax()
    assert MappingKind.parse("entmax:1.5") == MappingKind.entmax15()
    assert str(MappingKind.parse("entmax:2")) == "sparsemax"
    assert [k.alpha for k in ALL_KINDS] == [1.0, 2.0, 1.5, 1.3]
    for bad in ("entmax:1", "entmax:4.5", "sharpmax"):
        with pytest.raises(ValueError):
            MappingKind.parse(bad)
    with pytest.raises(ValueError):
        MappingKind(0.5)


@pytest.mark.parametrize("text", ["entmax:abc", "entmax:"])
def test_mapping_kind_parse_names_an_alpha_that_is_no_number(text):
    with pytest.raises(ValueError, match=rf"mapping '{text}': alpha must be a number"):
        MappingKind.parse(text)


# ---------------------------------------------------------------------------
# randomized oracle agreement

def test_sparsemax_matches_projection_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        z = rng.normal(0, 3, rng.integers(1, 5))
        p, _ = sx.sparsemax(z)
        assert np.abs(p - projection_oracle(z)).max() <= 1e-6


def test_entmax15_matches_bisection_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(500):
        z = rng.normal(0, 3, rng.integers(1, 9))
        p, _ = sx.entmax15(z)
        assert np.abs(p - entmax15_root_oracle(z)).max() <= 1e-5


def test_bisect_agrees_with_exact_algorithms():
    rng = np.random.default_rng(9)
    for _ in range(300):
        z = rng.normal(0, 3, rng.integers(2, 9))
        sp, _ = sx.sparsemax(z)
        assert np.abs(sx.entmax_bisect(z, 2.0) - sp).max() <= 1e-6
        ent, _ = sx.entmax15(z)
        assert np.abs(sx.entmax_bisect(z, 1.5) - ent).max() <= 1e-5


# ---------------------------------------------------------------------------
# alpha-entmax root finding: Newton below alpha 2, bisection from 2 up

def _masked_rows(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 3, (700, 12))
    masked = rng.random(z.shape).argsort(axis=-1) < (np.arange(700) % 7)[:, None]  # 0-6 of 12
    z[masked] = MASK_FILL
    return z, masked


@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.7, 1.99])
def test_newton_masked_rows_match_bisection_oracle(alpha):
    z, masked = _masked_rows(11)
    p, _ = sx.entmax_bisect_nd(z, alpha)
    ref, _ = entmax_bisect_oracle(z, alpha)
    assert np.abs(p - ref).max() <= 1e-12
    np.testing.assert_array_equal(p == 0.0, ref == 0.0)
    assert np.all(p[masked] == 0.0)


@pytest.mark.parametrize("n", [40, 1000])
@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.3])
def test_newton_long_rows_match_bisection_oracle(n, alpha):
    rng = np.random.default_rng(12)
    z = np.concatenate([
        np.zeros((1, n)),
        np.full((1, n), 7.0),
        1.0 + 1e-9 * rng.normal(size=(2, n)),
        *(rng.normal(0, sigma, (3, n)) for sigma in (0.01, 1.0, 10.0)),
    ])
    p, _ = sx.entmax_bisect_nd(z, alpha)
    ref, _ = entmax_bisect_oracle(z, alpha)
    assert np.abs(p - ref).max() <= 1e-12
    assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("alpha", [1.3, 1.7])
def test_newton_row_does_not_depend_on_its_batch(alpha):
    z, _ = _masked_rows(13)
    p, tau = sx.entmax_bisect_nd(z, alpha)
    for i in (0, 3, 6, 350, 699):
        p_i, tau_i = sx.entmax_bisect_nd(z[i], alpha)
        assert np.array_equal(p_i, p[i]) and tau_i == tau[i]


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_bisection_unchanged_from_alpha_2(alpha):
    """From alpha 2 up the solver is the 50-halving bisection, bit for bit."""
    z, _ = _masked_rows(14)
    p, tau = sx.entmax_bisect_nd(z, alpha)
    ref, ref_tau = entmax_bisect_oracle(z, alpha, iters=50)
    assert np.array_equal(p, ref) and np.array_equal(tau, ref_tau)


# ---------------------------------------------------------------------------
# hypothesis properties

finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=16
).map(np.array)


def _apply(kind, z):
    return sx.apply_mapping_nd(np.asarray(z, dtype=np.float64), kind)


@settings(max_examples=200, deadline=None)
@given(z=finite_vectors)
def test_simplex_membership(z):
    for kind in ALL_KINDS:
        p = _apply(kind, z)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(z=finite_vectors, c=st.floats(min_value=-10, max_value=10))
def test_translation_invariance(z, c):
    for kind in ALL_KINDS:
        assert np.abs(_apply(kind, z + c) - _apply(kind, z)).max() <= 1e-9


@settings(max_examples=100, deadline=None)
@given(z=finite_vectors, seed=st.integers(0, 2**16))
def test_permutation_equivariance(z, seed):
    perm = np.random.default_rng(seed).permutation(len(z))
    for kind in ALL_KINDS:
        a, b = _apply(kind, z[perm]), _apply(kind, z)[perm]
        if kind.name in ("sparsemax", "entmax15"):
            # sort-based algorithms take the identical path after sorting
            assert np.array_equal(a, b)
        else:
            # softmax/bisection reductions round permutation-dependently
            assert np.abs(a - b).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(z=finite_vectors)
def test_monotone_ordering(z):
    order = np.argsort(-z, kind="stable")
    for kind in ALL_KINDS:
        p = _apply(kind, z)[order]
        assert np.all(np.diff(p) <= 1e-12)


def test_sparsity_contrast():
    p, info = sx.sparsemax([2.0, 0.0, 0.0])
    assert int((p > 0).sum()) == 1 and info.support_size == 1
    assert np.all(sx.softmax([2.0, 0.0, 0.0]) > 0)


def test_sparsemax_scale_limit_is_onehot():
    z = np.array([0.3, -0.1, 0.2])
    p, _ = sx.sparsemax(1e6 * z)
    np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])


def test_entmax15_support_between_sparsemax_and_full():
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = rng.normal(0, 3, 8)
        k_sp = int((sx.sparsemax(z)[0] > 0).sum())
        k_ent = int((sx.entmax15(z)[0] > 0).sum())
        assert k_sp <= k_ent <= 8
