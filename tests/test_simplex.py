"""Simplex mapping tests: frozen examples, independent oracles, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import entmax15_root_oracle, projection_oracle

from salab import simplex as sx
from salab.attention import MASK_FILL
from salab.simplex import MappingKind

ALL_KINDS = [
    MappingKind.parse("softmax"),
    MappingKind.parse("sparsemax"),
    MappingKind.parse("entmax15"),
    MappingKind.entmax(1.3),
]


# ---------------------------------------------------------------------------
# independent oracles (the exact ones live in oracles.py)

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


def newton_full_rows(z: np.ndarray, alpha: float, steps: int = sx.NEWTON_ITERS):
    """The Newton solver for 1 < alpha < 2 over every entry of every row.

    Same start, norm-form step and snap as `entmax_bisect_nd`, `steps` steps
    (its own count by default), but each step raises whole rows to a power,
    masked and dropped entries included; returns (p, tau).
    """
    zz = MappingKind.entmax(alpha).scaled(z)
    inv = 1.0 / (alpha - 1.0)
    zs = -np.sort(-zz, axis=-1)
    k = np.arange(1, zz.shape[-1] + 1, dtype=np.float64)
    tau = (np.cumsum(zs, axis=-1) / k - k ** (1.0 - alpha)).max(axis=-1, keepdims=True)
    for _ in range(steps):
        d = np.maximum(zz - tau, 0.0)
        t = d ** (inv - 1.0)
        sa = (t * d).sum(axis=-1, keepdims=True)
        tau += (sa - sa ** (2.0 - alpha)) / t.sum(axis=-1, keepdims=True)
    p = np.maximum(zz - tau, 0.0) ** inv
    p[p < sx.SPARSE_FLOOR] = 0.0
    return p, tau[..., 0]


# ---------------------------------------------------------------------------
# frozen examples

def test_softmax_examples():
    np.testing.assert_allclose(sx.softmax_nd([0, 0, 0]), [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(sx.softmax_nd([math.log(2), 0]), [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(sx.softmax_nd([1, 0]), [0.7311, 0.2689], atol=1e-4)


def test_sparsemax_examples():
    # tau thresholds the scaled scores z - max z: the unscaled threshold minus max z
    p, tau = sx.sparsemax_nd([0.0, 0.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
    assert (p > 0).sum() == 2 and tau == pytest.approx(-0.5)

    p, tau = sx.sparsemax_nd([2.0, 0.0])
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert (p > 0).sum() == 1 and tau + 2.0 == pytest.approx(1.0)

    p, tau = sx.sparsemax_nd([1.0, 0.5])
    np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)
    assert tau + 1.0 == pytest.approx(0.25) and (p > 0).sum() == 2

    p, _ = sx.sparsemax_nd([0.5, 0.2, -0.1])
    np.testing.assert_allclose(p, [0.6333, 0.3333, 0.0333], atol=1e-4)
    assert (p > 0).sum() == 3


def test_sparsemax_examples_match_projection_oracle():
    for z in ([2.0, 0.0], [1.0, 0.5], [0.5, 0.2, -0.1]):
        p, _ = sx.sparsemax_nd(z)
        np.testing.assert_allclose(p, projection_oracle(z), atol=1e-9)


def test_entmax15_examples():
    p, _ = sx.entmax15_nd([0.0, 0.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
    p, _ = sx.entmax15_nd([1.0, 0.0])
    np.testing.assert_allclose(p, [0.8307, 0.1693], atol=1e-3)
    np.testing.assert_allclose(p, entmax15_root_oracle([1.0, 0.0]), atol=1e-9)


def test_interpolation_ordering_example():
    soft = sx.softmax_nd([1.0, 0.0])
    ent, _ = sx.entmax15_nd([1.0, 0.0])
    sp, _ = sx.sparsemax_nd([1.0, 0.0])
    assert soft.max() < ent.max() < sp.max()
    assert soft.max() == pytest.approx(0.7311, abs=1e-4)
    assert ent.max() == pytest.approx(0.8307, abs=1e-4)
    assert sp.max() == pytest.approx(1.0)


def test_entmax_bisect_examples():
    np.testing.assert_allclose(
        sx.entmax_bisect_nd([1.0, 0.5], 2.0)[0], [0.75, 0.25], atol=1e-6
    )
    np.testing.assert_allclose(
        sx.entmax_bisect_nd([1.0, 0.0], 1.5)[0], [0.8307, 0.1693], atol=1e-4
    )
    np.testing.assert_allclose(
        sx.entmax_bisect_nd([1.0, 0.0], 1.001)[0], sx.softmax_nd([1.0, 0.0]), atol=1e-2
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
    sp = MappingKind.parse("sparsemax")
    np.testing.assert_allclose(
        sx.mapping_backward_nd([1.0, 0.0], [3.7, -1.2], sp), [0.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        sx.mapping_backward_nd([0.75, 0.25], [1.0, 0.0], sp), [0.5, -0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        sx.mapping_backward_nd([1 / 3] * 3, [1.0, 1.0, 1.0], MappingKind.parse("softmax")),
        [0.0, 0.0, 0.0],
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# argument validation

@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_rejects_empty_and_nonfinite(kind):
    """An empty row raises; `test_non_finite_rows_stay_non_finite_alone`
    covers what non-finite scores map to."""
    for shape in ((0,), (3, 0)):
        with pytest.raises(ValueError):
            sx.apply_mapping_nd(np.zeros(shape), kind)


@pytest.mark.parametrize("alpha", [1.0, 1.3, 1.5, 1.7, 2.0, 3.0])
def test_non_finite_rows_stay_non_finite_alone(alpha):
    """A row holding NaN or +Inf, or only -Inf, maps to a row that is not
    all finite, and every finite row maps as it does alone; -Inf, or a
    finite score whose square overflows, among finite scores maps to exact 0
    without a warning."""
    kind = MappingKind(alpha)
    rng = np.random.default_rng(16)
    z = rng.normal(0, 3, (8, 5))
    z[1, 2] = np.nan
    z[3, 0] = np.inf
    z[4] = -np.inf
    z[5, :2] = np.inf, -np.inf
    z[6, 3] = -np.inf
    bad = [1, 3, 4, 5]
    with np.errstate(invalid="ignore"):  # the bad rows' inf - inf; the results are checked below
        p, _ = sx.apply_mapping_nd(z, kind)
    for i in range(len(z)):
        if i in bad:
            assert not np.isfinite(p[i]).all()
        else:  # outside errstate: a warning here fails the test
            assert p[i].tobytes() == sx.apply_mapping_nd(z[i], kind)[0].tobytes()
            assert abs(p[i].sum() - 1.0) <= 1e-8
    assert p[6, 3] == 0.0
    for far in (-np.inf, -1e200):  # the square of -1e200 overflows
        q, _ = sx.apply_mapping_nd(np.array([1.0, far, 0.0]), kind)
        assert q[1] == 0.0 and q[0] > q[2] and abs(q.sum() - 1.0) <= 1e-8


def test_entmax_bisect_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sx.entmax_bisect_nd([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        sx.entmax_bisect_nd([1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        MappingKind.entmax(5.0)


def test_backward_rejects_length_mismatch():
    with pytest.raises(ValueError):
        sx.mapping_backward_nd([0.5, 0.5], [1.0], MappingKind.parse("softmax"))


def test_mapping_kind_parse_roundtrip():
    for text in ("softmax", "sparsemax", "entmax15", "entmax:1.7"):
        assert str(MappingKind.parse(text)) == text


def test_mapping_kind_is_its_alpha():
    assert MappingKind.parse("entmax:2") == MappingKind(2.0)
    assert MappingKind.parse("entmax:1.5") == MappingKind(1.5)
    assert str(MappingKind.parse("entmax:2")) == "sparsemax"
    assert [k.alpha for k in ALL_KINDS] == [1.0, 2.0, 1.5, 1.3]
    for bad in ("entmax:1", "entmax:4.5", "sharpmax"):
        with pytest.raises(ValueError):
            MappingKind.parse(bad)
    with pytest.raises(ValueError):
        MappingKind(0.5)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_apply_mapping_nd_returns_the_solvers_p_and_tau(kind):
    """One return shape: (p, tau) with tau one value per row, NaN for softmax."""
    z = np.random.default_rng(21).normal(0, 3, (4, 3, 7))
    p, tau = sx.apply_mapping_nd(z, kind)
    assert p.shape == z.shape and tau.shape == z.shape[:-1]
    if kind.alpha == 1.0:
        assert np.isnan(tau).all()
        assert p.tobytes() == sx.softmax_nd(z).tobytes()
        return
    assert np.isfinite(tau).all()
    solver = {2.0: sx.sparsemax_nd, 1.5: sx.entmax15_nd}.get(
        kind.alpha, lambda z: sx.entmax_bisect_nd(z, kind.alpha))
    p_own, tau_own = solver(z)
    assert p.tobytes() == p_own.tobytes() and tau.tobytes() == tau_own.tobytes()


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
        p, _ = sx.sparsemax_nd(z)
        assert np.abs(p - projection_oracle(z)).max() <= 1e-6


def test_entmax15_matches_bisection_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(500):
        z = rng.normal(0, 3, rng.integers(1, 9))
        p, _ = sx.entmax15_nd(z)
        assert np.abs(p - entmax15_root_oracle(z)).max() <= 1e-5


def test_bisect_agrees_with_exact_algorithms():
    rng = np.random.default_rng(9)
    for _ in range(300):
        z = rng.normal(0, 3, rng.integers(2, 9))
        sp, _ = sx.sparsemax_nd(z)
        assert np.abs(sx.entmax_bisect_nd(z, 2.0)[0] - sp).max() <= 1e-6
        ent, _ = sx.entmax15_nd(z)
        assert np.abs(sx.entmax_bisect_nd(z, 1.5)[0] - ent).max() <= 1e-5


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


NEWTON_ALPHAS = [1.001, 1.05, 1.3, 1.7, 1.99]


@st.composite
def score_rows(draw):
    """[rows, n] scores with masked entries, ties and all-equal rows."""
    n = draw(st.integers(1, 16))
    rows = draw(st.integers(1, 6))
    # a few repeated values make ties likely
    value = st.one_of(st.floats(-10, 10), st.sampled_from([-1.0, 0.0, 2.5]))
    z = np.array(draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    masked = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=rows, max_size=rows)))
    z[masked] = MASK_FILL
    if draw(st.booleans()):
        z[0] = z[0, 0]
    return z.astype(draw(st.sampled_from([np.float64, np.float32])))


@settings(max_examples=300, deadline=None)
@given(z=score_rows(), alpha=st.sampled_from(NEWTON_ALPHAS))
def test_newton_candidates_match_full_rows(z, alpha):
    p, tau = sx.entmax_bisect_nd(z, alpha)
    ref, ref_tau = newton_full_rows(z, alpha)
    np.testing.assert_array_equal(p == 0.0, ref == 0.0)
    assert np.abs(tau - ref_tau).max() <= 1e-15
    assert np.abs(p - ref).max() <= 1e-12


@pytest.mark.parametrize("alpha", NEWTON_ALPHAS)
@pytest.mark.parametrize("shape", [(0, 5), (2, 0, 4), (6,)])
def test_newton_empty_batches_and_1d(alpha, shape):
    z = np.random.default_rng(15).normal(0, 3, shape)
    p, tau = sx.entmax_bisect_nd(z, alpha)
    ref, ref_tau = newton_full_rows(z, alpha)
    assert p.shape == shape and tau.shape == shape[:-1]
    np.testing.assert_array_equal(p == 0.0, ref == 0.0)
    assert np.abs(p - ref).max(initial=0.0) <= 1e-12
    assert np.abs(tau - ref_tau).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("alpha", NEWTON_ALPHAS)
def test_newton_one_hot_row(alpha):
    """The top entry alone is above the start bound, which is the root."""
    z = np.array([[3.0, 3.0 - 2000.0, MASK_FILL, 3.0 - 5000.0]])
    p, tau = sx.entmax_bisect_nd(z, alpha)
    assert np.array_equal(p, [[1.0, 0.0, 0.0, 0.0]]) and np.array_equal(tau, [-1.0])
    ref, ref_tau = newton_full_rows(z, alpha)
    assert np.array_equal(p, ref) and np.array_equal(tau, ref_tau)


@pytest.mark.parametrize("alpha", NEWTON_ALPHAS)
def test_newton_keeps_entry_just_above_start_bound(alpha):
    """A second entry barely above the start bound -1 stays in the support."""
    d = 10 ** (-11 * (alpha - 1))  # its p is about 1e-11, above SPARSE_FLOOR
    z = np.array([[0.0, -(1 - d) / (alpha - 1), MASK_FILL]])
    p, tau = sx.entmax_bisect_nd(z, alpha)
    ref, ref_tau = newton_full_rows(z, alpha)
    assert p[0, 1] > 0.0 and p[0, 2] == 0.0
    np.testing.assert_array_equal(p == 0.0, ref == 0.0)
    assert np.abs(p - ref).max() <= 1e-12 and np.abs(tau - ref_tau).max() <= 1e-15


MARGIN_ALPHAS = [1.0001, 1.01, 1.3, 1.7, 1.95, 1.999]


def _hard_rows(n, seed):
    """Block, linear, one-top, Cauchy and masked rows of length n, 4 each."""
    rng = np.random.default_rng(seed)
    masked = rng.normal(0, 3, (4, n))
    masked[:, 1:][rng.random((4, n - 1)) < rng.uniform(0, 0.9, (4, 1))] = MASK_FILL
    return np.concatenate([
        np.repeat(rng.normal(0, 3, (4, n // 10 + 1)), 10, axis=-1)[:, :n],
        np.linspace(0.0, -1.0, n) * rng.uniform(0.01, 100, (4, 1)),
        np.where(np.arange(n) == 0, rng.uniform(0.5, 30, (4, 1)), 0.0),
        rng.standard_cauchy((4, n)),
        masked,
    ])


def _meets_bisection(p, z, alpha):
    """Per row: p within 1e-12 of a 200-step bisection, with the same zeros.

    Where the bisection's own error, how far its p moves when its tau moves
    one ulp, is larger, within twice that (at alpha 1.0001 it is ~1e-12).
    """
    ref, ref_tau = entmax_bisect_oracle(z, alpha)
    zz = MappingKind.entmax(alpha).scaled(z)
    ulp = np.spacing(np.abs(ref_tau))[..., None]
    moved = np.maximum(zz - ref_tau[..., None] - ulp, 0.0) ** (1.0 / (alpha - 1.0))
    moved[moved < sx.SPARSE_FLOOR] = 0.0
    tol = np.maximum(1e-12, 2.0 * np.abs(moved - ref).max(axis=-1))
    return (np.abs(p - ref).max(axis=-1) <= tol) & ((p == 0.0) == (ref == 0.0)).all(axis=-1)


@pytest.mark.parametrize("alpha", MARGIN_ALPHAS)
def test_newton_keeps_one_step_of_margin(alpha):
    """NEWTON_ITERS - 1 steps already meet the bisection on every row."""
    for n in (2, 12, 100, 1000):
        z = _hard_rows(n, 17 + n)
        assert _meets_bisection(newton_full_rows(z, alpha, sx.NEWTON_ITERS - 1)[0], z, alpha).all()


def test_newton_worst_row_found_needs_every_step():
    """One top entry over 999 equal entries at the support's edge is the
    slowest row found: all NEWTON_ITERS steps meet the bisection, one fewer
    does not.  This pins the count from above, and shows the one row shape
    that has no step of margin."""
    z = np.zeros((1, 1000))
    z[0, 0] = 1.9644142809066267
    assert _meets_bisection(sx.entmax_bisect_nd(z, 1.5)[0], z, 1.5).all()
    assert not _meets_bisection(newton_full_rows(z, 1.5, sx.NEWTON_ITERS - 1)[0], z, 1.5).all()


@pytest.mark.parametrize("alpha", sorted(set(MARGIN_ALPHAS + NEWTON_ALPHAS)))
def test_newton_never_overshoots_the_root(alpha):
    """Newton from below stays below: tau never passes the bisection root."""
    for z in (*(_hard_rows(n, 18 + n) for n in (1, 2, 12, 100)), _masked_rows(19)[0],
              np.where(np.arange(1000) == 0, np.linspace(0.5, 5, 50)[:, None], 0.0)):
        _, tau = sx.entmax_bisect_nd(z, alpha)
        _, ref_tau = entmax_bisect_oracle(z, alpha)
        assert (tau - ref_tau).max() <= 1e-15


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
    return sx.apply_mapping_nd(np.asarray(z, dtype=np.float64), kind)[0]


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
    p, _ = sx.sparsemax_nd([2.0, 0.0, 0.0])
    assert int((p > 0).sum()) == 1
    assert np.all(sx.softmax_nd([2.0, 0.0, 0.0]) > 0)


def test_sparsemax_scale_limit_is_onehot():
    z = np.array([0.3, -0.1, 0.2])
    p, _ = sx.sparsemax_nd(1e6 * z)
    np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])


def test_entmax15_support_between_sparsemax_and_full():
    rng = np.random.default_rng(10)
    for _ in range(200):
        z = rng.normal(0, 3, 8)
        k_sp = int((sx.sparsemax_nd(z)[0] > 0).sum())
        k_ent = int((sx.entmax15_nd(z)[0] > 0).sum())
        assert k_sp <= k_ent <= 8
