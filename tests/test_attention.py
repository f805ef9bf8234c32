"""Attention layer tests: masking, sparsity contrast, gradients."""

import math

import numpy as np
import pytest

from salab.attention import (
    MASK_FILL,
    add_positional_embeddings,
    multi_head_attention,
    scaled_dot_attention,
    transformer_encoder_layer,
)
from salab.autodiff import Tensor, attention_weights, bce_with_logits, grad_check
from salab.exceptions import EmptyPoolError, ShapeError
from salab.simplex import MappingKind


def rand_t(rng, *shape):
    return Tensor(rng.normal(0, 1, shape), requires_grad=True)


def mha_params(rng, d, prefix=""):
    p = {}
    for w in ("wq", "wk", "wv", "wo"):
        p[prefix + w] = rand_t(rng, d, d)
    for b in ("bq", "bk", "bv", "bo"):
        p[prefix + b] = Tensor(np.zeros(d), requires_grad=True)
    return p


def layer_params(rng, d, prefix=""):
    p = mha_params(rng, d, prefix)
    p[prefix + "ln1_g"] = Tensor(np.ones(d), requires_grad=True)
    p[prefix + "ln1_b"] = Tensor(np.zeros(d), requires_grad=True)
    p[prefix + "ln2_g"] = Tensor(np.ones(d), requires_grad=True)
    p[prefix + "ln2_b"] = Tensor(np.zeros(d), requires_grad=True)
    p[prefix + "ffn_w1"] = rand_t(rng, d, 2 * d)
    p[prefix + "ffn_b1"] = Tensor(np.zeros(2 * d), requires_grad=True)
    p[prefix + "ffn_w2"] = rand_t(rng, 2 * d, d)
    p[prefix + "ffn_b2"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def test_single_position_passes_value_through():
    rng = np.random.default_rng(0)
    q, k, v = (rand_t(rng, 1, 4) for _ in range(3))
    out, w = scaled_dot_attention(q, k, v, None, MappingKind.sparsemax())
    np.testing.assert_allclose(out.data, v.data)
    np.testing.assert_array_equal(w, [[[1.0]]])


def test_identical_keys_give_uniform_softmax_weights():
    rng = np.random.default_rng(1)
    q = rand_t(rng, 3, 4)
    k = Tensor(np.tile(rng.normal(0, 1, 4), (3, 1)))
    v = rand_t(rng, 3, 4)
    _, w = scaled_dot_attention(q, k, v, None, MappingKind.softmax())
    np.testing.assert_allclose(w, 1 / 3, atol=1e-9)


def test_dominant_key_sparsemax_is_onehot():
    x = np.zeros((3, 2))
    x[1] = [30.0, 0.0]
    q = Tensor(np.tile([30.0, 0.0], (3, 1)))
    k = Tensor(x)
    v = Tensor(np.arange(6, dtype=float).reshape(3, 2))
    out, w = scaled_dot_attention(q, k, v, None, MappingKind.sparsemax())
    np.testing.assert_array_equal(w[0, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(out.data[0], v.data[1])


def test_all_masked_row_raises():
    rng = np.random.default_rng(2)
    q, k, v = (rand_t(rng, 2, 4) for _ in range(3))
    with pytest.raises(EmptyPoolError):
        scaled_dot_attention(q, k, v, np.array([False, False]), MappingKind.softmax())


def test_mismatched_shapes_raise_shape_error():
    rng = np.random.default_rng(16)
    q = rand_t(rng, 2, 3, 4)
    for k in (rand_t(rng, 3, 3, 4), rand_t(rng, 2, 3, 6)):
        with pytest.raises(ShapeError):
            scaled_dot_attention(q, k, k, None, MappingKind.softmax())


@pytest.mark.parametrize("heads", [3, 0])
def test_heads_not_splitting_the_last_axis_raise_shape_error(heads):
    q = rand_t(np.random.default_rng(17), 2, 3, 4)
    with pytest.raises(ShapeError, match=rf"q \(2, 3, 4\).*heads {heads}"):
        scaled_dot_attention(q, q, q, None, MappingKind.softmax(), heads=heads)


@pytest.mark.parametrize(
    "kind",
    [
        MappingKind.softmax(),
        MappingKind.sparsemax(),
        MappingKind.entmax15(),
        MappingKind.entmax(1.3),
        MappingKind.entmax(3.0),
    ],
)
def test_mask_soundness(kind):
    """Changing a masked position's content never changes the output."""
    rng = np.random.default_rng(3)
    base = rng.normal(0, 1, (4, 4))
    mask = np.array([True, True, True, False])
    variant = base.copy()
    variant[3] = rng.normal(0, 100, 4)
    outs = []
    for x in (base, variant):
        t = Tensor(x)
        out, w = scaled_dot_attention(t, t, t, mask, kind)
        assert np.all(w[0, :3, 3] == 0.0)
        outs.append(out.data[:3])
    np.testing.assert_array_equal(outs[0], outs[1])


def test_rowwise_simplex_invariant_and_sparsity_contrast():
    rng = np.random.default_rng(4)
    zeros = {}
    for kind in (MappingKind.softmax(), MappingKind.sparsemax()):
        count = 0
        for _ in range(100):
            x = rand_t(rng, 10, 8)
            _, w = scaled_dot_attention(x, x, x, None, kind)
            assert np.all(w >= 0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
            count += int((w == 0.0).any(axis=-1).sum())
        zeros[kind.name] = count
    assert zeros["softmax"] == 0
    assert zeros["sparsemax"] > 200  # out of 1000 rows


def test_permutation_equivariance_without_positions():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, (6, 4))
    perm = rng.permutation(6)
    params = mha_params(rng, 4)
    kw = {"mapping": MappingKind.entmax15(), "heads": 2}
    out1, _ = multi_head_attention(Tensor(x), params, **kw)
    out2, _ = multi_head_attention(Tensor(x[perm]), params, **kw)
    np.testing.assert_allclose(out2.data, out1.data[perm], atol=1e-10)


def test_multi_head_single_head_reduces_to_scaled_dot():
    rng = np.random.default_rng(6)
    x = rand_t(rng, 5, 4)
    params = mha_params(rng, 4)
    out, w = multi_head_attention(x, params)
    from salab.autodiff import linear

    q = linear(x, params["wq"], params["bq"])
    k = linear(x, params["wk"], params["bk"])
    v = linear(x, params["wv"], params["bv"])
    ref, wref = scaled_dot_attention(q, k, v, None, MappingKind.softmax())
    ref = linear(ref, params["wo"], params["bo"])
    np.testing.assert_allclose(out.data, ref.data, atol=1e-10)
    np.testing.assert_allclose(w, wref, atol=1e-12)


@pytest.mark.parametrize("n,d,h", [(3, 4, 1), (5, 6, 2), (2, 8, 4)])
def test_multi_head_shape_sweep(n, d, h):
    rng = np.random.default_rng(7)
    x = rand_t(rng, n, d)
    out, w = multi_head_attention(x, mha_params(rng, d), heads=h)
    assert out.shape == (n, d)
    assert w.shape == (h, n, n)


def test_multi_head_gradcheck_two_heads():
    rng = np.random.default_rng(8)
    x = rand_t(rng, 3, 4)
    params = mha_params(rng, 4)

    def f():
        out, _ = multi_head_attention(x, params, heads=2)
        return (out * out).sum()

    assert grad_check(f, {"x": x, **params}) <= 1e-4


def test_positional_embeddings():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(0, 1, (3, 4)))
    zero = Tensor(np.zeros((5, 4)))
    np.testing.assert_array_equal(add_positional_embeddings(x, zero).data, x.data)
    table = Tensor(rng.normal(0, 1, (5, 4)))
    np.testing.assert_array_equal(
        add_positional_embeddings(Tensor(np.zeros((3, 4))), table).data,
        table.data[:3],
    )
    with pytest.raises(ShapeError):
        add_positional_embeddings(Tensor(np.zeros((9, 4))), table)


def test_positional_embeddings_make_layer_order_sensitive():
    rng = np.random.default_rng(10)
    x = rng.normal(0, 1, (4, 4))
    perm = np.array([1, 0, 3, 2])
    table = Tensor(rng.normal(0, 1, (4, 4)), requires_grad=True)
    params = layer_params(rng, 4)

    def run(inp):
        h = add_positional_embeddings(Tensor(inp), table)
        out, _ = transformer_encoder_layer(h, params)
        return out.data

    assert np.abs(run(x)[perm] - run(x[perm])).max() > 1e-4


def test_encoder_layer_shape_and_mask_record():
    rng = np.random.default_rng(11)
    x = rand_t(rng, 5, 6)
    mask = np.array([True, True, True, False, False])
    out, w = transformer_encoder_layer(
        x, layer_params(rng, 6), mask, mapping=MappingKind.sparsemax(), heads=2)
    assert out.shape == x.shape
    assert np.all(w[:, :, 3:] == 0.0)


def test_encoder_layer_gradcheck():
    rng = np.random.default_rng(12)
    x = rand_t(rng, 3, 4)
    params = layer_params(rng, 4)
    labels = np.array([1.0, 0.0, 1.0])

    def f():
        out, _ = transformer_encoder_layer(x, params, mapping=MappingKind.entmax15())
        return bce_with_logits(out.sum(axis=-1), labels).mean()

    assert grad_check(f, {"x": x, **params}) <= 1e-4


def op_chain_attention(q, k, v, mask, mapping, heads):
    """Attention as a chain of Tensor ops: the head split and merge of
    multi-head attention (none when `heads` is None) around swapaxes,
    matmul, scale, masked_fill, the mapping and the value matmul."""
    if heads is not None:
        q, k, v = (t.reshape(*t.shape[:-1], heads, t.shape[-1] // heads).swapaxes(-2, -3)
                   for t in (q, k, v))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        keep = mask[..., None, :] if heads is None else mask[..., None, None, :]
        scores = scores.masked_fill(keep, MASK_FILL)
    weights = attention_weights(scores, mapping)
    out = weights @ v
    if heads is not None:
        out = out.swapaxes(-2, -3)
        out = out.reshape(*out.shape[:-2], out.shape[-2] * out.shape[-1])
    return out, weights.data.astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("heads", [None, 1, 2])
def test_attention_call_equals_op_chain_bit_for_bit(heads, masked, dtype):
    """A call with the default head count equals the head-less chain; an
    explicit head count equals the chain split into that many heads."""
    rng = np.random.default_rng(13)
    inputs = [rng.normal(0, 1, (3, 5, 4)).astype(dtype) for _ in range(3)]
    upstream = Tensor(rng.normal(0, 1, (3, 5, 4)).astype(dtype))
    mask = np.arange(5) < np.array([[3], [5], [1]]) if masked else None
    head_args = () if heads is None else (heads,)
    results = []
    for attend, args in ((scaled_dot_attention, head_args), (op_chain_attention, (heads,))):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in inputs)
        out, w = attend(q, k, v, mask, MappingKind.entmax(1.3), *args)
        (out * upstream).sum().backward()
        results.append([out.data, w, q.grad, k.grad, v.grad])
    if heads is None:  # the head-less chain's weights have no head axis
        results[0][1] = results[0][1][..., 0, :, :]
    for new, old in zip(*results):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def test_multi_head_gradcheck_masked_entmax13():
    rng = np.random.default_rng(14)
    x = rand_t(rng, 2, 4, 4)
    params = mha_params(rng, 4)
    mask = np.array([[True, True, True, False], [True, True, False, False]])

    def f():
        out, _ = multi_head_attention(x, params, mask, mapping=MappingKind.entmax(1.3), heads=2)
        return (out * out).sum()

    assert grad_check(f, {"x": x, **params}) <= 1e-4


@pytest.mark.parametrize("heads", [1, 2])
def test_one_attention_call_records_three_tape_nodes(heads, monkeypatch):
    rng = np.random.default_rng(15)
    q, k, v = (rand_t(rng, 2, 3, 4) for _ in range(3))
    made = []
    init = Tensor.__init__

    def counted_init(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    scaled_dot_attention(q, k, v, np.array([True, True, False]), MappingKind.softmax(), heads)
    monkeypatch.undo()
    assert len(made) == 3
    assert all(t._parents for t in made)
