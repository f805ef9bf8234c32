"""Attention layer tests: masking, sparsity contrast, gradients."""

import math

import numpy as np
import pytest
from oracles import mapping_node

from salab.attention import (
    MASK_FILL,
    AttentionRecord,
    Packing,
    add_positional_embeddings,
    scaled_dot_attention,
    transformer_encoder_layer,
)
from salab.autodiff import Tensor, bce_with_logits, linear
from salab.exceptions import EmptyPoolError, ShapeError
from salab.simplex import MappingKind
from salab.validation import grad_check


def rand_t(rng, *shape):
    return Tensor(rng.normal(0, 1, shape), requires_grad=True)


def every_unit(x):
    """The `Packing` that takes every slot of x's [..., n, d] grid as a real unit."""
    return Packing(np.ones(x.shape[:-1], dtype=bool))


def layer_params(rng, d, prefix=""):
    p = {}
    for w in ("wq", "wk", "wv", "wo"):
        p[prefix + w] = rand_t(rng, d, d)
    for b in ("bq", "bk", "bv", "bo"):
        p[prefix + b] = Tensor(np.zeros(d), requires_grad=True)
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
    out, w = scaled_dot_attention(q, k, v, every_unit(q), MappingKind.parse("sparsemax"))
    np.testing.assert_allclose(out.data, v.data)
    np.testing.assert_array_equal(w, [[[1.0]]])


def test_identical_keys_give_uniform_softmax_weights():
    rng = np.random.default_rng(1)
    q = rand_t(rng, 3, 4)
    k = Tensor(np.tile(rng.normal(0, 1, 4), (3, 1)))
    v = rand_t(rng, 3, 4)
    _, w = scaled_dot_attention(q, k, v, every_unit(q), MappingKind.parse("softmax"))
    np.testing.assert_allclose(w, 1 / 3, atol=1e-9)


def test_dominant_key_sparsemax_is_onehot():
    x = np.zeros((3, 2))
    x[1] = [30.0, 0.0]
    q = Tensor(np.tile([30.0, 0.0], (3, 1)))
    k = Tensor(x)
    v = Tensor(np.arange(6, dtype=float).reshape(3, 2))
    out, w = scaled_dot_attention(q, k, v, every_unit(q), MappingKind.parse("sparsemax"))
    np.testing.assert_array_equal(w[0, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(out.data[0], v.data[1])


def test_all_masked_row_raises():
    """A group with no real unit has no packed layout, so no attention row without a key."""
    with pytest.raises(EmptyPoolError):
        Packing(np.array([[True, False], [False, False]]))


def test_packing_unpacks_rows_into_their_slots_and_packs_them_back():
    mask = np.array([[True, True, False], [True, False, False]])
    units = Packing(mask)
    rows = np.arange(6.0).reshape(3, 2)
    grid = units.unpack(rows)
    assert grid.shape == (2, 3, 2)
    np.testing.assert_array_equal(grid[mask], rows)
    assert not grid[~mask].any()
    np.testing.assert_array_equal(units.pack(grid), rows)
    np.testing.assert_array_equal(units.counts, [2, 1])


def test_mismatched_shapes_raise_shape_error():
    rng = np.random.default_rng(16)
    q = rand_t(rng, 2, 3, 4)
    for k in (rand_t(rng, 3, 3, 4), rand_t(rng, 2, 3, 6)):
        with pytest.raises(ShapeError):
            scaled_dot_attention(q, k, k, every_unit(q), MappingKind.parse("softmax"))


@pytest.mark.parametrize("heads", [3, 0])
def test_heads_not_splitting_the_last_axis_raise_shape_error(heads):
    q = rand_t(np.random.default_rng(17), 2, 3, 4)
    with pytest.raises(ShapeError, match=rf"q \(2, 3, 4\).*heads {heads}"):
        scaled_dot_attention(q, q, q, every_unit(q), MappingKind.parse("softmax"), heads=heads)


@pytest.mark.parametrize(
    "kind",
    [
        MappingKind.parse("softmax"),
        MappingKind.parse("sparsemax"),
        MappingKind.parse("entmax15"),
        MappingKind.entmax(1.3),
        MappingKind.entmax(3.0),
    ],
)
def test_mask_soundness(kind):
    """A padding slot holds no row and changes nothing: the packed call
    equals the call over the real units alone, and the padding slot's key
    column and query row are exactly 0."""
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(0, 1, (3, 4)))
    out, w = scaled_dot_attention(t, t, t, Packing(np.array([True, True, True, False])), kind)
    alone, w_alone = scaled_dot_attention(t, t, t, every_unit(t), kind)
    assert w.shape == (1, 4, 4)
    assert np.all(w[0, :, 3] == 0.0) and np.all(w[0, 3] == 0.0)
    np.testing.assert_allclose(out.data, alone.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w[:, :3, :3], w_alone, rtol=0, atol=1e-12)


def test_rowwise_simplex_invariant_and_sparsity_contrast():
    rng = np.random.default_rng(4)
    zeros = {}
    for kind in (MappingKind.parse("softmax"), MappingKind.parse("sparsemax")):
        count = 0
        for _ in range(100):
            x = rand_t(rng, 10, 8)
            _, w = scaled_dot_attention(x, x, x, every_unit(x), kind)
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
    params = layer_params(rng, 4)
    kw = {"training": False, "rng": rng, "prefix": "", "mapping": MappingKind.parse("entmax15"),
          "heads": 2, "dropout_rate": 0.0}
    out1, _ = transformer_encoder_layer(Tensor(x), params, every_unit(x), **kw)
    out2, _ = transformer_encoder_layer(Tensor(x[perm]), params, every_unit(x), **kw)
    np.testing.assert_allclose(out2.data, out1.data[perm], atol=1e-10)


def test_multi_head_single_head_reduces_to_scaled_dot():
    rng = np.random.default_rng(6)
    x = rand_t(rng, 5, 4)
    params = layer_params(rng, 4)
    _, w = transformer_encoder_layer(x, params, every_unit(x), False, rng, "",
                                     MappingKind.parse("softmax"), 1, 0.0)
    q, k, v = (linear(x, params[f"w{c}"], params[f"b{c}"]) for c in "qkv")
    _, wref = scaled_dot_attention(q, k, v, every_unit(q), MappingKind.parse("softmax"))
    np.testing.assert_allclose(w, wref, atol=1e-12)


@pytest.mark.parametrize("n,d,h", [(3, 4, 1), (5, 6, 2), (2, 8, 4)])
def test_multi_head_shape_sweep(n, d, h):
    rng = np.random.default_rng(7)
    x = rand_t(rng, n, d)
    out, w = transformer_encoder_layer(x, layer_params(rng, d), every_unit(x), False, rng, "",
                                       MappingKind.parse("softmax"), h, 0.0)
    assert out.shape == (n, d)
    assert w.shape == (h, n, n)


def test_multi_head_gradcheck_two_heads():
    rng = np.random.default_rng(8)
    x = rand_t(rng, 3, 4)
    params = layer_params(rng, 4)

    def f():
        out, _ = transformer_encoder_layer(x, params, every_unit(x), False, rng, "",
                                           MappingKind.parse("softmax"), 2, 0.0)
        return (out * out).sum()

    assert grad_check(f, {"x": x, **params}) <= 1e-4


def test_positional_embeddings():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(0, 1, (3, 4)))
    zero = Tensor(np.zeros((5, 4)))
    units = every_unit(x)
    np.testing.assert_array_equal(add_positional_embeddings(x, zero, units).data, x.data)
    table = Tensor(rng.normal(0, 1, (5, 4)))
    np.testing.assert_array_equal(
        add_positional_embeddings(Tensor(np.zeros((3, 4))), table, units).data,
        table.data[:3],
    )
    long = Tensor(np.zeros((9, 4)))
    with pytest.raises(ShapeError):
        add_positional_embeddings(long, table, every_unit(long))


def test_positional_embeddings_make_layer_order_sensitive():
    rng = np.random.default_rng(10)
    x = rng.normal(0, 1, (4, 4))
    perm = np.array([1, 0, 3, 2])
    table = Tensor(rng.normal(0, 1, (4, 4)), requires_grad=True)
    params = layer_params(rng, 4)

    def run(inp):
        h = add_positional_embeddings(Tensor(inp), table, every_unit(inp))
        out, _ = transformer_encoder_layer(h, params, every_unit(inp), False, rng, "",
                                           MappingKind.parse("softmax"), 1, 0.0)
        return out.data

    assert np.abs(run(x)[perm] - run(x[perm])).max() > 1e-4


def test_encoder_layer_shape_and_mask_record():
    rng = np.random.default_rng(11)
    x = rand_t(rng, 3, 6)
    units = Packing(np.array([True, True, True, False, False]))
    out, w = transformer_encoder_layer(
        x, layer_params(rng, 6), units, False, rng, "", MappingKind.parse("sparsemax"), 2, 0.0)
    assert out.shape == x.shape
    assert w.shape == (2, 5, 5)
    assert np.all(w[:, :, 3:] == 0.0) and np.all(w[:, 3:] == 0.0)


def test_encoder_layer_gradcheck():
    rng = np.random.default_rng(12)
    x = rand_t(rng, 3, 4)
    params = layer_params(rng, 4)
    labels = np.array([1.0, 0.0, 1.0])

    def f():
        out, _ = transformer_encoder_layer(x, params, every_unit(x), False, rng, "",
                                           MappingKind.parse("entmax15"), 1, 0.0)
        return bce_with_logits(out.sum(axis=-1), labels)

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
    weights = mapping_node(scores, mapping)
    out = weights @ v
    if heads is not None:
        out = out.swapaxes(-2, -3)
        out = out.reshape(*out.shape[:-2], out.shape[-2] * out.shape[-1])
    return out, weights.data


def assert_call_equals_padded_op_chain(heads, mask, dtype, mapping):
    """The call on the real rows of random [3, 5, 4] grids (every row with
    `mask` None) equals the op chain on the grids, whose padding slots hold
    random values too, byte for byte on the real rows, in the inputs' dtype; the
    call's padding-query weight rows are 0.  The upstream gradient is 0 on
    padding rows, as in the models."""
    rng = np.random.default_rng(13)
    inputs = [rng.normal(0, 1, (3, 5, 4)).astype(dtype) for _ in range(3)]
    real = np.ones((3, 5), dtype=bool) if mask is None else mask
    upstream = rng.normal(0, 1, (3, 5, 4)).astype(dtype) * real[..., None]
    results = []
    for attend in (scaled_dot_attention, op_chain_attention):
        packed = attend is scaled_dot_attention
        q, k, v = (Tensor(a[real] if packed else a, requires_grad=True) for a in inputs)
        units = Packing(real) if packed else mask
        args = (heads,) if heads is not None or not packed else ()
        out, w = attend(q, k, v, units, mapping, *args)
        (out * Tensor(upstream[real] if packed else upstream)).sum().backward()
        if w.ndim == 4:  # the head axis after the query axis, as for the rows
            w = w.swapaxes(1, 2)
        results.append([w, out.data, q.grad, k.grad, v.grad])
    (w, *rows), (w_chain, *rows_chain) = results
    if heads is None:  # the head-less chain's weights have no head axis
        w = w[:, :, 0]
    assert w.dtype == w_chain.dtype and w.shape == w_chain.shape
    assert w[real].tobytes() == w_chain[real].tobytes()
    assert not w[~real].any()
    for new, old in zip(rows, rows_chain):
        assert new.dtype == old.dtype
        assert new.reshape(-1, 4).tobytes() == old[real].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("heads", [None, 1, 2])
def test_attention_call_equals_op_chain_bit_for_bit(heads, masked, dtype):
    """A call with the default head count equals the head-less chain; an
    explicit head count equals the chain split into that many heads.  A
    masked call takes the real rows only and equals the chain on them."""
    mask = np.arange(5) < np.array([[3], [5], [1]]) if masked else None
    assert_call_equals_padded_op_chain(heads, mask, dtype, MappingKind.entmax(1.3))


@pytest.mark.parametrize("mapping", ["softmax", "sparsemax", "entmax15", "entmax:1.3", "entmax:3"])
def test_packed_call_equals_padded_op_chain_on_real_rows(mapping):
    mask = np.arange(5) < np.array([[2], [5], [4]])
    for dtype in (np.float32, np.float64):
        assert_call_equals_padded_op_chain(2, mask, dtype, MappingKind.parse(mapping))


@pytest.mark.parametrize("heads", [1, 2])
def test_packed_attention_call_gradcheck_ragged(heads):
    rng = np.random.default_rng(18)
    units = Packing(np.arange(4) < np.array([[4], [1], [3]]))
    q, k, v = (rand_t(rng, 8, 4) for _ in range(3))
    upstream = rng.normal(0, 1, (8, 4))

    def f():
        out, _ = scaled_dot_attention(q, k, v, units, MappingKind.entmax(1.3), heads)
        return (out * upstream).sum()

    assert grad_check(f, {"q": q, "k": k, "v": v}) <= 1e-6


@pytest.mark.parametrize("needs", ["q", "k", "v", "qk", "qv", "kv"])
@pytest.mark.parametrize("heads", [1, 2])
def test_a_parent_gets_the_same_gradient_whichever_others_need_one(needs, heads):
    """The score and value-mix nodes each compute the piece of `g` their two
    parents share once; a parent's gradient is bit for bit the same whether
    or not the other parents need one."""
    mask = np.arange(5) < np.array([[2], [5], [4]])
    rng = np.random.default_rng(20)
    inputs = [rng.normal(0, 1, (11, 4)).astype(np.float32) for _ in range(3)]
    upstream = Tensor(rng.normal(0, 1, (11, 4)).astype(np.float32))
    grads = []
    for wanted in ("qkv", needs):
        q, k, v = (Tensor(a, requires_grad=c in wanted) for a, c in zip(inputs, "qkv"))
        out, _ = scaled_dot_attention(q, k, v, Packing(mask), MappingKind.entmax(1.3), heads)
        (out * upstream).sum().backward()
        grads.append({c: t.grad for c, t in zip("qkv", (q, k, v))})
    full, some = grads
    for c in "qkv":
        assert (some[c] is None) == (c not in needs)
        if c in needs:
            assert some[c].tobytes() == full[c].tobytes()


def test_positional_table_gradient_sums_each_slot_over_the_groups():
    """Row j of the table's gradient sums the upstream rows of the units in
    slot j, in group order; rows past the longest group are exact zeros."""
    rng = np.random.default_rng(21)
    mask = np.arange(4) < np.array([[2], [4], [1]])
    x, table = rand_t(rng, 7, 3), rand_t(rng, 6, 3)
    upstream = rng.normal(0, 1, (7, 3))
    (add_positional_embeddings(x, table, Packing(mask)) * Tensor(upstream)).sum().backward()
    grid = np.zeros((3, 4, 3))
    grid[mask] = upstream
    want = np.zeros((6, 3))
    for group in grid:
        want[:4] += group
    assert table.grad.tobytes() == want.tobytes()


def test_packed_positional_add_gradcheck_ragged():
    rng = np.random.default_rng(19)
    mask = np.arange(4) < np.array([[2], [4], [1]])
    x = rand_t(rng, 7, 3)
    table = rand_t(rng, 6, 3)
    out = add_positional_embeddings(x, table, Packing(mask))
    np.testing.assert_array_equal(out.data, x.data + table.data[np.nonzero(mask)[1]])
    upstream = rng.normal(0, 1, (7, 3))

    def f():
        return (add_positional_embeddings(x, table, Packing(mask)) * upstream).sum()

    assert grad_check(f, {"x": x, "table": table}) <= 1e-7


def test_multi_head_gradcheck_masked_entmax13():
    rng = np.random.default_rng(14)
    x = rand_t(rng, 5, 4)
    params = layer_params(rng, 4)
    units = Packing(np.array([[True, True, True, False], [True, True, False, False]]))

    def f():
        out, _ = transformer_encoder_layer(x, params, units, False, rng, "",
                                           MappingKind.entmax(1.3), 2, 0.0)
        return (out * out).sum()

    assert grad_check(f, {"x": x, **params}) <= 1e-4


@pytest.mark.parametrize("heads", [1, 2])
def test_one_attention_call_records_two_tape_nodes(heads, monkeypatch):
    rng = np.random.default_rng(15)
    q, k, v = (rand_t(rng, 4, 4) for _ in range(3))
    units = Packing(np.array([[True, True, False], [True, True, False]]))
    made = []
    init = Tensor.__init__

    def counted_init(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    scaled_dot_attention(q, k, v, units, MappingKind.parse("softmax"), heads)
    monkeypatch.undo()
    assert len(made) == 2
    assert all(t._parents for t in made)


@pytest.mark.parametrize("heads", [1, 2])
def test_a_call_without_values_stops_at_the_mapping(heads, monkeypatch):
    """v None: the same weights, no output, and no Tensor: the call returns
    the mapping's weights before it records a node."""
    rng = np.random.default_rng(16)
    q, k, v = (rand_t(rng, 4, 4) for _ in range(3))
    units = Packing(np.array([[True, True, False], [True, True, False]]))
    _, full = scaled_dot_attention(q, k, v, units, MappingKind.parse("sparsemax"), heads)
    made = []
    init = Tensor.__init__

    def counted_init(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    out, w = scaled_dot_attention(q, k, None, units, MappingKind.parse("sparsemax"), heads)
    monkeypatch.undo()
    assert out is None and len(made) == 0
    np.testing.assert_array_equal(w, full)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_keep_the_input_dtype_and_a_record_holds_its_own_float64(dtype):
    rng = np.random.default_rng(20)
    q = Tensor(rng.normal(0, 1, (2, 3, 4)).astype(dtype))
    _, w = scaled_dot_attention(q, q, q, every_unit(q), MappingKind.parse("sparsemax"), heads=2)
    assert w.dtype == dtype and w.shape == (2, 2, 3, 3)
    rec = AttentionRecord(w[1, :, :2, :2], ["a", "b"])
    assert rec.weights.dtype == np.float64
    np.testing.assert_array_equal(rec.weights, w[1, :, :2, :2])
    assert not np.shares_memory(rec.weights, w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_attention_record_validate_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError):
        AttentionRecord(np.full((1, 2, 2), np.nan), ["a", "b"]).validate()
    w = np.full((1, 2, 2), 0.5)
    w[0, 1, 0] = bad
    with pytest.raises(ValueError):
        AttentionRecord(w, ["a", "b"]).validate()
    AttentionRecord(np.full((1, 2, 2), 0.5), ["a", "b"]).validate()
