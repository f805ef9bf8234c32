"""Autodiff primitives: forward values, backward vs finite differences."""

import copy
import warnings

import numpy as np
import pytest
from oracles import mapping_node

from salab import data as dm
from salab.autodiff import (
    Adam,
    Tensor,
    bce_with_logits,
    dropout,
    embedding_lookup,
    layer_norm,
    linear,
    no_grad,
    segment_mean,
)
from salab.exceptions import (
    EmptyPoolError,
    GraphConsumedError,
    NoTapeError,
    PoisonedGradientError,
    SalabError,
    ShapeError,
)
from salab.models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
)
from salab.simplex import MappingKind
from salab.validation import grad_check


def t64(x, grad=True):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def test_linear_examples():
    y = linear(t64([[1.0, 0.0]]), t64([[2.0, 0.0], [0.0, 3.0]]), t64([0.0, 0.0]))
    np.testing.assert_array_equal(y.data, [[2.0, 0.0]])
    y = linear(t64([[1.0, 1.0]]), t64([[1.0, 1.0], [1.0, 1.0]]), t64([1.0, 1.0]))
    np.testing.assert_array_equal(y.data, [[3.0, 3.0]])


def test_linear_weight_gradient():
    W = t64([[0.1, -0.2], [0.3, 0.4]])
    x = t64([[1.0, 2.0]], grad=False)
    out = linear(x, W).sum()
    out.backward()
    np.testing.assert_allclose(W.grad, [[1.0, 1.0], [2.0, 2.0]])


def test_linear_shape_error_names_shapes():
    with pytest.raises(ShapeError, match="3"):
        linear(t64([[1.0, 2.0, 3.0]]), t64([[1.0], [1.0]]))


def test_embedding_lookup_padding_and_repeat():
    table = t64(np.arange(12, dtype=float).reshape(4, 3))
    np.testing.assert_array_equal(embedding_lookup(np.array([2, 2]), table).data,
                                  [[6, 7, 8], [6, 7, 8]])
    zeros = embedding_lookup(np.array([0]), Tensor(np.zeros((4, 3)))).data
    np.testing.assert_array_equal(zeros, [[0, 0, 0]])
    with pytest.raises(IndexError):
        embedding_lookup(np.array([4]), table)


def test_embedding_backward_scatter_adds_and_freezes_pad_row():
    table = t64(np.ones((4, 2)))
    out = embedding_lookup(np.array([2, 2, 0]), table).sum()
    out.backward()
    np.testing.assert_array_equal(table.grad[2], [2.0, 2.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])


def test_segment_mean():
    x = t64([[1.0, 1.0], [3.0, 3.0], [9.0, 9.0]])
    np.testing.assert_array_equal(segment_mean(x, np.array([2, 1])).data, [[2.0, 2.0], [9.0, 9.0]])
    np.testing.assert_array_equal(segment_mean(x, np.array([3])).data, [[13 / 3, 13 / 3]])
    with pytest.raises(EmptyPoolError):
        segment_mean(x, np.array([2, 0, 1]))
    with pytest.raises(ShapeError):
        segment_mean(x, np.array([1, 1]))


def test_segment_mean_gradient_split():
    x = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    segment_mean(x, np.array([2, 1])).sum().backward()
    np.testing.assert_allclose(x.grad, [[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])


def test_segment_mean_gradcheck_ragged():
    rng = np.random.default_rng(4)
    x = t64(rng.normal(0, 1, (6, 3)))
    weight = rng.normal(0, 1, (3, 3))

    def f():
        return (segment_mean(x, np.array([3, 1, 2])) * weight).sum()

    assert grad_check(f, {"x": x}) <= 1e-7


def test_layer_norm_examples():
    g, b = t64([1.0, 1.0, 1.0], grad=False), t64([0.0, 0.0, 0.0], grad=False)
    np.testing.assert_allclose(
        layer_norm(t64([1.0, 1.0, 1.0]), g, b).data, [0.0, 0.0, 0.0], atol=1e-6
    )
    y = layer_norm(t64([1.0, -1.0]), t64([1.0, 1.0]), t64([0.0, 0.0])).data
    np.testing.assert_allclose(y, [1.0, -1.0], atol=1e-3)


def test_layer_norm_statistics():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(3.0, 2.0, (50, 64)))
    gain, bias = t64(np.full(64, 1.5)), t64(np.full(64, -0.5))
    y = layer_norm(x, gain, bias).data
    np.testing.assert_allclose(y.mean(axis=-1), -0.5, atol=1e-6)
    np.testing.assert_allclose(y.std(axis=-1), 1.5, rtol=1e-3)


def test_dropout_contract():
    x = t64(np.ones((4, 4)))
    assert dropout(x, 0.0, True, np.random.default_rng(0)) is x
    assert dropout(x, 0.5, False, np.random.default_rng(0)) is x
    rng = np.random.default_rng(0)
    y = dropout(x, 0.5, True, rng).data
    assert set(np.unique(y)) <= {0.0, 2.0}
    with pytest.raises(ValueError):
        dropout(x, 1.0, True, rng)


def test_bce_examples():
    loss = bce_with_logits(t64(np.array(0.0)), np.array(1.0))
    assert loss.item() == pytest.approx(np.log(2), abs=1e-9)
    assert bce_with_logits(t64(np.array(20.0)), np.array(1.0)).item() <= 1e-8
    # symmetric saturated case must not overflow
    assert np.isfinite(bce_with_logits(t64(np.array(-500.0)), np.array(0.0)).item())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_saturated_logits_raise_no_warning(dtype):
    logits = Tensor(np.array([-200.0, 200.0, -200.0, 200.0], dtype=dtype), requires_grad=True)
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = bce_with_logits(logits, labels)
        loss.backward()
    assert np.isfinite(loss.data).all() and np.isfinite(logits.grad).all()
    np.testing.assert_allclose(loss.data, 100.0, atol=1e-30)  # the mean of 0, 0, 200 and 200
    np.testing.assert_allclose(logits.grad, [0.0, 0.0, -0.25, 0.25], atol=1e-30)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_bce_equals_the_per_element_chain_bit_for_bit(dtype):
    """The loss is one tape entry whose value and gradient are, bit for bit,
    those of the per-element losses, their sum and the product with 1/n
    (not a division by n), under an upstream gradient of 1 or 3."""
    rng = np.random.default_rng(23)  # a draw on which sum / n and sum * (1/n) differ
    s = np.concatenate([rng.normal(0, 3, 40), rng.uniform(-1e4, 1e4, 20),
                        [-1e4, 1e4, -100.0, 100.0, 0.0]]).astype(dtype)
    y = rng.integers(0, 2, s.size)  # integer, as batch labels are: the loss casts them
    yf, inv_n = y.astype(dtype), dtype(1.0 / s.size)
    per_element = np.maximum(s, 0.0) - s * yf + np.log1p(np.exp(-np.abs(s)))
    with np.errstate(over="ignore"):
        sigmoid = 1.0 / (1.0 + np.exp(-s))
    for upstream in (1.0, 3.0):
        logits = Tensor(s, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = bce_with_logits(logits, y)
            assert loss._parents == (logits,) and loss.shape == () and loss.dtype == dtype
            (loss * upstream).backward()
        np.testing.assert_array_equal(loss.data, per_element.sum() * inv_n)
        assert logits.grad.dtype == dtype
        np.testing.assert_array_equal(logits.grad, (dtype(upstream) * inv_n) * (sigmoid - yf))


def test_relu_and_arithmetic_gradcheck():
    x = t64(np.random.default_rng(1).normal(0, 1, (3, 4)))

    def f():
        return ((x.relu() * 2.0 + 1.0) * x + x * 0.5 * -1.0).sum()

    assert grad_check(f, {"x": x}) <= 1e-7


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(2)
    x, g, b = t64(rng.normal(0, 1, (2, 5))), t64(rng.normal(1, 0.1, 5)), t64(rng.normal(0, 0.1, 5))

    def f():
        return (layer_norm(x, g, b) * 1.5).sum()

    assert grad_check(f, {"x": x, "g": g, "b": b}) <= 1e-6


def test_bce_linear_chain_gradcheck():
    rng = np.random.default_rng(3)
    x = t64(rng.normal(0, 1, (4, 3)))
    W = t64(rng.normal(0, 1, (3, 1)))
    labels = np.array([1.0, 0.0, 1.0, 0.0])

    def f():
        return bce_with_logits(linear(x, W).reshape(4), labels)

    assert grad_check(f, {"x": x, "W": W}) <= 1e-4


def test_mapping_backward_nd_gradcheck_on_a_batch():
    """`mapping_backward_nd` on a [3, 5] batch of rows, in a mapping node on
    the tape, against central differences of `apply_mapping_nd`."""
    rng = np.random.default_rng(4)
    for kind in map(MappingKind.parse, ("softmax", "sparsemax", "entmax15", "entmax:1.3")):
        z = t64(rng.normal(0, 1, (3, 5)))
        u = rng.normal(0, 1, (3, 5))

        def f():
            return (mapping_node(z, kind) * Tensor(u)).sum()

        assert grad_check(f, {"z": z}) <= 1e-4


def test_gradient_accumulation_is_additive():
    x = t64(np.array([1.0, 2.0]))
    (x.sum() + (x * x).sum()).backward()
    np.testing.assert_allclose(x.grad, [3.0, 5.0])


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_grad_leaves_params():
    p = t64(np.array([1.0, -1.0]))
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -1.0])


def test_adam_first_step_magnitude():
    p = t64(np.array(0.0))
    opt = Adam({"p": p}, lr=1e-2)
    p.grad = np.array(1.0)
    opt.step()
    assert p.data == pytest.approx(-1e-2, rel=1e-6)


def test_adam_rejects_nan_gradient():
    p = t64(np.array([0.0]))
    opt = Adam({"p": p}, lr=1e-4)
    p.grad = np.array([np.nan])
    with pytest.raises(PoisonedGradientError):
        opt.step()


def test_adam_rejects_inf_gradient():
    p = t64(np.array([0.0, 0.0]))
    opt = Adam({"p": p}, lr=1e-4)
    p.grad = np.array([1.0, -np.inf])
    with pytest.raises(PoisonedGradientError, match="non-finite"):
        opt.step()
    np.testing.assert_array_equal(p.data, [0.0, 0.0])


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(5)
        p = t64(rng.normal(0, 1, 8))
        opt = Adam({"p": p}, lr=1e-3)
        for _ in range(20):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# fused layer ops against the Tensor-op chains they replace

def _ln_chain(x, gain, bias, eps=1e-5):
    k = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * k
    centered = x + mu * -1.0
    var = (centered * centered).sum(axis=-1, keepdims=True) * k
    return centered * ((var + eps) ** -0.5) * gain + bias


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_fused_forward_equals_op_chain(dtype, shape):
    rng = np.random.default_rng(8)

    def t(*s):
        return Tensor(rng.normal(0, 1, s).astype(dtype), requires_grad=True)

    x, W, b = t(*shape), t(4, 3), t(3)
    np.testing.assert_array_equal(linear(x, W, b).data, (x @ W + b).data)
    np.testing.assert_array_equal(linear(x, W).data, (x @ W).data)
    gain, bias = t(4), t(4)
    np.testing.assert_array_equal(layer_norm(x, gain, bias).data, _ln_chain(x, gain, bias).data)


@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_gradcheck_3d(with_bias):
    rng = np.random.default_rng(9)
    x, W, b = t64(rng.normal(0, 1, (2, 3, 4))), t64(rng.normal(0, 1, (4, 5))), t64(rng.normal(0, 1, 5))
    u = Tensor(rng.normal(0, 1, (2, 3, 5)))
    params = {"x": x, "W": W, "b": b} if with_bias else {"x": x, "W": W}

    def f():
        return (linear(x, W, b if with_bias else None) * u).sum()

    assert grad_check(f, params) <= 1e-7


def test_layer_norm_gradcheck_3d():
    rng = np.random.default_rng(10)
    x, g, b = t64(rng.normal(0, 1, (2, 3, 5))), t64(rng.normal(1, 0.1, 5)), t64(rng.normal(0, 0.1, 5))
    u = Tensor(rng.normal(0, 1, (2, 3, 5)))

    def f():
        return (layer_norm(x, g, b) * u).sum()

    assert grad_check(f, {"x": x, "g": g, "b": b}) <= 1e-6


@pytest.mark.parametrize("swap", [False, True])
def test_shared_gradient_arrays_are_not_aliased(swap):
    """`+` hands one gradient array to both parents; a later gradient for
    one parent must not write into the other's."""
    x, y = t64([1.0, 2.0]), t64([3.0, 4.0])
    w, v = np.array([0.5, -1.5]), np.array([2.0, 0.25])
    s = (y + x) if swap else (x + y)
    ((s * w).sum() + (x * v).sum()).backward()
    np.testing.assert_array_equal(y.grad, w)
    np.testing.assert_array_equal(x.grad, w + v)


# ---------------------------------------------------------------------------
# graph lifetime: no tape under no_grad, backward consumes its graph

@pytest.mark.parametrize("leave_by", ["return", "exception", "nested"])
def test_no_grad_records_again_once_its_block_is_left(leave_by):
    x = t64([1.0, 2.0])
    with no_grad():
        assert not (x * x)._parents
        if leave_by == "nested":
            with no_grad():
                pass
            assert not (x * x)._parents and (x * x)._backward is None
    if leave_by == "exception":
        with pytest.raises(KeyError), no_grad():
            raise KeyError("inside")
    out = (x * x).sum()
    assert out._parents and out.requires_grad
    out.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_frees_the_graph_and_keeps_leaf_grads():
    x = t64([1.0, -2.0])
    h = x * x
    loss = (h * 3.0).sum()
    loss.backward()
    for node in (h, loss):
        assert node.grad is None and node._parents is None and node._backward is None
    np.testing.assert_array_equal(x.grad, [6.0, -12.0])


@pytest.mark.parametrize("through", ["same output", "consumed intermediate"])
def test_second_backward_through_a_consumed_graph_raises(through):
    x = t64([1.0, -2.0])
    h = x * x
    loss = h.sum()
    loss.backward()
    again = loss if through == "same output" else (h * 2.0).sum()
    with pytest.raises(GraphConsumedError, match="backward"):
        again.backward()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])  # left as the first backward set it
    (x * x).sum().backward()  # a fresh graph over the same leaves still works
    np.testing.assert_array_equal(x.grad, [4.0, -8.0])


# ---------------------------------------------------------------------------
# the flat Adam update against a per-parameter reference

class ReferenceAdam:
    """Per-parameter bias-corrected Adam: the loop the flat update replaces."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= (self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)).astype(p.dtype)


def moments(opt: Adam, name: str):
    """`name`'s slices of the flat moments (parameters end to end, in dict order)."""
    start = 0
    for key, p in opt.params.items():
        if key == name:
            return opt.m[start:start + p.data.size], opt.v[start:start + p.data.size]
        start += p.data.size
    raise KeyError(name)


@pytest.fixture(scope="module")
def corpus():
    cfg = dm.SyntheticCorpusConfig(n_documents=40, vocab_size=30, min_sentences=2, max_sentences=4,
                                   min_words=3, max_words=6, seed=23)
    docs = dm.generate_synthetic_corpus(cfg)
    return docs, dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)


@pytest.mark.parametrize("family", ["att", "tr"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_equals_per_parameter_adam_bit_for_bit(corpus, family, dtype):
    docs, vocab = corpus
    model_cls, cfg_cls = {"att": (AttentionClassifier, LocalModelConfig),
                          "tr": (HierarchicalTransformerClassifier, HierModelConfig)}[family]
    cfg = cfg_cls(len(vocab), embed_dim=8, hidden=8, max_words=6, max_sents=4, dropout_rate=0.2)
    flat_model, ref_model = (model_cls(cfg, seed=3, dtype=dtype) for _ in range(2))
    flat, ref = Adam(flat_model.params, lr=1e-2), ReferenceAdam(ref_model.params, lr=1e-2)
    batches = dm.pad_and_batch(docs, vocab, 6, 4, 8)
    for step in range(20):
        batch = batches[step % len(batches)]
        for model, opt in ((flat_model, flat), (ref_model, ref)):
            for p in model.params.values():
                p.zero_grad()
            logits = model.forward(batch, training=True)
            bce_with_logits(logits, batch.labels).backward()
            opt.step()
        for name, p in flat_model.params.items():
            np.testing.assert_array_equal(p.data, ref_model.params[name].data, err_msg=name)
    assert flat.m.dtype == dtype and flat.t == ref.t == 20
    for name in ref.m:
        m, v = moments(flat, name)
        np.testing.assert_array_equal(m, ref.m[name].reshape(-1), err_msg=name)
        np.testing.assert_array_equal(v, ref.v[name].reshape(-1), err_msg=name)


def test_adam_parameter_without_gradient_keeps_value_and_moments():
    rng = np.random.default_rng(11)
    params = {k: Tensor(rng.normal(0, 1, s).astype(np.float32), requires_grad=True)
              for k, s in (("a", (3,)), ("b", (2, 2)), ("c", (4,)))}
    opt = Adam(params, lr=1e-2)
    ref_params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    ref = ReferenceAdam(ref_params, lr=1e-2)
    for step in range(3):
        for k, p in params.items():
            grad = None if (step == 1 and k == "b") else rng.normal(0, 1, p.shape).astype(np.float32)
            p.grad, ref_params[k].grad = grad, grad
        b_before = params["b"].data.copy()
        m_before, v_before = (x.copy() for x in moments(opt, "b"))
        opt.step()
        ref.step()
        if step == 1:
            np.testing.assert_array_equal(params["b"].data, b_before)
            np.testing.assert_array_equal(moments(opt, "b")[0], m_before)
            np.testing.assert_array_equal(moments(opt, "b")[1], v_before)
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, ref_params[k].data, err_msg=k)


def test_adam_non_finite_gradient_names_the_first_bad_parameter_and_changes_nothing():
    params = {k: t64(np.arange(3.0) + i) for i, k in enumerate("abc")}
    opt = Adam(params, lr=1e-2)
    for p in params.values():
        p.grad = np.ones(3)
    opt.step()
    state = [opt.t, opt.m.copy(), opt.v.copy(), [p.data.copy() for p in params.values()]]
    params["b"].grad = np.array([1.0, np.nan, 1.0])
    params["c"].grad = np.array([np.inf, 1.0, 1.0])
    with pytest.raises(PoisonedGradientError, match="'b'"):
        opt.step()
    assert opt.t == state[0]
    np.testing.assert_array_equal(opt.m, state[1])
    np.testing.assert_array_equal(opt.v, state[2])
    for p, before in zip(params.values(), state[3]):
        np.testing.assert_array_equal(p.data, before)


@pytest.mark.parametrize("bad_grad", [np.ones(4), np.ones(3)], ids=["same size", "other size"])
def test_adam_gradient_of_the_wrong_shape_raises_before_any_update(bad_grad):
    a, b, c = t64([1.0, 2.0]), t64([[1.0, 2.0], [3.0, 4.0]]), t64([5.0])
    opt = Adam({"a": a, "b": b, "c": c}, lr=1e-2)
    a.grad, b.grad, c.grad = np.ones(2), bad_grad, np.ones(1)
    with pytest.raises(ShapeError, match=r"'b'.*\(2, 2\)"):
        opt.step()
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(b.data, [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# dropout: one fused node over a float32 draw

def test_dropout_is_one_tape_node_and_same_seed_gives_same_mask(monkeypatch):
    x = Tensor(np.ones((6, 5), dtype=np.float32), requires_grad=True)
    made = []
    init = Tensor.__init__

    def recorded_init(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", recorded_init)
    out = dropout(x, 0.4, True, np.random.default_rng(5))
    monkeypatch.undo()
    assert made == [out] and out._parents == (x,)
    again = dropout(x, 0.4, True, np.random.default_rng(5)).data
    np.testing.assert_array_equal(out.data, again)
    keep = np.random.default_rng(5).random(x.shape, dtype=np.float32) >= 0.4
    np.testing.assert_array_equal(out.data != 0, keep)


def test_dropout_keep_rate_and_backward():
    n, rate = 10**5, 0.3
    x = t64(np.ones(n))
    out = dropout(x, rate, True, np.random.default_rng(17))
    kept = np.count_nonzero(out.data)
    half_width = 2.576 * np.sqrt(n * rate * (1 - rate))  # 99% normal approximation
    assert abs(kept - n * (1 - rate)) <= half_width
    assert set(np.unique(out.data)) == {0.0, 1.0 / (1.0 - rate)}
    g = np.random.default_rng(18).normal(0, 1, n)
    (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(x.grad, g * out.data)  # out.data is the mask, x being ones


def test_dropout_backward_reads_its_mask_from_bits_on_a_size_not_a_multiple_of_8(saved_arrays):
    """On 15 elements the tape keeps the mask as 2 bytes of bits, and the
    gradient is g * keep * scale, keep taken from a cloned generator's draws."""
    rng, rate = np.random.default_rng(31), 0.4
    keep = copy.deepcopy(rng).random((3, 5), dtype=np.float32) >= rate
    assert 0 < keep.sum() < keep.size and keep.reshape(-1)[8:].any()  # the last byte's bits matter
    x = Tensor(np.arange(1.0, 16.0, dtype=np.float32).reshape(3, 5), requires_grad=True)
    out = dropout(x, rate, True, rng)
    assert [(a.dtype, a.shape) for a in saved_arrays(out)] == [(np.uint8, (2,))]
    g = np.random.default_rng(32).normal(0, 1, (3, 5)).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    scale = np.float32(1 / (1 - rate))
    np.testing.assert_array_equal(out.data, x.data * keep * scale)
    np.testing.assert_array_equal(x.grad, g * keep * scale)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_keeps_the_input_dtype(dtype):
    x = Tensor(np.ones((4, 8), dtype=dtype), requires_grad=True)
    out = dropout(x, 0.2, True, np.random.default_rng(2))
    assert out.dtype == dtype
    assert set(np.unique(out.data)) <= {dtype(0.0), dtype(1.0 / 0.8)}
    out.sum().backward()
    assert x.grad.dtype == dtype


# ---------------------------------------------------------------------------
# linear's input gradient as one 2-D GEMM; embedding's as a sorted reduceat

@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_linear_input_gradient_equals_per_row_product(shape):
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(0, 1, shape).astype(np.float32), requires_grad=True)
    W = Tensor(rng.normal(0, 1, (4, 3)).astype(np.float32), requires_grad=True)
    g = rng.normal(0, 1, (*shape[:-1], 3)).astype(np.float32)
    (linear(x, W) * Tensor(g)).sum().backward()
    expected = np.empty_like(x.data)
    for idx in np.ndindex(*shape[:-1]):
        expected[idx] = g[idx] @ W.data.T
    assert x.grad.shape == shape
    np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-6)


@pytest.mark.parametrize("pad_share", [0.0, 0.3, 1.0])
def test_embedding_gradient_equals_add_at_reference(pad_share):
    rng = np.random.default_rng(20)
    ids = rng.integers(1, 9, (7, 5))
    ids[rng.random(ids.shape) < pad_share] = 0
    table = Tensor(rng.normal(0, 1, (9, 4)).astype(np.float32), requires_grad=True)
    g = rng.normal(0, 1, (7, 5, 4)).astype(np.float32)
    (embedding_lookup(ids, table) * Tensor(g)).sum().backward()
    expected = np.zeros_like(table.data)
    np.add.at(expected, ids.reshape(-1), g.reshape(-1, 4))
    expected[0] = 0.0
    np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-6)
    assert not table.grad[0].any()


# ---------------------------------------------------------------------------
# backward() needs a tape

@pytest.mark.parametrize("built", ["under no_grad", "from tensors without gradients"])
def test_backward_on_an_output_without_a_tape_raises(built):
    x = t64([1.0, 2.0], grad=built == "under no_grad")
    if built == "under no_grad":
        with no_grad():
            loss = (x * x).sum()
    else:
        loss = (x * x).sum()
    with pytest.raises(NoTapeError, match="tape-less") as raised:
        loss.backward()
    assert isinstance(raised.value, SalabError)
    assert x.grad is None


def test_backward_on_a_leaf_that_requires_a_gradient_sets_it_to_one():
    x = t64(np.array(3.0))
    x.backward()
    assert x.grad == 1.0
