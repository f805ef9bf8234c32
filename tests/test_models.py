"""Model family tests: contracts, padding, determinism, gradients."""

import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

from salab import attention, models
from salab import data as dm
from salab.autodiff import Adam, Tensor, bce_with_logits, no_grad
from salab.evaluation import score_documents
from salab.exceptions import BatchMemoryError, EmptyDocumentError, SalabError, ShapeError, batch_memory_guard
from salab.models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
    MAPS_CHUNK,
    extract_attention_maps,
    iter_attention_maps,
    predict_proba,
)
from salab.simplex import MappingKind
from salab.training import train_model
from salab.validation import model_grad_error


@pytest.fixture(scope="module")
def corpus():
    cfg = dm.SyntheticCorpusConfig(
        n_documents=12, vocab_size=25, min_sentences=2, max_sentences=4,
        min_words=3, max_words=6, seed=21,
    )
    docs = dm.generate_synthetic_corpus(cfg)
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)
    return docs, vocab


def att_cfg(vocab, mapping=None, **kw):
    kw.setdefault("embed_dim", 8)
    kw.setdefault("hidden", 8)
    kw.setdefault("max_words", 6)
    kw.setdefault("max_sents", 4)
    kw.setdefault("dropout_rate", 0.0)
    return LocalModelConfig(len(vocab), mapping=mapping or MappingKind.parse("softmax"), **kw)


def tr_cfg(vocab, mapping=None, **kw):
    kw.setdefault("embed_dim", 8)
    kw.setdefault("hidden", 8)
    kw.setdefault("max_words", 6)
    kw.setdefault("max_sents", 4)
    kw.setdefault("dropout_rate", 0.0)
    return HierModelConfig(len(vocab), mapping=mapping or MappingKind.parse("softmax"), **kw)


def maps(model, batch):
    """The maps a full pass over `batch` computes: its word maps
    [B, T, heads, W, W], zero at padding sentences, and `tr`'s sentence
    maps [B, heads, T, T]."""
    x, words, sents, word = model.word_level(batch)
    sentence = model._document_tail(x, words, sents, False)[1]
    return {"word": sents.unpack(word)} | ({} if sentence is None else {"sentence": sentence})


def test_single_token_document(corpus):
    _, vocab = corpus
    doc = dm.PatientDocument("one", [["dnr"]], 1)
    model = AttentionClassifier(att_cfg(vocab), seed=0)
    batch = dm.pad_and_batch([doc], vocab, 6, 4, 1)[0]
    logits = model.forward(batch)
    assert np.isfinite(logits.data).all()
    assert maps(model, batch)["word"][0, 0, 0, 0, 0] == 1.0


def test_batch_independence(corpus):
    docs, vocab = corpus
    model = AttentionClassifier(att_cfg(vocab, MappingKind.parse("sparsemax")), seed=0)
    single = dm.pad_and_batch(docs[:1], vocab, 6, 4, 1)[0]
    doubled = dm.pad_and_batch([docs[0], docs[0]], vocab, 6, 4, 2)[0]
    alone = model.forward(single)
    both = model.forward(doubled)
    assert isinstance(both, Tensor) and both.shape == (2,)
    assert both.data[0] == both.data[1] == alone.data[0]


def test_empty_document_error(corpus):
    _, vocab = corpus
    model = AttentionClassifier(att_cfg(vocab), seed=0)
    batch = dm.pad_and_batch(
        [dm.PatientDocument("x", [["w0", "w1"]], 0)], vocab, 6, 4, 1
    )[0]
    batch.word_mask[:] = False
    with pytest.raises(EmptyDocumentError):
        model.forward(batch)


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
def test_padding_insensitivity(corpus, family):
    """Extra pad sentences / words never change the logit."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse("sparsemax"), max_words=8, max_sents=5), seed=1)
    tight = dm.pad_and_batch(docs[:3], vocab, 6, 4, 3)[0]
    loose = dm.pad_and_batch(docs[:3], vocab, 8, 5, 3)[0]
    logits_a = model.forward(tight)
    logits_b = model.forward(loose)
    np.testing.assert_allclose(logits_a.data, logits_b.data, atol=1e-6)


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("mapping", ["sparsemax", "entmax15", "entmax:1.3"])
def test_packed_batch_matches_batch_padded_to_caps(corpus, family, mapping):
    """A packed batch and the same batch padded out to (max_sents, max_words)
    give the same logits and the same word maps on the real positions."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse(mapping), max_words=9, max_sents=6), seed=3)
    packed = dm.pad_and_batch(docs[:5], vocab, 9, 6, 5)[0]
    B, T, W = packed.token_ids.shape
    assert T < 6 and W < 9
    grow = ((0, 0), (0, 6 - T), (0, 9 - W))
    padded = dm.Batch(
        np.pad(packed.token_ids, grow), np.pad(packed.word_mask, grow),
        np.pad(packed.sentence_mask, grow[:2]), packed.labels, packed.doc_ids,
    )
    logits_p, rec_p = model.forward(packed), maps(model, packed)
    logits_d, rec_d = model.forward(padded), maps(model, padded)
    np.testing.assert_allclose(logits_p.data, logits_d.data, rtol=0, atol=1e-6)
    real = packed.word_mask[:, :, None, :, None] & packed.word_mask[:, :, None, None, :]
    word_d = rec_d["word"][:, :T, :, :W, :W]
    assert rec_d["word"].shape[1:] == (6, rec_p["word"].shape[2], 9, 9)
    np.testing.assert_allclose(
        np.where(real, rec_p["word"], 0.0), np.where(real, word_d, 0.0), rtol=0, atol=1e-6
    )


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
def test_each_document_scores_as_if_alone(corpus, family):
    """The real sentences of a packed batch go back to their own document's slots."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse("entmax15")), seed=2)
    batch = dm.pad_and_batch(docs[:6], vocab, 6, 4, 6)[0]
    logits, records = model.forward(batch), maps(model, batch)
    for i, doc in enumerate(docs[:6]):
        alone = dm.pad_and_batch([doc], vocab, 6, 4, 1)[0]
        logit, rec = model.forward(alone), maps(model, alone)
        _, T, W = alone.token_ids.shape
        np.testing.assert_allclose(logits.data[i], logit.data[0], rtol=0, atol=1e-6)
        np.testing.assert_allclose(records["word"][i, :T, :, :W, :W], rec["word"][0], atol=1e-6)


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
def test_training_step_leaves_no_reference_cycles(corpus, family):
    """A dropped graph is freed by reference counting, not the cycle collector."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, dropout_rate=0.2), seed=0)
    batch = dm.pad_and_batch(docs[:8], vocab, 6, 4, 8)[0]
    gc.collect()
    gc.disable()
    try:
        logits = model.forward(batch, training=True)
        loss = bce_with_logits(logits, batch.labels)
        loss.backward()
        del logits, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("mapping", ["softmax", "sparsemax", "entmax:1.3"])
def test_no_grad_forward_is_bit_identical_to_tape_mode(corpus, family, mapping):
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse(mapping)), seed=4)
    batch = dm.pad_and_batch(docs[:6], vocab, 6, 4, 6)[0]
    logits, records = model.forward(batch), maps(model, batch)
    assert logits._parents
    with no_grad():
        free_logits, free_records = model.forward(batch), maps(model, batch)
    np.testing.assert_array_equal(free_logits.data, logits.data)
    assert free_records.keys() == records.keys()
    for level, grid in records.items():
        np.testing.assert_array_equal(free_records[level], grid)


# (family, path) -> the Tensors the path makes; a map read-out stops at its last mapping
FORWARD_ONLY_TENSORS = {
    ("att", "forward under no_grad"): 11, ("att", "score_documents"): 33,
    ("att", "extract_attention_maps"): 6,
    ("tr", "forward under no_grad"): 36, ("tr", "score_documents"): 108,
    ("tr", "extract_attention_maps"): 23,
}


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("path", ["forward under no_grad", "score_documents", "extract_attention_maps"])
def test_forward_only_paths_keep_no_tape(corpus, family, path, monkeypatch):
    """Every Tensor made on a forward-only path holds no parents and no
    backward, and each path makes exactly the Tensors it needs."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse("sparsemax"), dropout_rate=0.2), seed=5)
    made = []
    init = Tensor.__init__

    def recorded_init(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", recorded_init)
    if path == "score_documents":
        score_documents(model, docs[:5], vocab, batch_size=2)
    elif path == "extract_attention_maps":
        extract_attention_maps(model, docs[0], vocab)
    else:
        with no_grad():
            model.forward(dm.pad_and_batch(docs[:5], vocab, 6, 4, 5)[0])
    monkeypatch.undo()
    assert len(made) == FORWARD_ONLY_TENSORS[family.family, path]
    assert not any(t._parents or getattr(t, "_backward", None) for t in made)


@pytest.mark.parametrize("family,nodes,dropouts",
                         [(AttentionClassifier, 14, 2), (HierarchicalTransformerClassifier, 42, 5)])
def test_training_step_tape_shape(corpus, family, nodes, dropouts, monkeypatch):
    """A training step writes `nodes` tape entries, one per dropout call among
    them and one for the loss, and makes no other Tensor (dropout builds no
    mask Tensor, the loss no constant)."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    batch = dm.pad_and_batch(docs[:8], vocab, 6, 4, 8)[0]
    init = Tensor.__init__

    def step_tensors(rate):
        model = family(cfg_fn(vocab, dropout_rate=rate), seed=7)
        made = []

        def recorded_init(t, *args, **kwargs):
            made.append(t)
            init(t, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", recorded_init)
        logits = model.forward(batch, training=True)
        loss = bce_with_logits(logits, batch.labels)
        monkeypatch.undo()
        tape = [t for t in made if t._parents]
        loss.backward()
        return made, tape

    made, tape = step_tensors(0.2)
    assert len(tape) == len(made) == nodes
    assert len(step_tensors(0.0)[1]) == nodes - dropouts


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
def test_backward_frees_the_training_step_graph(corpus, family):
    """After loss.backward(), the only live Tensors the step made are its
    consumed logits and loss: no node keeps parents or a gradient, and
    every parameter has its gradient."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse("entmax15"), dropout_rate=0.2), seed=6)
    batch = dm.pad_and_batch(docs[:8], vocab, 6, 4, 8)[0]
    before = [o for o in gc.get_objects() if isinstance(o, Tensor)]
    known = {id(o) for o in before}
    logits = model.forward(batch, training=True)
    loss = bce_with_logits(logits, batch.labels)
    loss.backward()
    made = [o for o in gc.get_objects() if isinstance(o, Tensor) and id(o) not in known]
    assert {id(t) for t in made} == {id(logits), id(loss)}
    assert all(t._parents is None and t.grad is None for t in made)
    assert all(p.grad is not None for p in model.params.values())


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose memory `a` views (numpy points every view at it)."""
    return a if a.base is None else a.base


def record_attention_grids(monkeypatch, qkv: list, grids: list, weights: list):
    """Patch `scaled_dot_attention` to append each call's q, k and v Tensors to
    `qkv`, a weak reference to every grid it unpacks or packs, apart from the
    weights grid it returns, to `grids`, and one to that weights grid to `weights`."""
    attend, unpack, pack = attention.scaled_dot_attention, attention.Packing.unpack, attention.Packing.pack
    inside = []

    def recorded_unpack(units, rows):
        grid = unpack(units, rows)
        if inside:
            inside.append(_owner(grid))
        return grid

    def recorded_pack(units, grid):
        if inside:
            inside.append(_owner(grid))
        return pack(units, grid)

    def recorded_attention(q, k, v, *args):
        qkv.append((q, k, v))
        inside[:] = [None]
        try:
            out, w = attend(q, k, v, *args)
        finally:
            made, inside[:] = inside[1:], []
        grids.extend(weakref.ref(g) for g in made if g is not _owner(w))
        weights.append(weakref.ref(_owner(w)))
        return out, w

    for module in (attention, models):
        monkeypatch.setattr(module, "scaled_dot_attention", recorded_attention)
    monkeypatch.setattr(attention.Packing, "unpack", recorded_unpack)
    monkeypatch.setattr(attention.Packing, "pack", recorded_pack)


@pytest.mark.parametrize("family, levels", [(AttentionClassifier, 1), (HierarchicalTransformerClassifier, 2)])
def test_forward_frees_what_no_backward_reads(corpus, family, levels, monkeypatch, saved_arrays):
    """With the loss still held after `forward`, the residual sums, the
    pre-ReLU activations and every grid an attention call unpacked or packed,
    its weights included, are freed.  The tape holds each call's q, k and v
    once, as the [R, d] rows the call was given, and no 4-d array (no grid);
    backward frees them."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, dropout_rate=0.2), seed=8)
    batch = dm.pad_and_batch(docs[:8], vocab, 6, 4, 8)[0]
    qkv, grids = [], []
    freed = {"residual": [], "pre-relu": [], "weights": []}
    norm, relu = attention.layer_norm, Tensor.relu

    def recorded_norm(x, *args):
        freed["residual"].append(weakref.ref(x.data))
        return norm(x, *args)

    def recorded_relu(x):
        freed["pre-relu"].append(weakref.ref(x.data))
        return relu(x)

    record_attention_grids(monkeypatch, qkv, grids, freed["weights"])
    monkeypatch.setattr(attention, "layer_norm", recorded_norm)
    monkeypatch.setattr(Tensor, "relu", recorded_relu)
    logits = model.forward(batch, training=True)
    loss = bce_with_logits(logits, batch.labels)
    monkeypatch.undo()
    tr = family is HierarchicalTransformerClassifier
    assert {k: len(v) for k, v in freed.items()} == {"residual": 2 * tr * levels, "pre-relu": tr * levels,
                                                      "weights": levels}
    assert len(qkv) == levels and len(grids) == 5 * levels  # q, k, v unpacked; scores, mix packed
    assert all(ref() is None for refs in (*freed.values(), grids) for ref in refs)
    saved = {id(a): a for a in saved_arrays(loss)}
    rows = [t.data for call in qkv for t in call]
    assert all(id(r) in saved and r.ndim == 2 for r in rows)
    assert not [a.shape for a in saved.values() if a.ndim == 4]
    del qkv[:], saved
    rows = [weakref.ref(r) for r in rows]
    loss.backward()
    assert all(p.grad is not None for p in model.params.values())
    assert all(ref() is None for ref in rows)


def test_each_encoder_layer_frees_its_attention_grids_before_its_first_layer_norm(corpus, monkeypatch):
    """Every grid a layer's attention call unpacks or packs, but the weights it
    returns, is freed when the call returns, so none is held while the rest of
    the layer allocates; and at two layers a level, the first layer's weights
    are freed before the second layer runs, so one weights grid is alive."""
    docs, vocab = corpus
    config = tr_cfg(vocab, dropout_rate=0.2, word_heads=2, sent_heads=2, word_layers=2, sent_layers=2)
    model = HierarchicalTransformerClassifier(config, seed=8)
    batch = dm.pad_and_batch(docs[:8], vocab, 6, 4, 8)[0]
    norm = attention.layer_norm
    qkv, pending, weights, alive = [], [], [], []

    def recorded_norm(x, *args):
        if pending:  # the first layer norm since the last attention call
            alive.append((len(pending), sum(ref() is not None for ref in pending),
                          sum(ref() is not None for ref in weights)))
            pending.clear()
        return norm(x, *args)

    record_attention_grids(monkeypatch, qkv, pending, weights)
    monkeypatch.setattr(attention, "layer_norm", recorded_norm)
    with no_grad():
        model.forward(batch)
    model.forward(batch, training=True)
    assert [n for n, _, _ in alive] == [5] * 8  # q, k, v unpacked, scores and mix packed; word0, word1, sent0, sent1; tape-free, then training
    assert [live for _, live, _ in alive] == [0] * 8
    assert [grids for _, _, grids in alive] == [1] * 8  # the layer's own weights only


def _bytes_per_token_setup(family, mapping, max_words, max_sents):
    """A model and the first batch of 16 at the benchmark workloads' shapes (hidden 64, embed 50)."""
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=64, seed=3))
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)
    cls, cfg = ((AttentionClassifier, LocalModelConfig) if family == "att"
                else (HierarchicalTransformerClassifier, HierModelConfig))
    model = cls(cfg(len(vocab), embed_dim=50, hidden=64, mapping=MappingKind.parse(mapping),
                    max_words=max_words, max_sents=max_sents), seed=1)
    return model, dm.pad_and_batch(docs, vocab, max_words, max_sents, 16)[0]


def _traced(fn):
    """fn's result, the bytes it left allocated and its peak over what was allocated before it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, now - before, peak - before


@pytest.mark.parametrize("family, mapping, max_words, max_sents, kib",
                         [("att", "entmax:1.3", 12, 8, 1.5), ("tr", "softmax", 20, 40, 3.5)])
def test_tape_bytes_per_token_after_a_training_forward(family, mapping, max_words, max_sents, kib):
    """What a training forward leaves allocated until backward, per real token,
    at the benchmark workloads' shapes (hidden 64, embed 50, batch 16): q, k,
    v and the probabilities as rows, dropout masks as bits."""
    model, batch = _bytes_per_token_setup(family, mapping, max_words, max_sents)
    loss, held, _ = _traced(lambda: bce_with_logits(model.forward(batch, training=True), batch.labels))
    assert held / batch.word_mask.sum() <= kib * 1024
    loss.backward()


@pytest.mark.parametrize("family, mapping, max_words, max_sents, kib",
                         [("att", "entmax:1.3", 12, 8, 2), ("tr", "softmax", 20, 40, 3)])
def test_peak_bytes_per_token_of_a_tape_free_forward(family, mapping, max_words, max_sents, kib):
    """A forward under `no_grad` frees each attention grid once read: its
    tracemalloc peak per real token, at the shapes above."""
    model, batch = _bytes_per_token_setup(family, mapping, max_words, max_sents)
    with no_grad():
        _, _, peak = _traced(lambda: model.forward(batch))
    assert peak / batch.word_mask.sum() <= kib * 1024


@pytest.mark.parametrize("path", ["train_model", "score_documents", "iter_attention_maps"])
def test_a_batch_out_of_memory_raises_batch_memory_error(corpus, path, monkeypatch):
    """A MemoryError anywhere in a batch's work (the forward, the backward,
    the Adam step, an unfiltered `tr` read-out's sentence level) becomes a
    BatchMemoryError naming the batch's [B, T, W]; nothing large is allocated."""
    docs, vocab = corpus

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.00 GiB")

    att = AttentionClassifier(att_cfg(vocab), seed=1)
    tr = HierarchicalTransformerClassifier(tr_cfg(vocab), seed=1)
    places = {  # (model, the object whose attribute runs out of memory, the attribute)
        "train_model": [(att, att, "word_level"), (att, Tensor, "backward"), (att, Adam, "step")],
        "score_documents": [(att, att, "word_level")],
        "iter_attention_maps": [(att, att, "word_level"), (tr, tr, "_document_tail")],
    }[path]
    for model, owner, attr in places:
        monkeypatch.setattr(owner, attr, exhausted)
        with pytest.raises(BatchMemoryError, match=r"\[B, T, W\] = \[4, \d+, \d+\] .*9\.00 GiB") as info:
            if path == "train_model":
                train_model(model, docs[:4], docs[4:], vocab, epochs=1, batch_size=4)
            elif path == "score_documents":
                score_documents(model, docs[:4], vocab, batch_size=4)
            else:
                next(iter_attention_maps(model, docs[:4], vocab))
        monkeypatch.undo()
        assert isinstance(info.value, MemoryError) and isinstance(info.value, SalabError), attr


def test_batch_memory_guard_passes_a_named_batch_through():
    """A BatchMemoryError from an inner block keeps the shape it names."""
    inner = BatchMemoryError((2, 3, 4), MemoryError("x"))
    with pytest.raises(BatchMemoryError) as info:
        with batch_memory_guard((9, 9, 9)):
            raise inner
    assert info.value is inner and "[2, 3, 4]" in str(info.value)


def test_heads_must_divide_hidden_at_build(corpus):
    _, vocab = corpus
    with pytest.raises(ShapeError):
        HierarchicalTransformerClassifier(tr_cfg(vocab, hidden=8, sent_heads=3), seed=0)


@pytest.mark.parametrize(
    "cfg_fn, bad",
    [
        (att_cfg, {"hidden": 0}),
        (att_cfg, {"embed_dim": 0}),
        (att_cfg, {"max_words": 0}),
        (att_cfg, {"max_sents": 0}),
        (att_cfg, {"dropout_rate": 1.0}),
        (att_cfg, {"dropout_rate": -0.1}),
        (tr_cfg, {"word_layers": 0}),
        (tr_cfg, {"sent_heads": 0}),
    ],
)
def test_config_rejects_bad_values(corpus, cfg_fn, bad):
    _, vocab = corpus
    with pytest.raises(ValueError):
        cfg_fn(vocab, **bad)


def test_hier_single_sentence_degenerates(corpus):
    _, vocab = corpus
    doc = dm.PatientDocument("solo", [["dnr", "w0", "w1"]], 1)
    model = HierarchicalTransformerClassifier(tr_cfg(vocab), seed=0)
    batch = dm.pad_and_batch([doc], vocab, 6, 4, 1)[0]
    assert maps(model, batch)["sentence"][0, 0, 0, 0] == pytest.approx(1.0, abs=1e-6)


def test_hier_sentence_order_sensitivity(corpus):
    _, vocab = corpus
    s1, s2 = ["dnr", "w0", "w1"], ["w2", "w3", "w4"]
    model = HierarchicalTransformerClassifier(tr_cfg(vocab), seed=2)
    fwd = dm.pad_and_batch([dm.PatientDocument("a", [s1, s2], 1)], vocab, 6, 4, 1)[0]
    rev = dm.pad_and_batch([dm.PatientDocument("a", [s2, s1], 1)], vocab, 6, 4, 1)[0]
    la = model.forward(fwd)
    lb = model.forward(rev)
    assert abs(la.data[0] - lb.data[0]) > 1e-6


def test_determinism_fixed_seed(corpus):
    docs, vocab = corpus
    batch = dm.pad_and_batch(docs, vocab, 6, 4, len(docs))[0]

    def run():
        m = AttentionClassifier(att_cfg(vocab, MappingKind.parse("entmax15")), seed=3)
        return m.forward(batch).data.copy()

    np.testing.assert_array_equal(run(), run())


def test_mapping_swap_checkpoint_compatibility(corpus, tmp_path):
    docs, vocab = corpus
    batch = dm.pad_and_batch(docs[:4], vocab, 6, 4, 4)[0]
    m1 = AttentionClassifier(att_cfg(vocab, MappingKind.parse("softmax")), seed=4)
    m1.save(tmp_path / "m.ckpt")
    m2 = AttentionClassifier(att_cfg(vocab, MappingKind.parse("sparsemax")), seed=99)
    m2.load(tmp_path / "m.ckpt")
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)
    assert np.isfinite(m2.forward(batch).data).all()


def test_zero_count_ordering_across_mappings(corpus):
    docs, vocab = corpus
    batch = dm.pad_and_batch(docs, vocab, 6, 4, len(docs))[0]
    zeros = {}
    for name in ("sparsemax", "entmax15", "softmax"):
        model = AttentionClassifier(att_cfg(vocab, MappingKind.parse(name)), seed=5)
        w = maps(model, batch)["word"]
        real = batch.word_mask[:, :, None, None, :] & batch.word_mask[:, :, None, :, None]
        zeros[name] = int(((w == 0.0) & real).sum())
    assert zeros["sparsemax"] >= zeros["entmax15"] >= zeros["softmax"] == 0


def test_predict_proba_stability():
    assert predict_proba(np.array([0.0]))[0] == 0.5
    assert predict_proba(np.array([20.0]))[0] > 0.9999
    assert predict_proba(np.array([-20.0]))[0] < 1e-4


def test_extract_attention_maps_filter(corpus):
    _, vocab = corpus
    doc = dm.PatientDocument(
        "f", [["w0", "cmo", "w1"], ["w2", "w3"]], 1
    )
    model = AttentionClassifier(att_cfg(vocab), seed=7)
    only = extract_attention_maps(model, doc, vocab, filter_tokens={"cmo"})
    assert len(only) == 1 and only[0].sentence_index == 0
    assert only[0].labels == ["w0", "cmo", "w1"]
    every = extract_attention_maps(model, doc, vocab)
    assert len(every) == 2  # one word record per sentence

    tr = HierarchicalTransformerClassifier(tr_cfg(vocab), seed=7)
    recs = extract_attention_maps(tr, doc, vocab)
    assert [r.scope for r in recs] == ["word", "word", "sentence"]


def test_extract_attention_maps_filter_without_match_skips_forward(corpus, monkeypatch):
    _, vocab = corpus
    model = AttentionClassifier(att_cfg(vocab), seed=7)

    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran for a document the filter rules out")

    monkeypatch.setattr(model, "forward", no_forward)
    monkeypatch.setattr(model, "word_level", no_forward)
    doc = dm.PatientDocument("n", [["w0", "w1"], ["w2"]], 0)
    assert extract_attention_maps(model, doc, vocab, filter_tokens={"cmo"}) == []
    empty = dm.PatientDocument("e", [], 0)
    assert extract_attention_maps(model, empty, vocab, filter_tokens={"cmo"}) == []
    with pytest.raises(EmptyDocumentError):
        extract_attention_maps(model, empty, vocab)


FILTERED_DOCS = [
    # the match is the second sentence, and the longest sentence does not match
    (dm.PatientDocument("second", [["w0", "w1", "w2", "w3", "w4", "w5"], ["w2", "cmo", "w3"], ["w4", "w5"]], 1),
     [1]),
    # two matches around a shorter sentence, then a longer one that does not match
    (dm.PatientDocument("two", [["dnr", "w1"], ["w2"], ["w7", "cmo", "w8", "w9"], ["w1", "w3", "w4", "w5", "w6"]], 1),
     [0, 2]),
]


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("mapping", ["softmax", "sparsemax", "entmax15", "entmax:1.3", "entmax:3"])
def test_filtered_maps_equal_the_full_forward_maps(corpus, family, mapping):
    """The word level of the matching sentences alone gives the same maps as
    the full model over the whole document: `tr` (1 and 2 layers, 2 heads)
    bit for bit, `att` within 1e-6 (its float32 GEMMs run over fewer rows)."""
    _, vocab = corpus
    if family is AttentionClassifier:
        models_ = [family(att_cfg(vocab, MappingKind.parse(mapping)), seed=13)]
    else:
        models_ = [family(tr_cfg(vocab, MappingKind.parse(mapping), word_heads=2, sent_heads=2,
                                 word_layers=layers, sent_layers=layers), seed=13) for layers in (1, 2)]
    for model, (doc, matches) in ((m, case) for m in models_ for case in FILTERED_DOCS):
        with no_grad():
            full = maps(model, dm.pad_and_batch([doc], vocab, 6, 4, 1)[0])
        recs = extract_attention_maps(model, doc, vocab, filter_tokens={"cmo", "dnr"})
        assert [r.sentence_index for r in recs] == matches
        for rec, t in zip(recs, matches):
            n = len(doc.sentences[t])
            assert rec.scope == "word" and rec.labels == doc.sentences[t]
            expected = full["word"][0, t, :, :n, :n]
            assert rec.weights.shape == expected.shape
            if family is HierarchicalTransformerClassifier:
                np.testing.assert_array_equal(rec.weights, expected)
            else:
                np.testing.assert_allclose(rec.weights, expected, rtol=0, atol=1e-6)


def test_filtered_tr_maps_never_run_the_document_tail(corpus, monkeypatch):
    _, vocab = corpus
    model = HierarchicalTransformerClassifier(tr_cfg(vocab), seed=7)

    def no_tail(*args, **kwargs):
        raise AssertionError("the document tail ran for a filtered map")

    monkeypatch.setattr(model, "_document_tail", no_tail)
    for doc, matches in FILTERED_DOCS:
        recs = extract_attention_maps(model, doc, vocab, filter_tokens={"cmo", "dnr"})
        assert [r.sentence_index for r in recs] == matches
    with pytest.raises(AssertionError, match="document tail"):
        extract_attention_maps(model, FILTERED_DOCS[0][0], vocab)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("filter_tokens", [{"cmo", "dnr"}, None], ids=["filtered", "unfiltered"])
def test_a_tr_readout_stops_at_its_last_mapping(corpus, layers, filter_tokens, monkeypatch):
    """Every layer a read-out reads runs in full but the last, which projects
    q and k and stops at its mapping: no v, wo or FFN linear and no layer
    norm after it, and no final pool.  The maps are the full pass's, bit for
    bit."""
    _, vocab = corpus
    model = HierarchicalTransformerClassifier(
        tr_cfg(vocab, MappingKind.parse("entmax15"), word_heads=2, sent_heads=2,
               word_layers=layers, sent_layers=layers), seed=13)
    names = {id(t): name for name, t in model.params.items()}
    # filtered: word layers but the last in full; unfiltered: every word layer, sentence layers but the last
    last = f"{'word' if filter_tokens else 'sent'}{layers - 1}_"
    full = ([f"word{i}_" for i in range(layers - 1)] if filter_tokens else
            [f"word{i}_" for i in range(layers)] + [f"sent{i}_" for i in range(layers - 1)])
    banned = {last + w for w in ("wv", "wo", "ffn_w1", "ffn_w2", "ln1_g", "ln2_g")}
    used = []
    linear, norm, pool = attention.linear, attention.layer_norm, models.segment_mean

    def recorded(fn):  # linear(x, W, b) and layer_norm(x, gain, bias): name the second argument
        def call(*args):
            name = names.get(id(args[1]), "")
            assert name not in banned, f"{name} ran in a map read-out"
            used.append(name)
            return fn(*args)
        return call

    def counted_pool(x, counts):
        used.append("segment_mean")
        return pool(x, counts)

    monkeypatch.setattr(attention, "linear", recorded(linear))
    monkeypatch.setattr(attention, "layer_norm", recorded(norm))
    monkeypatch.setattr(models, "segment_mean", counted_pool)
    doc = FILTERED_DOCS[1][0]
    recs = extract_attention_maps(model, doc, vocab, filter_tokens=filter_tokens)
    monkeypatch.undo()
    assert [n for n in used if "ln" in n] == [p + ln for p in full for ln in ("ln1_g", "ln2_g")]
    assert [n for n in used if n.endswith(("_wq", "_wk"))] == [
        p + w for p in full + [last] for w in ("wq", "wk")]
    assert used.count("segment_mean") == (0 if filter_tokens else 1)  # the sentence pool, not the document's
    with no_grad():
        want = maps(model, dm.pad_and_batch([doc], vocab, 6, 4, 1)[0])
    words = [r for r in recs if r.scope == "word"]
    assert [r.sentence_index for r in words] == ([0, 2] if filter_tokens else [0, 1, 2, 3])
    for rec in words:
        n = len(rec.labels)
        np.testing.assert_array_equal(rec.weights, want["word"][0, rec.sentence_index, :, :n, :n])
    if not filter_tokens:
        np.testing.assert_array_equal(recs[-1].weights, want["sentence"][0])


def test_an_att_readout_builds_no_values(corpus, monkeypatch):
    """`att`'s read-out projects q and k only and records no value-mix node."""
    docs, vocab = corpus
    model = AttentionClassifier(att_cfg(vocab, MappingKind.parse("sparsemax")), seed=7)
    names = {id(t): name for name, t in model.params.items()}
    used, nodes = [], []
    linear, node = models.linear, attention._node

    def recorded_linear(x, w, *args):
        used.append(names[id(w)])
        return linear(x, w, *args)

    def recorded_node(data, parents, *grad_fns, **kwargs):
        nodes.append(len(parents))
        return node(data, parents, *grad_fns, **kwargs)

    monkeypatch.setattr(models, "linear", recorded_linear)
    monkeypatch.setattr(attention, "_node", recorded_node)
    recs = extract_attention_maps(model, docs[0], vocab)
    assert used == ["proj_w", "wq", "wk"]
    assert len(nodes) == 1  # the scores; the value mix would be a second
    with no_grad():
        want = maps(model, dm.pad_and_batch([docs[0]], vocab, 6, 4, 1)[0])
    for rec in recs:
        n = len(rec.labels)
        np.testing.assert_array_equal(rec.weights, want["word"][0, rec.sentence_index, :, :n, :n])


@pytest.fixture(scope="module")
def split_docs():
    """44 documents, 28 of them holding a directive, and at index 20 one
    that is empty after truncation."""
    cfg = dm.SyntheticCorpusConfig(
        n_documents=44, vocab_size=25, min_sentences=2, max_sentences=4, min_words=3,
        max_words=6, p_directive_given_positive=0.9, p_directive_given_negative=0.6, seed=22,
    )
    docs = dm.generate_synthetic_corpus(cfg)
    docs.insert(20, dm.PatientDocument("empty", [[], []], 0))
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)
    return docs, vocab


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("mapping", ["softmax", "sparsemax", "entmax15", "entmax:1.3"])
@pytest.mark.parametrize("filter_tokens", [None, {"dnr", "dni", "cmo"}])
def test_iter_attention_maps_equal_per_document_maps(split_docs, family, mapping, filter_tokens,
                                                    monkeypatch, caplog):
    """Chunked maps over a split are the per-document maps: `tr` bit for bit,
    `att` within 1e-6 (its float32 GEMMs run over more rows) with the same
    exact zeros.  Documents with nothing picked are skipped, and only the
    unfiltered empty one with a warning."""
    docs, vocab = split_docs
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse(mapping), hidden=16), seed=17)
    expected = []
    for doc in docs:
        try:
            recs = extract_attention_maps(model, doc, vocab, filter_tokens=filter_tokens)
        except EmptyDocumentError:
            assert doc.id == "empty" and not filter_tokens
            continue
        if recs:
            expected.append((doc.id, recs))
    # every document but the empty one, or those with a directive: chunks of both sizes
    assert (MAPS_CHUNK < len(expected) < len(docs) - 1) if filter_tokens else len(expected) == len(docs) - 1
    word_level = model.word_level
    calls = []
    monkeypatch.setattr(model, "word_level",
                        lambda batch, **kw: calls.append(batch) or word_level(batch, **kw))
    caplog.set_level(logging.WARNING, logger="salab")
    got = [(doc.id, recs) for doc, recs in iter_attention_maps(model, docs, vocab, filter_tokens)]
    assert len(calls) == -(-len(expected) // MAPS_CHUNK)
    assert [m.getMessage() for m in caplog.records] == (
        [] if filter_tokens else ["document empty empty after truncation; skipped"])
    assert [doc_id for doc_id, _ in got] == [doc_id for doc_id, _ in expected]
    for (_, recs), (_, want) in zip(got, expected):
        assert len(recs) == len(want)
        for rec, ref in zip(recs, want):
            assert (rec.labels, rec.scope, rec.sentence_index) == (
                ref.labels, ref.scope, ref.sentence_index)
            assert rec.weights.shape == ref.weights.shape
            if family is HierarchicalTransformerClassifier:
                np.testing.assert_array_equal(rec.weights, ref.weights)
            else:
                np.testing.assert_allclose(rec.weights, ref.weights, rtol=0, atol=1e-6)
                np.testing.assert_array_equal(rec.weights == 0.0, ref.weights == 0.0)


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("filter_tokens", [None, {"dnr", "dni", "cmo"}])
def test_iter_attention_maps_limit_maps_only_the_documents_it_yields(split_docs, family, filter_tokens,
                                                                    monkeypatch, caplog):
    """limit=3 runs the word level on the first 3 picked documents alone and
    picks no further (the empty document at index 20 is not reached); a
    limit above the number of picks yields every pick, bit for bit."""
    docs, vocab = split_docs
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    model = family(cfg_fn(vocab, MappingKind.parse("sparsemax"), hidden=16), seed=17)
    every = list(iter_attention_maps(model, docs, vocab, filter_tokens))
    word_level = model.word_level
    mapped = []
    monkeypatch.setattr(model, "word_level",
                        lambda batch, **kw: mapped.extend(batch.doc_ids) or word_level(batch, **kw))
    caplog.set_level(logging.WARNING, logger="salab")
    caplog.clear()
    got = [doc.id for doc, _ in iter_attention_maps(model, docs, vocab, filter_tokens, limit=3)]
    assert got == mapped == [doc.id for doc, _ in every[:3]]
    assert caplog.records == []
    mapped.clear()
    got = list(iter_attention_maps(model, docs, vocab, filter_tokens, limit=len(docs) + 1))
    assert [doc.id for doc, _ in got] == mapped == [doc.id for doc, _ in every]
    for (_, recs), (_, want) in zip(got, every):
        assert [(r.labels, r.scope, r.sentence_index) for r in recs] == [
            (r.labels, r.scope, r.sentence_index) for r in want]
        for rec, ref in zip(recs, want):
            np.testing.assert_array_equal(rec.weights, ref.weights)


@pytest.mark.parametrize("mapping", ["entmax:1.5", "entmax:2", "entmax:1.7", "entmax:3"])
def test_extract_attention_maps_bisection_rows_validate(corpus, mapping):
    """Padded word rows of an alpha-entmax model still sum to 1 within 1e-6."""
    docs, vocab = corpus
    model = AttentionClassifier(att_cfg(vocab, MappingKind.parse(mapping), max_words=12), seed=7)
    for doc in docs:
        for rec in extract_attention_maps(model, doc, vocab):
            assert rec.weights.shape[-1] < 12  # every row has masked columns


@pytest.mark.parametrize("family", [AttentionClassifier, HierarchicalTransformerClassifier])
@pytest.mark.parametrize("spelling,name", [("entmax:2", "sparsemax"), ("entmax:1.5", "entmax15")])
def test_entmax_spelling_runs_the_named_mapping(corpus, family, spelling, name):
    """An alpha gets one solver however it is spelled: logits and maps are
    bit-identical."""
    docs, vocab = corpus
    cfg_fn = att_cfg if family is AttentionClassifier else tr_cfg
    batch = dm.pad_and_batch(docs, vocab, 6, 4, len(docs))[0]
    outs = []
    for text in (spelling, name):
        model = family(cfg_fn(vocab, MappingKind.parse(text)), seed=11)
        outs.append((model.forward(batch).data, maps(model, batch)))
    (la, ra), (lb, rb) = outs
    np.testing.assert_array_equal(la, lb)
    assert ra.keys() == rb.keys()
    for level in ra:
        np.testing.assert_array_equal(ra[level], rb[level])


@pytest.mark.parametrize("family", ["att", "tr"])
@pytest.mark.parametrize("mapping", ["softmax", "entmax15", "sparsemax"])
def test_full_model_gradcheck(corpus, family, mapping):
    docs, vocab = corpus
    kind = MappingKind.parse(mapping)
    err = None
    for attempt in range(4):  # resample near support boundaries
        if family == "att":
            model = AttentionClassifier(att_cfg(vocab, kind), seed=8 + attempt, dtype=np.float64)
        else:
            model = HierarchicalTransformerClassifier(tr_cfg(vocab, kind), seed=8 + attempt, dtype=np.float64)
        batch = dm.pad_and_batch(docs[:3], vocab, 6, 4, 3)[0]
        err = model_grad_error(model, batch)
        if err <= 1e-4:
            break
    assert err <= 1e-4
