"""Vocabulary, synthetic corpus, dataset file, and batching tests."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import pad_and_batch_oracle

from salab import data as dm
from salab.evaluation import PredictionRecord, auc_roc
from salab.exceptions import DatasetError
from salab.rng import derive_rng


def test_build_vocab_threshold_boundaries():
    streams = [["cmo"] * 5 + ["rare"] * 4]
    vocab = dm.build_vocab(streams, min_freq=5)
    assert "cmo" in vocab.token_to_id
    assert "rare" not in vocab.token_to_id
    assert vocab.token_to_id["cmo"] >= 2


def test_build_vocab_deterministic_and_empty():
    streams = lambda: [["b", "a", "a", "b", "c"]]
    v1 = dm.build_vocab(streams(), min_freq=1)
    v2 = dm.build_vocab(streams(), min_freq=1)
    assert v1.token_to_id == v2.token_to_id
    # frequency desc, then token asc
    assert v1.id_to_token[2:] == ["a", "b", "c"]
    with pytest.raises(ValueError):
        dm.build_vocab([], min_freq=1)


def test_build_vocab_never_keeps_reserved_tokens():
    vocab = dm.build_vocab([["a", "<pad>", "<unk>", "b"]] * 3, min_freq=1)
    assert vocab.id_to_token == ["<pad>", "<unk>", "a", "b"]
    assert vocab.token_to_id == {"<unk>": dm.UNK_ID, "a": 2, "b": 3}


def test_vocab_file_listing_a_reserved_token_or_a_repeat_is_refused(tmp_path):
    """A token on two lines, or a listed <pad> or <unk>, would shift every
    later id; loading refuses it, naming the file and the line."""
    path = tmp_path / "vocab.txt"
    for text, line, reason in (("a\n<pad>\nb\n", 2, "reserved"), ("<unk>\na\n", 1, "reserved"),
                               ("a\nb\n\nc\nb\n", 5, "repeats the token of line 2")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: .*{reason}"):
            dm.Vocabulary.load(path)


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = dm.build_vocab([["x", "y", "x"]], min_freq=1)
    vocab.save(tmp_path / "vocab.txt")
    again = dm.Vocabulary.load(tmp_path / "vocab.txt")
    assert again.token_to_id == vocab.token_to_id


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(max_size=4), min_size=1, max_size=6))
def test_every_accepted_token_keeps_its_id_through_vocab_txt(tmp_path, tokens):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"id": "d0", "label": 1, "sentences": [tokens]},
                               ensure_ascii=False) + "\n", encoding="utf-8")
    try:
        docs = dm.read_jsonl(path)
    except DatasetError:
        return
    vocab = dm.build_vocab(docs[0].sentences, min_freq=1)
    vocab.save(tmp_path / "vocab.txt")
    assert dm.Vocabulary.load(tmp_path / "vocab.txt").id_to_token == vocab.id_to_token


def test_degenerate_directive_probabilities():
    cfg = dm.SyntheticCorpusConfig(
        n_documents=300,
        p_directive_given_positive=1.0,
        p_directive_given_negative=0.0,
        seed=11,
    )
    directives = set(dm.DIRECTIVE_TOKENS)
    for doc in dm.generate_synthetic_corpus(cfg):
        has = any(set(s) & directives for s in doc.sentences)
        assert has == bool(doc.label)


def test_positive_rate_concentration():
    cfg = dm.SyntheticCorpusConfig(n_documents=10_000, seed=12)
    docs = dm.generate_synthetic_corpus(cfg)
    rate = np.mean([d.label for d in docs])
    assert abs(rate - 0.132) <= 0.01


def test_corpus_determinism_byte_identical(tmp_path):
    cfg = dm.SyntheticCorpusConfig(n_documents=50, seed=13)
    for name in ("a.jsonl", "b.jsonl"):
        dm.write_jsonl(tmp_path / name, dm.generate_synthetic_corpus(cfg))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def corpus_by_choice(cfg):
    """The corpus drawn with Generator.choice(p=...) for every sentence."""
    ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
    probs = ranks ** -cfg.zipf_exponent
    probs /= probs.sum()
    docs = []
    for d in range(cfg.n_documents):
        rng = derive_rng(cfg.seed, "corpus", d)
        label = int(rng.random() < cfg.positive_rate)
        sentences = []
        for _ in range(int(rng.integers(cfg.min_sentences, cfg.max_sentences + 1))):
            n_word = int(rng.integers(cfg.min_words, cfg.max_words + 1))
            sentences.append([f"w{i}" for i in rng.choice(cfg.vocab_size, size=n_word, p=probs)])
        p_dir = cfg.p_directive_given_positive if label else cfg.p_directive_given_negative
        if rng.random() < p_dir:
            token = dm.DIRECTIVE_TOKENS[rng.integers(len(dm.DIRECTIVE_TOKENS))]
            s = int(rng.integers(len(sentences)))
            sentences[s].insert(int(rng.integers(len(sentences[s]) + 1)), token)
        docs.append(dm.PatientDocument(id=f"doc{d:06d}", sentences=sentences, label=label))
    return docs


EDGE_CORPORA = {
    "one-token": {"vocab_size": 1},
    "fixed-words": {"min_words": 7, "max_words": 7},
    "fixed-sentences": {"min_sentences": 4, "max_sentences": 4},
    "no-directive": {"p_directive_given_positive": 0.0, "p_directive_given_negative": 0.0},
    "all-directive": {"p_directive_given_positive": 1.0, "p_directive_given_negative": 1.0},
    # integers(1) for the planted sentence draws nothing; 300 documents span two chunks
    "one-sentence": {"min_sentences": 1, "max_sentences": 1, "n_documents": 300,
                     "p_directive_given_positive": 1.0, "p_directive_given_negative": 1.0},
    "long-notes": {"min_sentences": 80, "max_sentences": 120, "min_words": 3, "max_words": 6},
    "wide": {"min_sentences": 1, "max_sentences": 40, "min_words": 1, "max_words": 60},
}


@pytest.mark.parametrize("seed, edge", [
    *(pytest.param(seed, {}, id=str(seed)) for seed in (0, 1, 21, 2**64 + 5)),
    *(pytest.param(seed, edge, id=f"{name}-{seed}")
      for name, edge in EDGE_CORPORA.items() for seed in (0, 1, 21)),
])
def test_corpus_equals_draws_by_choice(seed, edge):
    cfg = dm.SyntheticCorpusConfig(**{"n_documents": 200, "seed": seed, **edge})
    assert dm.generate_synthetic_corpus(cfg) == corpus_by_choice(cfg)


@pytest.mark.parametrize("k, n", [(1, 2), (37, 200), (dm._CHUNK_DOCS, dm._CHUNK_DOCS + 1)])
def test_a_corpus_is_a_prefix_of_any_longer_one(k, n):
    """Document d comes from its own stream, so the first k documents of an
    n-document corpus are the k-document corpus, whatever chunks decode them."""
    short, long = (dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=m, seed=5))
                   for m in (k, n))
    assert len(long) == n and long[:k] == short


def test_a_corpus_does_not_depend_on_its_chunk_size(monkeypatch):
    cfg = dm.SyntheticCorpusConfig(n_documents=40, seed=8, min_sentences=1, max_sentences=9)
    whole = dm.generate_synthetic_corpus(cfg)
    monkeypatch.setattr(dm, "_CHUNK_WORDS", 200)  # a few documents per chunk
    assert dm.generate_synthetic_corpus(cfg) == whole


@pytest.mark.parametrize("bad", [{"vocab_size": 0}, {"vocab_size": -2}, {"zipf_exponent": float("nan")}])
def test_corpus_rejects_config_without_filler_distribution(bad):
    with pytest.raises(ValueError):
        dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=3, **bad))


@pytest.mark.parametrize("bad, message", [
    ({"n_documents": 0}, "n_documents must be >= 1"),
    ({"vocab_size": 0, "min_words": -1}, "vocab_size, min_words must be >= 1"),
    ({"min_sentences": 0}, "min_sentences must be >= 1"),
    ({"min_words": 6, "max_words": 2}, "min_words 6 exceeds max_words 2"),
    ({"min_sentences": 5, "max_sentences": 2}, "min_sentences 5 exceeds max_sentences 2"),
    ({"max_words": 2**32}, r"max_words must be < 2\*\*32, got 4294967296"),
    ({"min_sentences": 2**40, "max_sentences": 2**40}, "max_sentences must be < 2"),
])
def test_corpus_config_names_its_bad_fields(bad, message):
    with pytest.raises(ValueError, match=message):
        dm.SyntheticCorpusConfig(**bad)


def test_jsonl_roundtrip(tmp_path):
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=30, seed=14))
    dm.write_jsonl(tmp_path / "d.jsonl", docs)
    again = dm.read_jsonl(tmp_path / "d.jsonl")
    assert again == docs


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"id": "d1", "label": 0, "sentences": [["a"]]', "not valid JSON"),
        ('[1, 2]', "not a JSON object"),
        ('{"label": 0, "sentences": [["a"]]}', '"id"'),
        ('{"id": "d1", "label": 7, "sentences": [["a"]]}', '"label"'),
        ('{"id": "d1", "sentences": [["a"]]}', '"label"'),
        ('{"id": "d1", "label": true, "sentences": [["a"]]}', '"label"'),
        ('{"id": "d1", "label": 1, "sentences": "dnr"}', '"sentences"'),
        ('{"id": "d1", "label": 1, "sentences": ["dnr"]}', '"sentences"'),
        ('{"id": "d1", "label": 1, "sentences": [["dnr", 3]]}', '"sentences"'),
        ('{"id": "d1", "label": 1}', '"sentences"'),
        ('{"id": "d1", "label": 1, "sentences": [["a", ""]]}', "token '' is empty or holds a line break"),
        ('{"id": "d1", "label": 1, "sentences": [["p\\u2028q"]]}', "token 'p\\u2028q' is empty or holds"),
        ('{"id": "d1", "label": 1, "sentences": [["a", "p\\ud800q"]]}',
         "token 'p\\ud800q' holds a lone surrogate, which UTF-8 cannot encode"),
        ('{"id": "d\\udc00", "label": 1, "sentences": [["a"]]}',
         "id 'd\\udc00' holds a lone surrogate, which UTF-8 cannot encode"),
    ],
)
def test_read_jsonl_rejects_malformed_line(tmp_path, line, reason):
    path = tmp_path / "d.jsonl"
    good = '{"id": "d0", "label": 1, "sentences": [["a", "b"], []]}'
    path.write_text(f"{good}\n\n{line}\n{good}\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        dm.read_jsonl(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert reason in str(info.value)


@pytest.mark.parametrize(
    "raw, reason",
    [
        (b'{"id": "d1", "label": 1, "sentences": [["\xff"]]}', "can't decode byte 0xff"),
        (b"[" * 100_000, "not valid JSON"),
        (b'{"id": "d1", "label": 1, "n": ' + b"1" * 5000 + b"}", "not valid JSON"),
    ],
    ids=["not-utf8", "deep-nesting", "long-number"],
)
def test_read_jsonl_rejects_undecodable_line(tmp_path, raw, reason):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"id": "d0", "label": 1, "sentences": [["a"]]}\n' + raw + b"\n")
    with pytest.raises(DatasetError) as info:
        dm.read_jsonl(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert reason in str(info.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "label", "sentences", "x"]), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.binary(max_size=60) | json_values.map(lambda v: json.dumps(v).encode()),
                max_size=4))
def test_read_jsonl_of_any_bytes_returns_documents_or_raises_dataset_error(tmp_path, lines):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        docs = dm.read_jsonl(path)
    except DatasetError:
        return
    assert all(isinstance(d, dm.PatientDocument) and d.label in (0, 1) for d in docs)


def test_split_disjoint_and_stable():
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=200, seed=15))
    s1 = dm.split_dataset(docs, seed=4)
    s2 = dm.split_dataset(docs, seed=4)
    ids = lambda part: {d.id for d in part}
    assert ids(s1.train) == ids(s2.train) and ids(s1.test) == ids(s2.test)
    assert not (ids(s1.train) & ids(s1.validation))
    assert not (ids(s1.train) & ids(s1.test))
    assert not (ids(s1.validation) & ids(s1.test))
    assert len(s1.train) == 140 and len(s1.validation) == 30


def test_pad_and_batch_examples():
    vocab = dm.build_vocab([["t1", "t2", "t3"]], min_freq=1)
    doc = dm.PatientDocument("d0", [["t1", "t2", "t3"]], 0)
    batch = dm.pad_and_batch([doc], vocab, max_words=5, max_sents=2, batch_size=4)[0]
    # padded to the batch's own longest document and sentence, not to the caps
    assert batch.token_ids.shape == batch.word_mask.shape == (1, 1, 3)
    ids = batch.token_ids[0, 0]
    assert list(ids) == [vocab.token_to_id[t] for t in ("t1", "t2", "t3")]
    assert list(batch.word_mask[0, 0]) == [True, True, True]
    assert list(batch.sentence_mask[0]) == [True]

    longer = dm.PatientDocument("d1", [["t1"], ["t2", "t3", "t1", "t2"]], 1)
    batch = dm.pad_and_batch([doc, longer], vocab, max_words=5, max_sents=3, batch_size=4)[0]
    assert batch.token_ids.shape == (2, 2, 4)
    assert list(batch.token_ids[0, 0]) == [*ids, 0]
    assert not batch.token_ids[0, 1].any()
    assert list(batch.word_mask[0, 0]) == [True, True, True, False]
    assert batch.sentence_mask.tolist() == [[True, False], [True, True]]


def test_pad_and_batch_remainder_and_truncation():
    vocab = dm.build_vocab([["a"]], min_freq=1)
    docs = [dm.PatientDocument(f"d{i}", [["a"], ["a"], ["a"]], 0) for i in range(7)]
    batches = dm.pad_and_batch(docs, vocab, 3, 2, 16)
    assert len(batches) == 1 and batches[0].token_ids.shape[0] == 7
    # earliest two sentences kept
    assert batches[0].sentence_mask[0].sum() == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=7), max_size=6),
             min_size=1, max_size=9),
    st.integers(1, 8), st.integers(1, 5), st.integers(1, 4),
)
def test_pad_and_batch_pads_to_chunk_maxima(sentence_lists, max_words, max_sents, batch_size):
    vocab = dm.build_vocab([["a", "b"]], min_freq=1)  # "c" reads as unknown
    docs = [dm.PatientDocument(f"d{i}", s, 0) for i, s in enumerate(sentence_lists)]
    kept = [enc for enc in (dm.kept_sentences(d, max_words, max_sents) for d in docs) if enc]
    batches = dm.pad_and_batch(docs, vocab, max_words, max_sents, batch_size)
    assert [b.token_ids.shape[0] for b in batches] == [
        len(kept[i : i + batch_size]) for i in range(0, len(kept), batch_size)
    ]
    for k, batch in enumerate(batches):
        chunk = kept[k * batch_size : (k + 1) * batch_size]
        shape = (len(chunk), max(map(len, chunk)), max(len(s) for enc in chunk for s in enc))
        assert batch.token_ids.shape == batch.word_mask.shape == shape
        assert batch.sentence_mask.shape == shape[:2]
        assert np.array_equal(batch.word_mask, batch.token_ids != 0)
        assert np.array_equal(batch.sentence_mask, batch.word_mask.any(axis=-1))
        assert batch.word_mask.sum() == sum(len(sent) for enc in chunk for sent in enc)
        for i, enc in enumerate(chunk):
            for t, sent in enumerate(enc):
                assert batch.token_ids[i, t, : len(sent)].tolist() == [vocab.token_to_id.get(w, dm.UNK_ID) for w in sent]


def assert_same_batches(batches, expected):
    """Every field of every batch equal, with its dtype, shape and bytes."""
    assert len(batches) == len(expected)
    for got, want in zip(batches, expected):
        for name in ("token_ids", "word_mask", "sentence_mask", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert got.doc_ids == want.doc_ids


SKIPPED = "document {} empty after truncation; skipped"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(st.lists(st.lists(st.sampled_from(["a", "b", "c", "<pad>", "<unk>"]), max_size=7),
                                max_size=6), st.integers(0, 1)), max_size=20),
    st.integers(1, 8), st.integers(1, 5), st.sampled_from([1, 3, 16, None]),
)
def test_pad_and_batch_equals_the_per_sentence_oracle(caplog, docs, max_words, max_sents, batch_size):
    """The vectorised builder against the per-sentence loop: all five fields
    and the skip warnings, over empty sentences and documents, over-long
    sentences, documents past `max_sents`, unknown tokens ("c"), `<pad>`
    and `<unk>`, at batch sizes 1, 3, 16 and one more than the split."""
    vocab = dm.build_vocab([["a", "b"]], min_freq=1)
    docs = [dm.PatientDocument(f"d{i}", s, y) for i, (s, y) in enumerate(docs)]
    batch_size = batch_size or len(docs) + 1
    expected, skipped = pad_and_batch_oracle(docs, vocab, max_words, max_sents, batch_size)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="salab.data"):
        batches = dm.pad_and_batch(docs, vocab, max_words, max_sents, batch_size)
    assert_same_batches(batches, expected)
    assert [r.getMessage() for r in caplog.records] == [SKIPPED.format(i) for i in skipped]


def test_pad_and_batch_equals_the_oracle_on_a_corpus():
    """A synthetic corpus with a few empty and over-long documents, at the
    benchmark's caps, at caps that cut sentences and documents, and one
    sentence per batch, as a filtered map read-out builds them."""
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=150, seed=46))
    docs[3].sentences, docs[70].sentences = [], [[], []]
    docs[9].sentences = [["w1"] * 30, ["dnr", "<pad>", "zzz"]] * 6
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=5)
    for max_words, max_sents, batch_size in ((12, 8, 16), (3, 2, 7), (50, 1000, 1), (12, 1, 1)):
        expected, _ = pad_and_batch_oracle(docs, vocab, max_words, max_sents, batch_size)
        assert_same_batches(dm.pad_and_batch(docs, vocab, max_words, max_sents, batch_size), expected)


def test_a_token_budget_closes_each_batch_before_the_document_that_would_pass_it(caplog, monkeypatch):
    """Budget 10, batch size 3: a batch takes a document while its kept
    sentences times its longest kept sentence stay within 10 (equal to it
    included), a document over the budget goes alone, and `batch_size` still
    closes a batch; an empty document is skipped with its warning."""
    monkeypatch.setattr(dm, "BATCH_TOKENS", 10)
    vocab = dm.build_vocab([["a"]], min_freq=1)
    lens = {"d0": [5], "d1": [3], "d2": [1], "d3": [2, 2], "d4": [4], "d5": [11], "d6": [],
            "d7": [1], "d8": [1], "d9": [1], "d10": [1]}
    docs = [dm.PatientDocument(i, [["a"] * n for n in ns], 0) for i, ns in lens.items()]
    with caplog.at_level(logging.WARNING, logger="salab.data"):
        batches = list(dm.iter_batches(docs, vocab, 20, 5, 3))
    assert [b.doc_ids for b in batches] == [["d0", "d1"], ["d2", "d3"], ["d4"], ["d5"], ["d7", "d8", "d9"],
                                            ["d10"]]
    # N * W: 2 * 5 (equal to the budget), 3 * 2, 4, 11 (alone, over it), 3 * 1, 1
    assert [b.token_ids.shape for b in batches] == [(2, 1, 5), (2, 2, 2), (1, 1, 4), (1, 1, 11), (3, 1, 1),
                                                    (1, 1, 1)]
    assert [r.getMessage() for r in caplog.records] == [SKIPPED.format("d6")]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=7), max_size=6), max_size=20),
    st.integers(1, 8), st.integers(1, 5), st.sampled_from([1, 3, 16]), st.sampled_from([1, 4, 12, 40]),
)
def test_streamed_batches_equal_the_oracle_under_any_budget(docs, max_words, max_sents, batch_size,
                                                            batch_tokens):
    """`iter_batches` against the per-sentence oracle's budgeted grouping,
    one streamed batch at a time, and `pad_and_batch` is its list."""
    vocab = dm.build_vocab([["a", "b"]], min_freq=1)
    docs = [dm.PatientDocument(f"d{i}", s, i % 2) for i, s in enumerate(docs)]
    expected, _ = pad_and_batch_oracle(docs, vocab, max_words, max_sents, batch_size, batch_tokens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dm, "BATCH_TOKENS", batch_tokens)
        stream = dm.iter_batches(docs, vocab, max_words, max_sents, batch_size)
        for want in expected:
            assert_same_batches([next(stream)], [want])
        assert next(stream, None) is None
        assert_same_batches(dm.pad_and_batch(docs, vocab, max_words, max_sents, batch_size), expected)


def test_the_default_budget_never_binds_on_the_synthetic_corpora():
    """At BATCH_TOKENS, the default corpus and the long-note shapes (80-120
    sentences of 3-6 words) batch exactly as the oracle does with no budget,
    at the default caps and batch size."""
    for cfg in (dm.SyntheticCorpusConfig(n_documents=300, seed=5),
                dm.SyntheticCorpusConfig(n_documents=48, min_sentences=80, max_sentences=120, min_words=3,
                                         max_words=6, seed=5)):
        docs = dm.generate_synthetic_corpus(cfg)
        vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)
        free, _ = pad_and_batch_oracle(docs, vocab, 50, 1000, 16)
        assert max(b.sentence_mask.sum() * b.token_ids.shape[2] for b in free) < dm.BATCH_TOKENS
        assert_same_batches(list(dm.iter_batches(docs, vocab, 50, 1000, 16)), free)


def test_iter_batches_reads_documents_only_as_far_as_its_batch(monkeypatch):
    """A batch is built on reading the first document that does not fit it,
    whether by `batch_size` or by the budget, and the last one when the
    documents end; no document past those is read."""
    vocab = dm.build_vocab([["a"]], min_freq=1)
    read = []

    def docs(n):
        for i in range(n):
            read.append(i)
            yield dm.PatientDocument(f"d{i}", [["a"] * (1 + i)], 0)

    stream = dm.iter_batches(docs(8), vocab, 20, 5, 2)
    assert next(stream).doc_ids == ["d0", "d1"] and read == [0, 1, 2]
    read.clear()
    stream = dm.iter_batches(docs(3), vocab, 20, 5, 4)
    assert next(stream).doc_ids == ["d0", "d1", "d2"] and read == [0, 1, 2]
    read.clear()
    monkeypatch.setattr(dm, "BATCH_TOKENS", 6)
    stream = dm.iter_batches(docs(8), vocab, 20, 5, 4)  # 1, then 2 * 2 = 4, then 3 * 3 > 6
    assert next(stream).doc_ids == ["d0", "d1"] and read == [0, 1, 2]


def test_reserved_tokens_in_a_document_read_as_unknown():
    vocab = dm.build_vocab([["a", "b"]], min_freq=1)
    doc = dm.PatientDocument("d0", [["<pad>", "a", "<unk>"], ["<pad>"]], 1)
    batch = dm.pad_and_batch([doc], vocab, max_words=5, max_sents=5, batch_size=1)[0]
    assert "<pad>" not in vocab.token_to_id and vocab.token_to_id["<unk>"] == dm.UNK_ID
    assert batch.token_ids.tolist() == [[[1, 2, 1], [1, 0, 0]]]
    assert np.array_equal(batch.word_mask, batch.token_ids != dm.PAD_ID)
    assert batch.sentence_mask.tolist() == [[True, True]]


def test_mask_pad_consistency():
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(n_documents=20, seed=16))
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=1)
    for batch in dm.pad_and_batch(docs, vocab, 11, 6, 8):
        assert np.array_equal(batch.word_mask, batch.token_ids != 0)


def test_synthetic_separability_by_containment_rule():
    cfg = dm.SyntheticCorpusConfig(n_documents=4000, seed=17)
    docs = dm.generate_synthetic_corpus(cfg)
    directives = set(dm.DIRECTIVE_TOKENS)
    recs = [
        PredictionRecord(
            d.id,
            1.0 if any(set(s) & directives for s in d.sentences) else 0.0,
            d.label,
        )
        for d in docs
    ]
    assert auc_roc(recs) >= 0.9
