"""The two classifier families.

AttentionClassifier ("att"): embeddings -> linear projection -> one
single-head self-attention pass per sentence -> one mean over every real
word of the document -> linear prediction layer.

HierarchicalTransformerClassifier ("tr"): word-level transformer with
word positional embeddings, mean per sentence, sentence positional
embeddings, sentence-level transformer, mean over sentences, then the
same linear prediction layer.

`forward` runs the word level (`word_level`: embedding, projection,
dropout, the family's word encoder), then the document tail (the family's
pools, `tr`'s sentence level, the prediction layer).  A map read-out
(`iter_attention_maps`) stops at the last mapping it reads: word maps need the word level up to its last layer's
attention weights, and `tr`'s sentence maps the full word level, then the
sentence level up to its last mapping.  Every level computes on its real
units only.  `word_level` builds one `Packing` per level: the real words
of the batch's N real sentences in an [N, W] grid, and the real sentences
of its B documents in a [B, T] grid.
Embedding, projection, dropout, every linear, layer norm, FFN, residual
and positional add run on the packed [R, d] rows; only the attention call
unpacks them into its grid, and `segment_mean` pools consecutive rows.

Both are parameterized by the simplex mapping; swapping the mapping never
changes parameter shapes, so checkpoints are interchangeable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .attention import (
    AttentionRecord,
    Packing,
    add_positional_embeddings,
    scaled_dot_attention,
    transformer_encoder_layer,
)
from .autodiff import (
    Tensor,
    dropout,
    embedding_lookup,
    linear,
    no_grad,
    segment_mean,
)
from .data import Batch, PatientDocument, kept_sentences, pad_and_batch
from .exceptions import CheckpointError, EmptyDocumentError, ShapeError, batch_memory_guard
from .rng import derive_rng
from .simplex import MappingKind

log = logging.getLogger(__name__)


@dataclass
class LocalModelConfig:
    """Every model setting's default and check; `salab train` reads both."""

    vocab_size: int
    embed_dim: int = 100
    hidden: int = 128
    mapping: MappingKind = MappingKind.parse("softmax")
    dropout_rate: float = 0.2
    max_words: int = 50
    max_sents: int = 1000

    def __post_init__(self):
        for name in ("embed_dim", "hidden", "max_words", "max_sents"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class HierModelConfig(LocalModelConfig):
    word_layers: int = 1
    sent_layers: int = 1
    word_heads: int = 1
    sent_heads: int = 1

    def __post_init__(self):
        super().__post_init__()
        for name in ("word_layers", "sent_layers", "word_heads", "sent_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for heads in (self.word_heads, self.sent_heads):
            if self.hidden % heads:
                raise ShapeError(f"heads {heads} does not divide hidden {self.hidden}")


def _uniform(rng, fan_in: int, shape, dtype) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class _BaseModel:
    """Embedding -> projection -> family word encoder (the word level), then
    family document tail -> linear prediction layer.

    A family adds its parameters in `_build_encoder(rng)`, maps the projected
    real words, [R, hidden] rows of `words` (the real words of the N real
    sentences in their [N, W] grid), to word rows and maps [N, heads, W, W]
    in `_word_encoder(x, words, training, maps_only)`, and pools the word
    rows into document vectors, `sents` packing the sentences in their
    [B, T] grid, in `_document_tail(x, words, sents, training) -> (pooled,
    sentence maps)`, the sentence maps [B, heads, T, T] being None for a
    family without.  With `maps_only` the word encoder stops at its last
    mapping and returns None for the word rows; `tr`'s tail takes the same
    keyword and then returns None for the pooled vectors.
    """

    family = "base"

    def __init__(self, config, seed: int = 0, dtype=np.float32):
        self.config = cfg = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self._dropout_rng = derive_rng(seed, "dropout", self.family)
        rng = derive_rng(seed, "init", self.family)
        emb = _uniform(rng, cfg.embed_dim, (cfg.vocab_size, cfg.embed_dim), dtype)
        emb[0] = 0.0
        self._param("emb", emb)
        self._param("proj_w", _uniform(rng, cfg.embed_dim, (cfg.embed_dim, cfg.hidden), dtype))
        self._param("proj_b", np.zeros(cfg.hidden, dtype=dtype))
        self._build_encoder(rng)
        self._param("pred_w", _uniform(rng, cfg.hidden, (cfg.hidden, 1), dtype))
        self._param("pred_b", np.zeros(1, dtype=dtype))

    def _param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value.astype(self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def _layer_params(self, prefix: str, rng, d: int):
        for w in ("wq", "wk", "wv", "wo"):
            self._param(prefix + w, _uniform(rng, d, (d, d), self.dtype))
        for b in ("bq", "bk", "bv", "bo"):
            self._param(prefix + b, np.zeros(d, dtype=self.dtype))
        for ln in ("ln1_", "ln2_"):
            self._param(prefix + ln + "g", np.ones(d, dtype=self.dtype))
            self._param(prefix + ln + "b", np.zeros(d, dtype=self.dtype))
        self._param(prefix + "ffn_w1", _uniform(rng, d, (d, 2 * d), self.dtype))
        self._param(prefix + "ffn_b1", np.zeros(2 * d, dtype=self.dtype))
        self._param(prefix + "ffn_w2", _uniform(rng, 2 * d, (2 * d, d), self.dtype))
        self._param(prefix + "ffn_b2", np.zeros(d, dtype=self.dtype))

    def word_level(self, batch: Batch, training: bool = False, maps_only: bool = False):
        """The word rows [R, hidden], the word and sentence `Packing`s and the
        word maps [N, heads, W, W] of the batch's real sentences; with
        `maps_only` the encoder stops at its last mapping and the rows are None."""
        cfg = self.config
        B, T, W = batch.token_ids.shape
        if not batch.word_mask.any(axis=(1, 2)).all():
            raise EmptyDocumentError("batch contains a document with zero tokens")
        sents = Packing(batch.sentence_mask)
        words = Packing(batch.word_mask.reshape(B * T, W)[sents.index])
        x = linear(embedding_lookup(batch.token_ids[batch.word_mask], self.params["emb"]),
                   self.params["proj_w"], self.params["proj_b"])
        x = dropout(x, cfg.dropout_rate, training, self._dropout_rng)
        x, word_maps = self._word_encoder(x, words, training, maps_only)
        return x, words, sents, word_maps

    def forward(self, batch: Batch, training: bool = False) -> Tensor:
        """Logits [B]: the word level, then the document tail."""
        x, words, sents = self.word_level(batch, training)[:3]  # the word maps die here
        pooled, _ = self._document_tail(x, words, sents, training)
        logits = linear(pooled, self.params["pred_w"], self.params["pred_b"])
        return logits.reshape(len(sents.counts))

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: p.data.astype(np.float32) for k, p in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Every parameter from `state`, or none: a state that names a parameter
        the model does not have, misses one or has one in another shape raises
        CheckpointError before any weight changes."""
        if foreign := [name for name in state if name not in self.params]:
            raise CheckpointError(f"parameter {foreign[0]} is not one of this model's")
        for name, p in self.params.items():
            if name not in state:
                raise CheckpointError(f"parameter {name} missing")
            if state[name].shape != p.shape:
                raise CheckpointError(f"parameter {name}: shape {state[name].shape} vs {p.shape}")
        for name, p in self.params.items():
            p.data = state[name].astype(self.dtype)

    def save(self, path) -> None:
        ckpt.save_checkpoint(path, self.state_dict())

    def load(self, path) -> None:
        self.load_state_dict(ckpt.load_checkpoint(path))


class AttentionClassifier(_BaseModel):
    """Local word-level self-attention model (Att-softmax/entmax15/sparsemax)."""

    family = "att"

    def _build_encoder(self, rng):
        d = self.config.hidden
        for w in ("wq", "wk", "wv"):
            self._param(w, _uniform(rng, d, (d, d), self.dtype))

    def _word_encoder(self, x, words, training, maps_only):
        q, k = linear(x, self.params["wq"]), linear(x, self.params["wk"])
        v = None if maps_only else linear(x, self.params["wv"])
        return scaled_dot_attention(q, k, v, words, self.config.mapping)

    def _document_tail(self, x, words, sents, training):
        x = dropout(x, self.config.dropout_rate, training, self._dropout_rng)
        doc_words = sents.unpack(words.counts).sum(axis=-1)
        return segment_mean(x, doc_words), None


class HierarchicalTransformerClassifier(_BaseModel):
    """Hierarchical word/sentence transformer (Tr-softmax/entmax15/sparsemax)."""

    family = "tr"

    def _build_encoder(self, rng):
        cfg = self.config
        # level name -> (its heads, its layer count)
        self._levels = {"word": (cfg.word_heads, cfg.word_layers),
                        "sent": (cfg.sent_heads, cfg.sent_layers)}
        self._param("word_pos", _uniform(rng, cfg.hidden, (cfg.max_words, cfg.hidden), self.dtype))
        self._param("sent_pos", _uniform(rng, cfg.hidden, (cfg.max_sents, cfg.hidden), self.dtype))
        for name, (_, layers) in self._levels.items():
            for layer in range(layers):
                self._layer_params(f"{name}{layer}_", rng, cfg.hidden)

    def _level(self, level: str, x: Tensor, units: Packing, training: bool, maps_only: bool):
        """Add the level's positional table, then run its encoder layers; with
        `maps_only` the last one stops at its mapping."""
        heads, layers = self._levels[level]
        x = add_positional_embeddings(x, self.params[f"{level}_pos"], units)
        for layer in range(layers):
            weights = None  # only the last layer's grid is returned: free the one before
            x, weights = transformer_encoder_layer(
                x, self.params, units, training, self._dropout_rng, f"{level}{layer}_",
                self.config.mapping, heads, self.config.dropout_rate,
                maps_only=maps_only and layer == layers - 1,
            )
        return x, weights

    def _word_encoder(self, x, words, training, maps_only):
        return self._level("word", x, words, training, maps_only)

    def _document_tail(self, x, words, sents, training, maps_only=False):
        y, sent_weights = self._level("sent", segment_mean(x, words.counts), sents, training, maps_only)
        return (None if maps_only else segment_mean(y, sents.counts)), sent_weights  # [B, h, T, T]


def predict_proba(logits) -> np.ndarray:
    """Sigmoid over raw logits, overflow-safe."""
    s = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# attention-map extraction

# picked documents per `word_level` call of `iter_attention_maps`
MAPS_CHUNK = 16


def iter_attention_maps(model, docs, vocab, filter_tokens: set[str] | None = None,
                        limit: int | None = None):
    """`(doc, records)` in document order, for at most `limit` documents: a
    word-level record per picked sentence, plus a sentence-level record for
    an unfiltered `tr` document.

    Every kept sentence is picked, or with a filter only those holding a
    filter token.  A document with nothing picked is skipped without running
    the model; an unfiltered one (empty after truncation) with a warning.
    Picking stops at the `limit`-th document with a pick.  The model then
    runs once per chunk of MAPS_CHUNK picked documents, and only as far as
    the records need: the word level of the picked sentences through its
    last mapping, or for unfiltered `tr` the full word level and the
    sentence level through its last mapping.
    """
    cfg = model.config
    full = model.family == "tr" and not filter_tokens
    picks = []
    for doc in docs:
        if len(picks) == limit:
            break
        sentences = kept_sentences(doc, cfg.max_words, cfg.max_sents)
        picked = [t for t, sent in enumerate(sentences) if not filter_tokens or set(sent) & filter_tokens]
        if picked:
            picks.append((doc, sentences, picked))
        elif not filter_tokens:
            log.warning("document %s empty after truncation; skipped", doc.id)
    for start in range(0, len(picks), MAPS_CHUNK):
        chunk = picks[start:start + MAPS_CHUNK]
        picked_docs = [PatientDocument(d.id, [kept[t] for t in p], d.label) for d, kept, p in chunk]
        batch = pad_and_batch(picked_docs, vocab, cfg.max_words, cfg.max_sents, len(chunk))[0]
        with batch_memory_guard(batch.token_ids.shape), no_grad():
            x, words, sents, word = model.word_level(batch, maps_only=not full)
            if full:
                sent = model._document_tail(x, words, sents, False, maps_only=True)[1]  # [B, heads, T, T]
        rows = iter(word)  # [heads, W, W] per picked sentence, in document order
        for b, (doc, sentences, picked) in enumerate(chunk):
            out: list[AttentionRecord] = []
            for t in picked:
                n = len(sentences[t])
                out.append(AttentionRecord(next(rows)[:, :n, :n], list(sentences[t]), sentence_index=t))
            if full:
                n = len(sentences)
                out.append(AttentionRecord(sent[b, :, :n, :n], [f"s{t}" for t in range(n)], "sentence"))
            for rec in out:
                rec.validate()
            yield doc, out


def extract_attention_maps(model, doc, vocab, filter_tokens: set[str] | None = None) -> list[AttentionRecord]:
    """`iter_attention_maps` of one document: [] when the filter picks
    nothing, EmptyDocumentError for an unfiltered document empty after
    truncation; the model runs in neither case."""
    cfg = model.config
    if not filter_tokens and not kept_sentences(doc, cfg.max_words, cfg.max_sents):
        raise EmptyDocumentError(f"document {doc.id} empty after truncation")
    return next(iter_attention_maps(model, [doc], vocab, filter_tokens), (doc, []))[1]
