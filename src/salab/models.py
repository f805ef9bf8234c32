"""The two classifier families.

AttentionClassifier ("att"): embeddings -> linear projection -> one
single-head self-attention pass per sentence -> one flat masked mean over
every real word position of the document -> linear prediction layer.

HierarchicalTransformerClassifier ("tr"): word-level transformer with
word positional embeddings, masked mean per sentence, sentence positional
embeddings, sentence-level transformer, masked mean over sentences, then
the same linear prediction layer.

Both are parameterized by the simplex mapping; swapping the mapping never
changes parameter shapes, so checkpoints are interchangeable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from .attention import (
    AttentionConfig,
    AttentionRecord,
    add_positional_embeddings,
    scaled_dot_attention,
    transformer_encoder_layer,
)
from .autodiff import (
    Tensor,
    dropout,
    embedding_lookup,
    linear,
    masked_mean_pool,
    sigmoid_np,
)
from .data import Batch, PatientDocument, Vocabulary, encode_document, pad_and_batch
from .exceptions import CheckpointError, EmptyDocumentError
from .rng import derive_rng
from .simplex import MappingKind

log = logging.getLogger(__name__)


@dataclass
class LocalModelConfig:
    vocab_size: int
    embed_dim: int = 100
    hidden: int = 128
    mapping: MappingKind = field(default_factory=MappingKind.softmax)
    dropout_rate: float = 0.2
    max_words: int = 20
    max_sents: int = 40
    shared_qkv: bool = False  # one projection reused for Q, K, V


@dataclass
class HierModelConfig(LocalModelConfig):
    word_layers: int = 1
    sent_layers: int = 1
    word_heads: int = 1
    sent_heads: int = 1


def _uniform(rng, fan_in: int, shape, dtype) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _safe_mask(mask: np.ndarray) -> np.ndarray:
    """Word mask with position 0 forced on for fully padded sentences.

    Keeps attention/pooling well defined for pad sentences; their output
    never reaches the loss because the true masks exclude them later.
    """
    safe = mask.copy()
    empty = ~mask.any(axis=-1)
    safe[empty, 0] = True
    return safe


class _BaseModel:
    family = "base"

    def __init__(self, config, seed: int, dtype=np.float32):
        self.config = config
        self.seed = seed
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self._dropout_rng = derive_rng(seed, "dropout", self.family)
        self._build(derive_rng(seed, "init", self.family))

    def _param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value.astype(self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def _layer_params(self, prefix: str, rng, d: int):
        for w in ("wq", "wk", "wv", "wo"):
            self._param(prefix + w, _uniform(rng, d, (d, d), self.dtype))
        for b in ("bq", "bk", "bv", "bo"):
            self._param(prefix + b, np.zeros(d, dtype=self.dtype))
        self._param(prefix + "ln1_g", np.ones(d, dtype=self.dtype))
        self._param(prefix + "ln1_b", np.zeros(d, dtype=self.dtype))
        self._param(prefix + "ln2_g", np.ones(d, dtype=self.dtype))
        self._param(prefix + "ln2_b", np.zeros(d, dtype=self.dtype))
        self._param(prefix + "ffn_w1", _uniform(rng, d, (d, 2 * d), self.dtype))
        self._param(prefix + "ffn_b1", np.zeros(2 * d, dtype=self.dtype))
        self._param(prefix + "ffn_w2", _uniform(rng, 2 * d, (2 * d, d), self.dtype))
        self._param(prefix + "ffn_b2", np.zeros(d, dtype=self.dtype))

    def _embed_and_project(self, batch: Batch, training: bool):
        cfg = self.config
        if not batch.word_mask.any(axis=(1, 2)).all():
            raise EmptyDocumentError("batch contains a document with zero tokens")
        emb = embedding_lookup(batch.token_ids, self.params["emb"])
        x = linear(emb, self.params["proj_w"], self.params["proj_b"])
        return dropout(x, cfg.dropout_rate, training, self._dropout_rng)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: p.data.astype(np.float32) for k, p in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if name not in state:
                raise CheckpointError(f"parameter {name} missing")
            arr = state[name]
            if arr.shape != p.shape:
                raise CheckpointError(f"parameter {name}: shape {arr.shape} vs {p.shape}")
            p.data = arr.astype(self.dtype)

    def save(self, path) -> None:
        ckpt.save_checkpoint(path, self.state_dict())

    def load(self, path) -> None:
        self.load_state_dict(ckpt.load_checkpoint(path))


class AttentionClassifier(_BaseModel):
    """Local word-level self-attention model (Att-softmax/entmax15/sparsemax)."""

    family = "att"

    def __init__(self, config: LocalModelConfig, seed: int = 0, dtype=np.float32):
        super().__init__(config, seed, dtype)

    def _build(self, rng):
        cfg = self.config
        emb = _uniform(rng, cfg.embed_dim, (cfg.vocab_size, cfg.embed_dim), self.dtype)
        emb[0] = 0.0
        self._param("emb", emb)
        self._param("proj_w", _uniform(rng, cfg.embed_dim, (cfg.embed_dim, cfg.hidden), self.dtype))
        self._param("proj_b", np.zeros(cfg.hidden, dtype=self.dtype))
        if cfg.shared_qkv:
            shared = _uniform(rng, cfg.hidden, (cfg.hidden, cfg.hidden), self.dtype)
            for w in ("wq", "wk", "wv"):
                self._param(w, shared.copy())
        else:
            for w in ("wq", "wk", "wv"):
                self._param(w, _uniform(rng, cfg.hidden, (cfg.hidden, cfg.hidden), self.dtype))
        self._param("pred_w", _uniform(rng, cfg.hidden, (cfg.hidden, 1), self.dtype))
        self._param("pred_b", np.zeros(1, dtype=self.dtype))

    def forward(self, batch: Batch, training: bool = False):
        cfg = self.config
        B, T, W = batch.token_ids.shape
        x = self._embed_and_project(batch, training)
        x = x.reshape(B * T, W, cfg.hidden)
        q = linear(x, self.params["wq"])
        k = linear(x, self.params["wk"])
        v = linear(x, self.params["wv"])
        safe = _safe_mask(batch.word_mask.reshape(B * T, W))
        att, weights = scaled_dot_attention(q, k, v, safe, cfg.mapping)
        att = dropout(att, cfg.dropout_rate, training, self._dropout_rng)
        flat = att.reshape(B, T * W, cfg.hidden)
        pooled = masked_mean_pool(flat, batch.word_mask.reshape(B, T * W))
        logits = linear(pooled, self.params["pred_w"], self.params["pred_b"])
        records = {"word": weights.reshape(B, T, 1, W, W)}
        return logits.reshape(B), records


class HierarchicalTransformerClassifier(_BaseModel):
    """Hierarchical word/sentence transformer (Tr-softmax/entmax15/sparsemax)."""

    family = "tr"

    def __init__(self, config: HierModelConfig, seed: int = 0, dtype=np.float32):
        super().__init__(config, seed, dtype)

    def _build(self, rng):
        cfg = self.config
        emb = _uniform(rng, cfg.embed_dim, (cfg.vocab_size, cfg.embed_dim), self.dtype)
        emb[0] = 0.0
        self._param("emb", emb)
        self._param("proj_w", _uniform(rng, cfg.embed_dim, (cfg.embed_dim, cfg.hidden), self.dtype))
        self._param("proj_b", np.zeros(cfg.hidden, dtype=self.dtype))
        self._param("word_pos", _uniform(rng, cfg.hidden, (cfg.max_words, cfg.hidden), self.dtype))
        self._param("sent_pos", _uniform(rng, cfg.hidden, (cfg.max_sents, cfg.hidden), self.dtype))
        for layer in range(cfg.word_layers):
            self._layer_params(f"word{layer}_", rng, cfg.hidden)
        for layer in range(cfg.sent_layers):
            self._layer_params(f"sent{layer}_", rng, cfg.hidden)
        self._param("pred_w", _uniform(rng, cfg.hidden, (cfg.hidden, 1), self.dtype))
        self._param("pred_b", np.zeros(1, dtype=self.dtype))

    def _level_cfg(self, heads: int) -> AttentionConfig:
        cfg = self.config
        return AttentionConfig(cfg.hidden, heads, cfg.mapping, cfg.dropout_rate)

    def forward(self, batch: Batch, training: bool = False):
        cfg = self.config
        B, T, W = batch.token_ids.shape
        x = self._embed_and_project(batch, training)
        x = x.reshape(B * T, W, cfg.hidden)
        x = add_positional_embeddings(x, self.params["word_pos"])
        safe_words = _safe_mask(batch.word_mask.reshape(B * T, W))
        word_cfg = self._level_cfg(cfg.word_heads)
        word_weights = None
        for layer in range(cfg.word_layers):
            x, word_weights = transformer_encoder_layer(
                x, word_cfg, self.params, safe_words, training,
                self._dropout_rng, prefix=f"word{layer}_",
            )
        sent_vecs = masked_mean_pool(x, safe_words).reshape(B, T, cfg.hidden)
        y = add_positional_embeddings(sent_vecs, self.params["sent_pos"])
        sent_cfg = self._level_cfg(cfg.sent_heads)
        sent_weights = None
        for layer in range(cfg.sent_layers):
            y, sent_weights = transformer_encoder_layer(
                y, sent_cfg, self.params, batch.sentence_mask, training,
                self._dropout_rng, prefix=f"sent{layer}_",
            )
        pooled = masked_mean_pool(y, batch.sentence_mask)
        logits = linear(pooled, self.params["pred_w"], self.params["pred_b"])
        records = {
            "word": word_weights.reshape(B, T, cfg.word_heads, W, W),
            "sentence": sent_weights,  # [B, heads, T, T]
        }
        return logits.reshape(B), records


def predict_proba(logits) -> np.ndarray:
    """Sigmoid over raw logits, overflow-safe."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return sigmoid_np(arr)


# ---------------------------------------------------------------------------
# attention-map extraction

def extract_attention_maps(
    model,
    doc: PatientDocument,
    vocab: Vocabulary,
    filter_tokens: set[str] | None = None,
) -> list[AttentionRecord]:
    """Word-level records per sentence (plus a sentence-level record for tr).

    With a filter, only sentences containing a filter token are kept and
    the sentence-level record is omitted.
    """
    cfg = model.config
    if filter_tokens:
        for t in filter_tokens:
            if t not in vocab.token_to_id:
                log.warning("filter token %r not in vocabulary", t)
    batches = pad_and_batch([doc], vocab, cfg.max_words, cfg.max_sents, 1)
    if not batches:
        raise EmptyDocumentError(f"document {doc.id} empty after truncation")
    batch = batches[0]
    _, records = model.forward(batch, training=False)

    out: list[AttentionRecord] = []
    enc = encode_document(doc, vocab, cfg.max_words, cfg.max_sents)
    sentences = [s[: cfg.max_words] for s in doc.sentences[: cfg.max_sents] if s]
    for t, sent in enumerate(sentences):
        if filter_tokens and not (set(sent) & filter_tokens):
            continue
        n = len(enc[t])
        rec = AttentionRecord(
            weights=records["word"][0, t, :, :n, :n].copy(),
            row_labels=list(sent[:n]),
            col_labels=list(sent[:n]),
            scope="word",
            sentence_index=t,
        )
        rec.validate()
        out.append(rec)
    if "sentence" in records and not filter_tokens:
        n = len(sentences)
        labels = [f"s{t}" for t in range(n)]
        rec = AttentionRecord(
            weights=records["sentence"][0, :, :n, :n].copy(),
            row_labels=labels,
            col_labels=labels,
            scope="sentence",
        )
        rec.validate()
        out.append(rec)
    return out
