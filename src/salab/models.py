"""The two classifier families.

AttentionClassifier ("att"): embeddings -> linear projection -> one
single-head self-attention pass per sentence -> one flat masked mean over
every real word position of the document -> linear prediction layer.

HierarchicalTransformerClassifier ("tr"): word-level transformer with
word positional embeddings, masked mean per sentence, sentence positional
embeddings, sentence-level transformer, masked mean over sentences, then
the same linear prediction layer.

The word level of both runs on the real sentences of a batch only,
gathered into [N, W]; its results go back to their [B, T] slots through
`scatter_rows`.

Both are parameterized by the simplex mapping; swapping the mapping never
changes parameter shapes, so checkpoints are interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from .attention import (
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
    scatter_rows,
    scatter_rows_np,
)
from .data import Batch, PatientDocument, Vocabulary, kept_sentences, pad_and_batch
from .exceptions import CheckpointError, EmptyDocumentError, ShapeError
from .rng import derive_rng
from .simplex import MappingKind


@dataclass
class LocalModelConfig:
    """Every model setting's default and check; `salab train` reads both."""

    vocab_size: int
    embed_dim: int = 100
    hidden: int = 128
    mapping: MappingKind = field(default_factory=MappingKind.softmax)
    dropout_rate: float = 0.2
    max_words: int = 50
    max_sents: int = 1000
    # att only: Q, K and V start from one shared matrix, then train apart
    shared_qkv: bool = False

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
        if self.shared_qkv:
            raise ValueError("shared_qkv applies to the att family only")


def _uniform(rng, fan_in: int, shape, dtype) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class _BaseModel:
    """Embedding -> projection -> family encoder -> linear prediction layer.

    A family adds its parameters in `_build_encoder(rng)` and maps the
    projected words of the N real sentences, [N, W, hidden], to document
    vectors in `_encode(x, batch, rows, words, training)`: `rows` are
    those sentences' indices in the flattened [B*T] slots and `words` is
    their word mask [N, W], with at least one real word in every row.
    It returns them with its attention records; `forward` places the word
    maps, [N, heads, W, W], into their [B, T, heads, W, W] slots.
    """

    family = "base"

    def __init__(self, config, seed: int = 0, dtype=np.float32):
        self.config = cfg = config
        self.seed = seed
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

    def forward(self, batch: Batch, training: bool = False):
        """Logits [B] and the attention records of the family's encoder."""
        cfg = self.config
        B, T, W = batch.token_ids.shape
        if not batch.word_mask.any(axis=(1, 2)).all():
            raise EmptyDocumentError("batch contains a document with zero tokens")
        word_mask = batch.word_mask.reshape(B * T, W)
        rows = np.flatnonzero(word_mask.any(axis=-1))
        emb = embedding_lookup(batch.token_ids.reshape(B * T, W)[rows], self.params["emb"])
        x = linear(emb, self.params["proj_w"], self.params["proj_b"])
        x = dropout(x, cfg.dropout_rate, training, self._dropout_rng)
        pooled, records = self._encode(x, batch, rows, word_mask[rows], training)
        word = records["word"]
        records["word"] = scatter_rows_np(word, rows, B * T).reshape(B, T, *word.shape[1:])
        logits = linear(pooled, self.params["pred_w"], self.params["pred_b"])
        return logits.reshape(B), records

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

    def _build_encoder(self, rng):
        cfg = self.config

        def init():
            return _uniform(rng, cfg.hidden, (cfg.hidden, cfg.hidden), self.dtype)

        shared = init() if cfg.shared_qkv else None
        for w in ("wq", "wk", "wv"):
            self._param(w, init() if shared is None else shared.copy())

    def _encode(self, x, batch, rows, words, training):
        cfg = self.config
        B, T, W = batch.token_ids.shape
        q, k, v = (linear(x, self.params[w]) for w in ("wq", "wk", "wv"))
        att, weights = scaled_dot_attention(q, k, v, words, cfg.mapping)
        att = dropout(att, cfg.dropout_rate, training, self._dropout_rng)
        flat = scatter_rows(att, rows, B * T).reshape(B, T * W, cfg.hidden)
        pooled = masked_mean_pool(flat, batch.word_mask.reshape(B, T * W))
        return pooled, {"word": weights}


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

    def _level(self, level: str, x: Tensor, mask: np.ndarray, training: bool):
        """Add the level's positional table, then run its encoder layers."""
        heads, layers = self._levels[level]
        x = add_positional_embeddings(x, self.params[f"{level}_pos"])
        for layer in range(layers):
            x, weights = transformer_encoder_layer(
                x, self.params, mask, training, self._dropout_rng, f"{level}{layer}_",
                self.config.mapping, heads, self.config.dropout_rate,
            )
        return x, weights

    def _encode(self, x, batch, rows, words, training):
        B, T, _ = batch.token_ids.shape
        x, word_weights = self._level("word", x, words, training)
        sent_vecs = scatter_rows(masked_mean_pool(x, words), rows, B * T).reshape(B, T, -1)
        y, sent_weights = self._level("sent", sent_vecs, batch.sentence_mask, training)
        pooled = masked_mean_pool(y, batch.sentence_mask)
        return pooled, {"word": word_weights, "sentence": sent_weights}  # sentence: [B, h, T, T]


def predict_proba(logits) -> np.ndarray:
    """Sigmoid over raw logits, overflow-safe."""
    s = np.asarray(logits.data if isinstance(logits, Tensor) else logits, dtype=np.float64)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
    the sentence-level record is omitted; when no kept sentence matches,
    the result is empty and the model is not run.
    """
    cfg = model.config
    sentences = kept_sentences(doc, cfg.max_words, cfg.max_sents)
    if filter_tokens and not any(set(sent) & filter_tokens for sent in sentences):
        return []
    if not sentences:
        raise EmptyDocumentError(f"document {doc.id} empty after truncation")
    batch = pad_and_batch([doc], vocab, cfg.max_words, cfg.max_sents, 1)[0]
    _, records = model.forward(batch, training=False)

    out: list[AttentionRecord] = []
    for t, sent in enumerate(sentences):
        if not filter_tokens or set(sent) & filter_tokens:
            n = len(sent)
            w = records["word"][0, t, :, :n, :n].copy()
            out.append(AttentionRecord(w, list(sent), list(sent), "word", sentence_index=t))
    if "sentence" in records and not filter_tokens:
        n = len(sentences)
        labels = [f"s{t}" for t in range(n)]
        w = records["sentence"][0, :, :n, :n].copy()
        out.append(AttentionRecord(w, labels, labels, "sentence"))
    for rec in out:
        rec.validate()
    return out
