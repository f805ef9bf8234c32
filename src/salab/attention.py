"""Scaled dot-product attention with a pluggable simplex mapping.

Covers the single-head form used by the local models, the multi-head
form, learned positional embeddings, and a post-norm transformer
encoder layer (FFN hidden width 2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _node, attention_weights, dropout, layer_norm, linear
from .exceptions import EmptyPoolError, ShapeError
from .simplex import MappingKind

MASK_FILL = -1e9


@dataclass
class AttentionConfig:
    model_dim: int
    heads: int = 1
    mapping: MappingKind = field(default_factory=MappingKind.softmax)
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.model_dim < 1 or self.heads < 1:
            raise ValueError("model_dim and heads must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ShapeError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )


@dataclass
class AttentionRecord:
    """Attention weights for one sequence, with readable row/column labels.

    weights has shape [heads, n, n]; masked columns are exact zero.
    """

    weights: np.ndarray
    row_labels: list[str]
    col_labels: list[str]
    scope: str = "word"
    sentence_index: int | None = None

    def validate(self, tol: float = 1e-6) -> None:
        w = self.weights
        if np.any(w < 0):
            raise ValueError("negative attention weight")
        if np.any(np.abs(w.sum(axis=-1) - 1.0) > tol):
            raise ValueError("attention row does not sum to 1")


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    mapping: MappingKind,
) -> tuple[Tensor, np.ndarray]:
    """Att(Q, K, V) over the last two axes; returns (output, weights).

    `mask` marks real key positions with True over the second-to-last
    axis; masked columns are replaced by a large negative fill before
    the mapping, which zeroes them exactly for every mapping here, so
    the returned weights (detached from the tape) need no second masking.
    """
    if q.shape[-1] != k.shape[-1] or k.shape != v.shape:
        raise ShapeError(f"attention shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise EmptyPoolError("attention row with no unmasked key")
        scores = scores.masked_fill(mask[..., None, :], MASK_FILL)
    weights = attention_weights(scores, mapping)
    return weights @ v, weights.data.astype(np.float64)


def multi_head_attention(
    x: Tensor,
    cfg: AttentionConfig,
    params: dict[str, Tensor],
    mask: np.ndarray | None = None,
    prefix: str = "",
) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over x[..., n, d].

    Returns the output and per-head weights [..., h, n, n].
    Expects parameters {prefix}wq/wk/wv/wo and biases {prefix}bq/bk/bv/bo.
    """
    d, h = cfg.model_dim, cfg.heads
    n = x.shape[-2]
    dh = d // h

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(*t.shape[:-2], n, h, dh).swapaxes(-2, -3)

    q = split_heads(linear(x, params[prefix + "wq"], params[prefix + "bq"]))
    k = split_heads(linear(x, params[prefix + "wk"], params[prefix + "bk"]))
    v = split_heads(linear(x, params[prefix + "wv"], params[prefix + "bv"]))
    head_mask = None if mask is None else np.asarray(mask, dtype=bool)[..., None, :]
    att, w = scaled_dot_attention(q, k, v, head_mask, cfg.mapping)
    merged = att.swapaxes(-2, -3).reshape(*x.shape[:-2], n, d)
    out = linear(merged, params[prefix + "wo"], params[prefix + "bo"])
    return out, w


def add_positional_embeddings(x: Tensor, table: Tensor) -> Tensor:
    n = x.shape[-2]
    if n > table.shape[0]:
        raise ShapeError(
            f"sequence length {n} exceeds positional table capacity {table.shape[0]}"
        )
    pad = ((0, table.shape[0] - n), (0, 0))
    return _node(x.data + table.data[:n], (x, table), lambda g: g,
                 lambda g: np.pad(g.sum(axis=tuple(range(g.ndim - 2))), pad))


def transformer_encoder_layer(
    x: Tensor,
    cfg: AttentionConfig,
    params: dict[str, Tensor],
    mask: np.ndarray | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    prefix: str = "",
) -> tuple[Tensor, np.ndarray]:
    """Post-norm encoder layer: LN(x + MHA(x)) then LN(y + FFN(y))."""
    att, w = multi_head_attention(x, cfg, params, mask, prefix=prefix)
    att = dropout(att, cfg.dropout_rate, training, rng)
    y = layer_norm(x + att, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    h = linear(y, params[prefix + "ffn_w1"], params[prefix + "ffn_b1"]).relu()
    h = linear(h, params[prefix + "ffn_w2"], params[prefix + "ffn_b2"])
    h = dropout(h, cfg.dropout_rate, training, rng)
    out = layer_norm(y + h, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    return out, w
