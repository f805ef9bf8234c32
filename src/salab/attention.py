"""Scaled dot-product attention with a pluggable simplex mapping.

One attention call, whose last axis splits into heads (one for the local
models), multi-head self-attention, learned positional embeddings, and a
post-norm transformer encoder layer (FFN hidden width 2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _node, attention_weights, dropout, layer_norm, linear
from .exceptions import EmptyPoolError, ShapeError
from .simplex import MappingKind

MASK_FILL = -1e9


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
    q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None, mapping: MappingKind,
    heads: int = 1,
) -> tuple[Tensor, np.ndarray]:
    """Att(Q, K, V) over the last two axes; returns (output, float64 weights).

    Three tape nodes: masked scaled scores, mapping, value mix.  `heads` splits
    the last axis into heads inside them (weights [..., heads, n, n]).  Keys
    `mask` marks False score MASK_FILL, which every mapping maps to exactly 0.
    """
    if (q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1] or k.shape != v.shape
            or heads < 1 or q.shape[-1] % heads):
        raise ShapeError(f"attention shapes: q {q.shape}, k {k.shape}, v {v.shape}, heads {heads}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise EmptyPoolError("attention row with no unmasked key")
        mask = mask[..., None, None, :]

    def split(a):
        return a.reshape(*a.shape[:-1], heads, -1).swapaxes(-2, -3)

    def merge(a):
        return a.swapaxes(-2, -3).reshape(*a.shape[:-3], a.shape[-2], -1)

    def dscores(g):
        return (g if mask is None else g * mask) * scale

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = q.dtype.type(1 / math.sqrt(qh.shape[-1]))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    scores = _node(s if mask is None else np.where(mask, s, MASK_FILL), (q, k),
                   lambda g: merge(dscores(g) @ kh),
                   lambda g: merge((qh.swapaxes(-1, -2) @ dscores(g)).swapaxes(-1, -2)))
    p = attention_weights(scores, mapping)
    out = _node(merge(p.data @ vh), (p, v), lambda g: split(g) @ vh.swapaxes(-1, -2),
                lambda g: merge(p.data.swapaxes(-1, -2) @ split(g)))
    return out, p.data.astype(np.float64)


def multi_head_attention(
    x: Tensor,
    params: dict[str, Tensor],
    mask: np.ndarray | None = None,
    prefix: str = "",
    mapping: MappingKind = MappingKind.softmax(),
    heads: int = 1,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over x[..., n, d].

    Returns the output and per-head weights [..., h, n, n].
    Expects parameters {prefix}wq/wk/wv/wo and biases {prefix}bq/bk/bv/bo.
    """
    q, k, v = (linear(x, params[f"{prefix}w{c}"], params[f"{prefix}b{c}"]) for c in "qkv")
    att, w = scaled_dot_attention(q, k, v, mask, mapping, heads)
    return linear(att, params[prefix + "wo"], params[prefix + "bo"]), w


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
    params: dict[str, Tensor],
    mask: np.ndarray | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    prefix: str = "",
    mapping: MappingKind = MappingKind.softmax(),
    heads: int = 1,
    dropout_rate: float = 0.0,
) -> tuple[Tensor, np.ndarray]:
    """Post-norm encoder layer: LN(x + MHA(x)) then LN(y + FFN(y))."""
    att, w = multi_head_attention(x, params, mask, prefix, mapping, heads)
    att = dropout(att, dropout_rate, training, rng)
    y = layer_norm(x + att, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    h = linear(y, params[prefix + "ffn_w1"], params[prefix + "ffn_b1"]).relu()
    h = linear(h, params[prefix + "ffn_w2"], params[prefix + "ffn_b2"])
    h = dropout(h, dropout_rate, training, rng)
    out = layer_norm(y + h, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    return out, w
