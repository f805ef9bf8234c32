"""Scaled dot-product attention with a pluggable simplex mapping.

One attention call, whose last axis splits into heads (one for the local
models), learned positional embeddings, and a post-norm transformer encoder
layer around multi-head self-attention (FFN hidden width 2d).  Activations
are the packed rows of real units (`Packing`); only the attention call and
the positional add read the units' grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .autodiff import Tensor, _node, dropout, layer_norm, linear
from .exceptions import EmptyPoolError, ShapeError
from .simplex import MappingKind

MASK_FILL = -1e9


@dataclass
class AttentionRecord:
    """Self-attention weights for one sequence, with the labels of its units.

    weights has shape [heads, n, n], stored as float64 whatever dtype it is
    built from; masked columns are exact zero.  Rows and columns are the
    same n units, so one label list names both.
    """

    weights: np.ndarray
    labels: list[str]
    scope: str = "word"
    sentence_index: int | None = None

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64)

    def validate(self, tol: float = 1e-6) -> None:
        # each check is written so that a NaN fails it; an infinite weight fails the sum
        w = self.weights
        if not (w >= 0).all():
            raise ValueError("negative or NaN attention weight")
        if not (np.abs(w.sum(axis=-1) - 1.0) <= tol).all():
            raise ValueError("attention row does not sum to 1")


class Packing:
    """The real units of a grid of slots, mask [..., L], in row-major order.

    `pack` takes the R real slots of a [..., L, ...] grid out as [R, ...]
    rows; `unpack` puts rows back into a zero grid.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)
        self.counts = self.mask.sum(axis=-1)
        if not self.counts.all():
            raise EmptyPoolError("a group of slots with no real unit")
        self.index = np.flatnonzero(self.mask)

    def pack(self, grid: np.ndarray) -> np.ndarray:
        return grid.reshape(self.mask.size, *grid.shape[self.mask.ndim:])[self.index]

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        out = np.zeros((self.mask.size, *rows.shape[1:]), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(*self.mask.shape, *rows.shape[1:])


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor | None, units: Packing, mapping: MappingKind,
    heads: int = 1,
) -> tuple[Tensor | None, np.ndarray]:
    """Self-attention within each group of `units`; returns (output, weights).

    q, k and v are the [R, d] rows of the real units.  Two tape nodes: the
    mapping of the masked scaled scores of the real query rows, [R, heads, L],
    and the value mix; the unpack into [..., heads, L, d/heads] and the pack
    back out happen inside each.  Weights are [..., heads, L, L] in q's dtype;
    padding keys score MASK_FILL, which every mapping maps to exactly 0, and
    padding-query rows are exactly 0.  The tape saves q, k, v and the float64
    probabilities as rows (the mapping's backward reads its output alone, and
    the value mix casts it), and each backward unpacks what it reads; every
    grid but the weights dies once read.  With v None (a map read-out) the
    call returns the weights before it records a node; the output is None.
    """
    vshape = None if v is None else v.shape
    if q.shape != k.shape or vshape not in (None, k.shape) or heads < 1 or q.shape[-1] % heads:
        raise ShapeError(f"attention shapes: q {q.shape}, k {k.shape}, v {vshape}, heads {heads}")
    if q.data.size != units.index.size * q.shape[-1]:
        raise ShapeError(f"attention rows: q {q.shape} for {units.index.size} real units")
    shape = q.shape
    qd, kd = q.data, k.data

    def grid(a):  # [R, heads, x] -> [..., heads, L, x], zero at padding units
        return units.unpack(a).swapaxes(-2, -3)

    def rows(a):  # [..., heads, L, x] -> [R, heads, x]
        return units.pack(a.swapaxes(-2, -3))

    def split(a):
        return grid(a.reshape(-1, heads, shape[-1] // heads))

    def merge(a):
        return rows(a).reshape(shape)

    def dscores(g):  # 0 at padding keys already: the mapping's backward gives 0 where p is 0
        return grid(simplex.mapping_backward_nd(p64, g, mapping).astype(dtype)) * scale

    dtype = q.dtype
    scale = dtype.type(1 / math.sqrt(shape[-1] // heads))
    s = rows(np.where(units.mask[..., None, None, :],
                      (split(qd) @ split(kd).swapaxes(-1, -2)) * scale, MASK_FILL))
    p64, _ = simplex.apply_mapping_nd(s, mapping)
    del s  # the mapping's backward reads its output, not the scores
    pd = p64.astype(dtype)
    pg = grid(pd)
    if v is None:
        return None, pg
    p = _node(pd, (q, k), lambda ds: merge(ds @ split(kd)),
              lambda ds: merge((split(qd).swapaxes(-1, -2) @ ds).swapaxes(-1, -2)), shared=dscores)
    vd = v.data
    out = _node(merge(pg @ split(vd)), (p, v), lambda gh: rows(gh @ split(vd).swapaxes(-1, -2)),
                lambda gh: merge(grid(p64.astype(dtype)).swapaxes(-1, -2) @ gh), shared=split)
    return out, pg


def add_positional_embeddings(x: Tensor, table: Tensor, units: Packing) -> Tensor:
    """x plus the table row of each unit's slot in its group (rows as in attention)."""
    n, d = units.mask.shape[-1], table.shape[1]
    if n > table.shape[0]:
        raise ShapeError(
            f"sequence length {n} exceeds positional table capacity {table.shape[0]}"
        )
    capacity = table.shape[0]

    def dtable(g):  # each slot's rows summed over the groups; rows n and on stay 0
        out = np.zeros((capacity, d), dtype=g.dtype)
        units.unpack(g.reshape(-1, d)).reshape(-1, n, d).sum(axis=0, out=out[:n])
        return out

    return _node(x.data + table.data[units.index % n].reshape(x.shape), (x, table),
                 lambda g: g, dtable)


def transformer_encoder_layer(
    x: Tensor,
    params: dict[str, Tensor],
    units: Packing,
    training: bool,
    rng: np.random.Generator,
    prefix: str,
    mapping: MappingKind,
    heads: int,
    dropout_rate: float,
    maps_only: bool = False,
) -> tuple[Tensor | None, np.ndarray]:
    """Post-norm encoder layer over the rows x[R, d] of `units`: LN(x + MHA(x)),
    then LN(y + FFN(y)); returns the output and the weights [..., heads, L, L].
    MHA's parameters are {prefix}wq/wk/wv/wo and {prefix}bq/bk/bv/bo.  q, k and v
    go straight into the attention call, so that it frees them on return.
    With `maps_only` (the last layer a map read-out runs) only q and k are
    projected, and the layer returns (None, weights) from its mapping."""
    if maps_only:
        q, k = (linear(x, params[f"{prefix}w{c}"], params[f"{prefix}b{c}"]) for c in "qk")
        return scaled_dot_attention(q, k, None, units, mapping, heads)
    qkv = (linear(x, params[f"{prefix}w{c}"], params[f"{prefix}b{c}"]) for c in "qkv")
    att, w = scaled_dot_attention(*qkv, units, mapping, heads)
    att = dropout(linear(att, params[prefix + "wo"], params[prefix + "bo"]), dropout_rate, training, rng)
    y = layer_norm(x + att, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    del att  # read by the residual sum only, so not held through the FFN
    h = linear(y, params[prefix + "ffn_w1"], params[prefix + "ffn_b1"]).relu()
    h = linear(h, params[prefix + "ffn_w2"], params[prefix + "ffn_b2"])
    h = dropout(h, dropout_rate, training, rng)
    out = layer_norm(y + h, params[prefix + "ln2_g"], params[prefix + "ln2_b"])
    return out, w
