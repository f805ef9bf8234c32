"""Reverse-mode automatic differentiation over dense numpy tensors.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the tape in reverse topological order
and accumulates gradients into every ``requires_grad`` leaf.  The models
use the fused ops below the class and ``+``, ``reshape`` and ``relu``; the
other operators (broadcasting, with gradients summed back down to the
operand shape) serve the tests and the benchmark tracer.

Tape contract: every op builds its output with ``_node(data, parents,
*grad_fns)``, one gradient function per parent.  The output's tape entry
(`_Entry`) holds a gradient slot, its shape and dtype, ``_backward(g)`` and
links to the parents that need a gradient (their entries, or leaf Tensors;
constants are not linked), never any Tensor's data: an intermediate's
``.data`` is freed once the forward drops it, unless a gradient function
saved that array, and each saves only what it reads.  Nothing links back
to an output, so a graph has no reference cycle and is freed by reference
counting.  Under ``no_grad()`` an op keeps no tape, and ``backward()`` on
its output raises ``NoTapeError``.  ``backward()`` consumes its graph,
clearing each entry's ``grad``, ``_parents`` and ``_backward`` once they
have run; leaves keep ``.grad``, and a second ``backward()`` through it
raises ``GraphConsumedError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from . import simplex
from .exceptions import EmptyPoolError, GraphConsumedError, NoTapeError, PoisonedGradientError, ShapeError
from .simplex import MappingKind

_recording = True  # False inside `no_grad()`; read by `_node` only


@contextmanager
def no_grad():
    """Run ops without keeping a tape, for passes that nothing differentiates."""
    global _recording
    before, _recording = _recording, False
    try:
        yield
    finally:
        _recording = before


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense n-d value; the output of an op also holds its tape entry.

    `_entry` is written by `_node` only; `_parents` and `_backward` read
    the entry's, and are () and None without one.
    """

    __slots__ = ("data", "grad", "requires_grad", "_entry")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._entry = None

    @property
    def _parents(self):
        return () if self._entry is None else self._entry._parents

    @property
    def _backward(self):
        return None if self._entry is None else self._entry._backward

    @_backward.setter
    def _backward(self, fn):
        self._entry._backward = fn

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accum(self, g):
        # out of place: `g` may be shared with another parent or read-only
        g = _unbroadcast(np.asarray(g, dtype=self.dtype), self.shape)
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        if not self.requires_grad:
            raise NoTapeError("backward() on a tape-less output (built under no_grad() or from constants)")
        root = self._entry or self
        topo: list = []
        seen: set[int] = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise GraphConsumedError("backward() through a graph an earlier backward() freed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._parents:
                node._backward(node.grad)
                node.grad = node._parents = node._backward = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # -- elementwise arithmetic -----------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        return _node(self.data + other.data, (self, other), lambda g: g, lambda g: g)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        a, b = self.data, other.data
        return _node(a * b, (self, other), lambda g: g * b, lambda g: g * a)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        x = self.data
        return _node(x ** exponent, (self,), lambda g: g * exponent * x ** (exponent - 1.0))

    # -- shape ops ------------------------------------------------------

    def reshape(self, *shape):
        before = self.data.shape
        return _node(self.data.reshape(*shape), (self,), lambda g: g.reshape(before))

    def swapaxes(self, a: int, b: int):
        return _node(np.swapaxes(self.data, a, b), (self,), lambda g: np.swapaxes(g, a, b))

    # -- reductions -----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        expand, shape = axis is not None and not keepdims, self.data.shape
        return _node(
            self.data.sum(axis=axis, keepdims=keepdims), (self,),
            lambda g: np.broadcast_to(np.expand_dims(g, axis) if expand else g, shape),
        )

    # -- nonlinearities -------------------------------------------------

    def relu(self):
        y = np.maximum(self.data, 0.0)  # y > 0 exactly where the input is
        return _node(y, (self,), lambda g: g * (y > 0.0))

    # -- linear algebra -------------------------------------------------

    def __matmul__(self, other):
        other = _as_tensor(other, self.dtype)
        a, b = self.data, other.data
        try:
            data = a @ b
        except ValueError as e:
            raise ShapeError(f"matmul mismatch: {self.shape} @ {other.shape}") from e
        return _node(data, (self, other), lambda g: g @ np.swapaxes(b, -1, -2),
                     lambda g: np.swapaxes(a, -1, -2) @ g)

    def masked_fill(self, keep_mask: np.ndarray, value: float):
        """Replace entries where keep_mask is False by `value` (no gradient there)."""
        keep = np.broadcast_to(np.asarray(keep_mask, dtype=bool), self.shape)
        return _node(np.where(keep, self.data, value), (self,), lambda g: g * keep)


class _Entry:
    """An op output's place on the tape: what `backward` reads of it, never its data."""

    __slots__ = ("grad", "shape", "dtype", "_parents", "_backward")
    _accum = Tensor._accum

    def __init__(self, shape, dtype, parents, backward):
        self.grad, self.shape, self.dtype, self._parents, self._backward = None, shape, dtype, parents, backward


def _backprop(parents: tuple, grad_fns: tuple, shared, g: np.ndarray) -> None:
    if shared is not None:
        g = shared(g)
    for parent, grad_fn in zip(parents, grad_fns):
        parent._accum(grad_fn(g))


def _node(data, parents: tuple, *grad_fns, shared=None) -> Tensor:
    """The output Tensor of an op over `parents`.

    `grad_fns[i](g)` maps the output's gradient `g` to the gradient for
    `parents[i]` (broadcast dimensions are summed away by `_accum`).
    With `shared`, each takes `shared(g)` instead, computed once for all
    the parents that need a gradient.
    This is the only place that writes a tape entry.
    """
    out = Tensor(data)
    nodes = tuple([p._entry or p for p in parents if p.requires_grad]) if _recording else ()
    if nodes:
        if len(nodes) < len(parents):  # a constant parent is not linked
            grad_fns = tuple([fn for p, fn in zip(parents, grad_fns) if p.requires_grad])
        out.requires_grad = True
        out._entry = _Entry(out.data.shape, out.data.dtype, nodes, partial(_backprop, nodes, grad_fns, shared))
    return out


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# layers / functional ops

def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x W + b on the last axis."""
    if x.shape[-1] != W.shape[0]:
        raise ShapeError(f"linear: input {x.shape} vs weight {W.shape}")
    d, o = W.shape
    xd, w = x.data, W.data
    y = xd @ w
    grad_fns = (lambda g: (g.reshape(-1, o) @ w.T).reshape(xd.shape),
                lambda g: xd.reshape(-1, d).T @ g.reshape(-1, o))
    if b is None:
        return _node(y, (x, W), *grad_fns)
    return _node(y + b.data, (x, W, b), *grad_fns, lambda g: g.reshape(-1, o).sum(axis=0))


def embedding_lookup(ids: np.ndarray, table: Tensor) -> Tensor:
    """Gather rows; row 0 is the frozen all-zero padding row."""
    ids = np.asarray(ids)
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"token id out of range for table with {vocab} rows")

    def grad(g):
        # each real id's rows summed in position order; the padding row 0 stays 0
        real = np.flatnonzero(ids)
        order = real[np.argsort(ids.reshape(-1)[real], kind="stable")]
        sorted_ids = ids.reshape(-1)[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        dtable = np.zeros_like(table.data)
        dtable[sorted_ids[starts]] = np.add.reduceat(g.reshape(-1, table.shape[1])[order], starts)
        return dtable

    return _node(table.data[ids], (table,), grad)


def segment_mean(x: Tensor, counts: np.ndarray) -> Tensor:
    """Mean of each run of consecutive rows of x[R, d]: output row i averages the next counts[i]."""
    counts = np.asarray(counts)
    if counts.sum() != x.shape[0]:
        raise ShapeError(f"segments of {counts.sum()} rows over {x.shape[0]} rows")
    if not counts.all():
        raise EmptyPoolError("mean over an empty segment")
    w = np.repeat((1.0 / counts).astype(x.dtype), counts)[:, None]
    return _node(np.add.reduceat(x.data * w, np.cumsum(counts) - counts), (x,),
                 lambda g: np.repeat(g, counts, axis=0) * w)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise the last axis to zero mean / unit variance (eps 1e-5), then affine."""
    k = x.dtype.type(1 / x.shape[-1])
    c = x.data - x.data.sum(axis=-1, keepdims=True) * k
    r = ((c * c).sum(axis=-1, keepdims=True) * k + x.dtype.type(1e-5)) ** -0.5
    xhat = c * r

    def dx(g):
        gx = g * gain.data
        return r * (gx - k * (gx.sum(axis=-1, keepdims=True)
                              + xhat * (gx * xhat).sum(axis=-1, keepdims=True)))

    return _node(xhat * gain.data + bias.data, (x, gain, bias), dx, lambda g: g * xhat, lambda g: g)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep, scale, dtype = rng.random(x.shape, dtype=np.float32) >= rate, 1.0 / (1.0 - rate), x.dtype
    bits, shape = np.packbits(keep), x.shape  # the tape keeps the mask at one bit per element

    def backward(g):
        return g * np.multiply(np.unpackbits(bits, count=g.size).view(bool).reshape(shape), scale, dtype=dtype)

    # explicit dtype: numpy 1.x would make `bool_array * np.float32(s)` float16
    return _node(x.data * np.multiply(keep, scale, dtype=dtype), (x,), backward)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross entropy over every element, as one tape entry, in the stable log-sum-exp form."""
    y = np.asarray(labels, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"labels {y.shape} vs logits {logits.shape}")
    s = logits.data
    inv_n = s.dtype.type(1.0 / s.size)
    loss = (np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))).sum() * inv_n

    def backward(g):
        # where exp(-s) overflows to inf, 1/(1+inf) = 0 is the right limit
        with np.errstate(over="ignore"):
            return g * inv_n * (1.0 / (1.0 + np.exp(-s)) - y)

    return _node(loss, (logits,), backward)


def attention_weights(scores: Tensor, kind: MappingKind) -> Tensor:
    """Apply a simplex mapping along the last axis, inside the tape.

    Forward and backward both run in float64 and cast back to the
    score dtype.
    """
    p64, _ = simplex.apply_mapping_nd(scores.data, kind)
    dtype = scores.dtype
    return _node(
        p64.astype(dtype), (scores,),
        lambda g: simplex.mapping_backward_nd(p64, g, kind).astype(dtype),
    )


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Bias-corrected Adam over named parameter Tensors, their moments laid end to end."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.concatenate([np.zeros(p.data.size, p.dtype) for p in params.values()])
        self.v = np.zeros_like(self.m)
        ends = np.cumsum([p.data.size for p in params.values()])
        self._parts = [(k, p, slice(end - p.data.size, end)) for (k, p), end in zip(params.items(), ends)]

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        g = np.empty_like(self.m)
        for name, p, part in self._parts:
            if p.grad is not None and p.grad.shape != p.shape:
                raise ShapeError(f"gradient {p.grad.shape} for parameter {name!r} of shape {p.shape}")
            g[part] = 0.0 if p.grad is None else p.grad.reshape(-1)
        if not np.isfinite(g).all():
            name = next(name for name, _, part in self._parts if not np.isfinite(g[part]).all())
            raise PoisonedGradientError(f"non-finite gradient in parameter {name!r}")
        held = [(part, self.m[part].copy(), self.v[part].copy()) for _, p, part in self._parts if p.grad is None]
        self.t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1.0 - beta1 ** self.t, 1.0 - beta2 ** self.t
        # per element, the operations of p -= lr (m / c1) / (sqrt(v / c2) + eps), leaving the step in g;
        # chunks of 16384 elements keep the one temporary small and the passes in cache
        for a in range(0, g.size, 16384):
            m, v, gs = self.m[a:a + 16384], self.v[a:a + 16384], g[a:a + 16384]
            gg = (1.0 - beta2) * gs * gs
            v *= beta2
            v += gg
            m *= beta1
            m += np.multiply(gs, 1.0 - beta1, out=gs)
            np.multiply(self.lr, np.divide(m, c1, out=gs), out=gs)
            np.sqrt(np.divide(v, c2, out=gg), out=gg)
            gs /= np.add(gg, eps, out=gg)
        for part, m, v in held:
            self.m[part], self.v[part] = m, v
        for _, p, part in self._parts:
            if p.grad is not None:
                p.data -= g[part].reshape(p.shape)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f, tensors: dict[str, Tensor], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` is a zero-argument callable returning a scalar Tensor built from
    the given tensors (which should be float64 for a sharp comparison).
    """
    for p in tensors.values():
        p.zero_grad()
    f().backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in tensors.items()}
    worst = 0.0
    with no_grad():  # the central differences need values only
        for name, p in tensors.items():
            flat = p.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f().item()
                flat[i] = orig - eps
                lo = f().item()
                flat[i] = orig
                num[i] = (hi - lo) / (2.0 * eps)
            a = analytic[name].reshape(-1)
            err = np.abs(a - num) / (1.0 + np.abs(a) + np.abs(num))
            worst = max(worst, float(err.max()) if err.size else 0.0)
    return worst
