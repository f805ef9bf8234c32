"""Per-layer spans and counters for a traced repetition.

Everything is installed from outside the package.  Each public function is
wrapped under every name a caller looks it up by: modules import by name,
so `salab.models.scaled_dot_attention` is patched as well as
`salab.attention.scaled_dot_attention`.  Tensor ops are wrapped on the
class; the `_backward` closure of every output a wrapped op creates is
wrapped too, which times that op's backward.  Tape nodes are counted by
wrapping `Tensor.__init__`, collector pauses come from `gc.callbacks` and
page faults from `ru_minflt`.

A span's time is inclusive; `under` also keeps it per (parent, name) so
the training loop's direct children can be told apart from the same
function called inside validation.  Spans read the clock they are given,
less the time the tracer's own counters take, so neither the caller's
checks nor the counters are charged to the package.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from salab import attention, autodiff, checkpoint, data, evaluation, models, simplex, training

MODULES = (attention, autodiff, checkpoint, data, evaluation, models, simplex, training)

# op name -> Tensor attributes that implement it
TENSOR_OPS = {
    "matmul": ("__matmul__",),
    "add": ("__add__", "__radd__"),
    "mul": ("__mul__", "__rmul__"),
    "pow": ("__pow__",),
    "sum": ("sum",),
    "reshape": ("reshape",),
    "swapaxes": ("swapaxes",),
    "masked_fill": ("masked_fill",),
    "relu": ("relu",),
}
OPS = (*TENSOR_OPS, "embedding_lookup")

# The spans that make up a training step, as direct children of train_model.
STEP_SPANS = ("data.pad_and_batch", "models.forward", "autodiff.Tensor.backward", "autodiff.Adam.step")

# Package-level functions, wrapped under every name they are bound to.
FUNCTIONS = (
    (data, "generate_synthetic_corpus"), (data, "build_vocab"), (data, "pad_and_batch"),
    (simplex, "apply_mapping_nd"), (simplex, "mapping_backward_nd"),
    (attention, "scaled_dot_attention"), (attention, "transformer_encoder_layer"),
    (models, "extract_attention_maps"),
    (evaluation, "score_documents"), (evaluation, "compute_metrics"), (evaluation, "export_heatmap"),
    (training, "train_model"),
    (checkpoint, "save_checkpoint"), (checkpoint, "load_checkpoint"),
)

TIMED = (
    *(f"{m.__name__.rpartition('.')[2]}.{attr}" for m, attr in FUNCTIONS),
    "models.forward", "autodiff.Tensor.backward", "autodiff.Adam.step", "training.validation",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counter_s = 0.0
        self.total: dict[str, float] = defaultdict(float)
        self.under: dict[tuple, float] = defaultdict(float)
        self.stack: list[str] = []
        self.count: dict[str, float] = defaultdict(float)
        self.nodes = 0
        self.step_nodes: list[int] = []
        self._step_first_node = 0
        self.row_sum_err_max = 0.0
        self._gc_start = 0.0

    # -- spans ----------------------------------------------------------

    def timed(self, name, fn, after=None):
        """`fn` wrapped in a span; `after(result, args)` runs outside it."""
        tracer, total, under, stack = self, self.total, self.under, self.stack

        def clock():
            return tracer.clock() - tracer.counter_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                total[name] += dt
                under[parent, name] += dt
            if after is not None:
                t0 = clock()
                after(result, args)
                tracer.counter_s += clock() - t0
            return result

        return wrapper

    def rebind(self, fn, wrapper) -> None:
        """Point every package-level name bound to `fn` at `wrapper`."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # -- counters -------------------------------------------------------

    def _after_batches(self, batches, _args) -> None:
        for b in batches:
            self.count["real_tokens"] += int(b.word_mask.sum())
            self.count["padded_slots"] += b.token_ids.size

    def _after_mapping(self, out, args) -> None:
        p = np.asarray(out[0] if isinstance(out, tuple) else out)
        z = np.asarray(args[0])
        live = z > attention.MASK_FILL / 2
        self.count["rows"] += p.size // p.shape[-1]
        self.count["live"] += int(live.sum())
        self.count["live_zeros"] += int((p[live] == 0.0).sum())
        err = float(np.abs(p.sum(axis=-1) - 1.0).max())
        self.row_sum_err_max = max(self.row_sum_err_max, err)

    def _after_file(self, key, path_arg):
        def after(_result, args):
            self.count[key] += os.path.getsize(args[path_arg])
        return after

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.count["gc_pause_s"] += time.perf_counter() - self._gc_start
        self.count["gc_gen2"] += info["generation"] == 2

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        after = {
            "data.pad_and_batch": self._after_batches,
            "simplex.apply_mapping_nd": self._after_mapping,
            "evaluation.export_heatmap": self._after_file("heatmap_bytes", 1),
            "checkpoint.save_checkpoint": self._after_file("checkpoint_bytes", 0),
        }
        # Validation inside train_model gets its own name, ahead of the
        # generic rebinding that would otherwise claim these names.
        for attr in ("score_documents", "compute_metrics"):
            setattr(training, attr, self.timed("training.validation", getattr(training, attr)))
        for module, attr in FUNCTIONS:
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            fn = getattr(module, attr)
            self.rebind(fn, self.timed(name, fn, after.get(name)))
        for cls in (models.AttentionClassifier, models.HierarchicalTransformerClassifier):
            cls.forward = self.timed("models.forward", cls.forward)
        Tensor, Adam = autodiff.Tensor, autodiff.Adam
        Tensor.backward = self.timed("autodiff.Tensor.backward", Tensor.backward)
        self._install_adam(Adam)
        self._install_ops(Tensor)
        gc.callbacks.append(self._gc_callback)
        self._faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def _install_adam(self, Adam) -> None:
        tracer = self
        zero_grad, step = Adam.zero_grad, Adam.step

        def traced_zero_grad(opt):
            tracer._step_first_node = tracer.nodes
            zero_grad(opt)

        def counted_step(opt):
            step(opt)
            tracer.step_nodes.append(tracer.nodes - tracer._step_first_node)

        Adam.zero_grad = traced_zero_grad
        Adam.step = self.timed("autodiff.Adam.step", counted_step)

    def _install_ops(self, Tensor) -> None:
        tracer = self
        init = Tensor.__init__

        def counted_init(t, *args, **kwargs):
            tracer.nodes += 1
            init(t, *args, **kwargs)

        Tensor.__init__ = counted_init

        def op(name, fn):
            fwd = tracer.timed(f"autodiff.op.{name}.fwd", fn)
            bwd_name = f"autodiff.op.{name}.bwd"

            def wrapper(*args, **kwargs):
                out = fwd(*args, **kwargs)
                if isinstance(out, Tensor) and out._backward is not None:
                    out._backward = tracer.timed(bwd_name, out._backward)
                return out

            return wrapper

        for name, attrs in TENSOR_OPS.items():
            for attr in attrs:
                setattr(Tensor, attr, op(name, getattr(Tensor, attr)))
        lookup = autodiff.embedding_lookup
        self.rebind(lookup, op("embedding_lookup", lookup))

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) for this repetition, keyed as in BENCHMARK.json."""
        t, c = self.total, self.count
        step_wall = t["training.train_model"] - self.under["training.train_model", "training.validation"]
        step_spans = sum(self.under["training.train_model", s] for s in STEP_SPANS)
        out = {f"{name}.s": (t[name], "s") for name in TIMED}
        for name in OPS:
            out[f"autodiff.op.{name}.fwd_s"] = (t[f"autodiff.op.{name}.fwd"], "s")
            out[f"autodiff.op.{name}.bwd_s"] = (t[f"autodiff.op.{name}.bwd"], "s")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._faults0
        out.update({
            "simplex.rows": (c["rows"], "count"),
            "simplex.zero_fraction": (c["live_zeros"] / c["live"] if c["live"] else 0.0, "ratio"),
            "simplex.row_sum_err_max": (self.row_sum_err_max, "abs"),
            "autodiff.tape_nodes": (statistics.median(self.step_nodes) if self.step_nodes else 0, "nodes/step"),
            "autodiff.gc_pause_s": (c["gc_pause_s"], "s"),
            "autodiff.gc_gen2_collections": (c["gc_gen2"], "count"),
            "autodiff.minor_faults": (faults, "count"),
            "data.fill_ratio": (c["real_tokens"] / c["padded_slots"] if c["padded_slots"] else 0.0, "ratio"),
            "data.padded_slots": (c["padded_slots"], "count"),
            "evaluation.export_heatmap.bytes": (c["heatmap_bytes"], "bytes"),
            "checkpoint.bytes": (c["checkpoint_bytes"], "bytes"),
            "training.step_coverage": (step_spans / step_wall if step_wall else 0.0, "ratio"),
        })
        return out
