"""One repetition of a benchmark workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR

`run.py` starts one of these per repetition and reads the JSON object this
prints as its last line of standard output.  The package is imported from
the `src/` directory of the checkout this file sits in, and nowhere else.
"""

import os

# The thread caps must be in the environment before numpy loads its BLAS.
for _var in ("SALAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import DIRECTIVES, WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
import salab  # noqa: E402

if Path(salab.__file__).resolve().parent != SRC / "salab":
    raise SystemExit(f"salab imported from {salab.__file__}, not from {SRC}")

from salab import attention, evaluation, models, simplex, training  # noqa: E402
from salab import data as dm  # noqa: E402


SETUPS = 3  # set-ups timed per repetition
# Training documents scored before and after training to check that the
# loss fell; a fixed number keeps the check's cost independent of the split size.
LOSS_CHECK_DOCS = 128


class Probe:
    """The few hooks the end-to-end numbers and checks need, on in every run.

    Step time runs from `Adam.zero_grad` entry to `Adam.step` exit.  Every
    attention map the mapping produces is checked for the simplex
    invariants.  `clock` stops while a check runs; every timing, the
    tracer's spans included, is taken with it.
    """

    def __init__(self):
        self.check_s = 0.0
        self.maps = 0
        self.bad_maps = 0
        self.losses: list[float] = []
        self.step_ms: list[float] = []
        self._step_start = 0.0
        self.tol = inspect.signature(attention.AttentionRecord.validate).parameters["tol"].default
        self.masked_below = attention.MASK_FILL / 2

    def clock(self) -> float:
        return time.perf_counter() - self.check_s

    def check_map(self, z, p) -> None:
        t = time.perf_counter()
        z = np.asarray(z)
        p = np.asarray(p)
        err = np.abs(p.sum(axis=-1) - 1.0)
        bad = bool((p < 0).any() or (p[z <= self.masked_below] != 0).any()
                   or not (err <= self.tol).all())
        self.maps += 1
        self.bad_maps += bad
        self.check_s += time.perf_counter() - t

    def install(self) -> None:
        probe = self
        apply_mapping_nd = simplex.apply_mapping_nd

        def checked_mapping(*args, **kwargs):
            out = apply_mapping_nd(*args, **kwargs)
            probe.check_map(args[0], out[0] if isinstance(out, tuple) else out)
            return out

        simplex.apply_mapping_nd = checked_mapping

        bce_with_logits = training.bce_with_logits

        def recorded_bce(*args, **kwargs):
            out = bce_with_logits(*args, **kwargs)
            probe.losses.append(float(np.mean(out.data, dtype=np.float64)))
            return out

        training.bce_with_logits = recorded_bce

        class TimedAdam(training.Adam):
            def zero_grad(self):
                probe._step_start = probe.clock()
                super().zero_grad()

            def step(self):
                super().step()
                probe.step_ms.append((probe.clock() - probe._step_start) * 1e3)

        training.Adam = TimedAdam


def provenance() -> dict:
    """numpy, its BLAS and the thread count that BLAS reports."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def build_model(wl, vocab_size: int, seed: int):
    common = dict(
        vocab_size=vocab_size, embed_dim=wl.embed_dim, hidden=wl.hidden,
        mapping=simplex.MappingKind.parse(wl.mapping), dropout_rate=wl.dropout,
        max_words=wl.max_words, max_sents=wl.max_sents,
    )
    if wl.model == "att":
        return models.AttentionClassifier(models.LocalModelConfig(**common), seed=seed)
    config = models.HierModelConfig(
        **common, word_layers=wl.layers, sent_layers=wl.layers,
        word_heads=wl.heads, sent_heads=wl.heads,
    )
    return models.HierarchicalTransformerClassifier(config, seed=seed)


def train_split_loss(model, docs, vocab, batch: int) -> float:
    """Mean binary cross entropy of the model's probabilities on `docs`."""
    records = evaluation.score_documents(model, docs, vocab, batch)
    return -math.fsum(
        math.log(max(r.score if r.label else 1.0 - r.score, 1e-12)) for r in records
    ) / len(records)


def run_rep(wl, seed: int, trace: bool, out: Path) -> dict:
    probe = Probe()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(probe.clock)
        tracer.install()
    probe.install()
    directives = set(DIRECTIVES)
    counts = {"attempted": 0, "failed": 0}

    def set_up():
        docs = dm.generate_synthetic_corpus(
            dm.SyntheticCorpusConfig(n_documents=wl.n_docs, vocab_size=wl.vocab_size, seed=seed)
        )
        shares = tuple(n / wl.n_docs for n in (wl.n_train, wl.n_val, wl.n_test))
        split = dm.split_dataset(docs, shares, seed=seed)
        vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=wl.min_freq)
        model = build_model(wl, len(vocab), seed)
        if wl.inference:
            model.save(out / "fresh.ckpt")
            model.load(out / "fresh.ckpt")
        return split, vocab, model

    # Set-up takes 0.05-0.25 s, so it is timed several times; the
    # same inputs give the same corpus, split, vocabulary and weights.
    setup_s = []
    for _ in range(SETUPS):
        t0 = probe.clock()
        split, vocab, model = set_up()
        setup_s.append(probe.clock() - t0)
    targets = [d for d in split.test if any(set(s) & directives for s in d.sentences)]

    fresh_state = {}

    def train() -> float:
        fresh_state.update(model.state_dict())
        t0 = probe.clock()
        training.train_model(
            model, split.train, split.validation, vocab,
            epochs=wl.epochs, lr=wl.lr, batch_size=wl.batch, seed=seed,
        )
        return probe.clock() - t0

    def score() -> float:
        t0 = probe.clock()
        records = evaluation.score_documents(model, split.test, vocab, wl.batch)
        evaluation.compute_metrics(records)
        dt = probe.clock() - t0
        counts["attempted"] += len(records)
        counts["failed"] += len(records) - sum(
            math.isfinite(r.score) and 0.0 <= r.score <= 1.0 for r in records
        )
        return dt

    def inspect_all() -> float:
        t0 = probe.clock()
        for doc in targets:
            counts["attempted"] += 1
            try:
                for rec in models.extract_attention_maps(model, doc, vocab, filter_tokens=directives):
                    rec.validate()
                    evaluation.export_heatmap(rec, out / f"{doc.id}_s{rec.sentence_index}.csv")
            except ValueError as e:
                print(f"inspect {doc.id}: {e}", file=sys.stderr)
                counts["failed"] += 1
        return probe.clock() - t0

    if not wl.inference:
        train_s = train()
    eval_pass_s = [score() for _ in range(wl.eval_passes)]
    inspect_pass_s = [inspect_all() for _ in range(wl.inspect_passes)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.inference:
        train_s = train()

    layers = tracer.metrics() if tracer is not None else None
    # Check outputs only, after every measurement: this repeats the inspection,
    # and scores training documents with the trained and the starting weights.
    mass = evaluation.directive_attention_mass(model, targets, vocab, directives)
    checked = split.train[:LOSS_CHECK_DOCS]
    train_loss = train_split_loss(model, checked, vocab, wl.batch)
    model.load_state_dict(fresh_state)
    fresh_train_loss = train_split_loss(model, checked, vocab, wl.batch)
    return {
        "setup_s": setup_s,
        "train_docs": len(split.train) * wl.epochs,
        "train_pass_s": [train_s],
        "step_ms": probe.step_ms,
        "losses": probe.losses,
        "eval_docs": len(split.test),
        "eval_pass_s": eval_pass_s,
        "inspect_docs": len(targets),
        "inspect_pass_s": inspect_pass_s,
        "peak_rss_mb": peak_rss_mb,
        "maps_checked": probe.maps,
        "attempted": counts["attempted"] + probe.maps,
        "failed": counts["failed"] + probe.bad_maps,
        "directive_zero_fraction": mass.zero_fraction_nondirective,
        "train_split_loss": [fresh_train_loss, train_loss],
        "layers": layers,
        "provenance": provenance(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    result = run_rep(WORKLOADS[args.workload], args.seed, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
