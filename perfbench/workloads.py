"""The benchmark's workloads: fixed inputs and fixed work per repetition.

Pure data, importable without numpy, so the launcher can validate
arguments before any worker process starts.

A run of a workload is a sequence of repetitions, each in a fresh
single-threaded process.  One repetition sets up (corpus, split,
vocabulary, model), trains with `training.train_model`, scores a split
with `evaluation.score_documents` + `compute_metrics`, and inspects every
directive document of that split the way `salab heatmap` does.  An
inference workload scores and inspects first, on fresh weights that went
through a `checkpoint` round trip in setup, and trains last.  The work
per repetition is fixed, so peak RSS and the step-time percentiles mean
the same thing on every commit; `--seconds` only sets how many
repetitions a run makes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

DIRECTIVES = ("dnr", "dni", "cmo")


@dataclass(frozen=True)
class Workload:
    model: str  # "att" or "tr"
    mapping: str  # MappingKind.parse syntax
    max_words: int  # W
    max_sents: int  # T
    # Split sizes per repetition.  Validation and test hold >= 100 documents
    # so both labels occur in them (AUC is undefined otherwise); n_train is a
    # multiple of the batch so every step sees a full batch.
    n_train: int
    n_val: int
    n_test: int
    epochs: int
    eval_passes: int  # score_documents passes over the test split
    inspect_passes: int  # passes over the test split's directive documents
    # Round-trip fresh weights through `checkpoint` in setup, then score,
    # inspect and read peak RSS before training.
    inference: bool
    rep_seconds: float  # nominal measured seconds of one repetition
    hidden: int = 64
    embed_dim: int = 50
    batch: int = 16
    lr: float = 1e-3
    dropout: float = 0.2
    heads: int = 1
    layers: int = 1
    vocab_size: int = 200
    min_freq: int = 5

    @property
    def n_docs(self) -> int:
        return self.n_train + self.n_val + self.n_test

    def params(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    # The bisection mapping dominates the step and the arrays are small, so
    # per-op tape overhead shows: the `simplex` workload.
    "train-att-entmax13": Workload(
        model="att", mapping="entmax:1.3", max_words=12, max_sents=8,
        n_train=704, n_val=148, n_test=400, epochs=1,
        eval_passes=2, inspect_passes=2, inference=False,
        rep_seconds=4.5,
    ),
    # Softmax keeps the mapping cheap; the tape's backward, its reference
    # cycles and 4%-full padding dominate.  Steps per repetition are capped
    # because dead tape graphs grow RSS by ~0.3 GB per step until the
    # collector's older generations run (see NOTES.md).
    "train-tr-softmax": Workload(
        model="tr", mapping="softmax", max_words=20, max_sents=40,
        n_train=128, n_val=100, n_test=112, epochs=1,
        eval_passes=3, inspect_passes=8, inference=False,
        rep_seconds=6.0,
    ),
    # Forward only at batch 16 (scoring) and batch 1 (inspection), on fresh
    # weights that went through a checkpoint round trip in setup.  The short
    # training phase comes last and exists so every end-to-end metric has a
    # value here; peak RSS is read before it.
    "infer-tr-sparsemax": Workload(
        model="tr", mapping="sparsemax", max_words=20, max_sents=40,
        n_train=128, n_val=100, n_test=208, epochs=1,
        eval_passes=2, inspect_passes=6, inference=True,
        rep_seconds=7.0,
    ),
}


def repetitions(workload: Workload, seconds: int) -> int:
    """Repetitions in a run of `seconds`: a function of the budget only,
    never of measured speed, so both sides of a comparison do equal work."""
    return max(3, round(seconds / workload.rep_seconds))
