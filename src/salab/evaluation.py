"""Discrimination and calibration metrics plus attention analyses.

AUC-ROC uses the Mann-Whitney formulation (ties count one half); AUC-PR
is average precision with deterministic doc-id tie-breaking; calibration
uses equal-width bins on [0, 1].
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .attention import AttentionRecord
from .autodiff import no_grad
from .data import PatientDocument, Vocabulary, pad_and_batch
from .exceptions import UndefinedMetricError, batch_memory_guard
from .models import iter_attention_maps, predict_proba

_CSV_SPECIAL = re.compile('[,"\r\n]')


@dataclass(frozen=True)
class PredictionRecord:
    doc_id: str
    score: float
    label: int

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score out of [0, 1]: {self.score}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1: {self.label}")


def auc_roc(records: list[PredictionRecord]) -> float:
    """Probability a random positive outranks a random negative."""
    scores = np.array([r.score for r in records])
    labels = np.array([r.label for r in records])
    n_pos = int(labels.sum())
    n_neg = len(records) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC needs both classes present")
    # average ranks implement the ties-count-half convention
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_pr(records: list[PredictionRecord]) -> float:
    """Average precision: precision at each positive's rank, averaged."""
    n_pos = sum(r.label for r in records)
    if n_pos == 0:
        raise UndefinedMetricError("AUC-PR needs at least one positive")
    ranked = sorted(records, key=lambda r: (-r.score, r.doc_id))
    ap = 0.0
    hits = 0
    for rank, rec in enumerate(ranked, start=1):
        if rec.label == 1:
            hits += 1
            ap += hits / rank
    return ap / n_pos


def brier(records: list[PredictionRecord]) -> float:
    if not records:
        raise UndefinedMetricError("Brier score needs at least one record")
    return float(np.mean([(r.score - r.label) ** 2 for r in records]))


@dataclass
class CalibrationBin:
    low: float
    high: float
    count: int
    mean_score: float  # NaN when empty
    positive_fraction: float  # NaN when empty

    @property
    def empty(self) -> bool:
        return self.count == 0


def calibration_curve(records: list[PredictionRecord], n_bins: int = 10) -> list[CalibrationBin]:
    """Equal-width reliability bins; empty bins are kept and flagged."""
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    scores = np.array([r.score for r in records])
    labels = np.array([r.label for r in records], dtype=float)
    idx = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    bins = []
    for b in range(n_bins):
        sel = idx == b
        count = int(sel.sum())
        bins.append(
            CalibrationBin(
                low=b / n_bins,
                high=(b + 1) / n_bins,
                count=count,
                mean_score=float(scores[sel].mean()) if count else float("nan"),
                positive_fraction=float(labels[sel].mean()) if count else float("nan"),
            )
        )
    return bins


@dataclass
class MetricsReport:
    auc_roc: float
    auc_pr: float
    brier: float
    bins: list[CalibrationBin]
    n: int
    prevalence: float

    def to_dict(self) -> dict:
        return {
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "brier": self.brier,
            "n": self.n,
            "prevalence": self.prevalence,
            "calibration": [
                {
                    "low": b.low,
                    "high": b.high,
                    "count": b.count,
                    "mean_score": None if b.empty else b.mean_score,
                    "positive_fraction": None if b.empty else b.positive_fraction,
                }
                for b in self.bins
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_kv(self) -> str:
        lines = [
            f"auc_roc={self.auc_roc:.6f}",
            f"auc_pr={self.auc_pr:.6f}",
            f"brier={self.brier:.6f}",
            f"n={self.n}",
            f"prevalence={self.prevalence:.6f}",
        ]
        return "\n".join(lines) + "\n"


def compute_metrics(records: list[PredictionRecord], n_bins: int = 10) -> MetricsReport:
    labels = [r.label for r in records]
    return MetricsReport(
        auc_roc=auc_roc(records),
        auc_pr=auc_pr(records),
        brier=brier(records),
        bins=calibration_curve(records, n_bins),
        n=len(records),
        prevalence=sum(labels) / len(labels),
    )


# ---------------------------------------------------------------------------
# attention analyses

@dataclass
class AttentionMassSummary:
    """Attention mass received by directive-token columns.

    mean: the summed weight on directive columns, averaged over query rows
    (head 0) and then over the sentences holding a directive.
    zero_fraction_nondirective: fraction of real non-directive columns in
    those sentences whose received mass is exactly zero in every row.
    """

    mean: float
    zero_fraction_nondirective: float


def directive_attention_mass(model, docs: list[PatientDocument], vocab: Vocabulary,
                             directive_tokens: set[str]) -> AttentionMassSummary:
    masses: list[float] = []
    zero_cols = nondir_cols = 0
    for _, records in iter_attention_maps(model, docs, vocab, filter_tokens=directive_tokens):
        for rec in records:
            w = rec.weights[0]  # head 0, [n, n]
            is_dir = np.array([t in directive_tokens for t in rec.labels])
            masses.append(float(w[:, is_dir].sum(axis=1).mean()))
            zero_cols += int((w[:, ~is_dir].max(axis=0) == 0.0).sum())
            nondir_cols += int((~is_dir).sum())
    if not masses:
        raise UndefinedMetricError("no sentences containing directive tokens")
    return AttentionMassSummary(
        mean=float(np.mean(masses)),
        zero_fraction_nondirective=zero_cols / nondir_cols if nondir_cols else 0.0,
    )


def score_documents(model, docs, vocab, batch_size: int = 16) -> list[PredictionRecord]:
    """Run the model over documents and collect prediction records; the
    pass's logits are converted to scores once, after its last batch."""
    cfg = model.config
    batches = pad_and_batch(docs, vocab, cfg.max_words, cfg.max_sents, batch_size)
    if not batches:
        return []
    logits = []
    for batch in batches:
        with batch_memory_guard(batch.token_ids.shape), no_grad():
            logits.append(model.forward(batch, training=False).data)
    scores = predict_proba(np.concatenate(logits)).tolist()
    labels = np.concatenate([b.labels for b in batches]).astype(np.int64).tolist()
    doc_ids = [doc_id for b in batches for doc_id in b.doc_ids]
    return [PredictionRecord(*r) for r in zip(doc_ids, scores, labels)]


# ---------------------------------------------------------------------------
# heatmap export

def _csv_field(text: str) -> str:
    """`text` quoted as csv.writer's default dialect quotes it."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def export_heatmap(record: AttentionRecord, path) -> None:
    """CSV grid of head 0: header = column tokens, first cell of each row = row token.

    The bytes are csv.writer's. An existing file is rewritten in place, which
    frees no blocks and, on ext4, forces no flush at close.
    """
    labels = [_csv_field(label) for label in record.labels]
    cells = ",".join(["%.6f"] * len(labels))
    lines = [",".join(["", *labels])]
    for label, row in zip(labels, record.weights[0].tolist()):
        lines.append(f"{label},{cells % tuple(row)}")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write("\r\n".join([*lines, ""]).encode("utf-8"))
        fh.truncate()

