"""Mini-batch training loop with validation-based model selection."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, bce_with_logits
from .data import PatientDocument, Vocabulary, iter_batches
from .evaluation import MetricsReport, compute_metrics, score_documents
from .exceptions import batch_memory_guard
from .rng import derive_rng

log = logging.getLogger(__name__)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val: MetricsReport


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = -1.0
    best_state: dict | None = None


def train_model(
    model,
    train_docs: list[PatientDocument],
    val_docs: list[PatientDocument],
    vocab: Vocabulary,
    epochs: int,
    lr: float = 1e-4,
    batch_size: int = 16,
    seed: int = 0,
    stop_fn=None,
) -> TrainResult:
    """Train with Adam and BCE; keep the epoch with the best validation
    AUC-ROC (ties go to the earlier epoch).  Each batch is built as its step
    comes, closed at `batch_size` documents or `data.BATCH_TOKENS` padded
    word slots (`data.iter_batches`); validation batches the same way.

    `stop_fn(stats)` may return True to stop early after an epoch.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    cfg = model.config
    opt = Adam(model.params, lr=lr)
    result = TrainResult()
    for epoch in range(1, epochs + 1):
        order = derive_rng(seed, "shuffle", epoch).permutation(len(train_docs))
        shuffled = [train_docs[i] for i in order]
        losses = []
        for batch in iter_batches(shuffled, vocab, cfg.max_words, cfg.max_sents, batch_size):
            opt.zero_grad()
            with batch_memory_guard(batch.token_ids.shape):
                logits = model.forward(batch, training=True)
                loss = bce_with_logits(logits, batch.labels)
                loss.backward()
                opt.step()
            losses.append(loss.item())
        val_report = compute_metrics(score_documents(model, val_docs, vocab, batch_size))
        stats = EpochStats(epoch, float(np.mean(losses)), val_report)
        result.history.append(stats)
        log.info(
            "epoch %d loss %.4f val auc_roc %.4f auc_pr %.4f brier %.4f",
            epoch, stats.train_loss, val_report.auc_roc,
            val_report.auc_pr, val_report.brier,
        )
        if val_report.auc_roc > result.best_val_auc:
            result.best_val_auc = val_report.auc_roc
            result.best_epoch = epoch
            result.best_state = model.state_dict()
        if stop_fn is not None and stop_fn(stats):
            break
    return result
