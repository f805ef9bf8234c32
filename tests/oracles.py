"""Brute-force reference oracles, kept independent of the code they check.

`test_simplex`, `test_evaluation`, `test_acceptance`, `test_data`,
`test_attention` and `test_autodiff` import them from here.
"""

import itertools

import numpy as np

from salab import simplex
from salab.autodiff import Tensor, _node
from salab.data import UNK_ID, Batch
from salab.simplex import MappingKind


def projection_oracle(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex by support enumeration.

    For each candidate support S the projection restricted to S is
    z_S - tau with tau = (sum(z_S) - 1)/|S|; the true solution is the
    feasible candidate closest to z.
    """
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    best, best_dist = None, np.inf
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            idx = list(S)
            tau = (z[idx].sum() - 1.0) / r
            p = np.zeros(n)
            p[idx] = z[idx] - tau
            if np.any(p[idx] < -1e-12):
                continue
            dist = float(((p - z) ** 2).sum())
            if dist < best_dist:
                best, best_dist = np.maximum(p, 0.0), dist
    return best


def entmax15_root_oracle(z: np.ndarray) -> np.ndarray:
    """Solve sum(max(z/2 - tau, 0)^2) = 1 by bisection to 1e-12."""
    z = np.asarray(z, dtype=np.float64) / 2.0
    lo, hi = float(z.min()) - 1.0, float(z.max())
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float((np.maximum(z - mid, 0.0) ** 2).sum()) >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0) ** 2


def mapping_node(scores: Tensor, kind: MappingKind) -> Tensor:
    """A simplex mapping along the last axis as a tape node of its own, as a
    chain of ops would record it: forward and backward in float64, each
    cast back to the scores' dtype."""
    p64, _ = simplex.apply_mapping_nd(scores.data, kind)
    dtype = scores.dtype
    return _node(p64.astype(dtype), (scores,),
                 lambda g: simplex.mapping_backward_nd(p64, g, kind).astype(dtype))


def auc_roc_oracle(records):
    """The share of (positive, negative) pairs ranked right, ties counting half."""
    total = correct = 0.0
    for p in records:
        if p.label != 1:
            continue
        for q in records:
            if q.label != 0:
                continue
            total += 1
            correct += 1.0 if p.score > q.score else (0.5 if p.score == q.score else 0.0)
    return correct / total


def auc_pr_oracle(records):
    """Average precision over the ranking by score, ties broken by doc_id."""
    ranked = sorted(records, key=lambda r: (-r.score, r.doc_id))
    n_pos = sum(r.label for r in records)
    total = 0.0
    for i, r in enumerate(ranked):
        if r.label == 1:
            total += sum(q.label for q in ranked[: i + 1]) / (i + 1)
    return total / n_pos


def pad_and_batch_oracle(docs, vocab, max_words, max_sents, batch_size, batch_tokens=None):
    """Batches as `data.pad_and_batch` builds them, one sentence at a time:
    each document's earliest `max_sents` sentences cut to `max_words` tokens
    and looked up in `vocab.token_to_id` (UNK_ID if absent), empty ones
    dropped; each id stored row by row, the masks read off the ids.  A batch
    takes the next document unless it holds `batch_size` already or, with a
    `batch_tokens` budget, its sentences with the document's, times the
    longest of them, would exceed the budget.  Returns (batches, ids of the
    documents skipped as empty after truncation)."""
    kept, skipped = [], []
    for doc in docs:
        enc = [[vocab.token_to_id.get(t, UNK_ID) for t in s[:max_words]]
               for s in doc.sentences[:max_sents] if s[:max_words]]
        if enc:
            kept.append((doc, enc))
        else:
            skipped.append(doc.id)
    chunks = []
    for item in kept:
        grown = chunks[-1] + [item] if chunks else [item]
        slots = sum(len(enc) for _, enc in grown) * max(len(sent) for _, enc in grown for sent in enc)
        if len(grown) == 1 or len(grown) <= batch_size and (batch_tokens is None or slots <= batch_tokens):
            chunks[-1:] = [grown]
        else:
            chunks.append([item])
    batches = []
    for chunk in chunks:
        n_sents = max(len(enc) for _, enc in chunk)
        n_words = max(len(sent) for _, enc in chunk for sent in enc)
        ids = np.zeros((len(chunk), n_sents, n_words), dtype=np.int64)
        for i, (_, enc) in enumerate(chunk):
            for t, sent in enumerate(enc):
                ids[i, t, : len(sent)] = sent
        word_mask = ids != 0
        labels = np.array([doc.label for doc, _ in chunk], dtype=np.float64)
        batches.append(Batch(ids, word_mask, word_mask.any(-1), labels, [d.id for d, _ in chunk]))
    return batches, skipped
