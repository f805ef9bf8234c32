"""Metric tests against brute-force oracles plus calibration and export."""

import csv
import io

import numpy as np
import pytest
from oracles import auc_pr_oracle, auc_roc_oracle, pad_and_batch_oracle

from salab import data as dm
from salab.attention import AttentionRecord
from salab.autodiff import no_grad
from salab.evaluation import (
    CalibrationBin,
    MetricsReport,
    PredictionRecord,
    auc_pr,
    auc_roc,
    brier,
    calibration_curve,
    compute_metrics,
    export_heatmap,
    score_documents,
)
from salab.exceptions import UndefinedMetricError
from salab.models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
    predict_proba,
)
from salab.simplex import MappingKind


def recs(scores, labels):
    return [
        PredictionRecord(f"d{i}", float(s), int(y))
        for i, (s, y) in enumerate(zip(scores, labels))
    ]


def test_auc_roc_examples():
    assert auc_roc(recs([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])) == 1.0
    assert auc_roc(recs([0.9, 0.3, 0.6], [1, 1, 0])) == 0.5
    assert auc_roc(recs([0.4] * 6, [1, 0, 1, 0, 0, 1])) == 0.5


def test_auc_roc_single_class_error():
    with pytest.raises(UndefinedMetricError):
        auc_roc(recs([0.5, 0.6], [1, 1]))


def test_auc_roc_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    s = rng.random(50)
    y = rng.integers(0, 2, 50)
    y[0], y[1] = 0, 1
    a = auc_roc(recs(s, y))
    assert auc_roc(recs(np.tanh(2 * s), y)) == pytest.approx(a, abs=1e-12)


def test_auc_roc_label_flip_symmetry():
    rng = np.random.default_rng(1)
    s = rng.random(40)
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    assert auc_roc(recs(s, 1 - y)) == pytest.approx(1 - auc_roc(recs(s, y)), abs=1e-12)


def test_auc_pr_examples():
    assert auc_pr(recs([0.9, 0.8, 0.3], [1, 1, 0])) == 1.0
    assert auc_pr(recs([0.9, 0.8, 0.7], [0, 1, 1])) == pytest.approx(0.5833, abs=1e-4)
    with pytest.raises(UndefinedMetricError):
        auc_pr(recs([0.5], [0]))


def test_auc_pr_approaches_prevalence_for_random_scores():
    rng = np.random.default_rng(2)
    n = 10_000
    y = (rng.random(n) < 0.3).astype(int)
    ap = auc_pr(recs(rng.random(n), y))
    assert abs(ap - y.mean()) <= 0.05


def test_brier_examples():
    assert brier(recs([1.0, 0.0], [1, 0])) == 0.0
    assert brier(recs([0.8, 0.4], [1, 0])) == pytest.approx(0.10)
    assert brier(recs([0.5] * 4, [0, 1, 0, 1])) == 0.25


def test_brier_minimized_at_prevalence():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, 500)
    prev = y.mean()
    best = brier(recs([prev] * 500, y))
    for c in (prev - 0.1, prev + 0.1, 0.0, 1.0):
        c = min(max(c, 0.0), 1.0)
        assert brier(recs([c] * 500, y)) >= best - 1e-12


def test_metrics_match_oracles_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 21))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        # a few ties on purpose
        s = np.round(rng.random(n), 1)
        r = recs(s, y)
        assert auc_roc(r) == pytest.approx(auc_roc_oracle(r), abs=1e-12)
        assert auc_pr(r) == pytest.approx(auc_pr_oracle(r), abs=1e-12)


def test_auc_pr_keeps_the_oracles_bits_over_ties_and_repeated_ids():
    """Equal to the oracle's loop bit for bit, not within a tolerance: ties, all-equal
    scores and repeated doc ids, some ending in NUL (which a numpy string drops)."""
    rng = np.random.default_rng(50)
    for t in range(1500):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, n)
        y[0] = 1
        s = (rng.random(n), np.round(rng.random(n), 1), np.full(n, rng.choice([0.0, 0.5, 1.0])))[t % 3]
        ids = [f"d{i}" + "\0" * int(rng.integers(0, 2)) for i in rng.integers(0, max(1, n // 3), n)]
        r = [PredictionRecord(i, float(score), int(label)) for i, score, label in zip(ids, s, y)]
        assert auc_pr(r).hex() == auc_pr_oracle(r).hex()


def test_calibration_single_bin():
    r = recs([0.7] * 10, [1] * 7 + [0] * 3)
    bins = calibration_curve(r, 10)
    populated = [b for b in bins if not b.empty]
    assert len(populated) == 1
    assert populated[0].mean_score == pytest.approx(0.7)
    assert populated[0].positive_fraction == pytest.approx(0.7)
    assert sum(b.count for b in bins) == 10
    assert sum(b.empty for b in bins) == 9


def test_calibration_perfectly_calibrated_scores():
    rng = np.random.default_rng(5)
    s = rng.random(10_000)
    y = (rng.random(10_000) < s).astype(int)
    bins = calibration_curve(recs(s, y), 10)
    assert max(abs(b.mean_score - b.positive_fraction) for b in bins if not b.empty) <= 0.05


def test_compute_metrics_report_fields():
    r = recs([0.9, 0.2, 0.7, 0.1], [1, 0, 1, 0])
    report = compute_metrics(r)
    assert report.n == 4 and report.prevalence == 0.5
    assert 0 <= report.brier <= 1 and report.auc_roc == 1.0
    assert "auc_roc=1.000000" in report.to_kv()
    assert '"auc_pr"' in report.to_json()


def test_report_files_keep_their_bytes():
    """`metrics.kv` holds every field but the bins, in order; `metrics.json` holds them
    all, sorted, with an empty bin's statistics as null."""
    report = MetricsReport(
        auc_roc=0.75, auc_pr=2 / 3, brier=0.1875,
        calibration=[CalibrationBin(0.0, 0.5, 2, 0.25, 0.5),
                     CalibrationBin(0.5, 1.0, 0, float("nan"), float("nan"))],
        n=2, prevalence=0.5,
    )
    assert report.to_kv() == "auc_roc=0.750000\nauc_pr=0.666667\nbrier=0.187500\nn=2\nprevalence=0.500000\n"
    assert report.to_json() == """{
  "auc_pr": 0.6666666666666666,
  "auc_roc": 0.75,
  "brier": 0.1875,
  "calibration": [
    {
      "count": 2,
      "high": 0.5,
      "low": 0.0,
      "mean_score": 0.25,
      "positive_fraction": 0.5
    },
    {
      "count": 0,
      "high": 1.0,
      "low": 0.5,
      "mean_score": null,
      "positive_fraction": null
    }
  ],
  "n": 2,
  "prevalence": 0.5
}"""


# ---------------------------------------------------------------------------
# heatmap export

def _record():
    w = np.array([[[1.0, 0.0], [0.25, 0.75]]])
    return AttentionRecord(w, ["dnr", "noted"])


def test_export_heatmap_grid(tmp_path):
    path = tmp_path / "h.csv"
    export_heatmap(_record(), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == ",dnr,noted"
    assert lines[1].startswith("dnr,1.000000,0.000000")


def test_export_heatmap_roundtrip_and_exact_zero(tmp_path, read_heatmap):
    path = tmp_path / "h.csv"
    rec = _record()
    export_heatmap(rec, path)
    w, rows, cols = read_heatmap(path)
    np.testing.assert_allclose(w, rec.weights[0], atol=1e-6)
    assert rows == cols == rec.labels
    assert "0.000000" in path.read_text()


def _scalar_formatted_csv(record) -> bytes:
    """The CSV of head 0 as formatted one numpy scalar at a time, the earlier way."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([""] + record.labels)
    for label, row in zip(record.labels, record.weights[0]):
        writer.writerow([label] + [f"{v:.6f}" for v in row])
    return buf.getvalue().encode("utf-8")


# every character csv quotes on, and some it leaves alone
ODD_LABELS = ["", "\r", "\n", "a\r\nb", " lead", "trail ", "\t", "é", 'a,"b",,""c"', "100%"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weights, labels", [
    ([[[1.0]]], ['a "quoted", word']),
    (
        [[[0.0, 1.0, 1e-7], [0.5000005, 0.4999995, 1e-6], [0.3, 0.7, 5e-7]],
         [[0.1234565, 0.0, 0.8765435], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]],
        ["x,y", 'say "hi"', "plain"],
    ),
    (np.eye(len(ODD_LABELS))[None], ODD_LABELS),
])
def test_export_heatmap_bytes_match_scalar_formatting(tmp_path, dtype, weights, labels):
    w = np.array(weights, dtype=dtype)
    w = np.concatenate([w, np.random.default_rng(0).random(w.shape).astype(dtype)])
    for block in range(len(w)):  # each weight block as head 0 of its own record
        rec = AttentionRecord(w[block:block + 1], labels)
        path = tmp_path / f"h{block}.csv"
        export_heatmap(rec, path)
        assert path.read_bytes() == _scalar_formatted_csv(rec)


@pytest.mark.parametrize("extra", [-30, 0, 1000], ids=["shorter", "same-length", "longer"])
def test_export_heatmap_rewrite_leaves_exactly_the_new_bytes(tmp_path, extra):
    path = tmp_path / "h.csv"
    export_heatmap(_record(), path)
    new = path.read_bytes()
    path.write_bytes(b"9" * (len(new) + extra))
    export_heatmap(_record(), path)
    assert path.read_bytes() == new


def test_export_heatmap_bad_path():
    with pytest.raises(OSError, match="no/such/dir"):
        export_heatmap(_record(), "no/such/dir/h.csv")


def _scoring_setup(family, mapping):
    """A fresh model and a split of 23 documents of mixed lengths, one of
    them empty after truncation."""
    docs = dm.generate_synthetic_corpus(dm.SyntheticCorpusConfig(
        n_documents=23, min_sentences=1, max_sentences=9, min_words=1, max_words=11, seed=46))
    docs[5].sentences = [[], []]
    vocab = dm.build_vocab((s for d in docs for s in d.sentences), min_freq=2)
    cls, cfg = ((AttentionClassifier, LocalModelConfig) if family == "att"
                else (HierarchicalTransformerClassifier, HierModelConfig))
    model = cls(cfg(len(vocab), embed_dim=8, hidden=8, mapping=MappingKind.parse(mapping),
                    max_words=7, max_sents=6), seed=5)
    return model, docs, vocab


def test_score_documents_of_no_documents_is_empty():
    model, docs, vocab = _scoring_setup("att", "softmax")
    assert score_documents(model, [], vocab) == []
    assert score_documents(model, [docs[5]], vocab) == []  # empty after truncation


@pytest.mark.parametrize("family, mapping", [("att", "entmax:1.3"), ("tr", "sparsemax")])
@pytest.mark.parametrize("batch_size", [1, 5, 16])
def test_score_documents_equals_the_per_batch_loop_bit_for_bit(family, mapping, batch_size):
    """One conversion of the whole pass's logits gives the records that
    converting each batch's logits did: same ids, score bits and int labels."""
    model, docs, vocab = _scoring_setup(family, mapping)
    cfg = model.config
    expected = []
    for batch in pad_and_batch_oracle(docs, vocab, cfg.max_words, cfg.max_sents, batch_size)[0]:
        with no_grad():
            probs = predict_proba(model.forward(batch).data)
        expected += [PredictionRecord(i, float(p), int(y)) for i, p, y in zip(batch.doc_ids, probs, batch.labels)]
    records = score_documents(model, docs, vocab, batch_size)

    def bits(rs):
        return [(r.doc_id, r.score.hex(), type(r.score), r.label, type(r.label)) for r in rs]

    assert len(records) == len(docs) - 1
    assert bits(records) == bits(expected)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -0.5, 1.5])
def test_prediction_record_refuses_a_score_off_the_unit_interval(score):
    with pytest.raises(ValueError, match="score out of"):
        PredictionRecord("d", score, 1)
