"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The training-based
criteria share session fixtures so each model is trained once.
"""

import itertools
import time

import numpy as np
import pytest
from oracles import auc_pr_oracle, auc_roc_oracle, entmax15_root_oracle, projection_oracle

from salab import data as dm
from salab import simplex as sx
from salab.cli import TRAIN_DEFAULTS, main as cli_main, save_model_dir
from salab.evaluation import (
    PredictionRecord,
    auc_pr,
    auc_roc,
    brier,
    calibration_curve,
    compute_metrics,
    directive_attention_mass,
    score_documents,
)
from salab.models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
    extract_attention_maps,
)
from salab.simplex import MappingKind
from salab.training import train_model
from salab.validation import mapping_max_grad_error, model_grad_error, worst

DIRECTIVES = {"dnr", "dni", "cmo"}
THREE = [MappingKind.parse(name) for name in ("softmax", "entmax15", "sparsemax")]


def report(n: int, msg: str) -> None:
    print(f"\nCRITERION {n} PASS: {msg}")


# ---------------------------------------------------------------------------
# shared training fixtures (desk-scale dims keep single-core runtime low)

@pytest.fixture(scope="session")
def att_setup():
    """Default corpus with 5,000 training documents and three trained
    local-attention models (one per mapping)."""
    cfg = dm.SyntheticCorpusConfig(n_documents=7143, seed=100)
    docs = dm.generate_synthetic_corpus(cfg)
    split = dm.split_dataset(docs, seed=100)
    assert len(split.train) == 5000
    vocab = dm.build_vocab((s for d in split.train for s in d.sentences), min_freq=5)
    models = {}
    for kind in THREE:
        mc = LocalModelConfig(
            len(vocab), embed_dim=50, hidden=64, mapping=kind,
            max_words=12, max_sents=8,
        )
        model = AttentionClassifier(mc, seed=100)
        trace = {}

        def record(stats, model=model, trace=trace):
            rep = compute_metrics(score_documents(model, split.test, vocab))
            trace[stats.epoch] = rep.auc_roc
            return False  # train the full budget so attention maps sharpen

        t0 = time.time()
        train_model(model, split.train, split.validation, vocab,
                    epochs=4, lr=2e-3, batch_size=16, seed=100, stop_fn=record)
        first_hit = min((e for e, a in trace.items() if a >= 0.90), default=None)
        models[kind.name] = {
            "model": model,
            "epochs": first_hit,
            "test_auc": max(trace.values()),
            "seconds": time.time() - t0,
        }
    return {"split": split, "vocab": vocab, "models": models}


@pytest.fixture(scope="session")
def tr_setup():
    """Long-document corpus (20-30 sentences) with trained hierarchical
    transformers for sparsemax and softmax."""
    cfg = dm.SyntheticCorpusConfig(
        n_documents=1600, min_sentences=20, max_sentences=30,
        min_words=3, max_words=6, seed=200,
    )
    docs = dm.generate_synthetic_corpus(cfg)
    split = dm.split_dataset(docs, seed=200)
    vocab = dm.build_vocab((s for d in split.train for s in d.sentences), min_freq=5)
    models = {}
    for kind in (MappingKind.parse("sparsemax"), MappingKind.parse("softmax")):
        mc = HierModelConfig(
            len(vocab), embed_dim=32, hidden=32, mapping=kind,
            max_words=6, max_sents=30,
        )
        model = HierarchicalTransformerClassifier(mc, seed=200)
        train_model(model, split.train, split.validation, vocab,
                    epochs=4, lr=1e-3, batch_size=16, seed=200)
        models[kind.name] = model
    return {"split": split, "vocab": vocab, "models": models}


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_mapping_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    err_sp, err_bi, err_ent = [], [], []  # folded by `worst`, which keeps a NaN
    for _ in range(1000):
        z = rng.normal(0, 3, int(rng.integers(1, 5)))
        p, _ = sx.sparsemax_nd(z)
        err_sp.append(np.abs(p - projection_oracle(z)).max())
        err_bi.append(np.abs(sx.entmax_bisect_nd(z, 2.0)[0] - p).max())
    for _ in range(500):
        z = rng.normal(0, 3, int(rng.integers(2, 9)))
        p, _ = sx.entmax15_nd(z)
        err_ent.append(np.abs(p - entmax15_root_oracle(z)).max())
    worst_sp, worst_bi, worst_ent = worst(err_sp), worst(err_bi), worst(err_ent)
    elapsed = time.time() - t0
    assert worst_sp <= 1e-6
    assert worst_ent <= 1e-5
    assert worst_bi <= 1e-6
    assert elapsed < 10.0
    report(1, f"sparsemax {worst_sp:.1e}, entmax15 {worst_ent:.1e}, "
              f"bisect-vs-sparsemax {worst_bi:.1e} in {elapsed:.1f}s")


def test_criterion_2_gradient_soundness():
    t0 = time.time()
    worst_map = worst([mapping_max_grad_error(kind, trials=200, seed=2) for kind in THREE])
    assert worst_map <= 1e-4

    corpus = dm.generate_synthetic_corpus(
        dm.SyntheticCorpusConfig(n_documents=3, vocab_size=12, min_sentences=2,
                                 max_sentences=3, min_words=3, max_words=5, seed=2)
    )
    vocab = dm.build_vocab((s for d in corpus for s in d.sentences), min_freq=1)
    batch = dm.pad_and_batch(corpus, vocab, 5, 3, 3)[0]
    model_errs = []
    for family, kind in itertools.product(("att", "tr"), THREE):
        err = None
        for attempt in range(4):  # resample near support or ReLU boundaries; a NaN fails at once
            if family == "att":
                model = AttentionClassifier(
                    LocalModelConfig(len(vocab), embed_dim=6, hidden=8, mapping=kind,
                                     dropout_rate=0.0, max_words=5, max_sents=3),
                    seed=2 + attempt, dtype=np.float64)
            else:
                model = HierarchicalTransformerClassifier(
                    HierModelConfig(len(vocab), embed_dim=6, hidden=8, mapping=kind,
                                    dropout_rate=0.0, max_words=5, max_sents=3),
                    seed=2 + attempt, dtype=np.float64)
            err = model_grad_error(model, batch)
            if not err > 1e-4:
                break
        model_errs.append(err)
    worst_model = worst(model_errs)
    elapsed = time.time() - t0
    assert worst_model <= 1e-4
    assert elapsed < 60.0
    report(2, f"mapping err {worst_map:.1e}, full-model err {worst_model:.1e} "
              f"in {elapsed:.1f}s")


def test_criterion_3_simplex_invariants():
    rng = np.random.default_rng(3)
    kinds = THREE + [MappingKind.entmax(1.3)]
    rows_per_size = 500
    sizes = rng.integers(2, 65, 20)
    for kind in kinds:
        for n in sizes:
            z = rng.normal(0, 3, (rows_per_size, int(n)))
            p, _ = sx.apply_mapping_nd(z, kind)
            assert np.all(p >= 0)
            assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-8
            c = rng.uniform(-10, 10, (rows_per_size, 1))
            assert np.abs(sx.apply_mapping_nd(z + c, kind)[0] - p).max() <= 1e-9
            perm = rng.permutation(int(n))
            assert np.abs(sx.apply_mapping_nd(z[:, perm], kind)[0] - p[:, perm]).max() <= 1e-12
            order = np.argsort(-z, axis=-1, kind="stable")
            p_sorted = np.take_along_axis(p, order, axis=-1)
            assert np.all(np.diff(p_sorted, axis=-1) <= 1e-12)
    report(3, f"{len(kinds)} mappings x {rows_per_size * len(sizes)} vectors")


def test_criterion_4_interpolation_ordering():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        z = rng.normal(0, 3, int(rng.integers(2, 17)))
        soft = sx.softmax_nd(z)
        ent, _ = sx.entmax15_nd(z)
        sp, _ = sx.sparsemax_nd(z)
        assert soft.max() <= ent.max() + 1e-9 <= sp.max() + 2e-9
        z_soft, z_ent, z_sp = (int((v == 0).sum()) for v in (soft, ent, sp))
        assert z_soft == 0 <= z_ent <= z_sp
    report(4, "max-entry and zero-count orderings hold on 1000 vectors")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 21))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = np.round(rng.random(n), 1)
        r = [PredictionRecord(f"d{i}", float(s), int(y))
             for i, (s, y) in enumerate(zip(scores, labels))]
        assert auc_roc(r) == pytest.approx(auc_roc_oracle(r), abs=1e-12)
        assert auc_pr(r) == pytest.approx(auc_pr_oracle(r), abs=1e-12)
        assert brier(r) == pytest.approx(
            float(np.mean((scores - labels) ** 2)), abs=1e-12)
    ap_case = [PredictionRecord("a", 0.9, 0), PredictionRecord("b", 0.8, 1),
               PredictionRecord("c", 0.7, 1)]
    assert auc_pr(ap_case) == pytest.approx(0.5833, abs=1e-4)
    brier_case = [PredictionRecord("a", 0.8, 1), PredictionRecord("b", 0.4, 0)]
    assert brier(brier_case) == pytest.approx(0.10, abs=1e-4)
    report(5, "exact oracle agreement on 100 instances; worked examples hold")


@pytest.mark.slow
def test_criterion_6_end_to_end_learning(att_setup):
    msgs = []
    for name, run in att_setup["models"].items():
        assert run["test_auc"] >= 0.90, f"{name}: {run['test_auc']:.3f}"
        assert run["epochs"] is not None and run["epochs"] <= 10
        assert run["seconds"] < 300.0
        msgs.append(f"att-{name} auc {run['test_auc']:.3f} "
                    f"(>=0.90 by epoch {run['epochs']}, {run['seconds']:.0f}s)")
    report(6, "; ".join(msgs))


@pytest.mark.slow
def test_criterion_7_directive_attention_mass(att_setup):
    vocab = att_setup["vocab"]
    docs = [d for d in att_setup["split"].test
            if any(set(s) & DIRECTIVES for s in d.sentences)][:80]
    summaries = {}
    for name in ("sparsemax", "softmax"):
        model = att_setup["models"][name]["model"]
        summaries[name] = directive_attention_mass(model, docs, vocab, DIRECTIVES)
    assert summaries["sparsemax"].mean > summaries["softmax"].mean
    assert summaries["sparsemax"].zero_fraction_nondirective >= 0.30
    report(7, f"mass sparsemax {summaries['sparsemax'].mean:.3f} > "
              f"softmax {summaries['softmax'].mean:.3f}; zeroed non-directive "
              f"columns {summaries['sparsemax'].zero_fraction_nondirective:.0%}")


@pytest.mark.slow
def test_criterion_8_sentence_level_sparsity(tr_setup):
    vocab = tr_setup["vocab"]
    docs = [d for d in tr_setup["split"].test if len(d.sentences) >= 20][:60]
    assert docs
    fracs = {}
    for name, model in tr_setup["models"].items():
        values = []
        for doc in docs:
            rec = [r for r in extract_attention_maps(model, doc, vocab)
                   if r.scope == "sentence"][0]
            # the fraction of sentence columns that get any weight (head 0)
            values.append(float((rec.weights[0].max(axis=0) > 0.0).mean()))
        fracs[name] = values
    assert float(np.median(fracs["sparsemax"])) < 0.5
    assert all(v == 1.0 for v in fracs["softmax"])
    report(8, f"tr-sparsemax median support fraction "
              f"{float(np.median(fracs['sparsemax'])):.2f} < 0.5; tr-softmax 1.0")


@pytest.mark.slow
def test_criterion_9_calibration_machinery(att_setup, tmp_path):
    rng = np.random.default_rng(9)
    s = rng.random(10_000)
    y = (rng.random(10_000) < s).astype(int)
    bins = calibration_curve(
        [PredictionRecord(f"d{i}", float(a), int(b))
         for i, (a, b) in enumerate(zip(s, y))], 10)
    assert max(abs(b.mean_score - b.positive_fraction) for b in bins if not b.empty) <= 0.05

    # reliability CSV for a trained model, via the eval command
    run = tmp_path / "model"
    run.mkdir()
    model = att_setup["models"]["sparsemax"]["model"]
    vocab = att_setup["vocab"]
    cfg = dict(TRAIN_DEFAULTS, model="att", mapping="sparsemax",
               embed_dim=50, hidden=64, max_words=12, max_sents=8)
    model.save(run / "best.ckpt")
    save_model_dir(run, vocab, cfg, seed=100)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    dm.write_jsonl(data_dir / "test.jsonl", att_setup["split"].test)
    out = tmp_path / "eval"
    assert cli_main(["eval", "--data", str(data_dir), "--model-dir", str(run),
                     "--out", str(out)]) == 0
    rel = (out / "reliability.csv").read_text().strip().splitlines()
    assert len(rel) == 11  # header + 10 bins
    rows = [line.split(",") for line in rel[1:] if line.split(",")[3]]
    direction = np.mean([float(r[3]) - float(r[4]) for r in rows])
    side = "over" if direction > 0 else "under"
    report(9, f"bin deviation <= 0.05; reliability.csv written; trained "
              f"sparsemax model {side}-predicts on average (reported only)")


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    flags = ["--epochs", "2", "--lr", "1e-3", "--hidden", "16", "--embed-dim", "8",
             "--max-words", "12", "--max-sents", "8", "--min-freq", "1"]
    data_dir = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data_dir), "--n-docs", "250",
                     "--seed", "10"]) == 0
    runs = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert cli_main(["train", "--data", str(data_dir), "--out", str(run),
                         "--model", "att", "--mapping", "sparsemax",
                         "--seed", "10", *flags]) == 0
        hm = tmp_path / f"hm_{name}"
        assert cli_main(["heatmap", "--data", str(data_dir), "--model-dir",
                         str(run), "--out", str(hm), "--limit", "3"]) == 0
        runs.append((run, hm))
    for f in ("best.ckpt", "last.ckpt", "metrics.kv", "metrics.json", "epochs.csv"):
        assert (runs[0][0] / f).read_bytes() == (runs[1][0] / f).read_bytes(), f
    names_a = sorted(p.name for p in runs[0][1].iterdir())
    names_b = sorted(p.name for p in runs[1][1].iterdir())
    assert names_a == names_b and any(n.endswith(".csv") for n in names_a)
    for n in names_a:
        if n == "manifest.kv":
            continue  # records the differing output path
        assert (runs[0][1] / n).read_bytes() == (runs[1][1] / n).read_bytes()
    report(10, "checkpoints, metrics, and heatmap CSVs byte-identical across runs")
