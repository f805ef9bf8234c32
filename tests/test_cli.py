"""CLI smoke and contract tests on a desk-scale corpus."""

import io
import logging
import os
import platform
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import salab
from salab import data as datamod
from salab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from salab.cli import (
    EVAL_DEFAULTS,
    GEN_DEFAULTS,
    GRADCHECK_DEFAULTS,
    HEATMAP_DEFAULTS,
    TRAIN_DEFAULTS,
    build_model,
    load_model_dir,
    main,
    read_kv,
    save_model_dir,
    write_kv,
)
from salab.data import PatientDocument, build_vocab, read_jsonl, write_jsonl
from salab.models import (
    AttentionClassifier,
    HierModelConfig,
    LocalModelConfig,
    extract_attention_maps,
)

TRAIN_FLAGS = [
    "--epochs", "2", "--lr", "1e-3", "--hidden", "16", "--embed-dim", "8",
    "--max-words", "12", "--max-sents", "8", "--min-freq", "1", "--batch", "16",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--out", str(out), "--n-docs", "300", "--seed", "5"]) == 0
    return out


def test_gen_data_outputs(data_dir):
    for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "manifest.kv"):
        assert (data_dir / name).exists()
    manifest = read_kv(data_dir / "manifest.kv")
    assert manifest["command"] == "gen-data"
    assert manifest["n_docs"] == "300"


def test_train_eval_heatmap_pipeline(data_dir, tmp_path):
    run = tmp_path / "run"
    code = main(
        ["train", "--data", str(data_dir), "--out", str(run),
         "--model", "att", "--mapping", "sparsemax", *TRAIN_FLAGS]
    )
    assert code == 0
    for name in ("best.ckpt", "last.ckpt", "config.kv", "vocab.txt",
                 "epochs.csv", "manifest.kv", "metrics.kv"):
        assert (run / name).exists()
    lines = (run / "epochs.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epochs

    out = tmp_path / "eval"
    assert main(["eval", "--data", str(data_dir), "--model-dir", str(run),
                 "--out", str(out)]) == 0
    assert (out / "reliability.csv").exists()
    rel = (out / "reliability.csv").read_text().strip().splitlines()
    assert len(rel) == 11  # header + 10 bins
    kv = read_kv(out / "metrics.kv")
    assert 0.0 <= float(kv["auc_roc"]) <= 1.0

    hm = tmp_path / "hm"
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(run),
                 "--out", str(hm), "--limit", "2"]) == 0
    csvs = [p for p in hm.iterdir() if p.name.endswith(".csv") and p.name != "manifest.kv"]
    assert csvs


def test_train_determinism_byte_identical(data_dir, tmp_path):
    outputs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert main(
            ["train", "--data", str(data_dir), "--out", str(run),
             "--model", "att", "--mapping", "entmax15", "--seed", "9", *TRAIN_FLAGS]
        ) == 0
        outputs.append(run)
    for f in ("best.ckpt", "last.ckpt", "metrics.kv", "epochs.csv"):
        assert (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()


def test_manifest_reproduces_run(data_dir, tmp_path):
    first = tmp_path / "first"
    assert main(
        ["train", "--data", str(data_dir), "--out", str(first),
         "--model", "att", "--mapping", "softmax", *TRAIN_FLAGS]
    ) == 0
    second = tmp_path / "second"
    assert main(
        ["train", "--config", str(first / "manifest.kv"), "--out", str(second)]
    ) == 0
    assert (first / "best.ckpt").read_bytes() == (second / "best.ckpt").read_bytes()
    assert (first / "metrics.kv").read_bytes() == (second / "metrics.kv").read_bytes()


def test_config_file_flag_override(data_dir, tmp_path):
    cfg = tmp_path / "cfg.kv"
    cfg.write_text("n_docs=50\nseed=8\n")
    out = tmp_path / "d2"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out),
                 "--n-docs", "60"]) == 0
    manifest = read_kv(out / "manifest.kv")
    assert manifest["n_docs"] == "60"  # flag wins over config file
    assert manifest["seed"] == "8"


@pytest.mark.parametrize("flags, names", [
    (["--word-min", "6", "--word-max", "2"], "min_words 6 exceeds max_words 2"),
    (["--sent-min", "5", "--sent-max", "2"], "min_sentences 5 exceeds max_sentences 2"),
    (["--vocab-size", "0"], "vocab_size"),
    (["--zipf", "nan"], "zipf nan"),
    (["--n-docs", "0"], "n_documents"),
])
def test_bad_gen_data_setting_writes_nothing(tmp_path, capsys, flags, names):
    capsys.readouterr()
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--n-docs", "20", *flags]) == 2
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and names in lines[0] and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_missing_file_exit_code(tmp_path):
    assert main(["eval", "--model-dir", str(tmp_path / "nope")]) == 2


def test_truncated_checkpoint_exit_code(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(
        ["train", "--data", str(data_dir), "--out", str(run), "--model", "att",
         "--mapping", "softmax", *TRAIN_FLAGS, "--epochs", "1"]
    ) == 0
    ckpt = run / "best.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:20])
    capsys.readouterr()
    assert main(["eval", "--data", str(data_dir), "--model-dir", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_bad_mapping_exit_code(data_dir, tmp_path):
    assert main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
         "--mapping", "sharpmax", *TRAIN_FLAGS]
    ) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "tr", "--layers", "0"],
        ["--epochs", "0"],
        ["--hidden", "0"],
    ],
)
def test_bad_train_config_exit_code(data_dir, tmp_path, capsys, flags):
    capsys.readouterr()
    assert main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "x"), *TRAIN_FLAGS, *flags]
    ) == 2
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [("hidden", "abc"), ("lr", "fast"), ("seed", "1.5")])
@pytest.mark.parametrize("via_config", [False, True])
def test_bad_number_names_its_setting(data_dir, tmp_path, capsys, key, value, via_config):
    if via_config:
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"{key}={value}\n")
        flags = ["--config", str(cfg)]
    else:
        flags = [f"--{key.replace('_', '-')}", value]
    capsys.readouterr()
    assert main(
        ["train", "--data", str(data_dir), "--out", str(tmp_path / "x"), *flags]
    ) == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1
    assert f"{key} must be" in lines[0] and repr(value) in lines[0]
    assert (f"{tmp_path / 'cfg.kv'}: " in lines[0]) == via_config
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [
    ("seeds", "0"), ("seeds", "-2"), ("epochs", "0"), ("batch", "0"), ("min_freq", "0"),
    ("lr", "-1"), ("lr", "0"), ("lr", "nan"), ("lr", "inf"),
])
def test_train_checks_settings_before_reading_data(tmp_path, capsys, key, value):
    capsys.readouterr()
    assert main(
        ["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x"),
         f"--{key.replace('_', '-')}", value]
    ) == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1
    assert f"{key} must be" in lines[0]
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_exit_code(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.kv"
    cfg.write_text("hiden=4\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "x"), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "hiden" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_malformed_jsonl_exit_code(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("validation.jsonl", "test.jsonl"):
        (bad / name).write_bytes((data_dir / name).read_bytes())
    lines = (data_dir / "train.jsonl").read_text().splitlines()
    lines[4] = '{"id": "x", "label": 7, "sentences": [["dnr"]]}'
    (bad / "train.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "x"), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "train.jsonl:5:" in err and "Traceback" not in err


@pytest.mark.parametrize("model", ["att", "tr"])
def test_train_at_default_caps(data_dir, tmp_path, model):
    """The default --max-words 50 --max-sents 1000 only truncate, so a batch
    stays the size of its own documents."""
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                 "--model", model, "--epochs", "1"]) == 0


def test_heatmap_empty_filter_exports_every_map(data_dir, tmp_path, read_heatmap):
    run = tmp_path / "run"
    assert main(
        ["train", "--data", str(data_dir), "--out", str(run), "--model", "tr",
         "--mapping", "sparsemax", *TRAIN_FLAGS, "--epochs", "1"]
    ) == 0
    hm = tmp_path / "hm"
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(run),
                 "--out", str(hm), "--filter", "", "--limit", "2"]) == 0
    docs = read_jsonl(data_dir / "test.jsonl")[:2]
    expected = set()
    for doc in docs:
        n = len([s for s in doc.sentences[:8] if s])
        expected |= {f"{doc.id}_s{t}.csv" for t in range(n)} | {f"{doc.id}_sentences.csv"}
    assert {p.name for p in hm.glob("*.csv")} == expected
    _, rows, cols = read_heatmap(hm / f"{docs[0].id}_sentences.csv")
    assert rows == cols == [f"s{t}" for t in range(len(rows))]


@pytest.fixture(scope="module")
def att_run(data_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("att_run")
    assert main(["train", "--data", str(data_dir), "--out", str(run), "--model", "att",
                 "--mapping", "sparsemax", *TRAIN_FLAGS, "--epochs", "1"]) == 0
    return run


@pytest.mark.parametrize("bins, places", [(10, 2), (100, 2), (200, 3), (1000, 3)])
def test_reliability_bin_edges_are_distinct_at_any_bin_count(
    data_dir, att_run, tmp_path, bins, places
):
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(data_dir), "--model-dir", str(att_run),
                 "--out", str(out), "--bins", str(bins)]) == 0
    rows = [line.split(",") for line in (out / "reliability.csv").read_text().splitlines()[1:]]
    assert len(rows) == bins
    edges = [rows[0][0]] + [high for _, high, *_ in rows]
    assert all(len(e.partition(".")[2]) == places for e in edges)
    assert [low for low, *_ in rows] == edges[:-1]
    values = [float(e) for e in edges]
    assert values == sorted(set(values)) and values[0] == 0.0 and values[-1] == 1.0


def test_heatmap_skips_documents_whose_directives_are_truncated(att_run, tmp_path, capsys):
    """With --max-sents 8 --max-words 12, a directive past either cap is not
    read by the model: its document is neither exported nor counted."""
    filler = [["w1", "w2", "w3"]] * 9
    docs = [
        PatientDocument("latesent", filler + [["w4", "dnr"]], 1),
        PatientDocument("early", [["dnr", "w1"]] + filler, 1),
        PatientDocument("lateword", [["w1"] * 12 + ["cmo"]], 1),
        PatientDocument("other", [["w2", "dni"]], 0),
    ]
    write_jsonl(tmp_path / "test.jsonl", docs)
    hm = tmp_path / "hm"
    capsys.readouterr()
    assert main(["heatmap", "--data", str(tmp_path / "test.jsonl"), "--model-dir", str(att_run),
                 "--out", str(hm), "--limit", "3"]) == 0
    exported = {p.name.rsplit("_", 1)[0] for p in hm.glob("*.csv")}
    assert exported == {"early", "other"}
    assert f"exported heatmaps for {len(exported)} documents" in capsys.readouterr().out


def test_heatmap_skips_an_empty_document_under_any_filter(att_run, tmp_path, capsys, caplog):
    caplog.set_level(logging.WARNING, logger="salab")
    write_jsonl(tmp_path / "test.jsonl", [PatientDocument("empty", [[]], 1),
                                          PatientDocument("full", [["w1", "dnr"]], 1)])
    for name, filt in (("all", ""), ("dir", "dnr")):
        caplog.clear()
        capsys.readouterr()
        assert main(["heatmap", "--data", str(tmp_path / "test.jsonl"), "--model-dir",
                     str(att_run), "--out", str(tmp_path / name), "--filter", filt]) == 0
        assert {p.name.rsplit("_", 1)[0] for p in (tmp_path / name).glob("*.csv")} == {"full"}
        assert (tmp_path / name / "manifest.kv").exists()
        assert "exported heatmaps for 1 documents" in capsys.readouterr().out
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skipped == (["document empty empty after truncation; skipped"] if not filt else [])


def test_heatmap_limit_across_chunks_writes_the_per_document_maps(data_dir, att_run, tmp_path, capsys,
                                                                  read_heatmap):
    """18 documents span two chunks of maps: the files are those of 18
    per-document calls, and each holds that call's map."""
    hm = tmp_path / "hm"
    capsys.readouterr()
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
                 "--out", str(hm), "--filter", "", "--limit", "18"]) == 0
    assert "exported heatmaps for 18 documents" in capsys.readouterr().out
    model, vocab, _ = load_model_dir(att_run)
    expected = {f"{doc.id}_s{rec.sentence_index}.csv": rec
                for doc in read_jsonl(data_dir / "test.jsonl")[:18]
                for rec in extract_attention_maps(model, doc, vocab)}
    assert {p.name for p in hm.glob("*.csv")} == expected.keys()
    for name, rec in expected.items():
        weights, rows, cols = read_heatmap(hm / name)
        assert rows == cols == rec.labels
        np.testing.assert_allclose(weights, rec.weights[0], rtol=0, atol=1e-6)


@pytest.mark.parametrize("limit, filt", [(1, "dnr,dni,cmo"), (3, "")], ids=["directives", "every"])
def test_heatmap_limit_maps_only_the_documents_it_writes(data_dir, att_run, tmp_path, monkeypatch,
                                                         limit, filt):
    word_level = AttentionClassifier.word_level
    mapped = []

    def counted(self, batch, **kw):
        mapped.extend(batch.doc_ids)
        return word_level(self, batch, **kw)

    monkeypatch.setattr(AttentionClassifier, "word_level", counted)
    hm = tmp_path / "hm"
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
                 "--out", str(hm), "--limit", str(limit), "--filter", filt]) == 0
    written = {p.name.rsplit("_", 1)[0] for p in hm.glob("*.csv")}
    assert len(mapped) == len(written) == limit and set(mapped) == written


def test_heatmap_warns_once_per_unknown_filter_token(data_dir, att_run, tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="salab")
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
                 "--out", str(tmp_path / "hm"), "--filter", "dnr,zzz", "--limit", "3"]) == 0
    assert len(list((tmp_path / "hm").glob("*.csv"))) >= 3
    warned = [r.getMessage() for r in caplog.records if "not in vocabulary" in r.getMessage()]
    assert warned == ["filter token 'zzz' not in vocabulary"]


def test_unwritable_out_exit_code(data_dir, att_run, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["gen-data", "--out", str(blocker / "sub"), "--n-docs", "20"],
                 ["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
                  "--out", str(blocker)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert str(blocker) in err and "Traceback" not in err


@pytest.mark.parametrize("command, out, flags", [
    ("train", "file", []), ("train", "file/x", []), ("train", "dir", ["--seeds", "2", "--seed", "4"]),
    ("eval", "file", []), ("eval", "file/x", []),
], ids=["train-is-a-file", "train-under-a-file", "train-seed-dir-is-a-file",
        "eval-is-a-file", "eval-under-a-file"])
def test_train_and_eval_refuse_an_out_at_a_file_before_reading_data(tmp_path, capsys, command, out, flags):
    """An --out that is, or sits under, an existing non-directory (for
    several seeds, a seed's directory) exits 2 with one error line naming
    it, before any data is read (here the data and the model directory are
    missing), and creates nothing."""
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "seed5").write_text("")
    before = sorted(tmp_path.rglob("*"))
    missing = str(tmp_path / "missing")
    argv = ["train", "--data", missing] if command == "train" else [
        "eval", "--data", missing, "--model-dir", missing]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / out), *flags]) == 2
    lines = error_lines(capsys.readouterr().err)
    blocker = tmp_path / ("dir/seed5" if flags else "file")
    assert len(lines) == 1 and str(blocker) in lines[0] and "missing file" not in lines[0]
    assert sorted(tmp_path.rglob("*")) == before


def test_heatmap_rerun_rewrites_its_maps_in_place(data_dir, att_run, tmp_path):
    hm = tmp_path / "hm"
    argv = ["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
            "--out", str(hm), "--limit", "3"]
    assert main(argv) == 0
    first = {p: (p.read_bytes(), p.stat().st_ino) for p in hm.glob("*.csv")}
    stale = hm / "stale.csv"
    stale.write_bytes(b"from an earlier --filter")
    assert main(argv) == 0
    assert {p: (p.read_bytes(), p.stat().st_ino) for p in first} == first
    assert sorted(hm.glob("*.csv")) == sorted([*first, stale])
    assert stale.read_bytes() == b"from an earlier --filter"


def test_heatmap_map_path_that_is_a_directory_exits_2(data_dir, att_run, tmp_path, capsys):
    """(An --out that is a regular file: test_unwritable_out_exit_code.)"""
    hm = tmp_path / "hm"
    argv = ["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
            "--out", str(hm), "--limit", "2"]
    assert main(argv) == 0
    blocked = sorted(hm.glob("*.csv"))[-1]
    blocked.unlink()
    blocked.mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(blocked) in lines[0]


@pytest.mark.parametrize("doc_id", ["../escaped", "a/b"])
def test_heatmap_rejects_a_document_id_that_holds_a_path_separator(att_run, tmp_path, capsys, doc_id):
    """The id names its files, so one holding a separator exits 2 before they are written."""
    write_jsonl(tmp_path / "test.jsonl", [PatientDocument("ok", [["w1", "dnr"]], 1),
                                          PatientDocument(doc_id, [["dnr", "w2"]], 1)])
    root = tmp_path / "root"
    hm = root / "hm"
    capsys.readouterr()
    assert main(["heatmap", "--data", str(tmp_path / "test.jsonl"), "--model-dir", str(att_run),
                 "--out", str(hm), "--limit", "2"]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and f"document id {doc_id!r} holds a path separator" in lines[0]
    assert {p.relative_to(root).as_posix() for p in root.rglob("*")} == {"hm", "hm/ok_s0.csv"}


def test_heatmap_refuses_a_repeated_document_id(att_run, tmp_path, capsys, read_heatmap):
    """Two documents with one id would write the same files: the second
    exits 2 before its maps are written, and the first's stay."""
    write_jsonl(tmp_path / "test.jsonl", [PatientDocument("dup", [["w1", "dnr"]], 1),
                                          PatientDocument("dup", [["dnr", "w2", "w3"]], 1)])
    hm = tmp_path / "hm"
    capsys.readouterr()
    assert main(["heatmap", "--data", str(tmp_path / "test.jsonl"), "--model-dir", str(att_run),
                 "--out", str(hm)]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "document id 'dup' repeats" in lines[0]
    assert sorted(p.name for p in hm.iterdir()) == ["dup_s0.csv"]
    assert read_heatmap(hm / "dup_s0.csv")[1] == ["w1", "dnr"]


def test_a_heatmap_rerun_from_its_manifest_writes_the_same_maps(data_dir, att_run, tmp_path):
    """Flag values are stripped as --config values are, so the manifest of a
    run whose --filter has a space in it reproduces that run."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(att_run),
                 "--out", str(first), "--filter", " dnr,dni"]) == 0
    assert read_kv(first / "manifest.kv")["filter"] == "dnr,dni"
    assert main(["heatmap", "--config", str(first / "manifest.kv"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.glob("*.csv"))
    assert names and names == sorted(p.name for p in second.glob("*.csv"))
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)


BREAKS = {"lf": "\n", "cr": "\r", "crlf": "\r\n", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c",
          "gs": "\x1d", "rs": "\x1e", "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


@pytest.mark.parametrize("brk, via_config", [
    *(pytest.param(brk, False, id=f"flag-{name}") for name, brk in BREAKS.items()),
    # a --config line already ends at \n or \r
    *(pytest.param(brk, True, id=f"config-{name}") for name, brk in BREAKS.items()
      if name not in ("lf", "cr", "crlf")),
])
def test_a_value_holding_a_line_break_exits_2_before_reading_data(tmp_path, capsys, brk, via_config):
    """write_kv could not write such a value as one line, so a flag or
    --config value that holds one inside it is refused, naming its setting,
    before any data is read (here the data and the model are missing) or
    --out is made."""
    missing = str(tmp_path / "missing")
    argv = ["heatmap", "--data", missing, "--model-dir", missing, "--out", str(tmp_path / "hm")]
    value = f" dnr{brk}dni "
    if via_config:
        (tmp_path / "cfg.kv").write_text(f"filter={value}\n", encoding="utf-8", newline="")
        argv += ["--config", str(tmp_path / "cfg.kv")]
    else:
        argv += ["--filter", value]
    capsys.readouterr()
    assert main(argv) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "filter holds a line break" in lines[0]
    assert not (tmp_path / "hm").exists()


@pytest.mark.parametrize(
    "raw", [b'{"id": "x", "label": 0, "sentences": [["\xff"]]}', b"[" * 100_000],
    ids=["not-utf8", "deep-nesting"],
)
def test_undecodable_jsonl_line_exit_code(att_run, tmp_path, capsys, raw):
    path = tmp_path / "test.jsonl"
    path.write_bytes(b'{"id": "d0", "label": 1, "sentences": [["w1"]]}\n' + raw + b"\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(path), "--model-dir", str(att_run),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert f"{path}:2:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval", "heatmap"])
def test_a_batch_out_of_memory_exits_5_naming_its_shape(data_dir, att_run, tmp_path, capsys, monkeypatch,
                                                        command):
    """A MemoryError while a batch runs is one `error: out of memory` line
    naming the batch's [B, T, W], exit 5; a failed `train` writes no --out."""
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.00 GiB")  # raised, never allocated

    monkeypatch.setattr(AttentionClassifier, "word_level", exhausted)
    out = tmp_path / "out"
    argv = {"train": ["train", "--data", str(data_dir), *TRAIN_FLAGS],
            "eval": ["eval", "--data", str(data_dir), "--model-dir", str(att_run)],
            "heatmap": ["heatmap", "--data", str(data_dir), "--model-dir", str(att_run)]}[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 5
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert re.fullmatch(r"error: out of memory: a batch of \[B, T, W\] = \[\d+, \d+, \d+\] "
                        r"ran out of memory \(Unable to allocate 9\.00 GiB\)", lines[0])
    if command == "train":
        assert not out.exists()


@pytest.mark.parametrize("field", ["token", "id"])
def test_a_lone_surrogate_in_train_jsonl_exits_2_before_training(data_dir, tmp_path, capsys, field):
    """UTF-8 cannot encode a lone surrogate, so `vocab.txt` could not hold it:
    the line is rejected when read, before any epoch runs."""
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("validation.jsonl", "test.jsonl"):
        (bad / name).write_bytes((data_dir / name).read_bytes())
    lines = (data_dir / "train.jsonl").read_text(encoding="utf-8").splitlines()
    lines.insert(2, '{"id": "x", "label": 1, "sentences": [["a\\ud800b"]]}' if field == "token"
                 else '{"id": "x\\ud800", "label": 1, "sentences": [["dnr"]]}')
    (bad / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "run"), *TRAIN_FLAGS]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "train.jsonl:3: " in lines[0]
    assert f"{field} " in lines[0] and "lone surrogate" in lines[0]
    assert not (tmp_path / "run").exists()


def test_salab_threads_pins_blas_before_numpy_loads():
    """`import salab` sets the BLAS thread caps before numpy starts its pools."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SALAB_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(salab.__file__).resolve().parents[1])
    probe = textwrap.dedent("""
        import ctypes, os
        import salab
        threads = None
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = fn()
                    break
        print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
    """)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "1"
    assert out[1] in ("1", "None")  # None: no OpenBLAS loaded, so nothing to read


def test_one_blas_thread_unless_asked_and_the_manifests_record_the_count(data_dir, tmp_path):
    """With no thread variable set, `salab train` writes the same `best.ckpt` as under
    SALAB_THREADS=1; train, eval and heatmap record `blas_threads` in their manifests,
    2 under SALAB_THREADS=2, "unknown" where numpy loaded before salab, and a manifest
    fed back through --config runs again."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("SALAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(salab.__file__).resolve().parents[1])

    def run(threads, *argv):
        env = base if threads is None else dict(base, SALAB_THREADS=threads)
        subprocess.run([sys.executable, "-m", "salab", *argv], env=env, cwd=tmp_path, check=True,
                       capture_output=True, timeout=120)

    runs = {}
    for threads in (None, "1", "2"):
        out = runs[threads] = tmp_path / f"run{threads}"
        run(threads, "train", "--data", str(data_dir), "--out", str(out), "--model", "tr",
            "--mapping", "sparsemax", "--seed", "3", *TRAIN_FLAGS)
    assert (runs[None] / "best.ckpt").read_bytes() == (runs["1"] / "best.ckpt").read_bytes()
    run("2", "eval", "--data", str(data_dir), "--model-dir", str(runs["2"]))
    run("2", "heatmap", "--data", str(data_dir), "--model-dir", str(runs["2"]),
        "--out", str(tmp_path / "maps"), "--limit", "1")
    for manifest, threads in ((runs[None] / "manifest.kv", "1"), (runs["1"] / "manifest.kv", "1"),
                              (runs["2"] / "manifest.kv", "2"), (runs["2"] / "eval" / "manifest.kv", "2"),
                              (tmp_path / "maps" / "manifest.kv", "2")):
        assert read_kv(manifest)["blas_threads"] == threads
    late = subprocess.run([sys.executable, "-c", "import numpy, salab; print(salab.BLAS_THREADS)"],
                          env=base, capture_output=True, text=True, check=True, timeout=120)
    assert late.stdout.split() == ["unknown"]  # numpy loaded first: its count was not salab's to set
    again = tmp_path / "again"
    assert main(["train", "--config", str(runs["1"] / "manifest.kv"), "--out", str(again)]) == 0
    ignored = {"out": "", "blas_threads": ""}
    assert read_kv(again / "manifest.kv") | ignored == read_kv(runs["1"] / "manifest.kv") | ignored


def test_the_test_process_runs_one_blas_thread_as_the_cli_does(started_blas_variables):
    """`tests/conftest.py` imports salab before numpy, so a test process started
    with no thread variable gets the CLI's one-thread default."""
    if started_blas_variables:
        pytest.skip(f"the test process started with {', '.join(sorted(started_blas_variables))} set")
    assert salab.BLAS_THREADS == "1"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_scoring_batches_reuse_freed_heap_memory():
    """`import salab` keeps freed memory in glibc's heap, so a scoring pass
    after a warm-up one faults in almost no pages: each batch of 16 reuses
    the memory the one before it freed.  Without the fixed thresholds a pass
    at these shapes added about 6,000 minor faults.  A process of its own
    gives the heap a known history."""
    probe = textwrap.dedent("""
        import resource
        import salab
        from salab import data, evaluation, models
        from salab.simplex import MappingKind
        docs = data.generate_synthetic_corpus(
            data.SyntheticCorpusConfig(n_documents=200, vocab_size=200, seed=3))
        vocab = data.build_vocab((s for d in docs for s in d.sentences), min_freq=5)
        config = models.HierModelConfig(
            vocab_size=len(vocab), embed_dim=50, hidden=64, mapping=MappingKind.parse("sparsemax"),
            max_words=20, max_sents=40)
        model = models.HierarchicalTransformerClassifier(config, seed=3)
        evaluation.score_documents(model, docs, vocab, 16)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            evaluation.score_documents(model, docs, vocab, 16)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = dict(os.environ, SALAB_THREADS="1",
               PYTHONPATH=str(Path(salab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert int(out) < 300


def test_gradcheck_command_passes():
    assert main(["gradcheck", "--trials", "40"]) == 0


def test_multi_seed_summary(data_dir, tmp_path, monkeypatch):
    """`--seeds 2` reads the data once, and `seed1/` holds what `--seed 1` alone writes."""
    reads = []
    read_jsonl = datamod.read_jsonl
    monkeypatch.setattr(datamod, "read_jsonl", lambda path: reads.append(path) or read_jsonl(path))
    run = tmp_path / "seeds"
    flags = ["train", "--data", str(data_dir), "--model", "att", "--mapping", "softmax",
             "--epochs", "1", "--lr", "1e-3", "--hidden", "8", "--embed-dim", "8",
             "--max-words", "12", "--max-sents", "8", "--min-freq", "1"]
    assert main([*flags, "--out", str(run), "--seeds", "2"]) == 0
    assert sorted(Path(p).name for p in reads) == ["test.jsonl", "train.jsonl", "validation.jsonl"]
    summary = read_kv(run / "summary.kv")
    assert summary["runs"] == "2"
    assert "auc_roc_mean" in summary and "auc_roc_sd" in summary
    assert (run / "seed0" / "best.ckpt").exists()
    assert main([*flags, "--out", str(tmp_path / "alone"), "--seed", "1"]) == 0
    for name in ("best.ckpt", "vocab.txt", "metrics.kv"):
        assert (run / "seed1" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [ln for ln in err.splitlines() if ln.startswith("error:")]


@pytest.mark.parametrize("family, mapping", [
    pytest.param("att", "entmax:1.3", id="att"),
    pytest.param("tr", "entmax:1.3", id="tr"),
    *(pytest.param(f, m, id=f"{f}-{m}") for m in ("softmax", "sparsemax") for f in ("att", "tr")),
])
def test_training_that_poisons_entmax_scores_exits_3(data_dir, tmp_path, family, mapping):
    """A step size that turns the scores NaN stops training with a poisoned
    gradient under every mapping, 1 < alpha < 2 entmax included: exit 3, and
    the one error line is all of stderr, with no numpy warning before it.  It
    runs in a process of its own, where numpy's warnings are not errors."""
    env = dict(os.environ, PYTHONPATH=str(Path(salab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "salab", "train", "--data", str(data_dir),
         "--out", str(tmp_path / "run"), "--model", family, "--mapping", mapping,
         *TRAIN_FLAGS, "--lr", "1e30"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3
    [line] = error_lines(done.stderr)
    assert done.stderr.splitlines() == [line] and line.startswith("error: poisoned gradient")


def test_model_configs_own_the_train_defaults():
    expected = {"hidden": "hidden", "embed_dim": "embed_dim", "max_words": "max_words",
                "max_sents": "max_sents", "dropout": "dropout_rate"}
    for config in (LocalModelConfig(5), HierModelConfig(5)):
        assert {k: getattr(config, f) for k, f in expected.items()} == {
            k: TRAIN_DEFAULTS[k] for k in expected}
        assert str(config.mapping) == TRAIN_DEFAULTS["mapping"]
    tr = HierModelConfig(5)
    assert tr.word_heads == tr.sent_heads == TRAIN_DEFAULTS["heads"]
    assert tr.word_layers == tr.sent_layers == TRAIN_DEFAULTS["layers"]


@pytest.mark.parametrize("flags, name", [
    (["--hidden", "0"], "hidden"),
    (["--model", "xyz"], "model"),
    (["--dropout", "1.5"], "dropout"),
    (["--mapping", "sharpmax"], "mapping"),
    (["--model", "tr", "--layers", "0"], "layers"),
    (["--model", "tr", "--heads", "3", "--hidden", "8"], "heads"),
    (["--model", "att", "--heads", "2"], "heads"),
    (["--model", "att", "--layers", "2"], "layers"),
])
def test_train_checks_model_settings_before_reading_data(tmp_path, capsys, flags, name):
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x"),
                 *flags]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and name in lines[0] and "missing file" not in lines[0]
    assert not (tmp_path / "x").exists()


def test_att_refuses_a_tr_setting_from_a_config_file(data_dir, tmp_path, capsys):
    (tmp_path / "cfg.kv").write_text("heads=2\n", encoding="utf-8")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "cfg.kv"), "--data", str(data_dir),
                 "--out", str(out), "--model", "att", *TRAIN_FLAGS]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "heads=2" in lines[0]
    assert not out.exists()


BAD_COMMAND_LINES = {
    **{f"{c}-unknown-flag": [c, "--no-such-flag", "1"]
       for c in ("gen-data", "train", "eval", "heatmap", "gradcheck")},
    "unknown-command": ["frob"],
    "missing-command": [],
}


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES)
def test_a_bad_command_line_returns_2_with_one_error_line(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = error_lines(captured.err)
    assert captured.err.splitlines() == lines and len(lines) == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["gen-data", "train", "gradcheck"])
def test_negative_seed_names_seed(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "x")]
    extra = {"gen-data": out, "train": ["--data", str(tmp_path / "missing"), *out],
             "gradcheck": ["--trials", "1"]}[command]
    capsys.readouterr()
    assert main([command, "--seed", "-1", *extra]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "seed must be >= 0, got -1" in lines[0]
    assert not (tmp_path / "x").exists()


BAD_SETTINGS = [  # command, setting, value, the error line it gives
    ("gradcheck", "trials", "0", "trials must be >= 1, got 0"),
    ("gradcheck", "trials", "-3", "trials must be >= 1, got -3"),
    ("gradcheck", "tol", "nan", "tol must be finite and > 0, got nan"),
    ("gradcheck", "tol", "inf", "tol must be finite and > 0, got inf"),
    ("gradcheck", "tol", "0", "tol must be finite and > 0, got 0"),
    ("heatmap", "limit", "0", "limit must be >= 1, got 0"),
    ("heatmap", "limit", "-1", "limit must be >= 1, got -1"),
    ("eval", "bins", "1", "bins must be >= 2, got 1"),
    ("train", "mapping", "entmax:abc", "mapping 'entmax:abc': alpha must be a number"),
    ("train", "mapping", "entmax:", "mapping 'entmax:': alpha must be a number"),
]


@pytest.mark.parametrize("command, key, value, message", BAD_SETTINGS,
                         ids=[f"{c}-{k}={v}" for c, k, v, _ in BAD_SETTINGS])
def test_bad_setting_exits_2_before_any_work(tmp_path, capsys, command, key, value, message):
    """The setting is named before any check runs or any model directory or data is read."""
    missing, out = str(tmp_path / "missing"), ["--out", str(tmp_path / "x")]
    extra = {"gradcheck": [], "train": ["--data", missing, *out],
             "eval": ["--model-dir", missing, *out],
             "heatmap": ["--model-dir", missing, *out]}[command]
    capsys.readouterr()
    assert main([command, f"--{key}", value, *extra]) == 2
    captured = capsys.readouterr()
    lines = error_lines(captured.err)
    assert len(lines) == 1 and message in lines[0] and captured.out == ""
    assert not (tmp_path / "x").exists()


def test_model_settings_round_trip_through_the_model_dir(data_dir, tmp_path):
    settings_by_family = {
        "att": {"mapping": "entmax:1.3", "hidden": 12, "embed_dim": 6, "max_words": 9,
                "max_sents": 7, "dropout": 0.1},
        "tr": {"mapping": "sparsemax", "hidden": 12, "embed_dim": 6, "max_words": 9,
               "max_sents": 7, "dropout": 0.1, "heads": 3, "layers": 2},
    }
    for family, chosen in settings_by_family.items():
        assert all(TRAIN_DEFAULTS[k] != v for k, v in chosen.items())
        run = tmp_path / family
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in chosen.items()]
        default_heads = ["--heads", "1"] if family == "att" else []  # att takes tr's at the default
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--model", family,
                     "--seed", "3", "--epochs", "1", "--min-freq", "1", *flags, *default_heads]) == 0
        assert read_kv(run / "config.kv").keys() == {"model", "vocab_size", "seed", *chosen}
        model, _, cfg = load_model_dir(run)
        assert {k: cfg[k] for k in chosen} == chosen
        assert (cfg["model"], cfg["seed"], str(model.config.mapping)) == (
            family, 3, chosen["mapping"])
        c = model.config
        assert (c.hidden, c.embed_dim, c.max_words, c.max_sents, c.dropout_rate) == (
            12, 6, 9, 7, 0.1)
        if family == "tr":
            assert (c.word_heads, c.sent_heads, c.word_layers, c.sent_layers) == (3, 3, 2, 2)


@pytest.mark.parametrize("family, line", [
    ("att", "shared_qkv=true"), ("tr", "shared_qkv=False"),
    pytest.param("att", "heads=4\nlayers=3", id="att-heads-layers"),
])
def test_a_model_dir_holding_a_shared_qkv_line_evaluates_as_without(
    data_dir, tmp_path, family, line
):
    """config.kv files of earlier runs may hold shared_qkv, which only ever set
    the initial weights, and att ones heads and layers, which att never read;
    the loader reads only the settings of the directory's family."""
    run, old = tmp_path / "run", tmp_path / "run-old"
    assert main(["train", "--data", str(data_dir), "--out", str(run), "--model", family,
                 *TRAIN_FLAGS, "--epochs", "1"]) == 0
    shutil.copytree(run, old)
    with open(old / "config.kv", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    for d in (run, old):
        assert main(["eval", "--data", str(data_dir), "--model-dir", str(d)]) == 0
        assert main(["heatmap", "--data", str(data_dir), "--model-dir", str(d),
                     "--out", str(d / "hm"), "--filter", "", "--limit", "3"]) == 0
    files = [Path("eval", n) for n in ("metrics.kv", "metrics.json", "reliability.csv")]
    files += [p.relative_to(run) for p in sorted((run / "hm").glob("*.csv"))]
    assert len(files) > 3
    for f in files:
        assert (run / f).read_bytes() == (old / f).read_bytes(), f


@pytest.mark.parametrize("family, key, value", [
    ("att", "hidden", 10**15),
    ("att", "embed_dim", 10**15),
    ("tr", "max_words", 10**15),
    ("tr", "layers", 2),
])
def test_config_kv_that_does_not_fit_best_ckpt_exits_2(tmp_path, capsys, family, key, value):
    """10**15 exceeds any address space, so a model built before the check
    fails at once instead of filling memory."""
    run = _model_dir(tmp_path / "run", family, **{key: value})
    assert_model_dir_exits_2(run, tmp_path, capsys, f"{key}={value} does not fit best.ckpt")


def _model_dir(path, family, **changes):
    """The model directory of a small fresh model, whose config.kv then takes `changes`."""
    vocab = build_vocab([["a", "b"]], min_freq=1)
    cfg = dict(TRAIN_DEFAULTS, model=family, hidden=8, embed_dim=4, max_words=6, max_sents=4)
    path.mkdir()
    build_model(cfg, len(vocab), seed=0).save(path / "best.ckpt")
    save_model_dir(path, vocab, dict(cfg, **changes), seed=0)
    return path


def assert_model_dir_exits_2(run, tmp_path, capsys, message=""):
    """eval and heatmap each exit 2 with one error line holding `message`, and create no --out."""
    data = tmp_path / "test.jsonl"
    write_jsonl(data, [PatientDocument("d0", [["a", "b"]], 1)])
    for command in ("eval", "heatmap"):
        out = tmp_path / f"{command}-out"
        capsys.readouterr()
        assert main([command, "--data", str(data), "--model-dir", str(run), "--out", str(out)]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and message in lines[0]
        assert not out.exists()


@pytest.mark.parametrize("family, key, value, message", [
    ("tr", "layers", 0, "word_layers must be >= 1, got 0"),
    ("tr", "max_sents", -1, "max_sents must be >= 1, got -1"),
    ("att", "vocab", ["a", "b", "c"], "vocab.txt's 5 tokens do not fit best.ckpt: emb has 4 rows"),
], ids=["layers", "max_sents", "vocab"])
def test_model_dir_names_the_setting_or_file_at_fault(tmp_path, capsys, family, key, value, message):
    """A setting out of its range is named before any size is compared, and a
    vocab.txt of another size than best.ckpt's embedding is named itself."""
    if key == "vocab":
        run = _model_dir(tmp_path / "run", family)
        build_vocab([value], min_freq=1).save(run / "vocab.txt")
    else:
        run = _model_dir(tmp_path / "run", family, **{key: value})
    assert_model_dir_exits_2(run, tmp_path, capsys, message)


def _set_config(**changes):
    def apply(run):
        write_kv(run / "config.kv", dict(read_kv(run / "config.kv"), **changes))
    return apply


BROKEN_MODEL_DIRS = {  # the file each case breaks in a working tr model directory, and how
    "unknown-mapping": ("config.kv", _set_config(mapping="sharpmax")),
    "unknown-model": ("config.kv", _set_config(model="xyz")),
    "non-integer-hidden": ("config.kv", _set_config(hidden="1.5")),
    "negative-seed": ("config.kv", _set_config(seed="-4")),
    "heads-not-dividing-hidden": ("config.kv", _set_config(heads="3")),
    "nan-dropout": ("config.kv", _set_config(dropout="nan")),
    "missing-vocab": ("vocab.txt", lambda run: (run / "vocab.txt").unlink()),
    "non-utf8-vocab": ("vocab.txt", lambda run: (run / "vocab.txt").write_bytes(b"a\n\xff\n")),
    "repeated-vocab-token": ("vocab.txt:2", lambda run: (run / "vocab.txt").write_bytes(b"a\na\n")),
    "reserved-vocab-token": ("vocab.txt:1", lambda run: (run / "vocab.txt").write_bytes(b"<unk>\nb\n")),
    "truncated-ckpt": ("best.ckpt", lambda run: (run / "best.ckpt").write_bytes(
        (run / "best.ckpt").read_bytes()[:40])),
    "repeated-ckpt-record": ("best.ckpt", lambda run: (run / "best.ckpt").write_bytes(
        (run / "best.ckpt").read_bytes() + (run / "best.ckpt").read_bytes()[len(MAGIC):])),
    "foreign-ckpt-record": ("best.ckpt", lambda run: save_checkpoint(
        run / "best.ckpt", {**load_checkpoint(run / "best.ckpt"), "foo": np.zeros(2)})),
    "missing-ckpt-record": ("best.ckpt", lambda run: save_checkpoint(run / "best.ckpt", {
        k: v for k, v in load_checkpoint(run / "best.ckpt").items() if k != "pred_b"})),
}


@pytest.mark.parametrize("fault", BROKEN_MODEL_DIRS)
def test_eval_and_heatmap_reject_a_model_dir_with_one_broken_file(tmp_path, capsys, fault):
    run = _model_dir(tmp_path / "run", "tr")
    assert main(["eval", "--data", str(tmp_path / "missing"), "--model-dir", str(run)]) == 2
    assert str(tmp_path / "missing") in capsys.readouterr().err  # the unbroken directory loads
    name, breaks = BROKEN_MODEL_DIRS[fault]
    breaks(run)
    assert_model_dir_exits_2(run, tmp_path, capsys, str(run / name))


@pytest.mark.parametrize("line, reason", [(b"bins=\xff", "not UTF-8"), (b"bins", "not key=value")])
def test_read_kv_names_the_path_and_the_line(tmp_path, capsys, line, reason):
    cfg = tmp_path / "cfg.kv"
    cfg.write_bytes(b"# comment\n" + line + b"\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--model-dir", str(tmp_path / "none")]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and f"{cfg}:2: " in lines[0] and reason in lines[0]


@pytest.mark.parametrize("where", ["--config", "config.kv"])
def test_a_repeated_key_exits_2_naming_the_line_and_the_key(data_dir, tmp_path, capsys, where):
    """`epochs=1` then `epochs=30` would train 30 epochs; a repeated key is
    refused in a --config file and in a model directory's config.kv alike."""
    if where == "--config":
        path = tmp_path / "cfg.kv"
        path.write_text("epochs=1\n# a comment\nepochs=30\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--data", str(data_dir), "--out", str(out)]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and f"{path}:3: 'epochs' repeats" in lines[0]
        assert not out.exists()
    else:
        run = _model_dir(tmp_path / "run", "att")
        path = run / "config.kv"
        path.write_text(path.read_text(encoding="utf-8") + " hidden = 8\n", encoding="utf-8")
        n = len(path.read_text(encoding="utf-8").splitlines())
        assert_model_dir_exits_2(run, tmp_path, capsys, f"{path}:{n}: 'hidden' repeats")


def kv_file(defaults):
    """Any bytes, or lines that mostly look like the command's key=value settings."""
    line = st.builds(
        lambda key, sep, value: key + sep + value,
        st.sampled_from([*defaults, "command", "bins ", "hiden"]).map(str.encode)
        | st.binary(max_size=8),
        st.sampled_from([b"=", b" = ", b""]),
        st.sampled_from([b"", b"3", b"-1", b"1e9", b"x", b"\xff", b"\xc3\xa9"]) | st.binary(max_size=8),
    )
    return st.binary(max_size=200) | st.lists(line, max_size=6).map(b"\n".join)


_KV_FILE = kv_file(EVAL_DEFAULTS)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_KV_FILE)
def test_read_kv_of_any_bytes_returns_strings_or_names_its_path(tmp_path, payload):
    path = tmp_path / "f.kv"
    path.write_bytes(payload)
    try:
        kv = read_kv(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}:")
        return
    assert all(isinstance(k, str) and isinstance(v, str) and "=" not in k for k, v in kv.items())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_KV_FILE)
def test_eval_with_any_config_file_exits_2_with_one_error_line(tmp_path, capsys, payload):
    path = tmp_path / "f.kv"
    path.write_bytes(payload)
    capsys.readouterr()
    assert main(["eval", "--config", str(path), "--model-dir", str(tmp_path / "none")]) == 2
    assert len(error_lines(capsys.readouterr().err)) == 1


_FLAG_VALUE = st.sampled_from(["0", "-1", "0.5", "1e400", "nan", " 7 ", "18446744073709551621"]) \
    | st.text(max_size=12)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_KV_FILE, st.sampled_from(sorted(GEN_DEFAULTS)), _FLAG_VALUE)
def test_gen_data_with_any_config_file_and_flag_value_exits_2_creating_nothing(
        tmp_path, capsys, payload, key, value):
    """--out names an existing file (or a path under it, when the flag drawn is
    --out), so a valid case stops at the output check before anything is drawn."""
    path, blocker = tmp_path / "f.kv", tmp_path / "blocker"
    path.write_bytes(payload)
    blocker.write_bytes(b"")
    out = f"{blocker}/{value}" if key == "out" else str(blocker)
    flag = [] if key == "out" else [f"--{key.replace('_', '-')}={value}"]
    capsys.readouterr()
    assert main(["gen-data", "--config", str(path), f"--out={out}", *flag]) == 2
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert sorted(tmp_path.rglob("*")) == [blocker, path] and blocker.stat().st_size == 0


@pytest.fixture
def no_gradchecks(monkeypatch):
    """gradcheck's numerical checks, each replaced by a check that passes at once."""
    monkeypatch.setattr(salab.cli, "mapping_max_grad_error", lambda kind, trials, seed: 0.0)
    monkeypatch.setattr(salab.cli, "model_grad_error", lambda model, batch: 0.0)


@pytest.mark.parametrize("command, defaults", [
    ("train", TRAIN_DEFAULTS), ("heatmap", HEATMAP_DEFAULTS), ("gradcheck", GRADCHECK_DEFAULTS),
])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_file_and_flag_value_exits_0_2_or_5_with_at_most_one_error_line(
        tmp_path, capsys, monkeypatch, no_gradchecks, command, defaults, data):
    """`--data` and `--model-dir` name missing paths, so a valid case stops at its first
    read; relative paths resolve in an empty directory, and a refused case creates nothing
    there, under `--out` or anywhere else."""
    payload = data.draw(st.just(b"") | kv_file(defaults), "config")  # empty: the flag decides
    key, value = data.draw(st.sampled_from(sorted(defaults)), "flag"), data.draw(_FLAG_VALUE, "value")
    work = tmp_path / f"w{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    monkeypatch.chdir(work)
    path = work / "f.kv"
    path.write_bytes(payload)
    paths = [f"--{k.replace('_', '-')}={work / 'missing'}" for k in ("data", "model_dir") if k in defaults]
    capsys.readouterr()
    code = main([command, "--config", str(path), *paths, f"--{key.replace('_', '-')}={value}"])
    assert code in (0, 2, 5)
    assert len(error_lines(capsys.readouterr().err)) == (code != 0)
    if code == 2:
        assert list(work.rglob("*")) == [path]


EDGE_VALUES = [  # numbers at and past every limit, paths, text no file system or encoder takes
    "0", "-1", "1", "0.5", "-0.0", "1e400", "-1e400", "inf", "nan", "1e-400",
    str(2**31), str(2**32), str(2**63), str(-2**63 - 1), str(2**64 + 5), "0x10", "1_0", " 7 ",
    "", " ", "/", ".", "..", "a/b", "x" * 300, "\x00", "a\x00b", "\ud800", "\udcff", "\u00e9",
    "#", "=", "softmax", "entmax:1.3", "entmax:nan", "tr",
]
SURROGATES = ("\ud800", "\udcff")  # the second is what a command-line byte 0xff decodes to
COMMANDS = {"gen-data": GEN_DEFAULTS, "train": TRAIN_DEFAULTS, "eval": EVAL_DEFAULTS,
            "heatmap": HEATMAP_DEFAULTS, "gradcheck": GRADCHECK_DEFAULTS}


def test_every_flag_of_every_command_at_every_edge_value_exits_0_or_2_with_at_most_one_error_line(
        tmp_path, monkeypatch, no_gradchecks):
    """Every command x every flag (--config too) x EDGE_VALUES, one flag at a time.
    `--data` and `--model-dir` name paths under a missing directory and gen-data's
    `--out` one under a file, so a valid case stops before any work; every case
    returns 0 or 2 and creates nothing, and a setting holding a lone surrogate, which
    no manifest could record, is refused by name.  One parser serves every call, and the
    streams take any text, as the interpreter's stderr does (backslashreplace)."""
    parser = salab.cli.make_parser()
    monkeypatch.setattr(salab.cli, "make_parser", lambda: parser)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    blocker = work / "blocker"
    blocker.write_bytes(b"")
    escapes = []
    for command, defaults in COMMANDS.items():
        under = {k: work / "missing" for k in ("data", "model_dir") if k in defaults}
        under |= {"out": blocker} if command == "gen-data" else {}
        for key in ("config", *defaults):
            for value in EDGE_VALUES:
                flags = {k: str(v) for k, v in under.items()} | {key: f"{under[key]}/{value}" if key in under
                                                                 else value}
                argv = [command, *(f"--{k.replace('_', '-')}={v}" for k, v in flags.items())]
                err = io.StringIO()
                monkeypatch.setattr(sys, "stderr", err)
                monkeypatch.setattr(sys, "stdout", io.StringIO())
                try:
                    code = main(argv)
                except BaseException as e:  # an escape: any exception out of main
                    code = f"{type(e).__name__}: {e}"
                errors = error_lines(err.getvalue())
                if code not in (0, 2) or len(errors) != (code != 0) or list(work.iterdir()) != [blocker] \
                        or (key != "config" and value in SURROGATES
                            and not (errors and f"{key} is not UTF-8 text" in errors[0])):
                    escapes.append((argv, code, err.getvalue(), sorted(work.iterdir())))
    monkeypatch.undo()
    assert not escapes


@pytest.mark.parametrize("argv, field", [
    (["--n-docs", "5", "--word-max", "100000000000"], "max_words must be < 2**32"),
    (["--word-max", "4294967297"], "max_words must be < 2**32"),
    (["--sent-min", "4294967296", "--sent-max", "4294967296"], "max_sentences must be < 2**32"),
])
def test_a_count_too_large_to_draw_exits_2_naming_it_and_creating_nothing(tmp_path, capsys,
                                                                          argv, field):
    """A word or sentence count of 2**32 or more (numpy draws those 64 bits at a time) is
    refused before any work."""
    capsys.readouterr()
    assert main(["gen-data", *argv, "--out", str(tmp_path / "out")]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and field in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed, seeds", [(0, 1001), (2**64, 2**64 + 5)], ids=["1001", "2**64+5"])
def test_any_seed_count_checks_only_the_seed_directories_out_holds(tmp_path, capsys, seed, seeds):
    """train checks the seeds' directories against what --out holds, not seed by seed: a seed's
    directory at a file is refused, and without one the missing data is what is named."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("seed", "seedx", "seed01", f"seed{seed + seeds}"):  # none is a seed's directory
        (out / name).write_text("")
    blocker = out / f"seed{seed + seeds - 1}"
    blocker.write_text("")
    argv = ["train", "--seed", str(seed), "--seeds", str(seeds), "--out", str(out),
            "--data", str(tmp_path / "missing")]
    for named in (blocker, tmp_path / "missing"):
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and str(named) in lines[0]
        assert sorted(tmp_path.rglob("*")) == before
        blocker.unlink(missing_ok=True)


def test_python_m_salab_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(salab.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "salab", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    assert run("train", "--help").returncode == 0
    done = run("gen-data", "--out", str(tmp_path / "d"), "--n-docs", "0")
    assert done.returncode == 2
    assert len(error_lines(done.stderr)) == 1 and "n_documents" in done.stderr
    assert list(tmp_path.iterdir()) == []
