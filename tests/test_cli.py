"""CLI smoke and contract tests on a desk-scale corpus."""

import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import salab
from salab.cli import (
    EVAL_DEFAULTS,
    TRAIN_DEFAULTS,
    build_model,
    load_model_dir,
    main,
    read_kv,
    save_model_dir,
)
from salab.data import PatientDocument, build_vocab, read_jsonl, write_jsonl
from salab.evaluation import read_heatmap
from salab.models import HierModelConfig, LocalModelConfig

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
        ["--model", "tr", "--shared-qkv", "true"],
        ["--shared-qkv", "yes"],
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


def test_heatmap_empty_filter_exports_every_map(data_dir, tmp_path):
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


def test_gradcheck_command_passes():
    assert main(["gradcheck", "--trials", "40"]) == 0


def test_multi_seed_summary(data_dir, tmp_path):
    run = tmp_path / "seeds"
    assert main(
        ["train", "--data", str(data_dir), "--out", str(run),
         "--model", "att", "--mapping", "softmax", "--seeds", "2",
         "--epochs", "1", "--lr", "1e-3", "--hidden", "8", "--embed-dim", "8",
         "--max-words", "12", "--max-sents", "8", "--min-freq", "1"]
    ) == 0
    summary = read_kv(run / "summary.kv")
    assert summary["runs"] == "2"
    assert "auc_roc_mean" in summary and "auc_roc_sd" in summary
    assert (run / "seed0" / "best.ckpt").exists()
    assert (run / "seed1" / "best.ckpt").exists()


def error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [ln for ln in err.splitlines() if ln.startswith("error:")]


def test_model_configs_own_the_train_defaults():
    expected = {"hidden": "hidden", "embed_dim": "embed_dim", "max_words": "max_words",
                "max_sents": "max_sents", "dropout": "dropout_rate", "shared_qkv": "shared_qkv"}
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
])
def test_train_checks_model_settings_before_reading_data(tmp_path, capsys, flags, name):
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x"),
                 *flags]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and name in lines[0] and "missing file" not in lines[0]
    assert not (tmp_path / "x").exists()


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
                "max_sents": 7, "dropout": 0.1, "heads": 2, "layers": 2, "shared_qkv": True},
        "tr": {"mapping": "sparsemax", "hidden": 12, "embed_dim": 6, "max_words": 9,
               "max_sents": 7, "dropout": 0.1, "heads": 3, "layers": 2, "shared_qkv": False},
    }
    for family, chosen in settings_by_family.items():
        assert all(TRAIN_DEFAULTS[k] != v for k, v in chosen.items() if k != "shared_qkv")
        run = tmp_path / family
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in chosen.items()]
        assert main(["train", "--data", str(data_dir), "--out", str(run), "--model", family,
                     "--seed", "3", "--epochs", "1", "--min-freq", "1", *flags]) == 0
        model, _, cfg = load_model_dir(run)
        assert {k: cfg[k] for k in chosen} == chosen
        assert (cfg["model"], cfg["seed"], str(model.config.mapping)) == (
            family, 3, chosen["mapping"])
        c = model.config
        assert (c.hidden, c.embed_dim, c.max_words, c.max_sents, c.dropout_rate) == (
            12, 6, 9, 7, 0.1)
        if family == "tr":
            assert (c.word_heads, c.sent_heads, c.word_layers, c.sent_layers) == (3, 3, 2, 2)
        else:
            assert c.shared_qkv


@pytest.mark.parametrize("family, key, value", [
    ("att", "hidden", 10**15),
    ("att", "embed_dim", 10**15),
    ("tr", "max_words", 10**15),
    ("tr", "layers", 2),
])
def test_config_kv_that_does_not_fit_best_ckpt_exits_2(tmp_path, capsys, family, key, value):
    """10**15 exceeds any address space, so a model built before the check
    fails at once instead of filling memory."""
    vocab = build_vocab([["a", "b"]], min_freq=1)
    cfg = dict(TRAIN_DEFAULTS, model=family, hidden=8, embed_dim=4, max_words=6, max_sents=4)
    run = tmp_path / "run"
    run.mkdir()
    build_model(cfg, len(vocab), seed=0).save(run / "best.ckpt")
    save_model_dir(run, vocab, dict(cfg, **{key: value}), seed=0)
    for argv in (["eval"], ["heatmap", "--out", str(tmp_path / "hm")]):
        capsys.readouterr()
        assert main([*argv, "--data", str(tmp_path / "missing"), "--model-dir", str(run)]) == 2
        lines = error_lines(capsys.readouterr().err)
        assert len(lines) == 1 and f"{key}={value} does not fit best.ckpt" in lines[0]
    assert not (tmp_path / "hm").exists()


@pytest.mark.parametrize("line, reason", [(b"bins=\xff", "not UTF-8"), (b"bins", "not key=value")])
def test_read_kv_names_the_path_and_the_line(tmp_path, capsys, line, reason):
    cfg = tmp_path / "cfg.kv"
    cfg.write_bytes(b"# comment\n" + line + b"\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--model-dir", str(tmp_path / "none")]) == 2
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and f"{cfg}:2: " in lines[0] and reason in lines[0]


_KV_LINE = st.builds(
    lambda key, sep, value: key + sep + value,
    st.sampled_from([*EVAL_DEFAULTS, "command", "bins ", "hiden"]).map(str.encode)
    | st.binary(max_size=8),
    st.sampled_from([b"=", b" = ", b""]),
    st.sampled_from([b"", b"3", b"-1", b"1e9", b"x", b"\xff", b"\xc3\xa9"]) | st.binary(max_size=8),
)
_KV_FILE = st.binary(max_size=200) | st.lists(_KV_LINE, max_size=6).map(b"\n".join)


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
