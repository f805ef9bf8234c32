"""Command-line entry point: gen-data, train, eval, gradcheck, heatmap.

Configuration precedence is defaults < --config key=value file < explicit
flags.  Flags and file values are read the same way: stripped of surrounding
whitespace, and refused if they still hold a line break or are not UTF-8.
Every command writes a manifest of its fully resolved config; feeding a
manifest back through --config reproduces the run.
"""

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import BLAS_THREADS
from . import data as datamod
from .checkpoint import load_checkpoint
from .evaluation import compute_metrics, export_heatmap, score_documents
from .exceptions import (
    CheckpointError,
    PoisonedGradientError,
    SalabError,
    UndefinedMetricError,
)
from .models import (
    AttentionClassifier,
    HierarchicalTransformerClassifier,
    HierModelConfig,
    LocalModelConfig,
    iter_attention_maps,
)
from .simplex import MappingKind
from .training import train_model
from .validation import mapping_max_grad_error, model_grad_error

log = logging.getLogger("salab")

GEN_FIELDS = {  # gen-data setting -> SyntheticCorpusConfig field
    "n_docs": "n_documents", "vocab_size": "vocab_size", "positive_rate": "positive_rate",
    "p_dir_pos": "p_directive_given_positive", "p_dir_neg": "p_directive_given_negative",
    "sent_min": "min_sentences", "sent_max": "max_sentences",
    "word_min": "min_words", "word_max": "max_words",
    "zipf": "zipf_exponent", "seed": "seed",
}
_CORPUS = datamod.SyntheticCorpusConfig()
GEN_DEFAULTS = {"out": "data", **{k: getattr(_CORPUS, f) for k, f in GEN_FIELDS.items()}}

# family -> (model class, config class); a family takes the settings its config has fields for
FAMILIES = {"att": (AttentionClassifier, LocalModelConfig),
            "tr": (HierarchicalTransformerClassifier, HierModelConfig)}
# train setting -> model config field(s); for tr, heads and layers set both levels
MODEL_FIELDS = {
    "hidden": ("hidden",), "embed_dim": ("embed_dim",), "max_words": ("max_words",),
    "max_sents": ("max_sents",), "dropout": ("dropout_rate",),
    "heads": ("word_heads", "sent_heads"), "layers": ("word_layers", "sent_layers"),
}
_MODEL = HierModelConfig(vocab_size=2)
TRAIN_DEFAULTS = {
    "data": "data", "out": "run", "model": "att", "mapping": str(_MODEL.mapping),
    "epochs": 30, "lr": 1e-4, "batch": 16, "seed": 0, "seeds": 1, "min_freq": 5,
    **{k: getattr(_MODEL, fields[0]) for k, fields in MODEL_FIELDS.items()},
}

EVAL_DEFAULTS = {"data": "data", "model_dir": "run", "out": "", "split": "test", "bins": 10}

HEATMAP_DEFAULTS = {"data": "data", "model_dir": "run", "out": "heatmaps",
                    "filter": ",".join(datamod.DIRECTIVE_TOKENS), "limit": 5}

GRADCHECK_DEFAULTS = {"seed": 0, "trials": 200, "tol": 1e-4}


# ---------------------------------------------------------------------------
# key=value plumbing

def read_kv(path) -> dict[str, str]:
    out = {}
    for n, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}:{n}: not UTF-8 ({e.reason} at byte {e.start})") from None
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{n}: {line!r} is not key=value")
        key = key.strip()
        if key in out:
            raise ValueError(f"{path}:{n}: {key!r} repeats a key of an earlier line")
        out[key] = value.strip()
    return out


def write_kv(path, cfg: dict) -> None:
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _coerce(key: str, value: str, template):
    """A flag's or a file's value, stripped and typed like its default."""
    value = value.strip()
    if len(value.splitlines()) > 1:  # write_kv could not write it as one line
        raise ValueError(f"{key} holds a line break: {value!r}")
    try:  # nor, in UTF-8, a lone surrogate (a command-line byte that is not UTF-8)
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{key} is not UTF-8 text: {value!r}") from None
    try:
        return type(template)(value)
    except ValueError:
        raise ValueError(f"{key} must be {type(template).__name__}, got {value!r}") from None


def _file_settings(path, kv: dict, defaults: dict) -> dict:
    """The settings `kv` read from `path`, coerced to their defaults' types; an error names `path`."""
    try:
        return {k: _coerce(k, v, defaults[k]) for k, v in kv.items()}
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _check_settings(cfg: dict, least: dict, positive: tuple = ()) -> None:
    """Reject a setting below its least value, or one in `positive` not finite and > 0."""
    for key, low in least.items():
        if cfg[key] < low:
            raise ValueError(f"{key} must be >= {low}, got {cfg[key]}")
    for key in positive:
        if not 0 < cfg[key] < np.inf:
            raise ValueError(f"{key} must be finite and > 0, got {cfg[key]}")


def resolve(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        kv = read_kv(args.config)
        for key in ("command", "blas_threads"):  # a manifest records these beside the settings
            kv.pop(key, None)
        for k in kv:
            if k not in defaults:
                raise ValueError(f"{args.config}: {k!r} is not a setting of this command")
        cfg.update(_file_settings(args.config, kv, defaults))
    for k in defaults:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = _coerce(k, v, defaults[k])
    return cfg


# ---------------------------------------------------------------------------
# model (re)construction

def family_settings(family: str) -> list[str]:
    """The settings of MODEL_FIELDS that `family` takes, which its config.kv records."""
    known = {f.name for f in dataclasses.fields(FAMILIES[family][1])} if family in FAMILIES else ()
    return [k for k, fields in MODEL_FIELDS.items() if fields[0] in known]


def model_config(cfg: dict, vocab_size: int):
    """The model config that `cfg`'s model settings describe; it checks them,
    and refuses a setting off its default that the family does not take."""
    if cfg["model"] not in FAMILIES:
        raise ValueError(f"model must be att or tr, got {cfg['model']!r}")
    taken = family_settings(cfg["model"])
    for k in MODEL_FIELDS:
        if k not in taken and cfg[k] != TRAIN_DEFAULTS[k]:
            raise ValueError(f"model {cfg['model']} takes no {k} setting, got {k}={cfg[k]}")
    kw = {f: cfg[k] for k in taken for f in MODEL_FIELDS[k]}
    return FAMILIES[cfg["model"]][1](vocab_size, mapping=MappingKind.parse(cfg["mapping"]), **kw)


def build_model(cfg: dict, vocab_size: int, seed: int, dtype=np.float32):
    return FAMILIES[cfg["model"]][0](model_config(cfg, vocab_size), seed=seed, dtype=dtype)


def save_model_dir(out: Path, vocab, train_cfg: dict, seed: int) -> None:
    vocab.save(out / "vocab.txt")
    kv = {k: train_cfg[k] for k in ("model", "mapping", *family_settings(train_cfg["model"]))}
    write_kv(out / "config.kv", dict(kv, vocab_size=len(vocab), seed=seed))


def _check_sizes(state: dict, cfg: dict, vocab_size: int) -> None:
    """Compare config.kv's sizes with best.ckpt's shapes before any model is allocated."""
    rows = state["emb"].shape[:1] if "emb" in state else ()
    if rows and rows != (vocab_size,):
        raise CheckpointError(f"vocab.txt's {vocab_size} tokens do not fit best.ckpt: "
                              f"emb has {rows[0]} rows")
    e, h, n = cfg["embed_dim"], cfg["hidden"], cfg["layers"]
    want = [("embed_dim", "emb", (vocab_size, e)), ("hidden", "proj_w", (e, h))]
    if cfg["model"] == "tr":  # each level has layers 0..n-1
        want += [("max_words", "word_pos", (cfg["max_words"], h)),
                 ("max_sents", "sent_pos", (cfg["max_sents"], h))]
        want += [("layers", f"{level}{i}_wq", shape) for level in ("word", "sent")
                 for i, shape in ((n - 1, (h, h)), (n, "absent"))]
    for setting, name, shape in want:
        got = state[name].shape if name in state else "absent"
        if got != shape:
            raise CheckpointError(f"config.kv's {setting}={cfg[setting]} does not fit "
                                  f"best.ckpt: {name} should be {shape}, is {got}")


def load_model_dir(model_dir):
    model_dir = Path(model_dir)
    path = model_dir / "config.kv"
    kv = read_kv(path)  # it ignores the keys it does not read: vocab_size, another family's
    cfg = dict(TRAIN_DEFAULTS)
    keys = ("model", "mapping", "seed", *family_settings(kv.get("model", cfg["model"])))
    cfg.update(_file_settings(path, {k: kv[k] for k in keys if k in kv}, cfg))
    vocab = datamod.Vocabulary.load(model_dir / "vocab.txt")
    state = load_checkpoint(model_dir / "best.ckpt")
    try:  # a setting out of range is named, with its file, before any size
        _check_settings(cfg, {"seed": 0})
        model_config(cfg, len(vocab))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    _check_sizes(state, cfg, len(vocab))
    model = build_model(cfg, len(vocab), seed=cfg["seed"])
    try:  # a parameter the model does not have, or one it misses or shapes otherwise
        model.load_state_dict(state)
    except CheckpointError as e:
        raise CheckpointError(f"{model_dir / 'best.ckpt'}: {e}") from None
    return model, vocab, cfg


def _check_out(*dirs: Path) -> None:
    """Refuse an output directory that is, or sits under, an existing
    non-directory, before a command reads or creates anything."""
    for out in dirs:
        for p in (out, *out.parents):
            if p.exists():
                if not p.is_dir():
                    raise ValueError(f"output directory {out}: {p} is not a directory")
                break


def _docs_path(data: str, split: str) -> Path:
    p = Path(data)
    return p if p.is_file() else p / f"{split}.jsonl"


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    cfg = resolve(GEN_DEFAULTS, args)
    corpus_cfg = datamod.SyntheticCorpusConfig(**{f: cfg[k] for k, f in GEN_FIELDS.items()})
    out = Path(cfg["out"])
    _check_out(out)
    docs = datamod.generate_synthetic_corpus(corpus_cfg)
    split = datamod.split_dataset(docs, seed=cfg["seed"])
    out.mkdir(parents=True, exist_ok=True)
    datamod.write_jsonl(out / "train.jsonl", split.train)
    datamod.write_jsonl(out / "validation.jsonl", split.validation)
    datamod.write_jsonl(out / "test.jsonl", split.test)
    cfg["command"] = "gen-data"
    write_kv(out / "manifest.kv", cfg)
    print(
        f"wrote {len(split.train)}/{len(split.validation)}/{len(split.test)} "
        f"documents to {out}"
    )
    return 0


def _train_once(cfg: dict, seed: int, out: Path, splits: list, vocab):
    train_docs, val_docs, test_docs = splits
    model = build_model(cfg, len(vocab), seed=seed)
    result = train_model(
        model, train_docs, val_docs, vocab,
        epochs=cfg["epochs"], lr=cfg["lr"], batch_size=cfg["batch"], seed=seed,
    )
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "last.ckpt")
    model.load_state_dict(result.best_state)
    model.save(out / "best.ckpt")
    save_model_dir(out, vocab, cfg, seed)
    with open(out / "epochs.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,val_auc_roc,val_auc_pr,val_brier\n")
        for s in result.history:
            fh.write(
                f"{s.epoch},{s.train_loss:.6f},{s.val.auc_roc:.6f},"
                f"{s.val.auc_pr:.6f},{s.val.brier:.6f}\n"
            )
    test_report = compute_metrics(score_documents(model, test_docs, vocab, cfg["batch"]))
    (out / "metrics.kv").write_text(test_report.to_kv(), encoding="utf-8")
    (out / "metrics.json").write_text(test_report.to_json() + "\n", encoding="utf-8")
    print(
        f"seed {seed}: best epoch {result.best_epoch} "
        f"(val auc_roc {result.best_val_auc:.4f}), "
        f"test auc_roc {test_report.auc_roc:.4f}"
    )
    return test_report


def cmd_train(args) -> int:
    cfg = resolve(TRAIN_DEFAULTS, args)
    _check_settings(cfg, {"seeds": 1, "epochs": 1, "batch": 1, "min_freq": 1, "seed": 0}, ("lr",))
    model_config(cfg, vocab_size=2)  # the vocabulary is built only after data is read
    out = Path(cfg["out"])
    seeds = range(cfg["seed"], cfg["seed"] + cfg["seeds"])
    dirs = [out] if cfg["seeds"] == 1 else (out / f"seed{seed}" for seed in seeds)
    # of the seeds' directories only those out already holds can clash, however many seeds run
    held = out.iterdir() if cfg["seeds"] > 1 and out.is_dir() else ()
    _check_out(out, *(p for p in held if p.name[4:].isdecimal()
                      and p.name == f"seed{int(p.name[4:])}" and int(p.name[4:]) in seeds))
    splits = [datamod.read_jsonl(Path(cfg["data"]) / f"{s}.jsonl")
              for s in ("train", "validation", "test")]
    vocab = datamod.build_vocab((sent for doc in splits[0] for sent in doc.sentences),
                                min_freq=cfg["min_freq"])
    # a diverging run is reported once, as a poisoned gradient, not by numpy on the way
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [_train_once(cfg, seed, d, splits, vocab) for seed, d in zip(seeds, dirs)]
    if len(reports) > 1:
        summary = {}
        for name in ("auc_roc", "auc_pr", "brier"):
            values = np.array([getattr(r, name) for r in reports])
            summary[f"{name}_mean"] = f"{values.mean():.6f}"
            summary[f"{name}_sd"] = f"{values.std(ddof=1):.6f}"
        summary["runs"] = str(len(reports))
        write_kv(out / "summary.kv", summary)
        print(
            f"{cfg['seeds']} runs: auc_roc {summary['auc_roc_mean']} "
            f"± {summary['auc_roc_sd']}"
        )
    # written only once the run succeeded, so a rejected setting leaves nothing
    cfg["command"], cfg["blas_threads"] = "train", BLAS_THREADS
    write_kv(out / "manifest.kv", cfg)
    return 0


def cmd_eval(args) -> int:
    cfg = resolve(EVAL_DEFAULTS, args)
    _check_settings(cfg, {"bins": 2})
    out = Path(cfg["out"]) if cfg["out"] else Path(cfg["model_dir"]) / "eval"
    _check_out(out)
    model, vocab, _ = load_model_dir(cfg["model_dir"])
    docs = datamod.read_jsonl(_docs_path(cfg["data"], cfg["split"]))
    report = compute_metrics(score_documents(model, docs, vocab), n_bins=cfg["bins"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.kv").write_text(report.to_kv(), encoding="utf-8")
    (out / "metrics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    with open(out / "reliability.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_low,bin_high,count,mean_score,positive_fraction\n")
        places = max(2, len(str(cfg["bins"] - 1)))  # ceil(log10(bins)): edges stay distinct
        for b in report.bins:
            stats = "0,," if b.empty else f"{b.count},{b.mean_score:.6f},{b.positive_fraction:.6f}"
            fh.write(f"{b.low:.{places}f},{b.high:.{places}f},{stats}\n")
    cfg["command"], cfg["blas_threads"] = "eval", BLAS_THREADS
    write_kv(out / "manifest.kv", cfg)
    print(report.to_kv().strip())
    return 0


def cmd_heatmap(args) -> int:
    cfg = resolve(HEATMAP_DEFAULTS, args)
    _check_settings(cfg, {"limit": 1})
    out = Path(cfg["out"])
    _check_out(out)
    model, vocab, _ = load_model_dir(cfg["model_dir"])
    docs = datamod.read_jsonl(_docs_path(cfg["data"], "test"))
    tokens = {t for t in cfg["filter"].split(",") if t}
    for t in sorted(tokens - vocab.token_to_id.keys()):
        log.warning("filter token %r not in vocabulary", t)
    out.mkdir(parents=True, exist_ok=True)
    written = set()
    for doc, records in iter_attention_maps(model, docs, vocab, tokens, cfg["limit"]):
        if {os.sep, os.altsep} & set(doc.id):  # the id names the document's files
            raise ValueError(f"document id {doc.id!r} holds a path separator")
        if doc.id in written:
            raise ValueError(f"document id {doc.id!r} repeats among the exported documents")
        for rec in records:
            name = "sentences" if rec.scope == "sentence" else f"s{rec.sentence_index}"
            export_heatmap(rec, out / f"{doc.id}_{name}.csv")
        written.add(doc.id)
    cfg["command"], cfg["blas_threads"] = "heatmap", BLAS_THREADS
    write_kv(out / "manifest.kv", cfg)
    print(f"exported heatmaps for {len(written)} documents to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve(GRADCHECK_DEFAULTS, args)
    _check_settings(cfg, {"trials": 1}, ("tol",))
    tol = cfg["tol"]
    failures = 0
    names = ("softmax", "sparsemax", "entmax15", "entmax:1.3", "entmax:1.7", "entmax:3")
    for kind in map(MappingKind.parse, names):
        err = mapping_max_grad_error(kind, trials=cfg["trials"], seed=cfg["seed"])
        ok = err <= tol
        failures += not ok
        print(f"mapping {kind}: max_rel_err={err:.2e} {'PASS' if ok else 'FAIL'}")

    corpus = datamod.generate_synthetic_corpus(
        datamod.SyntheticCorpusConfig(
            n_documents=4, vocab_size=12, min_sentences=2, max_sentences=3,
            min_words=3, max_words=5, seed=cfg["seed"],
        )
    )
    vocab = datamod.build_vocab((s for d in corpus for s in d.sentences), min_freq=1)
    batch = datamod.pad_and_batch(corpus, vocab, 5, 3, len(corpus))[0]
    for family in ("att", "tr"):
        for mapping in ("softmax", "entmax15", "sparsemax", "entmax:1.3"):
            run = dict(TRAIN_DEFAULTS, model=family, mapping=mapping, hidden=8,
                       embed_dim=6, max_words=5, max_sents=3, dropout=0.0)
            for attempt in range(4):
                model = build_model(run, len(vocab), cfg["seed"] + attempt, np.float64)
                err = model_grad_error(model, batch)
                if err <= tol:
                    break
            ok = err <= tol
            failures += not ok
            print(f"model {family}-{mapping}: max_rel_err={err:.2e} {'PASS' if ok else 'FAIL'}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def _add_flags(parser, defaults):
    parser.add_argument("--config", help="key=value config file; flags override")
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, default=None, help=f"default: {default}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` reports it, as it reports any bad setting
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="salab",
        description="sparse-attention text classification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults, fn in (
        ("gen-data", GEN_DEFAULTS, cmd_gen_data),
        ("train", TRAIN_DEFAULTS, cmd_train),
        ("eval", EVAL_DEFAULTS, cmd_eval),
        ("heatmap", HEATMAP_DEFAULTS, cmd_heatmap),
        ("gradcheck", GRADCHECK_DEFAULTS, cmd_gradcheck),
    ):
        p = sub.add_parser(name)
        _add_flags(p, defaults)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = make_parser().parse_args(argv)
        code = args.fn(args)
    except FileNotFoundError as e:
        print(f"error: missing file: {e}", file=sys.stderr)
        code = 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    except PoisonedGradientError as e:
        print(f"error: poisoned gradient: {e}", file=sys.stderr)
        code = 3
    except UndefinedMetricError as e:
        print(f"error: undefined metric: {e}", file=sys.stderr)
        code = 4
    except MemoryError as e:  # a BatchMemoryError names the batch's [B, T, W]
        print(f"error: out of memory: {e or 'no details'}", file=sys.stderr)
        code = 5
    except (SalabError, ValueError) as e:
        print(f"error: bad configuration or input: {e}", file=sys.stderr)
        code = 2
    if argv is None:
        sys.exit(code)
    return code
