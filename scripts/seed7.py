#!/usr/bin/env python3
"""Run the seed-7 output set and hash it; with --against REF, compare it with REF's.

    python3 scripts/seed7.py OUT [--against REF]

The set: `gen-data --n-docs 200 --seed 7`, then for att and tr under softmax,
sparsemax, entmax15 and entmax:1.3: `train` (seed 7, 2 epochs, hidden 16,
embed 8, 12 words, 8 sentences, min-freq 1, lr 1e-3), `eval`, and `heatmap`
with the default filter and with `--filter "" --limit 20`; the same four steps
for tr sparsemax at `--heads 2 --layers 2`; and `gradcheck --trials 50`, its
stdout saved as `gradcheck.txt`; one BLAS thread, inside OUT, on relative
paths.  OUT/SHA256SUMS lists every file but the `manifest.kv` files, which
record paths.  With --against, the set also runs on `git archive REF` in a
temporary directory; each file whose hash differs, or that one side lacks, is
printed, and the exit code is 1.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAIN = ["--seed", "7", "--epochs", "2", "--hidden", "16", "--embed-dim", "8", "--max-words", "12",
         "--max-sents", "8", "--min-freq", "1", "--lr", "1e-3"]
THREADS = {v: "1" for v in ("SALAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_set(src: Path, out: Path) -> dict[str, str]:
    """The set run with the package under `src` into `out`: {path in out: sha256}."""
    env = dict(os.environ, PYTHONPATH=str(src), **THREADS)

    def salab(*argv):
        proc = subprocess.run([sys.executable, "-m", "salab", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"salab {' '.join(argv)} exited with {proc.returncode} ({src}):\n{proc.stderr}")
        return proc.stdout

    out.mkdir(parents=True)
    salab("gen-data", "--out", "data", "--n-docs", "200", "--seed", "7")
    runs = [(f"{model}-{mapping}", model, mapping, ()) for model in ("att", "tr")
            for mapping in ("softmax", "sparsemax", "entmax15", "entmax:1.3")]
    runs.append(("tr-sparsemax-h2-l2", "tr", "sparsemax", ("--heads", "2", "--layers", "2")))
    for name, model, mapping, extra in runs:
        run = f"runs/{name}"
        salab("train", "--data", "data", "--out", run, "--model", model, "--mapping", mapping, *TRAIN, *extra)
        salab("eval", "--data", "data", "--model-dir", run)
        salab("heatmap", "--data", "data", "--model-dir", run, "--out", f"heatmaps/{name}")
        salab("heatmap", "--data", "data", "--model-dir", run, "--out", f"heatmaps-all/{name}",
              "--filter", "", "--limit", "20")
    (out / "gradcheck.txt").write_text(salab("gradcheck", "--trials", "50"))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.kv"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="a directory that does not exist yet")
    parser.add_argument("--against", metavar="REF", help="a git revision of this repository")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists")
    if args.against is not None:  # read REF's tree first, so a bad REF fails before any run
        git = subprocess.run(["git", "-C", str(ROOT), "archive", args.against], capture_output=True)
        if git.returncode:
            sys.exit(f"git archive {args.against}: {git.stderr.decode(errors='replace').strip()}")
    sums = run_set(ROOT / "src", args.out)
    (args.out / "SHA256SUMS").write_text("".join(f"{h}  {p}\n" for p, h in sums.items()))
    print(f"{len(sums)} files hashed into {args.out / 'SHA256SUMS'}")
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=git.stdout, check=True)
        theirs = run_set(Path(tmp, "src"), Path(tmp, "seed7"))
    paths = sorted(sums.keys() | theirs.keys())
    differ = [p for p in paths if sums.get(p) != theirs.get(p)]
    for p in differ:
        print(f"differs: {p}" + ("" if p in sums and p in theirs else " (on one side only)"))
    print(f"{len(differ)} of {len(paths)} files differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
