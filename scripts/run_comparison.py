#!/usr/bin/env python3
"""Train the full model-family x mapping grid and print a results table.

Generates a synthetic corpus, trains att/tr models with softmax, entmax15,
and sparsemax attention, evaluates each on the held-out test split, and
writes one run directory per combination plus a summary.csv.

Usage:
    python3 scripts/run_comparison.py --out runs/ --epochs 10 --lr 1e-3
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from salab.cli import main as salab, read_kv


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs", help="output directory")
    ap.add_argument("--n-docs", type=int, default=5000)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--embed-dim", type=int, default=50)
    ap.add_argument("--max-words", type=int, default=12)
    ap.add_argument("--max-sents", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--families", default="att,tr")
    ap.add_argument("--mappings", default="softmax,entmax15,sparsemax")
    args = ap.parse_args(argv)

    out = Path(args.out)
    data = out / "data"
    if not (data / "train.jsonl").exists():
        salab(["gen-data", "--out", str(data), "--n-docs", str(args.n_docs),
               "--seed", str(args.seed)])

    rows = []
    for family in args.families.split(","):
        for mapping in args.mappings.split(","):
            run_dir = out / f"{family}-{mapping}"
            t0 = time.time()
            rc = salab([
                "train", "--data", str(data), "--out", str(run_dir),
                "--model", family, "--mapping", mapping,
                "--epochs", str(args.epochs), "--lr", str(args.lr),
                "--hidden", str(args.hidden), "--embed-dim", str(args.embed_dim),
                "--max-words", str(args.max_words),
                "--max-sents", str(args.max_sents), "--seed", str(args.seed),
            ])
            if rc != 0:
                print(f"{family}-{mapping}: train failed ({rc})", file=sys.stderr)
                return rc
            metrics = read_kv(run_dir / "metrics.kv")
            rows.append({
                "model": f"{family}-{mapping}",
                "auc_roc": metrics["auc_roc"],
                "auc_pr": metrics["auc_pr"],
                "brier": metrics["brier"],
                "seconds": f"{time.time() - t0:.0f}",
            })

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)

    width = max(len(r["model"]) for r in rows)
    print(f"\n{'model':<{width}}  auc_roc   auc_pr    brier     time")
    for r in rows:
        print(f"{r['model']:<{width}}  {r['auc_roc']}  {r['auc_pr']}  "
              f"{r['brier']}  {r['seconds']}s")
    print(f"\nsummary written to {out / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
