"""scripts/run_comparison.py on a tiny grid: what its summary.csv reports."""

import csv
import importlib.util
from pathlib import Path

from salab.cli import read_kv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_comparison.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_comparison", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_holds_each_runs_test_metrics(tmp_path):
    out = tmp_path / "runs"
    assert load_script().run([
        "--out", str(out), "--n-docs", "200", "--families", "att",
        "--mappings", "softmax,sparsemax", "--epochs", "1", "--hidden", "16",
    ]) == 0
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["model", "auc_roc", "auc_pr", "brier", "seconds"]
    assert [r["model"] for r in rows] == ["att-softmax", "att-sparsemax"]
    for r in rows:
        metrics = read_kv(out / r["model"] / "metrics.kv")
        assert {k: r[k] for k in ("auc_roc", "auc_pr", "brier")} == {
            k: metrics[k] for k in ("auc_roc", "auc_pr", "brier")}
        assert int(r["seconds"]) >= 0
