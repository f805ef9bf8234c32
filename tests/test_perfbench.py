"""The benchmark's contract with the package.

`perfbench/` wraps package functions and `Tensor` operators by name, so
renaming or deleting one of them breaks every traced run; one traced
repetition of a workload catches that here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train-att-entmax13", "infer-tr-sparsemax"])
def test_traced_worker_runs(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0
    assert "autodiff.tape_nodes" in report["layers"]
