"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh single-threaded process (`worker.py`), one after another, never
at the same time.  With `--trace 0` the last line of standard output
carries the end-to-end metrics, with `--trace 1` the per-layer metrics of
traced repetitions, each paired with an untraced one on the same inputs
so the tracing overhead is measured.  The line before it is a report:
sample counts, check outputs, workload parameters and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, repetitions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s


def run_worker(name: str, seed: int, traced: bool, out: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), and that percentile."""
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank < len(xs) / 2:
        raise ValueError(f"{len(xs)} steps are too few for a tail above the median")
    return xs[rank - 1], math.floor(100 * rank / len(xs))


def loss_checks(reps: list[dict]) -> dict:
    """Every step's loss finite, and training lowered the loss on training
    documents, summed over the run's repetitions.  Summed, because one
    repetition's few steps can raise it without any fault."""
    losses = [x for r in reps for x in r["losses"]]
    fresh, trained = zip(*(r["train_split_loss"] for r in reps))
    return {
        "attempted": len(losses) + 1,
        "failed": sum(not math.isfinite(x) for x in losses) + (not sum(trained) < sum(fresh)),
        "train_split_loss": [statistics.fmean(fresh), statistics.fmean(trained)],
    }


PHASES = ("train", "eval", "inspect")


def best_rate(reps: list[dict], phase: str) -> tuple[float, int]:
    """Documents per second of the fastest pass of `phase` in the run, and
    the number of passes.  Every pass of a workload does the same work, and
    other load on a shared host only slows a pass down, so the fastest pass
    is the closest reading of the program's own cost."""
    rates = [r[f"{phase}_docs"] / s for r in reps for s in r[f"{phase}_pass_s"]]
    return max(rates), len(rates)


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    steps = [s for r in reps for s in r["step_ms"]]
    tail_ms, tail_pct = tail(steps)
    setups = [s for r in reps for s in r["setup_s"]]
    med = statistics.median

    def rate(phase):
        value, passes = best_rate(reps, phase)
        return value, "docs/s", passes

    metrics = {
        "setup_s": (med(setups), "s", len(setups)),
        "train_docs_per_s": rate("train"),
        "train_step_ms.mean": (statistics.fmean(steps), "ms", len(steps)),
        "train_step_ms.tail": (tail_ms, "ms", len(steps)),
        "eval_docs_per_s": rate("eval"),
        "inspect_docs_per_s": rate("inspect"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
    }
    return metrics, {
        "setup_s": "median of all set-ups",
        "train_docs_per_s": "fastest training pass",
        "train_step_ms.mean": "mean of all steps pooled",
        "train_step_ms.tail": f"p{tail_pct} of all steps pooled",
        "eval_docs_per_s": "fastest scoring pass",
        "inspect_docs_per_s": "fastest inspection pass",
        "peak_rss_mb": "median over repetitions",
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for key, (_, unit) in traced[0]["layers"].items():
        metrics[key] = (statistics.median(r["layers"][key][0] for r in traced), unit, len(traced))
    for phase in PHASES:
        ratio = best_rate(traced, phase)[0] / best_rate(untraced, phase)[0]
        metrics[f"trace.{phase}_docs_per_s_ratio"] = (ratio, "ratio", len(traced))
    return metrics


def provenance(worker: dict) -> dict:
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    mem_total = next(line.split()[1] for line in meminfo if line.startswith("MemTotal:"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": int(mem_total),
        "python": platform.python_version(),
        **worker,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "salab" / "__init__.py").is_file():
        print(f"error: no salab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reps = repetitions(wl, args.seconds)
    # Repetition i gets its own inputs; a traced repetition reuses those of
    # the untraced one it is paired with.
    plan = ([(i, False) for i in range(reps)] if not args.trace
            else [(i, traced) for i in range(max(1, round(reps / 2))) for traced in (False, True)])
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    results = []
    try:
        for i, traced in plan:
            out = tmp / str(len(results))
            r = run_worker(args.workload, args.seed * 1000 + i, traced, out, deadline)
            r["traced"] = traced
            results.append(r)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    checks = loss_checks(results)
    attempted = checks.pop("attempted") + sum(r["attempted"] for r in results)
    failed = checks.pop("failed") + sum(r["failed"] for r in results)
    checks["directive_zero_fraction"] = statistics.median(r["directive_zero_fraction"] for r in results)
    checks["maps_checked"] = sum(r["maps_checked"] for r in results)
    if args.trace:
        metrics, estimators = per_layer(traced, untraced), {}
    else:
        metrics, estimators = end_to_end(untraced)

    for key, (value, unit, n) in metrics.items():
        print(f"{args.workload:20s} {key:40s} {value:14.6g} {unit:7s} n={n}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(results),
        "samples": {k: n for k, (_, _, n) in metrics.items()},
        "estimators": estimators, "checks": checks,
        "params": wl.params(), "provenance": provenance(results[0]["provenance"]),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
