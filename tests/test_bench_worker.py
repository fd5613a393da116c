"""The benchmark still runs on this tree.

`perfbench/worker.py` calls trajlab's constructors, `tail_windows` and
`predict_window` with its own arguments. A signature change that breaks one
of those calls would otherwise show only when the benchmark runs. Each test
runs one short worker process of one workload declared in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_worker(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--min-units", "1", "--trace", str(trace),
         "--part", "0", "--parts", "8"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_runs_clean(workload):
    result = run_worker(workload, trace=0)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["problems"] == []


def test_traced_train_worker_runs_clean():
    # every traced step runs under the tracer's wrappers, also on the step's
    # worker thread, and must give the untraced step's losses bit for bit
    result = run_worker("train", trace=1)
    assert result["attempted"] >= 2 and result["layers"]
    assert result["failed"] == 0 and result["problems"] == []
