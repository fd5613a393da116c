"""trajlab benchmark: one workload, BLAS pinned to one thread.

    python3 perfbench/run.py --workload predict_tree --seed 1 --seconds 24 --trace 0

A run starts PARTS worker processes one after another. Each sets up once and
times its share of --seconds, and the run pools their samples: the speed of
one process on this kind of machine depends on where its memory lands, so
pooling several processes makes a run's figures steadier than one long
process would.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 every
unit runs untraced and then traced, both must give the same output bits, and
the run prints the per-layer metrics (spans go to perfbench/out/). The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PARTS = 8
MIN_UNITS = 100  # pooled, so that at least ten timed samples lie beyond p90
RUN_DEADLINE_S = 170  # every part must have ended by then
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_parts(args) -> tuple[list, list]:
    """Run the worker processes in turn: (their results, problems)."""
    env = {**os.environ, **BLAS_ENV}  # for the benchmark's processes only
    deadline = time.monotonic() + RUN_DEADLINE_S
    results, problems = [], []
    for part in range(PARTS):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
               "--min-units", str(-(-MIN_UNITS // PARTS)), "--trace", str(args.trace),
               "--part", str(part), "--parts", str(PARTS)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            problems.append(f"part {part}: did not finish within the run's deadline")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"part {part}: worker exited with code {proc.returncode}")
            continue
        results.append(json.loads(lines[-1]))
    return results, problems


def end_to_end(parts: list, problems: list) -> dict:
    latencies = [ms for p in parts for ms in p["latencies"]]
    if len(latencies) < MIN_UNITS:  # a slow program, not a wrong one
        print(f"perfbench: only {len(latencies)} timed units, fewer than {MIN_UNITS}: "
              "fewer than ten lie beyond p90", file=sys.stderr)
    if len(latencies) < 2:
        problems.append(f"only {len(latencies)} timed units; latencies need 2")
        return {}
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    values = {}
    for name in ("ade20_m", "fde20_m", "train_loss"):
        values[name] = next((p["values"][name] for p in parts if name in p["values"]), None)
        if values[name] is None:
            problems.append(f"no {name} measured")
            del values[name]
    windows = len(latencies) * parts[0]["windows_per_unit"]
    return {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "windows_per_s": (windows / sum(p["wall_s"] for p in parts), "windows/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "success_rate": (1.0 - failed / max(attempted, 1), "fraction"),
        **{name: (v, "-" if name == "train_loss" else "m") for name, v in values.items()},
    }


def per_layer(parts: list, problems: list) -> dict:
    rows = [row for p in parts for row in p["layers"]]
    untraced = [ms for p in parts for ms in p["latencies"]]
    if not rows or not untraced:
        problems.append("no traced unit completed")
        return {}
    metrics = {name: (statistics.median(row.get(name, 0) for row in rows), unit)
               for name, unit in parts[0]["layer_units"].items()}
    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(row["root_ms"] for row in rows)
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    layer_sum = sum(metrics[name][0] for name in parts[0]["partition"])
    gap = abs(layer_sum - untraced_p50) / untraced_p50
    print(f"self-time check: per-layer medians sum to {layer_sum:.3f} ms, untraced p50 "
          f"{untraced_p50:.3f} ms, {gap:.1%} apart (limit 10%)")
    if gap > 0.10:
        problems.append(f"per-layer self times are {gap:.1%} from the untraced p50")
    return metrics


def cross_checks(parts: list, problems: list) -> None:
    """Every process must have trained the same weights and, on train, seen
    the same losses on its first pass."""
    if len({p["digest"] for p in parts}) > 1:
        problems.append("set-up training gave different weights in different processes")
    losses = [p["losses"] for p in parts if p["losses"]]
    if any(loss != losses[0] for loss in losses[1:]):
        problems.append("the first training pass gave different losses in different processes")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("predict_tree", "predict_dddpm", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "trajlab" / "__init__.py").is_file():
        _fail(f"no trajlab sources under {ROOT / 'src'}; run from a full checkout")

    parts, problems = run_parts(args)
    if not parts:
        _fail("no worker process produced a result: " + "; ".join(problems))
    env = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
           "cpu_model": _cpu_model(), **parts[0]["env"], "processes": PARTS,
           "git_commit": _git_commit()}
    print("env " + json.dumps(env))
    for p in parts:
        problems += p["problems"]
    cross_checks(parts, problems)
    metrics = (per_layer if args.trace else end_to_end)(parts, problems)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"error_rate {failed}/{attempted}; timed units "
          f"{sum(len(p['latencies']) for p in parts)} in {len(parts)} processes")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
