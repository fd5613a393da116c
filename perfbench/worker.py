"""One benchmark process: set up once, run one part of a workload, and print
its raw samples as one JSON line. run.py starts these one after another and
pools them; see README.md."""

import time

STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-units", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    args = parser.parse_args()

    s = wl.set_up(args.workload, args.seed, args.part, args.parts)
    setup_s = time.perf_counter() - STARTED
    kind = s.workload.kind
    if args.trace:
        phase = wl.trace_predict if kind == "predict" else wl.trace_train
    else:
        phase = wl.run_predict if kind == "predict" else wl.run_train
    r = phase(s, args.seconds, args.min_units)
    if not args.trace and args.part == 0:
        wl.fingerprint(r, s)
    if r.tracer is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        r.tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}-part{args.part}.json.gz",
                      {"workload": args.workload, "seed": args.seed, "part": args.part,
                       "env": environment()})
    print(json.dumps({
        "env": environment(), "setup_s": setup_s, "digest": wl.weights_digest(s),
        "attempted": r.attempted, "failed": r.failed, "problems": s.problems + r.problems,
        "latencies": r.latencies, "wall_s": r.wall_s,
        "windows_per_unit": 1 if kind == "predict" else wl.TRAIN_CFG.batch_size,
        "peak_rss_mb": r.peak_rss_mb or wl.peak_rss_mb(), "values": r.values,
        "losses": r.losses, "layers": r.layers, "layer_units": wl.PER_LAYER,
        "partition": wl.PREDICT_LAYERS if kind == "predict" else wl.TRAIN_LAYERS}))


if __name__ == "__main__":
    main()
