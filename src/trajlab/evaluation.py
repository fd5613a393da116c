"""Best-of-N displacement metrics and the sampler cost/speed bench."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .goal import SemanticGrid, TTSTConfig
from .model import PredictionModel
from .sampler import NoiseStream, SamplerConfig, total_evals
from .schedule import NoiseSchedule

BENCH_HEADER = "sampler,K,K_I,K_t,eta,N,ade,fde,evals,ms"
_RECORD_KEYS = ("scene", "agent", "frame_base", "predictions", "gt")


def ade(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean Euclidean distance over all frames."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.mean(np.linalg.norm(pred - gt, axis=-1)))


def fde(pred: np.ndarray, gt: np.ndarray) -> float:
    """Euclidean distance at the final frame."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.linalg.norm(pred[-1] - gt[-1]))


def best_of_n(preds: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """Independently minimized best-of-N ADE and FDE over (N, t_f, 2) predictions."""
    trajs = np.asarray(preds)
    if len(trajs) == 0:
        raise ValueError("empty prediction set")
    return (min(ade(t, gt) for t in trajs), min(fde(t, gt) for t in trajs))


@dataclass
class BenchRow:
    sampler: str
    cfg: SamplerConfig
    ade: float
    fde: float
    evals: int
    ms: float

    def as_csv(self) -> str:
        return (f"{self.sampler},{self.cfg.K},{self.cfg.K_I},{self.cfg.K_t},"
                f"{self.cfg.eta},{self.cfg.N},{self.ade:.6f},{self.fde:.6f},"
                f"{self.evals},{self.ms:.3f}")


def predict_windows(model: PredictionModel, windows, sem: SemanticGrid,
                    schedule: NoiseSchedule, cfg: SamplerConfig, seed: int,
                    rule: str, ttst: TTSTConfig | None):
    """Yield (window, (N, t_f, 2) predictions) in order. Window i draws its noise
    from `NoiseStream(seed).fork(i)` (its chains from that stream's forks) and its
    goals from `default_rng([seed, i, 1])`: every generator of a run, the CLI's
    `default_rng(seed)` split included, starts from its own state."""
    noise = NoiseStream(seed)
    for i, w in enumerate(windows):
        yield w, model.predict_window(w.history, sem, cfg, schedule, noise.fork(i),
                                      np.random.default_rng([seed, i, 1]), rule=rule,
                                      ttst=ttst)


def _run_config(model: PredictionModel, windows, sem: SemanticGrid,
                schedule: NoiseSchedule, rule: str, cfg: SamplerConfig,
                seed: int, ttst: TTSTConfig | None):
    """One (rule, config) pass over all windows; returns (ade, fde, evals, ms),
    evals being the denoiser rows per window."""
    rows_before = model.denoiser.rows
    ades, fdes = [], []
    start = time.perf_counter()
    for w, preds in predict_windows(model, windows, sem, schedule, cfg, seed, rule, ttst):
        a, f_ = best_of_n(preds, w.future)
        ades.append(a)
        fdes.append(f_)
    elapsed_ms = (time.perf_counter() - start) * 1000.0 / max(len(windows), 1)
    per_window = (model.denoiser.rows - rows_before) // max(len(windows), 1)
    return float(np.mean(ades)), float(np.mean(fdes)), per_window, elapsed_ms


def bench_samplers(model: PredictionModel, windows, sem: SemanticGrid,
                   schedule: NoiseSchedule, base_cfg: SamplerConfig, trunk_steps,
                   seed: int, repeats: int, ttst: TTSTConfig | None = None) -> list[BenchRow]:
    """One row per sampler configuration: DDPM, DDIM, d-DDPM, TS per K_t.

    Per-window wall time is the median over `repeats` passes after one
    discarded warmup pass; eval counts must match the closed forms exactly.
    """
    runs = [("ddpm", base_cfg), ("ddim", base_cfg), ("d_ddpm", base_cfg)]
    for kt in trunk_steps:
        runs.append(("ts", replace(base_cfg, K_t=kt)))
    rows = []
    for rule, cfg in runs:
        _run_config(model, windows[:1], sem, schedule, rule, cfg, seed, ttst)  # warmup
        times = []
        for _ in range(repeats):
            a, f_, evals, ms = _run_config(model, windows, sem, schedule, rule, cfg,
                                           seed, ttst)
            times.append(ms)
        expected = total_evals(rule, cfg)
        if evals != expected:
            raise RuntimeError(f"{rule}: measured {evals} denoiser evals, expected {expected}")
        rows.append(BenchRow(rule, cfg, a, f_, evals, float(np.median(times))))
    return rows


def write_bench_csv(path, rows: list[BenchRow]) -> None:
    with open(path, "w") as f:
        f.write(BENCH_HEADER + "\n")
        for row in rows:
            f.write(row.as_csv() + "\n")


def write_predictions_json(path, predictions) -> int:
    """Write the (window, (N, t_f, 2) predictions) pairs that `predict_windows`
    yields as records {scene, agent, frame_base, predictions, gt (t_f, 2)};
    returns the number of records."""
    payload = [{"scene": w.scene_id, "agent": int(w.agent_id), "frame_base": int(w.frame_base),
                "predictions": np.asarray(preds).tolist(), "gt": np.asarray(w.future).tolist()}
               for w, preds in predictions]
    with open(path, "w") as f:
        json.dump(payload, f)
    return len(payload)


def read_predictions_json(path) -> list[dict]:
    """Records as write_predictions_json writes them, arrays as float64. A record
    without a key, or whose predictions are not a finite (N, t_f, 2) set of
    numbers over a finite (t_f, 2) gt, raises ValueError naming its index."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, list):
        raise ValueError("expected a JSON list of prediction records")
    for i, r in enumerate(payload):
        try:
            r["predictions"], r["gt"] = _record_arrays(r)
        except ValueError as e:
            raise ValueError(f"record {i}: {e}") from None
    return payload


def _record_arrays(r) -> tuple[np.ndarray, np.ndarray]:
    """One record's schema in one pass: its keys, then predictions and gt as
    nested JSON arrays of numbers (booleans are not numbers), their shapes and
    their finiteness."""
    if not isinstance(r, dict):
        raise ValueError("not a JSON object")
    missing = [key for key in _RECORD_KEYS if key not in r]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    preds, gt = np.array(r["predictions"], dtype=object), np.array(r["gt"], dtype=object)
    if not all(type(v) in (int, float) for a in (preds, gt) for v in a.flat):
        raise ValueError("predictions/gt are not arrays of numbers")
    if not (gt.ndim == 2 and gt.size and gt.shape[1] == 2
            and preds.ndim == 3 and preds.size and preds.shape[1:] == gt.shape):
        raise ValueError(f"predictions {preds.shape} and gt {gt.shape} "
                         "are not (N, t_f, 2) and (t_f, 2)")
    try:
        preds, gt = preds.astype(np.float64), gt.astype(np.float64)
        finite = np.all(np.isfinite(preds)) and np.all(np.isfinite(gt))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError("non-finite predictions or gt")
    return preds, gt
