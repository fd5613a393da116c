"""Best-of-N displacement metrics and the sampler cost/speed bench."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

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


class CountingDenoiser:
    """Wraps a denoiser callable and counts evaluations."""

    def __init__(self, denoiser):
        self._denoiser = denoiser
        self.count = 0

    def __call__(self, k, y, f):
        self.count += 1
        return self._denoiser(k, y, f)


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
    """Yield (window, (N, t_f, 2) predictions) in order; window i draws its
    noise and its goals from seed + i."""
    for i, w in enumerate(windows):
        yield w, model.predict_window(w.history, sem, cfg, schedule, NoiseStream(seed + i),
                                      np.random.default_rng(seed + i), rule=rule, ttst=ttst)


def _run_config(model: PredictionModel, windows, sem: SemanticGrid,
                schedule: NoiseSchedule, rule: str, cfg: SamplerConfig,
                seed: int, ttst: TTSTConfig | None):
    """One (rule, config) pass over all windows; returns (ade, fde, evals, ms)."""
    counter = CountingDenoiser(model.denoiser.predict_noise)
    model.denoiser.predict_noise = counter  # intercept for eval counting
    try:
        ades, fdes = [], []
        start = time.perf_counter()
        for w, preds in predict_windows(model, windows, sem, schedule, cfg, seed, rule, ttst):
            a, f_ = best_of_n(preds, w.future)
            ades.append(a)
            fdes.append(f_)
        elapsed_ms = (time.perf_counter() - start) * 1000.0 / max(len(windows), 1)
    finally:
        del model.denoiser.predict_noise  # the class method shows through again
    per_window = counter.count // max(len(windows), 1)
    return float(np.mean(ades)), float(np.mean(fdes)), per_window, elapsed_ms


def bench_samplers(model: PredictionModel, windows, sem: SemanticGrid,
                   schedule: NoiseSchedule, base_cfg: SamplerConfig,
                   trunk_steps=(5, 20, 50), seed: int = 0,
                   ttst: TTSTConfig | None = None,
                   repeats: int = 1) -> list[BenchRow]:
    """One row per sampler configuration: DDPM, DDIM, d-DDPM, TS per K_t.

    Per-window wall time is the median over `repeats` passes after one
    discarded warmup pass; eval counts must match the closed forms exactly.
    """
    runs = [("ddpm", base_cfg), ("ddim", base_cfg), ("d_ddpm", base_cfg)]
    for kt in trunk_steps:
        runs.append(("ts", SamplerConfig(base_cfg.K, base_cfg.K_I, kt, base_cfg.eta,
                                         base_cfg.N, base_cfg.t_f)))
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


def write_predictions_json(path, records: list[dict]) -> None:
    """records: [{scene, agent, frame_base, predictions (N,t_f,2), gt (t_f,2)}]."""
    payload = []
    for r in records:
        payload.append({
            "scene": r["scene"], "agent": int(r["agent"]),
            "frame_base": int(r["frame_base"]),
            "predictions": np.asarray(r["predictions"]).tolist(),
            "gt": np.asarray(r["gt"]).tolist(),
        })
    with open(path, "w") as f:
        json.dump(payload, f)


def read_predictions_json(path) -> list[dict]:
    """Records as write_predictions_json writes them, arrays as float64. A record
    without a key, or whose predictions are not a finite (N, t_f, 2) set over a
    finite (t_f, 2) gt, raises ValueError naming its index."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, list):
        raise ValueError("expected a JSON list of prediction records")
    for i, r in enumerate(payload):
        if not isinstance(r, dict):
            raise ValueError(f"record {i}: not a JSON object")
        missing = [key for key in _RECORD_KEYS if key not in r]
        if missing:
            raise ValueError(f"record {i}: missing key {missing[0]!r}")
        try:
            preds = np.asarray(r["predictions"], dtype=np.float64)
            gt = np.asarray(r["gt"], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ValueError(f"record {i}: predictions/gt are not numeric arrays: {e}") from e
        if not (gt.ndim == 2 and gt.size and gt.shape[1] == 2
                and preds.ndim == 3 and preds.size and preds.shape[1:] == gt.shape):
            raise ValueError(f"record {i}: predictions {preds.shape} and gt {gt.shape} "
                             "are not (N, t_f, 2) and (t_f, 2)")
        if not (np.all(np.isfinite(preds)) and np.all(np.isfinite(gt))):
            raise ValueError(f"record {i}: non-finite predictions or gt")
        r["predictions"], r["gt"] = preds, gt
    return payload
