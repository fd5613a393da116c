"""Losses and the end-to-end training loop.

The goal head trains with mean binary cross-entropy against rasterized future
heat-maps (`goal_loss`, one op that takes the logits of the model's one goal
stage, `PredictionModel.goal_logits`, which prediction calls too); the trajectory
head trains with the standard noise matching objective, the mean squared
error between drawn and predicted noise (`diffusion_loss`), in the agent
frame. Both return graph tensors, and the trainer optimises exactly these
two. The model's one condition stage, `PredictionModel.condition`, which
prediction calls too, turns the goal into the denoiser's condition. Teacher
forcing feeds it the ground-truth goal; the estimated goal (`argmax_goals`)
otherwise enters as plain numpy, so gradients never cross between the heads.
"""

from __future__ import annotations

import ctypes
import sys
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .goal import SemanticGrid, argmax_goals, rasterize_points
from .model import PredictionModel
from .nncore import Adam, Tensor
from .sampler import forward_noise
from .schedule import NoiseSchedule

BCE_CLIP = 1e-7


@dataclass
class TrainConfig:
    lam: float = 20.0  # goal-loss weight
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.99
    seed: int = 0
    teacher_forcing: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda (goal-loss weight) must be finite and >= 0, got {self.lam}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "lr_decay"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def goal_loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits), clipped to [BCE_CLIP, 1 - BCE_CLIP],
    against target maps, as one op: its gradient is (p - t) / n, 0 where the clip engages."""
    if logits.shape != target.shape:
        raise ValueError("prediction/target shape mismatch")
    p = 1.0 / (1.0 + np.exp(-logits.data))
    pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    bce = -(target * np.log(pc) + (1.0 - target) * np.log(1.0 - pc))
    d = np.where((p > BCE_CLIP) & (p < 1.0 - BCE_CLIP), p - target, 0.0) * (1.0 / p.size)
    return Tensor(bce.sum() * (1.0 / p.size), ((logits, lambda g: d * g),))


def diffusion_loss(Y0: np.ndarray, f: Tensor, denoiser, s: NoiseSchedule,
                   rng: np.random.Generator) -> Tensor:
    """Noise matching over a (B, t_f, 2) batch: draw k then eps per row, noise
    Y0 in closed form, and take the mean squared error of the prediction."""
    b = len(Y0)
    k = rng.integers(1, s.K + 1, size=b)
    eps = rng.standard_normal(Y0.shape)
    yk = forward_noise(Y0, k, eps, s)
    diff = denoiser.forward_t(k, yk.reshape(b, -1), f) - Tensor(eps.reshape(b, -1))
    return (diff * diff).mean()


def combined_loss(l_traj, l_goal, lam: float):
    """l_traj + lam * l_goal, on loss Tensors for a step or on floats for an epoch's means."""
    return l_traj + lam * l_goal


@cache
def _keep_freed_heap() -> None:
    """Fix glibc malloc's mmap and trim thresholds at the ceilings its own
    heuristic raises them to (32 MiB, and twice that), once per process.

    A step builds and frees some 90 MB of arrays. glibc raises both thresholds
    only when a large block happens to be freed, so with its defaults the freed
    heap top may go back to the kernel each step and be faulted in again by the
    next (500-2400 page faults a B=32 step), which makes a step's time depend
    on the machine's load. With the thresholds fixed that memory stays mapped
    and the peak RSS barely moves (+0.4 MB at B=32). Does nothing off Linux or
    where libc has no `mallopt`."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        m_trim_threshold, m_mmap_threshold = -1, -3
        mallopt(m_mmap_threshold, 32 << 20)
        mallopt(m_trim_threshold, 64 << 20)


class Trainer:
    """Mini-batch trainer over TrajectoryWindow lists."""

    def __init__(self, model: PredictionModel, sem: SemanticGrid,
                 schedule: NoiseSchedule, cfg: TrainConfig):
        _keep_freed_heap()
        self.model = model
        self.sem = sem
        self.schedule = schedule
        self.cfg = cfg
        self.opt = Adam(model.parameters(), lr=cfg.lr)
        self.rng = np.random.default_rng(cfg.seed)

    def _batch_losses(self, histories: np.ndarray, futures: np.ndarray):
        model = self.model
        logits = model.goal_logits(histories, self.sem)
        # target maps peak at 1 so the per-pixel BCE has a meaningful positive class
        maps = rasterize_points(futures, model.grid, model.cfg.sigma_px)
        l_goal = goal_loss(logits, maps / maps.max(axis=(-2, -1), keepdims=True))

        if self.cfg.teacher_forcing:
            goals = futures[:, -1]  # ground-truth goal = last future point
        else:  # estimated goal, plain numpy: no gradient flows back into the goal head
            goals = argmax_goals(logits.data[:, -1], model.grid)
        f = model.condition(histories, goals)
        fut_c = futures - histories[:, -1:]  # the diffusion target, in the agent frame
        return l_goal, diffusion_loss(fut_c, f, model.denoiser, self.schedule, self.rng)

    def train_epoch(self, windows: list) -> dict:
        if not windows:
            raise ValueError("empty training set")
        order = self.rng.permutation(len(windows))
        losses = []  # (l_goal, l_traj) of each batch
        for start in range(0, len(order), self.cfg.batch_size):
            batch = [windows[i] for i in order[start:start + self.cfg.batch_size]]
            histories = np.stack([w.history for w in batch])
            futures = np.stack([w.future for w in batch])
            l_goal, l_traj = self._batch_losses(histories, futures)
            total = combined_loss(l_traj, l_goal, self.cfg.lam)
            if not np.isfinite(total.data):
                raise RuntimeError(f"non-finite loss in batch starting at index {start}")
            self.opt.zero_grad()
            total.backward()
            self.opt.step()
            losses.append((float(l_goal.data), float(l_traj.data)))
            del l_goal, l_traj, total  # the graph goes before the next batch builds its own
        lr = self.opt.lr
        self.opt.lr *= self.cfg.lr_decay
        mean_goal, mean_traj = (sum(col) / len(losses) for col in zip(*losses))
        return {"l_goal": mean_goal, "l_traj": mean_traj,
                "l_total": combined_loss(mean_traj, mean_goal, self.cfg.lam), "lr": lr}

    def fit(self, windows: list, log_path=None, max_seconds: float | None = None) -> list[dict]:
        """Train `cfg.epochs` epochs, or stop after the first epoch that ends more
        than `max_seconds` after the start; None or 0 means no limit."""
        history = []
        # line-buffered: each epoch's row reaches the file as the epoch ends
        log = open(log_path, "w", buffering=1) if log_path else None
        if log:
            log.write("epoch,l_goal,l_traj,l_total,lr\n")
        start_time = time.monotonic()
        try:
            for epoch in range(1, self.cfg.epochs + 1):
                metrics = self.train_epoch(windows)
                metrics["epoch"] = epoch
                history.append(metrics)
                if log:
                    log.write(f"{epoch},{metrics['l_goal']:.8f},{metrics['l_traj']:.8f},"
                              f"{metrics['l_total']:.8f},{metrics['lr']:.8g}\n")
                if max_seconds and time.monotonic() - start_time > max_seconds:
                    break
        finally:
            if log:
                log.close()
        return history
