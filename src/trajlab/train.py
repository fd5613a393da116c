"""Losses and the end-to-end training loop.

The goal head trains with mean binary cross-entropy against rasterized
future heat-maps (`goal_loss`); the trajectory head trains with the standard
noise matching objective, the mean squared error between drawn and predicted
noise (`diffusion_loss`). Both return graph tensors, and the trainer
optimises exactly these two. Teacher forcing feeds the ground-truth goal to
the trajectory side; the estimated goal otherwise enters as plain numpy, so
gradients never cross between the two heads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .condition import augment_batch
from .goal import SemanticGrid, rasterize_points
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
        if self.lam < 0:
            raise ValueError("loss weight must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def goal_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of per-pixel probabilities against target maps."""
    if pred.shape != target.shape:
        raise ValueError("prediction/target shape mismatch")
    p = pred.clip(BCE_CLIP, 1.0 - BCE_CLIP)
    t = Tensor(target)
    return (-(t * p.log() + (1.0 - t) * (1.0 - p).log())).mean()


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


class Trainer:
    """Mini-batch trainer over TrajectoryWindow lists."""

    def __init__(self, model: PredictionModel, sem: SemanticGrid,
                 schedule: NoiseSchedule, cfg: TrainConfig):
        self.model = model
        self.sem = sem
        self.schedule = schedule
        self.cfg = cfg
        self.opt = Adam(model.parameters(), lr=cfg.lr)
        self.rng = np.random.default_rng(cfg.seed)

    # target maps peak at 1 so the per-pixel BCE has a meaningful positive class
    def _target_maps(self, futures: np.ndarray) -> np.ndarray:
        maps = rasterize_points(futures, self.model.grid, self.model.cfg.sigma_px)
        return maps / maps.max(axis=(-2, -1), keepdims=True)

    def _batch_losses(self, histories: np.ndarray, futures: np.ndarray):
        model = self.model
        mcfg = model.cfg

        # goal branch
        hist_maps = rasterize_points(histories, model.grid, mcfg.sigma_px)
        sem_b = np.broadcast_to(self.sem.channels, (len(histories),) + self.sem.channels.shape)
        x = np.concatenate([hist_maps, sem_b], axis=1)
        logits = model.goal_net.forward_t(Tensor(x))
        l_goal = goal_loss(logits.sigmoid(), self._target_maps(futures))

        # trajectory branch
        origin = histories[:, -1] if mcfg.agent_centric else np.zeros((len(histories), 2))
        hist_c = histories - origin[:, None]
        fut_c = futures - origin[:, None]
        if self.cfg.teacher_forcing:
            goals_c = fut_c[:, -1]  # ground-truth goal = last future point
        else:
            # estimated goal: argmax of the predicted goal map. The goal enters
            # the trajectory branch as plain numpy, so no gradient flows back
            # into the goal head (gradient stopping is structural here).
            flat = logits.data[:, -1].reshape(len(histories), -1).argmax(axis=1)
            goals = model.grid.pixel_to_world(*np.divmod(flat, model.grid.W))
            goals_c = goals - origin
        f = model.encoder.forward_t(augment_batch(hist_c, goals_c))
        return l_goal, diffusion_loss(fut_c, f, model.denoiser, self.schedule, self.rng)

    def train_epoch(self, windows: list) -> dict:
        if not windows:
            raise ValueError("empty training set")
        order = self.rng.permutation(len(windows))
        sums = {"l_goal": 0.0, "l_traj": 0.0}
        n_batches = 0
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
            sums["l_goal"] += float(l_goal.data)
            sums["l_traj"] += float(l_traj.data)
            n_batches += 1
        lr = self.opt.lr
        self.opt.lr *= self.cfg.lr_decay
        mean_goal = sums["l_goal"] / n_batches
        mean_traj = sums["l_traj"] / n_batches
        return {"l_goal": mean_goal, "l_traj": mean_traj,
                "l_total": combined_loss(mean_traj, mean_goal, self.cfg.lam), "lr": lr}

    def fit(self, windows: list, log_path=None, max_seconds: float | None = None) -> list[dict]:
        history = []
        log = open(log_path, "w") if log_path else None
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
                if max_seconds is not None and time.monotonic() - start_time > max_seconds:
                    break
        finally:
            if log:
                log.close()
        return history
