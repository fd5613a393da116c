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

A step splits its batch into two fixed halves, windows [0, ceil(B/2)) and the
rest, and runs each half's forward and backward on its own thread (numpy
releases the GIL in its array loops, so the halves overlap on two cores). The
trainer draws all randomness on the calling thread, before the split; a half's
losses weigh n_h / B, and each parameter's gradient is half 0's plus half 1's,
so the bits depend on the batch alone, not on the machine's core count.
"""

from __future__ import annotations

import ctypes
import sys
import threading
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
                   k: np.ndarray, eps: np.ndarray) -> Tensor:
    """Noise matching over a (B, t_f, 2) batch with drawn steps k (B,) and noise
    eps (B, t_f, 2): noise Y0 in closed form, and take the mean squared error of
    the prediction."""
    b = len(Y0)
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
    and the peak RSS barely moves (+0.4 MB at B=32). The thresholds hold for
    every arena, so they cover the arena of the step's worker thread too, which
    the next step's worker reuses (a step faults ~5 pages, median of 10).
    Does nothing off Linux or where libc has no `mallopt`."""
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

    def _draws(self, futures: np.ndarray):
        """A batch's diffusion steps k (B,) and noise eps, shaped like `futures`,
        drawn in that order."""
        k = self.rng.integers(1, self.schedule.K + 1, size=len(futures))
        return k, self.rng.standard_normal(futures.shape)

    def _losses(self, histories: np.ndarray, futures: np.ndarray, k: np.ndarray,
                eps: np.ndarray):
        """The graph tensors (l_goal, l_traj) of a batch, or a half of one, under
        drawn steps k and noise eps."""
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
        return l_goal, diffusion_loss(fut_c, f, model.denoiser, self.schedule, k, eps)

    def _batch_losses(self, histories: np.ndarray, futures: np.ndarray):
        """The graph tensors (l_goal, l_traj) of a whole batch as one graph,
        with fresh draws."""
        return self._losses(histories, futures, *self._draws(futures))

    def _half(self, histories, futures, k, eps, weight: float):
        """One half's forward and backward: (l_goal, l_traj, grads), `weight`
        times its losses as floats, and `grads` each parameter's gradient of
        `weight` times its total loss, or None when that loss is not finite
        (then no backward runs). The half's graph goes when this returns."""
        l_goal, l_traj = self._losses(histories, futures, k, eps)
        total = combined_loss(l_traj, l_goal, self.cfg.lam)
        grads = None
        if np.isfinite(total.data):
            grads = {}
            total.backward(weight, grads)
        return weight * float(l_goal.data), weight * float(l_traj.data), grads

    def _step(self, histories: np.ndarray, futures: np.ndarray, start: int):
        """One optimiser step on a batch: its (l_goal, l_traj).

        The halves run on the calling thread and on one worker thread, joined
        before this returns. If a half raises, the whole batch's losses are
        built on the calling thread, so a bad window fails as it would in one
        graph (indexed in the batch); the half's own error is raised when that
        build does not fail."""
        b = len(histories)
        k, eps = self._draws(futures)
        cut = -(-b // 2)
        halves = [slice(0, cut), slice(cut, b)] if b > 1 else [slice(0, b)]
        results = [None] * len(halves)

        def run(h):
            sl = halves[h]
            try:
                results[h] = self._half(histories[sl], futures[sl], k[sl], eps[sl],
                                        (sl.stop - sl.start) / b)
            except Exception as e:  # raised on the calling thread below
                results[h] = e

        worker = threading.Thread(target=run, args=(1,)) if b > 1 else None
        if worker:
            worker.start()
        try:
            run(0)
        finally:
            if worker:
                worker.join()
        failed = [r for r in results if isinstance(r, Exception)]
        if failed:
            self._losses(histories, futures, k, eps)
            raise failed[0]
        l_goal = sum(r[0] for r in results)
        l_traj = sum(r[1] for r in results)
        if not np.isfinite(combined_loss(l_traj, l_goal, self.cfg.lam)):
            raise RuntimeError(f"non-finite loss in batch starting at index {start}")
        self.opt.zero_grad()
        for _, _, grads in results:  # half 0's gradients first, then half 1's
            for p, g in grads.items():
                p.grad += g
        self.opt.step()
        return l_goal, l_traj

    def train_epoch(self, windows: list) -> dict:
        """One pass over `windows` in a fresh random order; the epoch's mean
        losses weigh each batch by its window count."""
        if not windows:
            raise ValueError("empty training set")
        order = self.rng.permutation(len(windows))
        losses = []  # (windows, l_goal, l_traj) of each batch
        for start in range(0, len(order), self.cfg.batch_size):
            batch = [windows[i] for i in order[start:start + self.cfg.batch_size]]
            histories = np.stack([w.history for w in batch])
            futures = np.stack([w.future for w in batch])
            losses.append((len(batch), *self._step(histories, futures, start)))
        lr = self.opt.lr
        self.opt.lr *= self.cfg.lr_decay
        counts, goal_col, traj_col = zip(*losses)
        mean_goal, mean_traj = (sum(n * v for n, v in zip(counts, col)) / len(windows)
                                for col in (goal_col, traj_col))
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
