"""Composition of the goal predictor, condition encoder and noise predictor,
plus checkpointing and the end-to-end prediction path for one window.

The trajectory side works in an agent-centric frame: history, future and
goals are shifted so the current position sits at the origin before encoding
and diffusion, and predictions are shifted back afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore
from .condition import SequenceEncoder, augment_batch
from .denoiser import NoisePredictor
from .goal import (GoalNet, GridSpec, HeatMapStack, SemanticGrid, TTSTConfig,
                   predict_heatmaps, rasterize_points, select_goals)
from .sampler import NoiseStream, SamplerConfig, sample_standard, tree_sample
from .schedule import NoiseSchedule, make_linear_schedule


@dataclass(frozen=True)
class ModelConfig:
    t_h: int = 8
    t_f: int = 12
    d_f: int = 64
    encoder_hidden: int = 64
    denoiser_width: int = 64
    denoiser_blocks: int = 3
    embed_dim: int = 32
    goal_base_channels: int = 8
    sem_channels: int = 2
    sigma_px: float = 4.0
    agent_centric: bool = True
    init_seed: int = 0

    def __post_init__(self):
        if self.t_h < 2:
            raise ValueError(f"t_h must be >= 2 (velocities need two frames), got {self.t_h}")
        if self.t_f < 1:
            raise ValueError(f"t_f must be >= 1, got {self.t_f}")


class PredictionModel:
    def __init__(self, cfg: ModelConfig, grid: GridSpec):
        self.cfg = cfg
        self.grid = grid
        rng = np.random.default_rng(cfg.init_seed)
        self.goal_net = GoalNet(cfg.t_h + cfg.sem_channels, cfg.t_f,
                                cfg.goal_base_channels, rng)
        self.encoder = SequenceEncoder(cfg.encoder_hidden, cfg.d_f, rng)
        self.denoiser = NoisePredictor(cfg.t_f, cfg.d_f, cfg.denoiser_width,
                                       cfg.embed_dim, cfg.denoiser_blocks, rng)

    def parameters(self) -> dict:
        return {**self.goal_net.parameters(), **self.encoder.parameters(),
                **self.denoiser.parameters()}

    # -- checkpointing --

    def save(self, path) -> None:
        arrays = {name: p.data for name, p in self.parameters().items()}
        for field_name, value in vars(self.cfg).items():
            arrays[f"cfg.{field_name}"] = np.asarray(value, dtype=np.float64)
        arrays["grid.spec"] = np.array([self.grid.H, self.grid.W, self.grid.origin[0],
                                        self.grid.origin[1], self.grid.resolution])
        nncore.save_checkpoint(path, arrays)

    @classmethod
    def load(cls, path) -> "PredictionModel":
        arrays = nncore.load_checkpoint(path)
        kwargs = {}
        for key in [f"cfg.{name}" for name in vars(ModelConfig())] + ["grid.spec"]:
            if key not in arrays:
                raise ValueError(f"checkpoint missing {key!r}")
        for field_name, default in vars(ModelConfig()).items():
            raw = arrays[f"cfg.{field_name}"]
            kwargs[field_name] = type(default)(raw)
        g = arrays["grid.spec"]
        grid = GridSpec(int(g[0]), int(g[1]), (float(g[2]), float(g[3])), float(g[4]))
        model = cls(ModelConfig(**kwargs), grid)
        params = model.parameters()
        for name, p in params.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name!r}: "
                                 f"{arrays[name].shape} vs {p.data.shape}")
            p.data = arrays[name].astype(np.float64)
        return model

    # -- inference --

    def history_stack(self, history: np.ndarray) -> HeatMapStack:
        return HeatMapStack(self.grid, rasterize_points(history, self.grid, self.cfg.sigma_px))

    def condition_features(self, history: np.ndarray, goals) -> tuple:
        """Encode the common and diverse features of an agent-centric history
        in one encoder batch (common goal first)."""
        origin = history[-1] if self.cfg.agent_centric else np.zeros(2)
        goals_c = np.vstack([goals.common, goals.diverse]) - origin
        hists_c = np.broadcast_to(history - origin, (len(goals_c),) + history.shape)
        kinds = ["common"] + ["diverse"] * len(goals.diverse)
        common, *diverse = self.encoder.encode(augment_batch(hists_c, goals_c), kinds)
        return common, diverse

    def predict_window(self, history: np.ndarray, sem: SemanticGrid,
                       sampler_cfg: SamplerConfig, schedule: NoiseSchedule,
                       rng: NoiseStream, goal_rng: np.random.Generator,
                       rule: str = "ts", ttst: TTSTConfig | None = None) -> np.ndarray:
        """Full pipeline for one window; returns (N, t_f, 2) world-frame paths."""
        maps = predict_heatmaps(sem, self.history_stack(history), self.goal_net)
        goal_map = maps.channels[-1]
        goals = select_goals(goal_map / goal_map.sum(), self.grid, sampler_cfg.N,
                             ttst, goal_rng)
        f_common, f_diverse = self.condition_features(history, goals)
        denoise = lambda k, y, f: self.denoiser.predict_noise(k, y, f)
        if rule == "ts":
            trajs = tree_sample(denoise, f_common, f_diverse, sampler_cfg, schedule, rng)
        else:
            trajs = sample_standard(denoise, f_diverse, sampler_cfg, schedule, rng, rule)
        origin = history[-1] if self.cfg.agent_centric else np.zeros(2)
        return np.stack(trajs) + origin


def default_schedule(K: int = 100, beta_start: float = 1e-4,
                     beta_end: float = 0.05) -> NoiseSchedule:
    return make_linear_schedule(K, beta_start, beta_end)
