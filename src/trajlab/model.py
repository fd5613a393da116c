"""Composition of the goal predictor, condition encoder and noise predictor,
plus checkpointing and the end-to-end prediction path for one window.

`goal_logits` is the one goal stage and `condition` the one condition stage;
the trainer and `predict_window` call both, so each network sees the same
input in both phases. `condition` moves histories and goals to the agent
frame (origin `history[-1]`), where diffusion runs too; predictions are shifted
back. The encoder knows no sampler kinds: `condition_features` tags them.
A checkpoint stores each `ModelConfig` field as a `cfg.*` number; `load` gives
it its field's type and rejects a non-integral value for an integer. It also
stores the betas of the schedule the denoiser was trained under.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import nncore
from .condition import ConditionFeature, SequenceEncoder, augment_batch
from .denoiser import NoisePredictor
from .goal import (GoalNet, GridSpec, SemanticGrid, TTSTConfig, predict_heatmaps,
                   rasterize_points, select_goals)
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
    init_seed: int = 0

    def __post_init__(self):
        if self.t_h < 2:
            raise ValueError(f"t_h must be >= 2 (velocities need two frames), got {self.t_h}")
        for name in ("t_f", "d_f", "encoder_hidden", "denoiser_width", "goal_base_channels",
                     "sem_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.denoiser_blocks < 0:
            raise ValueError(f"denoiser_blocks must be >= 0, got {self.denoiser_blocks}")
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise ValueError(f"embed_dim must be even and >= 2, got {self.embed_dim}")
        # a Gaussian half a pixel off-centre on both axes (the farthest any in-grid
        # point lies from its nearest pixel) must not underflow, so that every
        # rasterized map has a positive, finite sum; rasterizing squares sigma_px
        with np.errstate(divide="ignore", over="ignore"):  # the square may under- or overflow
            if not (np.isfinite(np.float64(self.sigma_px) ** 2) and self.sigma_px > 0
                    and np.exp(-0.25 / np.float64(self.sigma_px) ** 2) > 0):
                raise ValueError("sigma_px must have a finite square and be large enough that a "
                                 "Gaussian half a pixel off-centre does not underflow, "
                                 f"got {self.sigma_px}")


class PredictionModel:
    def __init__(self, cfg: ModelConfig, grid: GridSpec):
        # the goal net halves each side twice and then doubles it twice
        if grid.H % 4 or grid.W % 4:
            raise ValueError(f"grid {grid.H}x{grid.W}: the goal net needs both sides to be "
                             f"multiples of 4")
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

    def save(self, path, schedule: NoiseSchedule) -> None:
        """Parameters, config and grid, and `schedule`, the trainer's."""
        arrays = {name: p.data for name, p in self.parameters().items()}
        for field_name, value in vars(self.cfg).items():
            arrays[f"cfg.{field_name}"] = np.asarray(value, dtype=np.float64)
        arrays["grid.spec"] = np.array([self.grid.H, self.grid.W, self.grid.origin[0],
                                        self.grid.origin[1], self.grid.resolution])
        arrays["schedule.betas"] = schedule.betas
        nncore.save_checkpoint(path, arrays)

    @classmethod
    def load(cls, path) -> tuple["PredictionModel", NoiseSchedule]:
        """Rebuild a saved model and its training schedule. A missing,
        wrong-shaped or non-finite entry, or a non-integral value for an
        integer, is a ValueError naming it."""
        arrays = nncore.load_checkpoint(path)
        if "schedule.betas" not in arrays:
            raise ValueError("checkpoint missing 'schedule.betas'")
        try:
            schedule = NoiseSchedule(arrays["schedule.betas"])
        except ValueError as e:
            raise ValueError(f"checkpoint 'schedule.betas': {e}") from None
        meta = {}
        for key in [f"cfg.{f.name}" for f in fields(ModelConfig)] + ["grid.spec"]:
            if key not in arrays:
                raise ValueError(f"checkpoint missing {key!r}")
            meta[key] = arrays[key].astype(np.float64)
            if meta[key].shape != ((5,) if key == "grid.spec" else ()) \
                    or not np.all(np.isfinite(meta[key])):
                raise ValueError(f"checkpoint {key!r} is not a finite value of the saved shape")
        kwargs = {f.name: _typed(f"cfg.{f.name}", meta[f"cfg.{f.name}"], type(f.default))
                  for f in fields(ModelConfig)}
        g = meta["grid.spec"]
        grid = GridSpec(_typed("grid.spec H", g[0], int), _typed("grid.spec W", g[1], int),
                        (float(g[2]), float(g[3])), float(g[4]))
        model = cls(ModelConfig(**kwargs), grid)
        for name, p in model.parameters().items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            value = arrays[name].astype(np.float64)
            if value.shape != p.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name!r}: "
                                 f"{value.shape} vs {p.data.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"checkpoint parameter {name!r} is not finite")
            p.data = value
        return model, schedule

    # -- inference --

    def history_stack(self, histories: np.ndarray) -> np.ndarray:
        """(..., t_h, 2) world points -> (..., t_h, H, W) heat-maps."""
        return rasterize_points(histories, self.grid, self.cfg.sigma_px)

    def goal_logits(self, histories: np.ndarray, sem: SemanticGrid) -> nncore.Tensor:
        """Goal-net logits (B, t_f, H, W) of (B, t_h, 2) histories, as a graph Tensor."""
        if sem.grid != self.grid:
            raise ValueError(f"semantic grid {sem.grid} does not match the model's grid "
                             f"{self.grid}")
        return predict_heatmaps(self.history_stack(histories), sem.channels, self.goal_net)

    def condition(self, histories: np.ndarray, goals: np.ndarray) -> nncore.Tensor:
        """Encoder features (B, d_f) of (B, t_h, 2) world-frame histories and
        (B, 2) goals, both moved to each history's agent frame, as a graph Tensor."""
        origin = histories[:, -1]
        return self.encoder.encode(augment_batch(histories - origin[:, None], goals - origin))

    def condition_features(self, history: np.ndarray, goals: np.ndarray) -> tuple:
        """The common feature and the N diverse features of one history and its
        (N + 1, 2) goals (common goal first), in one encoder batch."""
        f = self.condition(np.broadcast_to(history, (len(goals),) + history.shape), goals).data
        return ConditionFeature(f[0], "common"), [ConditionFeature(v, "diverse") for v in f[1:]]

    def predict_window(self, history: np.ndarray, sem: SemanticGrid,
                       sampler_cfg: SamplerConfig, schedule: NoiseSchedule,
                       rng: NoiseStream, goal_rng: np.random.Generator,
                       rule: str, ttst: TTSTConfig | None = None) -> np.ndarray:
        """Full pipeline for one window; returns (N, t_f, 2) world-frame paths."""
        with nncore.no_grad():  # the goal net and the encoder build no graph
            goal_map = self.goal_logits(history[None], sem)[0, -1].sigmoid().data
            goals = select_goals(goal_map, self.grid, sampler_cfg.N, ttst, rng=goal_rng)
            f_common, f_diverse = self.condition_features(history, goals)
        denoise = self.denoiser.predict_noise
        if rule == "ts":
            trajs = tree_sample(denoise, f_common, f_diverse, sampler_cfg, schedule, rng,
                                self.cfg.t_f)
        else:
            trajs = sample_standard(denoise, f_diverse, sampler_cfg, schedule, rng, rule,
                                    self.cfg.t_f)
        return trajs + history[-1]


def _typed(key: str, value, kind: type):
    """A checkpoint number as `kind`; a value stored for an integer must be integral."""
    if issubclass(kind, int) and not float(value).is_integer():
        raise ValueError(f"checkpoint {key!r} is not an integer: {float(value)}")
    return kind(value)


default_schedule = make_linear_schedule
