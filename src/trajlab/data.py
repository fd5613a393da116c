"""Trajectory data: file parsing, windowing, splits, synthetic scenes.

Trajectory files use the community plain-text format: one observation per
line, whitespace separated `frame agent_id x y`, with positions in meters.
The synthetic generator produces corridor scenes where each agent walks from
a start band to one of M goal anchors, giving a dataset with known
multi-modal ground truth.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .goal import GridSpec, SemanticGrid


@dataclass
class Track:
    scene_id: str
    agent_id: int
    frames: np.ndarray  # (L,) ints
    xy: np.ndarray  # (L, 2) meters


@dataclass
class TrajectoryWindow:
    scene_id: str
    agent_id: int
    history: np.ndarray  # (t_h, 2)
    future: np.ndarray  # (t_f, 2)
    frame_base: int


def parse_trajectory_file(path, scene_id: str | None = None) -> list[Track]:
    """Parse `frame agent x y` lines into per-agent tracks sorted by frame. A bad
    line is a ValueError naming its line number."""
    scene = scene_id if scene_id is not None else str(path)
    rows: dict[int, list[tuple[int, float, float]]] = {}
    seen: set[tuple[int, int]] = set()
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame = int(float(parts[0]))
                agent = int(float(parts[1]))
                x, y = float(parts[2]), float(parts[3])
            except (ValueError, OverflowError) as e:  # int(float("inf")) overflows
                raise ValueError(f"line {lineno}: unparseable numeric field: {e}") from e
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite position {x} {y}")
            if (frame, agent) in seen:
                raise ValueError(f"line {lineno}: duplicate (frame={frame}, agent={agent})")
            seen.add((frame, agent))
            rows.setdefault(agent, []).append((frame, x, y))
    if not rows:
        warnings.warn(f"{path}: no observations parsed")
    tracks = []
    for agent in sorted(rows):
        obs = sorted(rows[agent])
        frames = np.array([o[0] for o in obs])
        xy = np.array([[o[1], o[2]] for o in obs])
        tracks.append(Track(scene, agent, frames, xy))
    return tracks


def write_trajectory_file(path, tracks: list[Track]) -> None:
    with open(path, "w") as f:
        for t in tracks:
            for frame, (x, y) in zip(t.frames, t.xy):
                f.write(f"{frame} {t.agent_id} {x:.6f} {y:.6f}\n")


def _contiguous_segments(track: Track) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a track at frame gaps into (frames, xy) pieces; the dataset rate
    is the modal frame step."""
    if len(track.frames) < 2:
        return [(track.frames, track.xy)] if len(track.frames) else []
    diffs = np.diff(track.frames)
    step = Counter(diffs.tolist()).most_common(1)[0][0]
    cuts = np.where(diffs != step)[0] + 1
    return list(zip(np.split(track.frames, cuts), np.split(track.xy, cuts)))


def make_windows(tracks: list[Track], t_h: int = 8, t_f: int = 12,
                 stride: int = 1) -> list[TrajectoryWindow]:
    """Slide a (t_h + t_f) window over every contiguous track segment.
    `frame_base` is the frame id of the window's first history frame."""
    if min(t_h, t_f, stride) < 1:
        raise ValueError("t_h, t_f and stride must all be >= 1")
    span = t_h + t_f
    windows = []
    for track in tracks:
        for frames, seg in _contiguous_segments(track):
            for start in range(0, len(seg) - span + 1, stride):
                windows.append(TrajectoryWindow(
                    scene_id=track.scene_id,
                    agent_id=track.agent_id,
                    history=seg[start:start + t_h].copy(),
                    future=seg[start + t_h:start + span].copy(),
                    frame_base=int(frames[start]),
                ))
    return windows


def tail_windows(tracks: list[Track], t_h: int = 8, t_f: int = 12) -> list[TrajectoryWindow]:
    """The last window of each long-enough track (future ends where the track
    does). For goal-directed tracks this makes the future endpoint the goal."""
    out = []
    for track in tracks:
        windows = make_windows([track], t_h, t_f, stride=1)  # in frame order
        if windows:
            out.append(windows[-1])
    return out


def leave_one_scene_out(windows: list[TrajectoryWindow], test_scene: str):
    """Partition windows into (train, test) with `test_scene` as the test scene."""
    scenes = {w.scene_id for w in windows}
    if test_scene not in scenes:
        raise ValueError(f"unknown scene {test_scene!r}; have {sorted(scenes)}")
    test = [w for w in windows if w.scene_id == test_scene]
    train = [w for w in windows if w.scene_id != test_scene]
    if not test:
        warnings.warn(f"test scene {test_scene!r} has no windows")
    return train, test


# -- synthetic scenes --


@dataclass
class SyntheticSceneConfig:
    extent: float = 16.0  # square world, meters
    grid_size: int = 32
    anchors: tuple = ((14.0, 3.0), (14.0, 8.0), (14.0, 13.0))
    start_x: tuple[float, float] = (0.8, 2.0)
    start_y: tuple[float, float] = (2.0, 14.0)
    speed_mean: float = 0.55  # meters per frame
    speed_std: float = 0.05
    heading_noise: float = 0.06  # radians per frame
    arrive_radius: float = 0.4
    obstacles: tuple = ()  # (x0, y0, x1, y1) rectangles, meters
    max_frames: int = 120

    def __post_init__(self):
        if len(self.anchors) < 1:
            raise ValueError("need at least one goal anchor")
        if any(len(a) != 2 for a in self.anchors) or not np.all(np.isfinite(self.anchors)):
            raise ValueError(f"anchors must be finite x,y pairs, got {self.anchors}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be finite and > 0, got {self.extent}")
        if not np.isfinite(self.speed_mean):
            raise ValueError(f"speed_mean must be finite, got {self.speed_mean}")
        for name in ("speed_std", "heading_noise"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def grid_spec(self) -> GridSpec:
        n = self.grid_size
        res = self.extent / n
        return GridSpec(n, n, (res / 2.0, res / 2.0), res)


def make_semantic_grid(cfg: SyntheticSceneConfig) -> SemanticGrid:
    """Two channels: walkable and obstacle occupancy."""
    spec = cfg.grid_spec()
    centers = spec.pixel_to_world(*np.ogrid[:spec.H, :spec.W])  # (H, W, 2)
    x, y = centers[..., 0], centers[..., 1]
    obstacle = np.zeros((spec.H, spec.W))
    for x0, y0, x1, y1 in cfg.obstacles:
        obstacle[(x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)] = 1.0
    return SemanticGrid(spec, np.stack([1.0 - obstacle, obstacle]))


def _in_obstacle(cfg: SyntheticSceneConfig, p: np.ndarray) -> bool:
    return any(x0 <= p[0] <= x1 and y0 <= p[1] <= y1 for x0, y0, x1, y1 in cfg.obstacles)


def generate_synthetic(cfg: SyntheticSceneConfig, n_agents: int,
                       rng: np.random.Generator, scene_id: str = "synthetic"):
    """Simulate agents walking to uniformly chosen anchors.

    Returns (tracks, semantic grid, anchor array). Reproducible: the same rng
    seed regenerates byte-identical tracks.
    """
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    anchors = np.asarray(cfg.anchors, dtype=np.float64)
    sem = make_semantic_grid(cfg)
    tracks = []
    for agent in range(n_agents):
        anchor = anchors[rng.integers(len(anchors))]
        pos = np.array([rng.uniform(*cfg.start_x), rng.uniform(*cfg.start_y)])
        pts = [pos.copy()]
        for _ in range(cfg.max_frames):
            to_goal = anchor - pos
            dist = np.linalg.norm(to_goal)
            if dist < cfg.arrive_radius:
                break
            heading = np.arctan2(to_goal[1], to_goal[0]) + rng.normal(0.0, cfg.heading_noise)
            speed = min(max(rng.normal(cfg.speed_mean, cfg.speed_std), 0.05), dist)
            step = speed * np.array([np.cos(heading), np.sin(heading)])
            nxt = pos + step
            if _in_obstacle(cfg, nxt):
                # steer around: try rotating the step until the cell is free
                for ang in (0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0, 2.5, -2.5):
                    rot = heading + ang
                    cand = pos + speed * np.array([np.cos(rot), np.sin(rot)])
                    if not _in_obstacle(cfg, cand):
                        nxt = cand
                        break
                else:
                    raise RuntimeError(f"agent {agent} boxed in by obstacles")
            pos = np.clip(nxt, 0.1, cfg.extent - 0.1)
            pts.append(pos.copy())
        xy = np.array(pts)
        tracks.append(Track(scene_id, agent, np.arange(len(xy)), xy))
    return tracks, sem, anchors
