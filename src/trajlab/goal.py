"""Heat-map goal prediction: separable rasterization, grid predictor, goal selection.

World coordinates are meters; GridSpec is the one affine map between world
points and pixel centers, and it maps whole arrays of points at once. The
predictor is a small encoder-decoder convnet with skip connections that turns
stacked history heat-maps plus the semantic grid into per-frame future
heat-map logits; the last channel is the goal distribution. Training and
prediction share one goal stage: both reach the net through
`predict_heatmaps`, which alone lays out its input for a batch of windows.
Goal selection draws diverse goals categorically and takes the argmax pixel
as the common goal; `argmax_goals` is that rule's one home, and student-forced
training uses it too. With the test-time sampling trick it oversamples and
clusters the draws by k-means, which works on whole coordinate columns (no
loop over clusters) and stops once the labels repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import Parameter, Tensor, concat, conv2d, uniform_init, upsample2x


@dataclass(frozen=True)
class GridSpec:
    H: int
    W: int
    origin: tuple[float, float]  # world coords of pixel (0, 0) center
    resolution: float  # meters per pixel

    def __post_init__(self):
        if self.H < 1 or self.W < 1:
            raise ValueError(f"grid must be at least 1x1 pixels, got {self.H}x{self.W}")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be positive and finite, got {self.resolution}")

    def world_to_pixel(self, pos) -> tuple:
        """Continuous (rows, cols) pixel coordinates of (..., 2) world points."""
        pos = np.asarray(pos, dtype=np.float64)
        col = (pos[..., 0] - self.origin[0]) / self.resolution
        row = (pos[..., 1] - self.origin[1]) / self.resolution
        return row, col

    def pixel_to_world(self, row, col) -> np.ndarray:
        """(..., 2) world points of broadcastable row/col pixel coordinates."""
        x = self.origin[0] + col * self.resolution
        y = self.origin[1] + row * self.resolution
        return np.stack(np.broadcast_arrays(x, y), axis=-1)

    def contains(self, pos):
        """Whether each of the (..., 2) world points lies inside the grid extent."""
        row, col = self.world_to_pixel(pos)
        return ((-0.5 <= row) & (row <= self.H - 0.5)
                & (-0.5 <= col) & (col <= self.W - 0.5))


@dataclass
class SemanticGrid:
    grid: GridSpec
    channels: np.ndarray  # (C, H, W) class scores in [0, 1]

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 3 or self.channels.shape[0] < 1:
            raise ValueError("semantic grid needs at least one channel")


@dataclass
class GoalSet:
    diverse: np.ndarray  # (N, 2) world coords
    common: np.ndarray  # (2,) world coords


def rasterize_points(points: np.ndarray, grid: GridSpec, sigma_px: float) -> np.ndarray:
    """Isotropic Gaussians on (..., 2) world points at pixel centers: (..., H, W),
    each of sum 1: the outer product of a row and a column factor of sum 1 each, so
    H + W `exp`s a map. A point outside the grid is an error naming the first (row-major)."""
    if not sigma_px > 0:  # also catches NaN
        raise ValueError(f"sigma_px must be positive, got {sigma_px}")
    points = np.asarray(points, dtype=np.float64)
    inside = grid.contains(points).ravel()
    if not np.all(inside):
        i = int(np.argmin(inside))
        raise ValueError(f"position {i} {points.reshape(-1, 2)[i].tolist()} outside grid extent")
    rows, cols = grid.world_to_pixel(points)
    gr = np.exp(-0.5 * (np.arange(grid.H) - rows[..., None]) ** 2 / sigma_px ** 2)
    gc = np.exp(-0.5 * (np.arange(grid.W) - cols[..., None]) ** 2 / sigma_px ** 2)
    gr /= gr.sum(axis=-1, keepdims=True)
    gc /= gc.sum(axis=-1, keepdims=True)
    return gr[..., :, None] * gc[..., None, :]


class GoalNet:
    """Two-down / two-up convnet with skip connections; logistic pixel outputs.

    Two normalized coordinate channels are appended internally so the net can
    express absolute position preferences (goal anchors are scene-fixed)."""

    def __init__(self, in_channels: int, t_f: int = 12, base: int = 8,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels

        def conv_params(cin, cout):
            w = Parameter(uniform_init(rng, (cout, cin, 3, 3), cin * 9))
            b = Parameter(np.zeros(cout))
            return w, b

        self.enc1 = conv_params(in_channels + 2, base)
        self.enc2 = conv_params(base, 2 * base)
        self.enc3 = conv_params(2 * base, 2 * base)
        self.dec2 = conv_params(4 * base, 2 * base)
        self.dec1 = conv_params(3 * base, base)
        self.out = conv_params(base, t_f)

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, C_in, H, W) -> logits (B, t_f, H, W)."""
        b, _, h, w = x.data.shape
        rr, cc = np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w),
                             indexing="ij")
        coords = np.broadcast_to(np.stack([rr, cc]), (b, 2, h, w))
        x = concat([x, Tensor(coords)], axis=1)
        e1 = conv2d(x, *self.enc1).relu()
        e2 = conv2d(e1, *self.enc2, stride=2).relu()
        e3 = conv2d(e2, *self.enc3, stride=2).relu()
        d2 = conv2d(concat([upsample2x(e3), e2], axis=1), *self.dec2).relu()
        d1 = conv2d(concat([upsample2x(d2), e1], axis=1), *self.dec1).relu()
        return conv2d(d1, *self.out)

    def parameters(self) -> dict:
        out = {}
        for name in ("enc1", "enc2", "enc3", "dec2", "dec1", "out"):
            w, b = getattr(self, name)
            out[f"goal.{name}.w"] = w
            out[f"goal.{name}.b"] = b
        return out


def predict_heatmaps(hist_maps: np.ndarray, sem_channels: np.ndarray, net: GoalNet) -> Tensor:
    """Goal-net logits (B, t_f, H, W) of (B, t_h, H, W) history maps. The one
    place the net's input is laid out: history maps, then the (C, H, W)
    semantic channels broadcast over the batch."""
    sem_b = np.broadcast_to(sem_channels, (len(hist_maps),) + sem_channels.shape)
    x = np.concatenate([hist_maps, sem_b], axis=1)
    if x.shape[1] != net.in_channels:
        raise ValueError(f"predictor expects {net.in_channels} input channels, got {x.shape[1]}")
    return net.forward_t(Tensor(x))


# -- goal selection --


def argmax_goals(maps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(..., 2) world points of the argmax pixel of each (..., H, W) map, the
    lowest row-major index on ties."""
    maps = np.asarray(maps)
    flat = maps.reshape(maps.shape[:-2] + (-1,)).argmax(axis=-1)
    return grid.pixel_to_world(*np.divmod(flat, grid.W))


@dataclass(frozen=True)
class TTSTConfig:
    n_samples: int = 1000
    kmeans_iters: int = 20

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.kmeans_iters < 0:
            raise ValueError(f"kmeans_iters must be >= 0, got {self.kmeans_iters}")


def _kmeans(points: np.ndarray, k: int, iters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means with seeded farthest-point initialization; returns (k, 2) centers.

    Squared distances are `(x - cx)**2 + (y - cy)**2` on the two coordinate
    columns. A center moves to the mean of its members: three `bincount`s over
    the labels give counts, x sums and y sums (members added in index order),
    and an empty cluster keeps its center. The loop stops early at the first
    labelling that repeats the previous one, a fixed point of the update."""
    x, y = np.ascontiguousarray(points.T)
    chosen = [int(rng.integers(len(points)))]
    d2 = np.full(len(points), np.inf)  # squared distance to the nearest chosen center
    for _ in range(k - 1):
        c = chosen[-1]
        d2 = np.minimum(d2, (x - x[c]) ** 2 + (y - y[c]) ** 2)
        chosen.append(int(np.argmax(d2)))
    cx, cy = x[chosen], y[chosen]
    labels = None
    for _ in range(iters):
        new = np.argmin((x[:, None] - cx) ** 2 + (y[:, None] - cy) ** 2, axis=1)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        np.divide(np.bincount(labels, x, k), counts, out=cx, where=filled)
        np.divide(np.bincount(labels, y, k), counts, out=cy, where=filled)
    return np.stack([cx, cy], axis=1)


def select_goals(goal_map: np.ndarray, grid: GridSpec, N: int,
                 ttst: TTSTConfig | None = None,
                 rng: np.random.Generator | None = None) -> GoalSet:
    """Common goal = the map's `argmax_goals` point; diverse
    goals = N categorical pixel samples, or cluster centers of an oversampled
    draw when the test-time trick is enabled."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rng = rng if rng is not None else np.random.default_rng(0)
    goal_map = np.asarray(goal_map, dtype=np.float64)
    total = goal_map.sum()
    if total <= 0:
        raise ValueError("degenerate goal map (sum 0)")
    p = (goal_map / total).ravel()
    common = argmax_goals(goal_map, grid)

    n_draw = N
    if ttst is not None:
        if ttst.n_samples < N:
            raise ValueError("TTST sample count must be >= N")
        n_draw = ttst.n_samples
    idx = rng.choice(p.size, size=n_draw, p=p)
    pts = grid.pixel_to_world(*np.divmod(idx, grid.W))
    if ttst is not None and n_draw > N:
        diverse = _kmeans(pts, N, ttst.kmeans_iters, rng)
    else:
        diverse = pts[:N]
    return GoalSet(diverse=diverse, common=common)


# -- semantic grid file format --

_GRID_MAGIC = b"TRAJGRID"
_GRID_VERSION = 1


def save_semantic_grid(path, sem: SemanticGrid) -> None:
    """Header line `TRAJGRID 1 H W C ox oy res` then little-endian float32
    payload in channel/row-major order."""
    c = sem.channels.shape[0]
    header = (f"{_GRID_MAGIC.decode()} {_GRID_VERSION} {sem.grid.H} {sem.grid.W} {c} "
              f"{sem.grid.origin[0]!r} {sem.grid.origin[1]!r} {sem.grid.resolution!r}\n")
    with open(path, "wb") as f:
        f.write(header.encode())
        f.write(sem.channels.astype("<f4").tobytes())


def load_semantic_grid(path) -> SemanticGrid:
    with open(path, "rb") as f:
        header = f.readline().decode(errors="replace").split()
        raw = f.read()
    if header[:2] != [_GRID_MAGIC.decode(), str(_GRID_VERSION)] or len(header) != 8:
        raise ValueError("not a recognized semantic grid file")
    try:
        h, w, c = int(header[2]), int(header[3]), int(header[4])
        grid = GridSpec(h, w, (float(header[5]), float(header[6])), float(header[7]))
        payload = np.frombuffer(raw, dtype="<f4")
        if payload.size != c * h * w:
            raise ValueError(f"payload size {payload.size} != {c}*{h}*{w}")
        if not np.all(np.isfinite(payload)):
            raise ValueError("non-finite channel value")
        return SemanticGrid(grid, payload.reshape(c, h, w).astype(np.float64))
    except ValueError as e:
        raise ValueError(f"bad semantic grid: {e}") from e
