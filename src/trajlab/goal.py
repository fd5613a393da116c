"""Heat-map goal prediction: separable rasterization, grid predictor, goal selection.

World coordinates are meters; GridSpec is the one affine map between world
points and pixel centers, and it maps whole arrays of points at once. The
predictor is a small encoder-decoder convnet with skip connections that turns
stacked history heat-maps plus the semantic grid into per-frame future
heat-map logits; the last channel is the goal distribution. Each decoder
layer convolves its upsampled input at low resolution (`upsample_conv`), so no
upsampled map is built. Training and prediction share one goal stage: both
reach the net through `predict_heatmaps`, which alone lays out its input for a
batch of windows.
Goal selection draws diverse goals categorically and takes the argmax pixel
as the common goal; `argmax_goals` is that rule's one home, and student-forced
training uses it too. With the test-time sampling trick it oversamples and
clusters the draws by k-means, which works on whole coordinate columns (no
loop over clusters) and stops once the labels repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nncore import Parameter, Tensor, concat, conv2d, uniform_init


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


# A 3-tap filter (r0, r1, r2) over a 2x-repeated signal is, at output phase 0,
# the 2-tap filter (r0, r1 + r2) over the signal and, at phase 1, (r0 + r1, r2)
# one sample later: _TAPS[i, a, r] is 1 where tap a of phase i sums tap r.
_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
# _FOLD[2i + j, 3r + c, 2a + b]: the same fold on both axes, flat taps in and out
_FOLD = np.einsum("iar,jbc->ijrcab", _TAPS, _TAPS).reshape(4, 9, 4)


def _phase_kernels(w: Tensor, c_low: int) -> Tensor:
    """The (4 C_out, c_low, 2, 2) kernel folded from the first c_low input channels
    of a (C_out, C, 3, 3) kernel: channel block 2i + j holds output phase (i, j).
    The fold is one matmul by the constant 0/1 `_FOLD` (each folded tap sums
    the 3x3 taps it covers), its gradient one by the transpose."""
    cout = w.shape[0]
    k = np.matmul(w.data[:, :c_low].reshape(cout * c_low, 9), _FOLD)  # (4, cout c_low, 4)

    def grad_fn(g):
        dw = np.zeros(w.data.shape)
        dw[:, :c_low] = (np.matmul(g.reshape(k.shape), _FOLD.transpose(0, 2, 1)).sum(axis=0)
                         .reshape(cout, c_low, 3, 3))
        return dw

    return Tensor(k.reshape(4 * cout, c_low, 2, 2), ((w, grad_fn),))


def _add_phases(y: Tensor, p: Tensor) -> Tensor:
    """(B, C, 2H, 2W) `y` plus the phases of (B, 4C, H + 1, W + 1) `p` interleaved:
    pixel (2r + i, 2q + j) adds channel block 2i + j of `p` at (r + i, q + j)."""
    bsz, c, h2, w2 = y.shape
    h, wd = h2 // 2, w2 // 2
    phases = (bsz, 2, 2, c, h + 1, wd + 1)
    pd = p.data.reshape(phases)
    out = np.empty(y.shape)
    for i in (0, 1):
        for j in (0, 1):
            np.add(y.data[:, :, i::2, j::2], pd[:, i, j, :, i:i + h, j:j + wd],
                   out=out[:, :, i::2, j::2])

    def p_grad(g):
        dp = np.zeros(phases)
        for i in (0, 1):
            for j in (0, 1):
                dp[:, i, j, :, i:i + h, j:j + wd] = g[:, :, i::2, j::2]
        return dp.reshape(p.shape)

    return Tensor(out, ((y, lambda g: g), (p, p_grad)))


def upsample_conv(low: Tensor, skip: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`conv2d(concat([upsample2x(low), skip], axis=1), w, b)` for a 3x3 kernel
    with pad 1, without the upsampled map: the skip channels' 3x3 convolution
    plus, for the low channels, one 2x2 pad-1 convolution of `low` whose four
    channel blocks are the output's four pixel phases (the sub-pixel identity:
    a 3-tap filter over a 2x-repeated row is a 2-tap filter per output phase).
    The phases of that (H + 1, W + 1) output are cropped and interleaved."""
    (bsz, c_low, h, wd), (bs, _, hs, ws) = low.shape, skip.shape
    if (bs, hs, ws) != (bsz, 2 * h, 2 * wd):
        raise ValueError(f"skip map {skip.shape} is not twice the low-resolution map "
                         f"{low.shape}")
    phases = conv2d(low, _phase_kernels(w, c_low), Tensor(np.zeros(4 * w.shape[0])))
    return _add_phases(conv2d(skip, w[:, c_low:], b), phases)


@lru_cache(maxsize=64)
def _coord_channels(h: int, w: int) -> np.ndarray:
    """The net's two coordinate channels for an h x w map, rows and columns
    from -1 to 1: (2, h, w), built once per map size and read-only."""
    rr, cc = np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w), indexing="ij")
    coords = np.stack([rr, cc])
    coords.flags.writeable = False
    return coords


class GoalNet:
    """Two-down / two-up convnet with skip connections; logistic pixel outputs.

    Two normalized coordinate channels are appended internally so the net can
    express absolute position preferences (goal anchors are scene-fixed)."""

    def __init__(self, in_channels: int, t_f: int, base: int, rng: np.random.Generator):
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
        x = concat([x, Tensor(np.broadcast_to(_coord_channels(h, w), (b, 2, h, w)))], axis=1)
        e1 = conv2d(x, *self.enc1).relu()
        e2 = conv2d(e1, *self.enc2, stride=2).relu()
        e3 = conv2d(e2, *self.enc3, stride=2).relu()
        d2 = upsample_conv(e3, e2, *self.dec2).relu()
        d1 = upsample_conv(d2, e1, *self.dec1).relu()
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
    semantic channels broadcast over the batch; `GoalNet.forward_t` appends
    its two coordinate channels after them."""
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
                 ttst: TTSTConfig | None = None, *, rng: np.random.Generator) -> np.ndarray:
    """(N + 1, 2) world goals: row 0 is the common goal, the map's `argmax_goals`
    point; rows 1.. are the N diverse goals, categorical pixel samples, or cluster
    centers of an oversampled draw when the test-time trick is enabled."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
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
    return np.vstack([common, diverse])


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
