"""Minimal reverse-mode autodiff core and the layers built on it.

Everything runs on float64 numpy arrays. The Tensor class records a tape of
elementary ops; Parameter marks trainable leaves. Layers (Dense, LSTMCell,
conv2d) compose Tensor ops, so their gradients come from the same tape and
can all be checked against finite differences.

Each op records one edge `(parent, grad_fn)` per input, where `grad_fn(g)`
returns that input's gradient given the output's. A tensor keeps only edges
to tensors that need a gradient: a Parameter, or a tensor with edges of its
own. A tensor built from data therefore has no edges, and gradients nobody
reads (of data leaves, or conv2d's input gradient when the input is data) are
never computed. `Tensor.backward` is the one place that sums gradients into
`.grad`. A grad_fn never holds its own output, so a graph has no reference
cycles and is freed as soon as its last tensor is dropped. Inside a
`no_grad()` block no tensor keeps edges, so inference builds no graph and
each op's saved inputs (conv2d's phase buffer) are freed when it returns.

conv2d builds no patch matrix: each kernel tap is one matmul over a shifted
flat view of the padded input's stride phases, and the input gradient is the
exact adjoint of those reads, so one path serves every stride and kernel. Its
two gradients share one zero-padded copy of the output gradient.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NonFiniteError(RuntimeError):
    """Raised when a forward value or gradient stops being finite."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_recording = True  # whether new tensors keep their edges; see no_grad
_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


@contextmanager
def no_grad():
    """Within the block, ops record no edges: their results are constants
    that no `backward` reaches. The previous setting returns on exit, also
    when the block raises."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _needs_grad(t: Tensor) -> bool:  # a Parameter, or a tensor with edges of its own
    return bool(t._edges) or isinstance(t, Parameter)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # out of place: `__add__` hands the same array to both of its parents
    t.grad = g if t.grad is None else t.grad + g


class Tensor:
    __slots__ = ("data", "grad", "_edges")

    def __init__(self, data, edges=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._edges = tuple(e for e in edges if _needs_grad(e[0])) if _recording else ()

    @property
    def shape(self):
        return self.data.shape

    # -- graph traversal --

    def backward(self, seed: np.ndarray | None = None) -> None:
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, _ in node._edges:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:  # drop what an earlier backward through these nodes left
            if not isinstance(node, Parameter):
                node.grad = None
        _accumulate(self, np.asarray(seed, dtype=np.float64))
        for node in reversed(topo):
            for parent, grad_fn in node._edges:
                _accumulate(parent, grad_fn(node.grad))

    # -- elementary ops --

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor(self.data + other.data,
                      ((self, lambda g: _unbroadcast(g, self.data.shape)),
                       (other, lambda g: _unbroadcast(g, other.data.shape))))

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor(self.data * other.data,
                      ((self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
                       (other, lambda g: _unbroadcast(g * self.data, other.data.shape))))

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, p: float):
        return Tensor(self.data ** p, ((self, lambda g: g * p * self.data ** (p - 1)),))

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor(self.data @ other.data,
                      ((self, lambda g: g @ other.data.swapaxes(-1, -2)),
                       (other, lambda g: _unbroadcast(self.data.swapaxes(-1, -2) @ g,
                                                      other.data.shape))))

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, ((self, lambda g: g * y),))

    def log(self):
        return Tensor(np.log(self.data), ((self, lambda g: g / self.data),))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, ((self, lambda g: g * (1.0 - y ** 2)),))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor(y, ((self, lambda g: g * y * (1.0 - y)),))

    def relu(self):
        return Tensor(np.maximum(self.data, 0.0), ((self, lambda g: g * (self.data > 0.0)),))

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient passes only through unclipped entries."""
        return Tensor(np.clip(self.data, lo, hi),
                      ((self, lambda g: g * ((self.data > lo) & (self.data < hi))),))

    def sum(self, axis=None):
        return Tensor(self.data.sum(axis=axis),
                      ((self, lambda g: np.broadcast_to(
                          g if axis is None else np.expand_dims(g, axis), self.data.shape)),))

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), ((self, lambda g: g.reshape(self.data.shape)),))

    def __getitem__(self, idx):
        # basic indices read each element at most once, so the gradient is assigned
        if any(isinstance(i, bool) or not isinstance(i, _BASIC_INDEX) for i in np.index_exp[idx]):
            raise TypeError(f"Tensor takes basic indices only, got advanced index {idx!r}")
        def grad_fn(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            return full

        return Tensor(self.data[idx], ((self, grad_fn),))


class Parameter(Tensor):
    """Trainable leaf tensor with a persistent gradient accumulator."""

    def __init__(self, data):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]
    bounds = np.cumsum([0] + [d.shape[axis] for d in datas])

    def piece(lo, hi):
        return lambda g: np.split(g, [lo, hi], axis=axis)[1]

    return Tensor(np.concatenate(datas, axis=axis),
                  tuple((t, piece(lo, hi)) for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:])))


# -- convolution --

_BLOCK_BYTES = 1 << 19  # a batch block's conv buffers stay within a core's L2 cache


def _phase_split(x: np.ndarray, stride: int, pad: int, rows: int, cols: int) -> np.ndarray:
    """(B, C, H, W) zero-padded by `pad` as (B, C, stride**2, rows * cols): padded
    pixel (r, c) lies in phase (r % stride) * stride + c % stride at flat offset
    (r // stride) * cols + c // stride."""
    b, c, h, w = x.shape
    img = np.zeros((b, c, rows * stride, cols * stride))
    img[:, :, pad:pad + h, pad:pad + w] = x
    return (img.reshape(b, c, rows, stride, cols, stride).transpose(0, 1, 3, 5, 2, 4)
            .reshape(b, c, stride * stride, rows * cols))


def _phase_merge(xs: np.ndarray, stride: int, pad: int, cols: int, h: int, w: int) -> np.ndarray:
    """The adjoint of `_phase_split`: the phases interleaved back into the padded
    image, cropped to the (B, C, h, w) input."""
    b, c, _, n = xs.shape
    rows = n // cols
    img = (xs.reshape(b, c, stride, stride, rows, cols).transpose(0, 1, 4, 2, 5, 3)
           .reshape(b, c, rows * stride, cols * stride))
    return img[:, :, pad:pad + h, pad:pad + w]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """2D cross-correlation of (B, C, H, W) input with a (C_out, C, kh, kw)
    kernel; requires pad <= k - 1, so that every output row and column sees input.

    The padded input is split once into stride x stride phase images, each
    flattened `cols` wide (`_phase_split`). Tap (i, j) reads phase
    (i % stride, j % stride) from flat offset (i // stride) * cols + j // stride,
    and the forward sums `w[:, :, i, j] @ view` over the taps. An output row
    comes out `cols` wide; its cols - wo junk columns ran on into the next row
    and are dropped. With the output gradient g laid out the same way (junk
    columns zero), tap (i, j)'s weight gradient is `(g @ view.T).sum(0)`, and
    the input gradient is the adjoint of the forward's reads: each phase
    gathers `w[:, :, i, j].T @ g` over its taps, g shifted back by the tap's
    offset (a shift past a row's start lands on the previous row's zero junk
    columns), and `_phase_merge` interleaves the phases and crops the pad.
    Forward and input gradient run over cache-sized blocks of the batch, which
    change no sample's arithmetic.
    """
    cout, cin, kh, kw = w.data.shape
    bsz, c, h, wd = x.data.shape
    if c != cin:
        raise ValueError(f"conv2d channel mismatch: input {c}, weight {cin}")
    if pad > kh - 1 or pad > kw - 1:
        raise ValueError(f"conv2d pad {pad} exceeds kernel size - 1 ({kh}x{kw} kernel)")
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d {kh}x{kw} kernel does not fit the padded "
                         f"{h + 2 * pad}x{wd + 2 * pad} input")
    # the extra phase row holds the last output row's junk columns
    rows, cols = -(-(h + 2 * pad) // stride) + 1, -(-(wd + 2 * pad) // stride)
    xs = _phase_split(x.data, stride, pad, rows, cols)
    taps = [((i % stride) * stride + j % stride, (i // stride) * cols + j // stride)
            for i in range(kh) for j in range(kw)]
    wt = w.data.transpose(2, 3, 0, 1).reshape(len(taps), cout, cin)  # one matrix a tap
    n, lead = ho * cols, taps[-1][1]  # output columns; the largest offset
    step = max(1, _BLOCK_BYTES // (xs[:1].nbytes + 8 * cout * n))
    blocks = [slice(lo, lo + step) for lo in range(0, bsz, step)]
    out = np.zeros((bsz, cout, n))
    for blk in blocks:
        for t, (p, off) in enumerate(taps):
            out[blk] += wt[t] @ xs[blk, :, p, off:off + n]

    def spread(g):
        # g in `out`'s layout (junk columns zero) after `lead` zeros, one phase long;
        # splitting the contiguous last axis makes the reshape a view
        gs = np.zeros((len(g), cout, lead + rows * cols))
        gs[:, :, lead:lead + n].reshape(len(g), cout, ho, cols)[..., :wo] = g
        return gs

    handoff = [] if _needs_grad(w) and _needs_grad(x) else None  # w_grad runs first, same g

    def x_grad(g):
        gs = handoff.pop() if handoff else spread(g)
        dxs = np.zeros(xs.shape)
        for blk in blocks:
            for t, (p, off) in enumerate(taps):
                dxs[blk, :, p] += wt[t].T @ gs[blk, :, lead - off:lead - off + rows * cols]
        return _phase_merge(dxs, stride, pad, cols, h, wd)

    def w_grad(g):
        gs = spread(g)
        if handoff is not None:
            handoff.append(gs)
        gs = gs[:, :, lead:lead + n]
        dw = np.stack([np.matmul(gs, xs[:, :, p, off:off + n].transpose(0, 2, 1)).sum(axis=0)
                       for p, off in taps])
        return dw.transpose(1, 2, 0).reshape(w.data.shape)

    return Tensor(out.reshape(bsz, cout, ho, cols)[..., :wo] + b.data[:, None, None],
                  ((w, w_grad), (b, lambda g: g.reshape(len(g), cout, -1).sum(axis=(0, 2))),
                   (x, x_grad)))


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling on (B, C, H, W); its gradient sums 4 strided slices."""
    def grad_fn(g):
        return g[..., ::2, ::2] + g[..., ::2, 1::2] + g[..., 1::2, ::2] + g[..., 1::2, 1::2]

    return Tensor(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), ((x, grad_fn),))


# -- layers --


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = Parameter(uniform_init(rng, (n_in, n_out), n_in))
        self.b = Parameter(np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b

    def parameters(self):
        return {"w": self.w, "b": self.b}


class LSTMCell:
    """Standard gated recurrent cell (input/forget/output gates, tanh candidate)."""

    def __init__(self, n_in: int, hidden: int, rng: np.random.Generator):
        self.hidden = hidden
        self.wx = Parameter(uniform_init(rng, (n_in, 4 * hidden), n_in))
        self.wh = Parameter(uniform_init(rng, (hidden, 4 * hidden), hidden))
        self.b = Parameter(np.zeros(4 * hidden))

    def __call__(self, x: Tensor, h: Tensor, c: Tensor):
        nh = self.hidden
        gates = x @ self.wx + h @ self.wh + self.b
        i = gates[..., 0 * nh:1 * nh].sigmoid()
        f = gates[..., 1 * nh:2 * nh].sigmoid()
        o = gates[..., 2 * nh:3 * nh].sigmoid()
        g = gates[..., 3 * nh:4 * nh].tanh()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def parameters(self):
        return {"wx": self.wx, "wh": self.wh, "b": self.b}


class StepEmbedding:
    """Sinusoidal embedding of the diffusion step index."""

    def __init__(self, dim: int):
        if dim % 2 != 0:
            raise ValueError("step embedding dim must be even")
        self.dim = dim
        half = dim // 2
        self.freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
        self._steps: dict[int, np.ndarray] = {}

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        ang = k[..., None] * self.freqs
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)

    def step(self, k: int) -> np.ndarray:
        """The embedding of one integer step, computed by `__call__` once and
        then shared read-only. The embedding has no weights, so it never goes
        stale."""
        e = self._steps.get(k)
        if e is None:
            e = self._steps[k] = self(k)
            e.flags.writeable = False
        return e


# -- optimizer --


def adam_update(value, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps_opt=1e-8):
    """One Adam step for a single array; returns (value, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad ** 2
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    value = value - lr * m_hat / (np.sqrt(v_hat) + eps_opt)
    return value, m, v


class Adam:
    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad[...] = 0.0

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            p.data, self.m[name], self.v[name] = adam_update(
                p.data, p.grad, self.m[name], self.v[name], self.t, self.lr)


# -- checkpoints --

CHECKPOINT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    """Write a flat key->array map; round-trips bit-exactly."""
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    if "__format_version__" in payload:
        raise ValueError("reserved key __format_version__")
    payload["__format_version__"] = np.array(CHECKPOINT_VERSION)
    np.savez(path, **payload)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    # not np.load: it returns a bare array for an .npy file and, given a path,
    # leaves the file open when it is not a zip
    with np.lib.npyio.NpzFile(path) as f:
        if "__format_version__" not in f.files:
            raise ValueError("no __format_version__ entry")
        version = int(f["__format_version__"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        return {k: f[k] for k in f.files if k != "__format_version__"}
