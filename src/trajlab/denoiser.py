"""Conditional noise predictor for the reverse diffusion process.

Conditioning is by concatenation: flattened noisy trajectory, sinusoidal
step embedding, and the condition feature feed a dense trunk with residual
blocks. `forward_t` builds the autodiff graph for training; `predict_noise`
is the matching plain-numpy path used inside sampling loops, where per-call
overhead dominates: it reads each step's embedding from a cache.
"""

from __future__ import annotations

import numpy as np

from .nncore import Dense, StepEmbedding, Tensor, concat


class NoisePredictor:
    def __init__(self, t_f: int = 12, d_f: int = 64, width: int = 64,
                 embed_dim: int = 32, blocks: int = 3,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.t_f = t_f
        self.d_f = d_f
        self.width = width
        self.blocks = blocks
        self.embed = StepEmbedding(embed_dim)
        self.inp = Dense(t_f * 2 + embed_dim + d_f, width, rng)
        self.res = [(Dense(width, width, rng), Dense(width, width, rng))
                    for _ in range(blocks)]
        self.outp = Dense(width, t_f * 2, rng)

    def forward_t(self, k: np.ndarray, y_flat: np.ndarray, f: Tensor) -> Tensor:
        """Graph forward: steps (B,), trajectories (B, t_f*2), features Tensor (B, d_f).

        `f` stays in the graph so encoder parameters receive gradients."""
        if not isinstance(f, Tensor):
            f = Tensor(f)
        x = concat([Tensor(y_flat), Tensor(self.embed(k)), f], axis=1)
        h = self.inp(x).tanh()
        for d1, d2 in self.res:
            h = h + d2(d1(h).tanh())
        return self.outp(h)

    def predict_noise(self, k: int, Yk: np.ndarray, f) -> np.ndarray:
        """Fast evaluation path; `f` is a ConditionFeature or a raw vector."""
        vec = getattr(f, "vector", f)
        x = np.concatenate([np.asarray(Yk).ravel(), self.embed.step(k), np.asarray(vec)])
        h = np.tanh(x @ self.inp.w.data + self.inp.b.data)
        for d1, d2 in self.res:
            h = h + np.tanh(h @ d1.w.data + d1.b.data) @ d2.w.data + d2.b.data
        out = h @ self.outp.w.data + self.outp.b.data
        if not np.isfinite(out).all():
            raise ValueError(f"noise predictor produced non-finite output at step {k}")
        return out.reshape(self.t_f, 2)

    def parameters(self) -> dict:
        out = {"denoiser.inp.w": self.inp.w, "denoiser.inp.b": self.inp.b,
               "denoiser.outp.w": self.outp.w, "denoiser.outp.b": self.outp.b}
        for i, (d1, d2) in enumerate(self.res):
            out[f"denoiser.res{i}.d1.w"] = d1.w
            out[f"denoiser.res{i}.d1.b"] = d1.b
            out[f"denoiser.res{i}.d2.w"] = d2.w
            out[f"denoiser.res{i}.d2.b"] = d2.b
        return out
