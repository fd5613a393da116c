"""Conditional noise predictor for the reverse diffusion process.

Conditioning is by concatenation: flattened noisy trajectory, sinusoidal
step embedding, and the condition feature feed a dense trunk with residual
blocks. `forward_t` builds the autodiff graph for training; `predict_noise`
is the matching plain-numpy path on one row, used inside sampling loops, where
per-call overhead dominates: it reads each step's embedding from a cache and
leaves the finiteness check to the sampler, which makes it once per step.
`rows` counts the rows `predict_noise` has evaluated; the sampler bench reads it.
"""

from __future__ import annotations

import numpy as np

from .nncore import Dense, StepEmbedding, Tensor, concat


class NoisePredictor:
    def __init__(self, t_f: int, d_f: int, width: int, embed_dim: int, blocks: int,
                 rng: np.random.Generator):
        self.t_f = t_f
        self.rows = 0
        self.embed = StepEmbedding(embed_dim)
        self.inp = Dense(t_f * 2 + embed_dim + d_f, width, rng)
        self.res = [(Dense(width, width, rng), Dense(width, width, rng))
                    for _ in range(blocks)]
        self.outp = Dense(width, t_f * 2, rng)

    def forward_t(self, k: np.ndarray, y_flat: np.ndarray, f: Tensor) -> Tensor:
        """Graph forward: steps (B,), trajectories (B, t_f*2), features Tensor (B, d_f).

        `f` stays in the graph so encoder parameters receive gradients."""
        x = concat([Tensor(y_flat), Tensor(self.embed(k)), f], axis=1)
        h = self.inp(x).tanh()
        for d1, d2 in self.res:
            h = h + d2(d1(h).tanh())
        return self.outp(h)

    def predict_noise(self, k: int, Yk: np.ndarray, f) -> np.ndarray:
        """Fast evaluation path on one (t_f, 2) row; `f` is a ConditionFeature or
        a raw vector. The sampler checks its output for non-finite values."""
        self.rows += 1
        vec = getattr(f, "vector", f)
        x = np.concatenate([np.asarray(Yk).ravel(), self.embed.step(k), np.asarray(vec)])
        h = np.tanh(np.dot(x, self.inp.w.data) + self.inp.b.data)
        for d1, d2 in self.res:
            h += np.dot(np.tanh(np.dot(h, d1.w.data) + d1.b.data), d2.w.data)
            h += d2.b.data
        out = np.dot(h, self.outp.w.data) + self.outp.b.data
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
