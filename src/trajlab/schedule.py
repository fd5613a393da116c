"""Diffusion noise schedule: the beta and alpha-bar tables.

Step indices are 1-based (k = 1..K); alpha_bar(0) is defined as 1 so the
final denoising step is well formed. Tables are computed once in double
precision and shared by every sampler and the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-D array")
        if not np.all((betas > 0.0) & (betas < 1.0)):  # NaN fails too
            raise ValueError("betas must lie in (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - betas))
        self.betas.setflags(write=False)
        self.alpha_bars.setflags(write=False)

    @property
    def K(self) -> int:
        return self.betas.size

    def _check(self, k: int, lo: int = 1):
        if not lo <= k <= self.K:
            raise ValueError(f"step index {k} outside [{lo}, {self.K}]")

    def alpha_bar(self, k: int) -> float:
        self._check(k, lo=0)
        return 1.0 if k == 0 else float(self.alpha_bars[k - 1])


def make_linear_schedule(K: int = 100, beta_start: float = 1e-4,
                         beta_end: float = 0.05) -> NoiseSchedule:
    """Linearly spaced betas, endpoints included (K=1 gives [beta_start])."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, K) if K > 1 else np.array([beta_start])
    return NoiseSchedule(betas)


def posterior_variance(s: NoiseSchedule, k: int) -> float:
    """Reverse-process posterior variance ((1-abar_{k-1})/(1-abar_k)) * beta_k."""
    s._check(k)
    abar_prev = s.alpha_bar(k - 1)
    abar = s.alpha_bar(k)
    return (1.0 - abar_prev) / (1.0 - abar) * s.betas[k - 1]
