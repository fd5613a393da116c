"""The reverse-process jump rule and the trunk/branch tree-sampling loop.

One jump rule, `y <- a y + b eps + sigma z` from schedule index k_hi down to
k_lo (DDIM, Song et al. 2020), with two parameterisations: the (k_hi, k_lo)
pairs, unit steps or a strided sub-sequence, and eta. DDPM is the unit-stride
jump at eta = 1, and d-DDPM is DDPM without the noise draw. A chain's
coefficients are computed once, then one loop applies them: the tree sampler
runs a d-DDPM trunk under the common feature, then N DDIM branches that share
one coefficient list. Finiteness is checked once per chain output.

Trajectories are plain (t_f, 2) float64 arrays. Denoisers are passed in as
callables `denoiser(k, y, f) -> eps`, where `f` is whatever conditioning
object the caller uses (the sampler never inspects it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule


@dataclass(frozen=True)
class SamplerConfig:
    K: int  # no default: K is the schedule's, stated once in make_linear_schedule
    K_I: int = 20
    K_t: int = 20
    eta: float = 1.0
    N: int = 20
    t_f: int = 12

    def __post_init__(self):
        if not 0 <= self.K_t <= self.K:
            raise ValueError(f"need 0 <= K_t <= K, got K_t={self.K_t}, K={self.K}")
        if not 1 <= self.K_I <= self.K:
            raise ValueError(f"need 1 <= K_I <= K, got K_I={self.K_I}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


class NoiseStream:
    """Seeded standard-normal source with index-keyed independent children.

    The same (seed, spawn path) always yields the same draw sequence; children
    forked at different indices are mutually independent regardless of how
    much the parent has been consumed.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self._seed = int(seed)
        self._spawn_key = _spawn_key
        self._rng = np.random.default_rng(
            np.random.SeedSequence(self._seed, spawn_key=_spawn_key))

    def normal(self, shape) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def fork(self, index: int) -> "NoiseStream":
        return NoiseStream(self._seed, self._spawn_key + (int(index),))


# -- forward process and reverse jump --


def forward_noise(Y0: np.ndarray, k, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Closed-form forward process: sqrt(abar_k) Y0 + sqrt(1 - abar_k) eps.

    `k` is one step index, or one index per row of a batch `Y0` (B, t_f, 2)."""
    Y0 = np.asarray(Y0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != Y0.shape:
        raise ValueError(f"eps shape {eps.shape} != trajectory shape {Y0.shape}")
    k = np.asarray(k)
    if np.any(k < 1) or np.any(k > s.K):
        raise ValueError(f"step index {k} outside [1, {s.K}]")
    abar = s.alpha_bars[k - 1].reshape(k.shape + (1,) * (Y0.ndim - k.ndim))
    return np.sqrt(abar) * Y0 + np.sqrt(1.0 - abar) * eps


def step_coefficients(s: NoiseSchedule, k_hi: int, k_lo: int,
                      eta: float) -> tuple[float, float, float]:
    """The jump k_hi -> k_lo as `y <- a y + b eps + sigma z` (DDIM, eta-scaled
    sigma). A unit jump at eta = 1 is the DDPM step, sigma^2 its posterior
    variance."""
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    if not 0 <= k_lo < k_hi <= s.K:
        raise ValueError(f"need 0 <= k_lo < k_hi <= K, got ({k_hi}, {k_lo})")
    abar_hi = s.alpha_bar(k_hi)
    abar_lo = s.alpha_bar(k_lo)
    radicand = eta * (1.0 - abar_lo) / (1.0 - abar_hi) * (1.0 - abar_hi / abar_lo)
    sigma = float(np.sqrt(max(radicand, 0.0)))
    a = np.sqrt(abar_lo / abar_hi)
    b = (np.sqrt(max(1.0 - abar_lo - sigma ** 2, 0.0))
         - np.sqrt(abar_lo * (1.0 - abar_hi) / abar_hi))
    return a, b, sigma


# -- step-count bookkeeping --


def branch_step_count(K: int, K_I: int, K_t: int) -> int:
    """Number of branch-stage steps: floor((1 - K_t/K) * K_I)."""
    if not 0 <= K_t <= K:
        raise ValueError("need 0 <= K_t <= K")
    if K_I < 1:
        raise ValueError("K_I must be >= 1")
    return (K - K_t) * K_I // K


def ddim_subsequence(K: int, K_t: int, K_b: int) -> list[tuple[int, int]]:
    """Evenly strided (k_hi, k_lo) pairs covering K - K_t down to 0."""
    top = K - K_t
    if K_b < 1:
        raise ValueError("K_b must be >= 1")
    if K_b > top:
        raise ValueError(f"K_b={K_b} exceeds available steps {top}")
    idx = np.rint(np.linspace(top, 0, K_b + 1)).astype(int)
    pairs = [(int(idx[i]), int(idx[i + 1])) for i in range(K_b)]
    if any(hi <= lo for hi, lo in pairs):
        raise ValueError("sub-sequence not strictly decreasing")
    return pairs


def _unit_pairs(K: int, n_steps: int) -> list[tuple[int, int]]:
    """The first n_steps unit pairs (k, k - 1) down from K."""
    return [(k, k - 1) for k in range(K, K - n_steps, -1)]


def total_evals(rule: str, cfg: SamplerConfig) -> int:
    """Closed-form denoiser evaluation count for a full N-prediction run."""
    if rule in ("ddpm", "d_ddpm"):
        return cfg.N * cfg.K
    if rule == "ddim":
        return cfg.N * cfg.K_I
    if rule == "ts":
        return cfg.K_t + cfg.N * branch_step_count(cfg.K, cfg.K_I, cfg.K_t)
    raise ValueError(f"unknown rule {rule!r}")


# -- full chains --


def _chain_rows(s: NoiseSchedule, pairs, eta: float, stochastic: bool) -> list[tuple]:
    """One `(k_hi, a, b, sigma, draw)` row per (k_hi, k_lo) pair. A row draws
    noise when the rule is stochastic, sigma > 0 and the jump ends above 0."""
    rows = []
    for k_hi, k_lo in pairs:
        a, b, sigma = step_coefficients(s, k_hi, k_lo, eta)
        rows.append((k_hi, a, b, sigma, stochastic and sigma > 0.0 and k_lo > 0))
    return rows


def _reverse_chain(y: np.ndarray, rows, denoiser, f, stream, name: str) -> np.ndarray:
    """Apply the rows' updates in order, one denoiser eval per row."""
    for k_hi, a, b, sigma, draw in rows:
        y = a * y + b * denoiser(k_hi, y, f)
        if draw:
            y = y + sigma * stream.normal(y.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{name} produced non-finite values")
    return y


def _check_run(cfg: SamplerConfig, s: NoiseSchedule, n_features: int) -> None:
    if s.K != cfg.K:
        raise ValueError(f"schedule has K={s.K} but config says K={cfg.K}")
    if n_features != cfg.N:
        raise ValueError(f"expected {cfg.N} features, got {n_features}")


def tree_sample(denoiser, f_common, f_diverse: list, cfg: SamplerConfig,
                s: NoiseSchedule, rng: NoiseStream) -> list[np.ndarray]:
    """Trunk/branch sampling: one shared deterministic trunk conditioned on the
    common feature, then one DDIM branch per diverse feature.

    Denoiser cost is K_t + N * K_b regardless of how the branches interleave.
    """
    _check_run(cfg, s, len(f_diverse))
    trunk = _chain_rows(s, _unit_pairs(cfg.K, cfg.K_t), 1.0, stochastic=False)
    y = _reverse_chain(rng.normal((cfg.t_f, 2)), trunk, denoiser, f_common, None, "trunk")
    pairs = ddim_subsequence(cfg.K, cfg.K_t, branch_step_count(cfg.K, cfg.K_I, cfg.K_t))
    branch = _chain_rows(s, pairs, cfg.eta, stochastic=True)
    return [_reverse_chain(y, branch, denoiser, f_n, rng.fork(n), f"branch {n}")
            for n, f_n in enumerate(f_diverse)]


def sample_standard(denoiser, f: list, cfg: SamplerConfig, s: NoiseSchedule,
                    rng: NoiseStream, rule: str) -> list[np.ndarray]:
    """N independent full reverse chains under one of the baseline rules.

    All chains share the initial Gaussian draw (drawn once from the parent
    stream) and consume per-chain noise from index-keyed forked streams, which
    makes tree_sample with K_t=0 bitwise-reproducible by rule="ddim".
    """
    if rule not in ("ddpm", "d_ddpm", "ddim"):
        raise ValueError(f"unknown sampling rule {rule!r}")
    _check_run(cfg, s, len(f))
    y_init = rng.normal((cfg.t_f, 2))
    if rule == "ddim":
        rows = _chain_rows(s, ddim_subsequence(cfg.K, 0, cfg.K_I), cfg.eta, stochastic=True)
    else:
        rows = _chain_rows(s, _unit_pairs(cfg.K, cfg.K), 1.0, stochastic=rule == "ddpm")
    return [_reverse_chain(y_init, rows, denoiser, f_n, rng.fork(n), f"{rule} chain {n}")
            for n, f_n in enumerate(f)]
