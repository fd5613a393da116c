"""Reverse-process step rules and the trunk/branch tree-sampling loop.

Three step rules: stochastic DDPM, deterministic DDPM (noise term removed)
and DDIM with eta-controlled stochasticity. Every sampler runs them through
one reverse-chain loop over (k_hi, k_lo) index pairs: DDPM chains step
k -> k-1, DDIM chains jump along a strided sub-sequence, and the tree sampler
runs one deterministic d-DDPM trunk under the common feature followed by N
DDIM branches under the diverse features. Finiteness is checked once per
chain output.

Trajectories are plain (t_f, 2) float64 arrays. Denoisers are passed in as
callables `denoiser(k, y, f) -> eps`, where `f` is whatever conditioning
object the caller uses (the sampler never inspects it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, posterior_variance


@dataclass(frozen=True)
class SamplerConfig:
    K: int = 100
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


# -- single-step rules --


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


def d_ddpm_step(Yk: np.ndarray, k: int, eps_pred: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Deterministic DDPM update (stochastic rule with the noise term removed)."""
    s._check(k)
    alpha = s.alpha(k)
    abar = s.alpha_bar(k)
    return (Yk - (1.0 - alpha) / np.sqrt(1.0 - abar) * np.asarray(eps_pred)) / np.sqrt(alpha)


def ddpm_step(Yk: np.ndarray, k: int, eps_pred: np.ndarray, z: np.ndarray,
              s: NoiseSchedule) -> np.ndarray:
    """Stochastic DDPM update: deterministic mean plus sqrt(posterior variance) z."""
    z = np.asarray(z, dtype=np.float64)
    if k == 1 and np.any(z != 0.0):
        raise ValueError("z must be zero at the final step (k=1)")
    mean = d_ddpm_step(Yk, k, eps_pred, s)
    return mean + np.sqrt(posterior_variance(s, k)) * z


def ddim_sigma(s: NoiseSchedule, k: int, eta: float) -> float:
    """DDIM noise scale for a single-index step k -> k-1."""
    return ddim_sigma_pair(s, k, k - 1, eta)


def ddim_sigma_pair(s: NoiseSchedule, k_hi: int, k_lo: int, eta: float) -> float:
    """DDIM noise scale for a jump from schedule index k_hi down to k_lo."""
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    if not 0 <= k_lo < k_hi <= s.K:
        raise ValueError(f"need 0 <= k_lo < k_hi <= K, got ({k_hi}, {k_lo})")
    abar_hi = s.alpha_bar(k_hi)
    abar_lo = s.alpha_bar(k_lo)
    radicand = eta * (1.0 - abar_lo) / (1.0 - abar_hi) * (1.0 - abar_hi / abar_lo)
    return float(np.sqrt(max(radicand, 0.0)))


def ddim_step(Yk: np.ndarray, k_hi: int, k_lo: int, eps_pred: np.ndarray,
              z: np.ndarray, eta: float, s: NoiseSchedule) -> np.ndarray:
    """DDIM update jumping from schedule index k_hi to k_lo."""
    if k_lo >= k_hi:
        raise ValueError(f"k_lo must be < k_hi, got ({k_hi}, {k_lo})")
    sigma = ddim_sigma_pair(s, k_hi, k_lo, eta)
    z = np.asarray(z, dtype=np.float64)
    if (sigma == 0.0 or k_lo == 0) and np.any(z != 0.0):
        raise ValueError("z must be zero when sigma is 0 or the jump ends at index 0")
    abar_hi = s.alpha_bar(k_hi)
    abar_lo = s.alpha_bar(k_lo)
    eps_coef = (np.sqrt(max(1.0 - abar_lo - sigma ** 2, 0.0))
                - np.sqrt(abar_lo * (1.0 - abar_hi) / abar_hi))
    return (np.sqrt(abar_lo / abar_hi) * Yk
            + eps_coef * np.asarray(eps_pred)
            + sigma * z)


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


def _step_rule(rule: str, eta: float, s: NoiseSchedule, stream: NoiseStream | None):
    """The `(y, k_hi, k_lo, eps) -> y` update of one rule. DDPM steps k_hi to
    k_hi - 1; DDIM jumps to k_lo. Stochastic rules draw z from `stream`."""
    if rule == "d_ddpm":
        return lambda y, k, _, eps: d_ddpm_step(y, k, eps, s)
    if rule == "ddpm":
        return lambda y, k, _, eps: ddpm_step(
            y, k, eps, stream.normal(y.shape) if k > 1 else np.zeros_like(y), s)

    def ddim(y, k_hi, k_lo, eps):
        if ddim_sigma_pair(s, k_hi, k_lo, eta) > 0.0 and k_lo > 0:
            z = stream.normal(y.shape)
        else:
            z = np.zeros_like(y)
        return ddim_step(y, k_hi, k_lo, eps, z, eta, s)
    return ddim


def _reverse_chain(y: np.ndarray, pairs, denoiser, f, step, name: str) -> np.ndarray:
    """Run `step` over the (k_hi, k_lo) pairs, one denoiser eval per pair."""
    for k_hi, k_lo in pairs:
        y = step(y, k_hi, k_lo, denoiser(k_hi, y, f))
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
    trunk = [(k, k - 1) for k in range(cfg.K, cfg.K - cfg.K_t, -1)]
    y = _reverse_chain(rng.normal((cfg.t_f, 2)), trunk, denoiser, f_common,
                       _step_rule("d_ddpm", cfg.eta, s, None), "trunk")
    pairs = ddim_subsequence(cfg.K, cfg.K_t, branch_step_count(cfg.K, cfg.K_I, cfg.K_t))
    return [_reverse_chain(y, pairs, denoiser, f_n, _step_rule("ddim", cfg.eta, s, rng.fork(n)),
                           f"branch {n}")
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
        pairs = ddim_subsequence(cfg.K, 0, cfg.K_I)
    else:
        pairs = [(k, k - 1) for k in range(cfg.K, 0, -1)]
    return [_reverse_chain(y_init, pairs, denoiser, f_n,
                           _step_rule(rule, cfg.eta, s, rng.fork(n)), f"{rule} chain {n}")
            for n, f_n in enumerate(f)]
