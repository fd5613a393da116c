from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlab import sampler
from trajlab.sampler import (NoiseStream, SamplerConfig, branch_step_count,
                             ddim_subsequence, forward_noise, sample_standard,
                             step_coefficients, total_evals, tree_sample)
from trajlab.schedule import NoiseSchedule, make_linear_schedule

T_F = 12


def traj(value: float) -> np.ndarray:
    return np.full((T_F, 2), value)


def schedule_with(alpha_k: float, abar_k: float) -> NoiseSchedule:
    """Two-step schedule with alpha_2 = alpha_k and abar_2 = abar_k."""
    abar_prev = abar_k / alpha_k
    return NoiseSchedule(np.array([1.0 - abar_prev, 1.0 - alpha_k]))


class TestForwardNoise:
    def test_zero_noise(self):
        s = make_linear_schedule(10)
        y0 = traj(1.0)
        out = forward_noise(y0, 5, np.zeros((T_F, 2)), s)
        assert np.allclose(out, np.sqrt(s.alpha_bar(5)))

    def test_direct_arithmetic(self):
        # abar_k = 0.9, eps = 0.5 everywhere: sqrt(0.9) + sqrt(0.1)*0.5
        s = schedule_with(0.99, 0.9)
        out = forward_noise(traj(1.0), 2, np.full((T_F, 2), 0.5), s)
        expected = np.sqrt(0.9) + np.sqrt(0.1) * 0.5
        assert np.allclose(out, expected)
        assert expected == pytest.approx(1.106797, abs=1e-6)

    def test_shape_mismatch(self):
        s = make_linear_schedule(10)
        with pytest.raises(ValueError):
            forward_noise(traj(1.0), 5, np.zeros((3, 2)), s)

    def test_out_of_range_k(self):
        s = make_linear_schedule(10)
        with pytest.raises(ValueError):
            forward_noise(traj(1.0), 11, np.zeros((T_F, 2)), s)
        with pytest.raises(ValueError):
            forward_noise(np.zeros((2, T_F, 2)), np.array([3, 0]), np.zeros((2, T_F, 2)), s)

    def test_per_row_k_matches_single_rows_bitwise(self):
        s = make_linear_schedule(10)
        rng = np.random.default_rng(4)
        y0 = rng.standard_normal((5, T_F, 2))
        eps = rng.standard_normal((5, T_F, 2))
        k = np.array([1, 4, 4, 7, 10])
        batch = forward_noise(y0, k, eps, s)
        for i in range(5):
            assert np.array_equal(batch[i], forward_noise(y0[i], int(k[i]), eps[i], s))


class _ZeroNoiseForks:
    """Stream stub: the initial draw comes from a real NoiseStream; its forks
    draw zeros, count the draws in `draws` and call `on_draw` at each one."""

    def __init__(self, seed: int, on_draw=lambda: None):
        self._parent = NoiseStream(seed)
        self._on_draw = on_draw
        self.draws = 0

    def normal(self, shape) -> np.ndarray:
        return self._parent.normal(shape)

    def fork(self, index: int) -> SimpleNamespace:
        return SimpleNamespace(normal=self._zeros)

    def _zeros(self, shape) -> np.ndarray:
        self.draws += 1
        self._on_draw()
        return np.zeros(shape)


class TestDDPMSteps:
    def test_d_ddpm_scalar_case(self):
        # alpha_k = 0.99, abar_k = 0.9, eps_pred = 0.5 -> 0.989147
        s = schedule_with(0.99, 0.9)
        with mpmath.workdps(40):
            a, ab, e = mpmath.mpf("0.99"), mpmath.mpf("0.9"), mpmath.mpf("0.5")
            expected = float((1 / mpmath.sqrt(a)) * (1 - (1 - a) / mpmath.sqrt(1 - ab) * e))
        a, b, _ = step_coefficients(s, 2, 1, 1.0)
        out = a * traj(1.0) + b * np.full((T_F, 2), 0.5)
        assert np.allclose(out, expected)
        assert expected == pytest.approx(0.989147, abs=1e-6)

    def test_d_ddpm_deterministic_bitwise(self):
        s = make_linear_schedule(50)
        cfg = SamplerConfig(K=50, K_I=10, K_t=0, N=2)
        a = sample_standard(_CountingStub(), [0.0, 1.0], cfg, s, NoiseStream(0), "d_ddpm", T_F)
        b = sample_standard(_CountingStub(), [0.0, 1.0], cfg, s, NoiseStream(0), "d_ddpm", T_F)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta, tb)

    def test_ddpm_zero_z_equals_d_ddpm(self):
        s = make_linear_schedule(50)
        cfg = SamplerConfig(K=50, K_I=10, K_t=0, N=3)
        fs = [0.0, 1.0, 2.0]
        stoch = sample_standard(_CountingStub(), fs, cfg, s, _ZeroNoiseForks(1), "ddpm", T_F)
        det = sample_standard(_CountingStub(), fs, cfg, s, NoiseStream(1), "d_ddpm", T_F)
        for ta, tb in zip(stoch, det):
            assert np.array_equal(ta, tb)

    def test_ddpm_mean_plus_sigma(self):
        s = schedule_with(0.99, 0.9)
        z = np.ones((T_F, 2))
        a, b, sigma = step_coefficients(s, 2, 1, 1.0)
        out = a * traj(1.0) + b * np.full((T_F, 2), 0.5) + sigma * z
        beta_tilde = (1.0 - 0.9 / 0.99) / (1.0 - 0.9) * (1.0 - 0.99)
        mean = (1.0 - 0.01 / np.sqrt(0.1) * 0.5) / np.sqrt(0.99)
        assert mean == pytest.approx(0.989147, abs=1e-6)
        assert np.allclose(out, mean + np.sqrt(beta_tilde), atol=1e-12)

    def test_ddpm_draws_no_noise_at_last_step(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=0, N=1)
        ks, drawn_at = [], []
        stub = lambda k, y, f: ks.append(k) or 0.1 * y
        sample_standard(stub, [0.0], cfg, s, _ZeroNoiseForks(0, lambda: drawn_at.append(ks[-1])),
                        "ddpm", T_F)
        assert drawn_at == list(range(10, 1, -1))


class TestDDIM:
    def test_sigma_eta_zero(self):
        s = make_linear_schedule(50)
        for k in range(2, 51):
            assert step_coefficients(s, k, k - 1, 0.0)[2] == 0.0

    def test_sigma_direct_arithmetic(self):
        # abar_{k-1} = 0.95, abar_k = 0.9, eta = 1
        s = schedule_with(0.9 / 0.95, 0.9)
        expected = np.sqrt((1 - 0.95) / (1 - 0.9) * (1 - 0.9 / 0.95))
        assert step_coefficients(s, 2, 1, 1.0)[2] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.162221, abs=1e-5)

    def test_sigma_negative_eta(self):
        s = make_linear_schedule(10)
        with pytest.raises(ValueError):
            step_coefficients(s, 5, 4, -0.1)

    def test_degenerate_jump_identity(self):
        # abar equal at both ends and sigma 0 -> output equals input
        s = NoiseSchedule(np.array([0.1, 1e-12]))
        y = traj(1.3)
        a, b, sigma = step_coefficients(s, 2, 1, 0.0)
        assert sigma == 0.0
        out = a * y + b * np.full((T_F, 2), 0.7)
        assert np.allclose(out, y, atol=1e-5)

    def test_scalar_jump_oracle(self):
        # abar_hi = 0.9, abar_lo = 0.95, eps = 0.5, eta = 0
        s = schedule_with(0.9 / 0.95, 0.9)
        with mpmath.workdps(40):
            hi, lo, e = mpmath.mpf("0.9"), mpmath.mpf("0.95"), mpmath.mpf("0.5")
            expected = float(mpmath.sqrt(lo / hi) * 1
                             + (mpmath.sqrt(1 - lo) - mpmath.sqrt(lo * (1 - hi) / hi)) * e)
        a, b, _ = step_coefficients(s, 2, 1, 0.0)
        out = a * traj(1.0) + b * np.full((T_F, 2), 0.5)
        assert np.allclose(out, expected, atol=1e-12)

    def test_eta1_consecutive_matches_ddpm(self):
        # the unit-stride eta = 1 jump is the DDPM step:
        # a = 1/sqrt(alpha_k), b = -(1 - alpha_k) / (sqrt(1 - abar_k) sqrt(alpha_k))
        s = make_linear_schedule(100)
        rng = np.random.default_rng(3)
        for k in rng.integers(2, 101, size=20):
            a, b, _ = step_coefficients(s, int(k), int(k) - 1, 1.0)
            alpha, abar = 1.0 - s.betas[int(k) - 1], s.alpha_bar(int(k))
            assert a == pytest.approx(1.0 / np.sqrt(alpha), abs=1e-9)
            assert b == pytest.approx(-(1.0 - alpha) / (np.sqrt(1.0 - abar) * np.sqrt(alpha)),
                                      abs=1e-9)

    def test_rejects_bad_index_order(self):
        s = make_linear_schedule(10)
        with pytest.raises(ValueError):
            step_coefficients(s, 5, 5, 0.0)
        with pytest.raises(ValueError):
            step_coefficients(s, 11, 5, 0.0)


class TestNoiseDraws:
    @pytest.mark.parametrize("rule, eta, draws", [
        ("ddpm", 1.0, 29), ("d_ddpm", 1.0, 0), ("ddim", 0.0, 0), ("ddim", 1.0, 9)])
    def test_draws_per_chain(self, rule, eta, draws):
        s = make_linear_schedule(30)
        cfg = SamplerConfig(K=30, K_I=10, K_t=0, N=2, eta=eta)
        stream = _ZeroNoiseForks(0)
        sample_standard(_CountingStub(), [0.0, 1.0], cfg, s, stream, rule, T_F)
        assert stream.draws == 2 * draws

    def test_coefficients_computed_once_per_pair(self, monkeypatch):
        calls = []
        real = sampler.step_coefficients
        monkeypatch.setattr(sampler, "step_coefficients",
                            lambda *args: calls.append(args[1:3]) or real(*args))
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=5)
        tree_sample(_CountingStub(), 0.0, [float(i) for i in range(5)], cfg, s, NoiseStream(0),
                    T_F)
        assert len(calls) == 20 + 16 and len(set(calls)) == len(calls)
        calls.clear()
        sample_standard(_CountingStub(), [float(i) for i in range(5)], cfg, s, NoiseStream(0),
                        "ddpm", T_F)
        assert len(calls) == 100 and len(set(calls)) == len(calls)


class TestStepCounts:
    def test_reference_config(self):
        assert branch_step_count(100, 20, 20) == 16

    def test_no_trunk(self):
        assert branch_step_count(100, 20, 0) == 20

    def test_floor(self):
        assert branch_step_count(90, 20, 20) == 15

    def test_subsequence_reference_config(self):
        pairs = ddim_subsequence(100, 20, 16)
        assert len(pairs) == 16
        assert pairs[0][0] == 80
        assert pairs[-1][1] == 0
        strides = [hi - lo for hi, lo in pairs]
        assert all(s == 5 for s in strides)

    def test_subsequence_full_resolution(self):
        pairs = ddim_subsequence(100, 0, 100)
        assert pairs == [(k, k - 1) for k in range(100, 0, -1)]

    def test_subsequence_stride_two(self):
        assert ddim_subsequence(10, 0, 5) == [(10, 8), (8, 6), (6, 4), (4, 2), (2, 0)]

    def test_subsequence_rejects_oversized(self):
        with pytest.raises(ValueError):
            ddim_subsequence(10, 5, 6)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(top=st.integers(1, 400), K_t=st.integers(0, 100), data=st.data())
    def test_subsequence_strictly_decreasing_from_top_to_zero(self, top, K_t, data):
        # every K_b in [1, top] gives K_b chained jumps, each to a lower index
        K_b = data.draw(st.integers(1, top))
        pairs = ddim_subsequence(top + K_t, K_t, K_b)
        assert len(pairs) == K_b and pairs[0][0] == top and pairs[-1][1] == 0
        assert all(hi > lo for hi, lo in pairs)
        assert all(a[1] == b[0] for a, b in zip(pairs, pairs[1:]))


class _CountingStub:
    """Deterministic stub denoiser keyed by (k, conditioning id)."""

    def __init__(self, scale=0.1):
        self.count = 0
        self.scale = scale

    def __call__(self, k, y, f):
        self.count += 1
        fid = f if isinstance(f, (int, float)) else 0.0
        return self.scale * (np.sin(k + fid) + 0.1 * y)


class TestTreeSample:
    def test_eval_count_contract(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=3, eta=1.0)
        stub = _CountingStub()
        tree_sample(stub, 0.0, [1.0, 2.0, 3.0], cfg, s, NoiseStream(0), T_F)
        assert stub.count == 20 + 3 * 16

    def test_kt0_equals_standard_ddim_bitwise(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=0, N=4, eta=1.0)
        stub = _CountingStub()
        fs = [0.5, 1.5, 2.5, 3.5]
        a = tree_sample(stub, 9.0, fs, cfg, s, NoiseStream(7), T_F)
        b = sample_standard(stub, fs, cfg, s, NoiseStream(7), rule="ddim", t_f=T_F)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta, tb)

    def test_identical_conditions_eta0_bitwise_equal(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=3, eta=0.0)
        out = tree_sample(_CountingStub(), 1.0, [2.0, 2.0, 2.0], cfg, s, NoiseStream(5), T_F)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[1], out[2])

    def test_branch_permutation_equivariance(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=3, eta=1.0)
        fs = [1.0, 2.0, 3.0]
        out = tree_sample(_CountingStub(), 0.0, fs, cfg, s, NoiseStream(3), T_F)
        # permuting features permutes outputs only if noise streams were keyed
        # by branch index; instead check determinism of repeated runs and that
        # distinct features give distinct outputs
        again = tree_sample(_CountingStub(), 0.0, fs, cfg, s, NoiseStream(3), T_F)
        for ta, tb in zip(out, again):
            assert np.array_equal(ta, tb)
        assert not np.allclose(out[0], out[1])

    def test_trunk_output_fully_denoised(self):
        s = make_linear_schedule(50)
        cfg = SamplerConfig(K=50, K_I=10, K_t=10, N=2, eta=1.0)
        out = tree_sample(_CountingStub(), 0.0, [1.0, 2.0], cfg, s, NoiseStream(1), 5)
        assert all(t.shape == (5, 2) for t in out)


class TestChainFiniteness:
    def test_non_finite_trunk_names_the_chain(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=2, N=2)
        nan_under_common = lambda k, y, f: np.full_like(y, np.nan if f == "c" else 0.0)
        with pytest.raises(ValueError, match="trunk"):
            tree_sample(nan_under_common, "c", ["d", "d"], cfg, s, NoiseStream(0), 3)

    def test_non_finite_branch_names_the_chain(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=2, N=2)
        nan_in_branch_1 = lambda k, y, f: np.full_like(y, np.nan if f == 1 else 0.0)
        with pytest.raises(ValueError, match="branch 1"):
            tree_sample(nan_in_branch_1, 0, [0, 1], cfg, s, NoiseStream(0), 3)

    def test_non_finite_standard_chain_names_the_rule(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=0, N=1)
        nan = lambda k, y, f: np.full_like(y, np.nan)
        with pytest.raises(ValueError, match="d_ddpm chain 0"):
            sample_standard(nan, [0], cfg, s, NoiseStream(0), "d_ddpm", 3)


def _per_chain_loop(y, rows, denoiser, f, stream):
    """The loop the lockstep chain replaced: one chain at a time, all its steps."""
    for k_hi, a, b, sigma, draw in rows:
        y = a * y + b * denoiser(k_hi, y, f)
        if draw:
            y = y + sigma * stream.normal(y.shape)
    return y


def per_chain_sample(denoiser, f_common, fs, cfg, s, rng, rule, t_f):
    """Oracle: tree_sample (rule "ts") or sample_standard, chain after chain."""
    if rule == "ts":
        trunk = sampler._chain_rows(s, sampler._unit_pairs(cfg.K, cfg.K_t), 1.0, False)
        y = _per_chain_loop(rng.normal((t_f, 2)), trunk, denoiser, f_common, None)
        pairs = ddim_subsequence(cfg.K, cfg.K_t, branch_step_count(cfg.K, cfg.K_I, cfg.K_t))
        rows = sampler._chain_rows(s, pairs, cfg.eta, True)
    else:
        y = rng.normal((t_f, 2))
        if rule == "ddim":
            rows = sampler._chain_rows(s, ddim_subsequence(cfg.K, 0, cfg.K_I), cfg.eta, True)
        else:
            rows = sampler._chain_rows(s, sampler._unit_pairs(cfg.K, cfg.K), 1.0, rule == "ddpm")
    return np.stack([_per_chain_loop(y, rows, denoiser, f, rng.fork(n))
                     for n, f in enumerate(fs)])


def lockstep_sample(denoiser, f_common, fs, cfg, s, rng, rule, t_f):
    if rule == "ts":
        return tree_sample(denoiser, f_common, fs, cfg, s, rng, t_f)
    return sample_standard(denoiser, fs, cfg, s, rng, rule, t_f)


class _LoggedForks:
    """Stream stub: the parent draws from a real NoiseStream; fork n draws the
    constant n + 1. Every draw is logged as ("draw", n) or ("parent",)."""

    def __init__(self, seed: int, log: list):
        self._parent = NoiseStream(seed)
        self._log = log

    def normal(self, shape) -> np.ndarray:
        self._log.append(("parent",))
        return self._parent.normal(shape)

    def fork(self, index: int) -> SimpleNamespace:
        def normal(shape):
            self._log.append(("draw", index))
            return np.full(shape, index + 1.0)
        return SimpleNamespace(normal=normal)


RULES = ["ts", "ddpm", "d_ddpm", "ddim"]


class TestLockstepChain:
    CFG = SamplerConfig(K=30, K_I=10, K_t=6, N=4, eta=0.7)

    @pytest.mark.parametrize("rule", RULES)
    def test_stub_denoiser_matches_per_chain_loop_bitwise(self, rule):
        s = make_linear_schedule(30)
        fs = [0.5, 1.5, 2.5, 3.5]
        out = lockstep_sample(_CountingStub(), 9.0, fs, self.CFG, s, NoiseStream(17), rule, T_F)
        oracle = per_chain_sample(_CountingStub(), 9.0, fs, self.CFG, s, NoiseStream(17), rule,
                                  T_F)
        assert out.shape == (4, T_F, 2)
        assert out.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("rule", RULES)
    def test_real_denoiser_matches_per_chain_loop_bitwise(self, rule):
        from trajlab.denoiser import NoisePredictor
        net = NoisePredictor(t_f=T_F, d_f=6, width=16, embed_dim=8, blocks=2,
                             rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        s = make_linear_schedule(30)
        fs = [rng.standard_normal(6) for _ in range(4)]
        f_common = rng.standard_normal(6)
        out = lockstep_sample(net.predict_noise, f_common, fs, self.CFG, s, NoiseStream(23),
                              rule, T_F)
        oracle = per_chain_sample(net.predict_noise, f_common, fs, self.CFG, s, NoiseStream(23),
                                  rule, T_F)
        assert out.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("rule", RULES)
    def test_steps_are_step_major_and_chain_n_draws_from_fork_n(self, rule):
        cfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3, eta=1.0)
        s = make_linear_schedule(10)
        log = []
        stub = lambda k, y, f: log.append(("eval", k, f)) or 0.1 * y
        out = lockstep_sample(stub, "c", [0, 1, 2], cfg, s, _LoggedForks(4, log), rule, T_F)
        expected = [("parent",)]
        if rule == "ts":
            expected += [("eval", k, "c") for k in (10, 9)]
            rows = sampler._chain_rows(s, ddim_subsequence(10, 2, 4), 1.0, True)
        elif rule == "ddim":
            rows = sampler._chain_rows(s, ddim_subsequence(10, 0, 5), 1.0, True)
        else:
            rows = sampler._chain_rows(s, sampler._unit_pairs(10, 10), 1.0, rule == "ddpm")
        for k_hi, _, _, _, draw in rows:
            expected += [("eval", k_hi, n) for n in range(3)]
            expected += [("draw", n) for n in range(3)] if draw else []
        assert log == expected
        oracle = per_chain_sample(lambda k, y, f: 0.1 * y, "c", [0, 1, 2], cfg, s,
                                  _LoggedForks(4, []), rule, T_F)
        assert out.tobytes() == oracle.tobytes()

    def test_first_non_finite_step_and_chain_are_named(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3)
        nan_at_6 = lambda k, y, f: np.full_like(y, np.nan if (k, f) == (6, 2) else 0.0)
        with pytest.raises(ValueError, match="^branch 2: .*non-finite at step 6$"):
            tree_sample(nan_at_6, 0, [0, 1, 2], cfg, s, NoiseStream(0), 3)

    def test_overflowing_update_is_caught_at_the_end(self):
        # every output is finite, but chain 1's update at step 2 (a = b = ~31.6)
        # overflows: the final state is checked too
        s = NoiseSchedule(np.array([0.1, 0.999]))
        cfg = SamplerConfig(K=2, K_I=1, K_t=0, N=2)
        huge_in_chain_1 = lambda k, y, f: np.full_like(y, -1e307 if f == 1 else 0.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="^d_ddpm chain 1: non-finite values after the last step$"):
            sample_standard(huge_in_chain_1, [0, 1], cfg, s, NoiseStream(0), "d_ddpm", 3)


class TestSampleStandard:
    def test_ddpm_eval_count(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=20)
        stub = _CountingStub()
        sample_standard(stub, [float(i) for i in range(20)], cfg, s, NoiseStream(0), "ddpm", T_F)
        assert stub.count == 2000

    def test_ddim_eval_count(self):
        s = make_linear_schedule(100)
        cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=20)
        stub = _CountingStub()
        sample_standard(stub, [float(i) for i in range(20)], cfg, s, NoiseStream(0), "ddim", T_F)
        assert stub.count == 400

    def test_d_ddpm_identical_features_identical_outputs(self):
        s = make_linear_schedule(60)
        cfg = SamplerConfig(K=60, K_I=10, K_t=0, N=3)
        out = sample_standard(_CountingStub(), [1.0, 1.0, 1.0], cfg, s, NoiseStream(2), "d_ddpm",
                              T_F)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[1], out[2])

    def test_unknown_rule(self):
        s = make_linear_schedule(10)
        cfg = SamplerConfig(K=10, K_I=5, K_t=0, N=1)
        with pytest.raises(ValueError):
            sample_standard(_CountingStub(), [0.0], cfg, s, NoiseStream(0), "euler", T_F)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.data())
def test_eval_count_closed_forms(K, data):
    K_I = data.draw(st.integers(1, K))
    K_t = data.draw(st.integers(0, K))
    N = data.draw(st.integers(1, 40))
    cfg = SamplerConfig(K=K, K_I=K_I, K_t=K_t, N=N)
    assert total_evals("ddpm", cfg) == N * K
    assert total_evals("d_ddpm", cfg) == N * K
    assert total_evals("ddim", cfg) == N * K_I
    assert total_evals("ts", cfg) == K_t + N * ((K - K_t) * K_I // K)


class TestNoiseStream:
    def test_reproducible(self):
        a = NoiseStream(42).normal((4, 2))
        b = NoiseStream(42).normal((4, 2))
        assert np.array_equal(a, b)

    def test_fork_independent_of_parent_consumption(self):
        s1 = NoiseStream(42)
        s1.normal((10,))
        child_after = s1.fork(3).normal((5,))
        child_fresh = NoiseStream(42).fork(3).normal((5,))
        assert np.array_equal(child_after, child_fresh)

    def test_forks_differ(self):
        s = NoiseStream(1)
        assert not np.array_equal(s.fork(0).normal((8,)), s.fork(1).normal((8,)))
