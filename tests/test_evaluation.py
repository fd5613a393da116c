from dataclasses import replace

import numpy as np
import pytest

import trajlab.model
from trajlab.cli import _split
from trajlab.data import TrajectoryWindow
from trajlab.evaluation import (BENCH_HEADER, BenchRow, ade, bench_samplers, best_of_n, fde,
                                predict_windows, read_predictions_json, write_bench_csv,
                                write_predictions_json)
from trajlab.goal import GridSpec, SemanticGrid, TTSTConfig
from trajlab.model import ModelConfig, PredictionModel
from trajlab.sampler import NoiseStream, SamplerConfig, total_evals
from trajlab.schedule import make_linear_schedule


def brute_ade(pred, gt):
    total = 0.0
    for p, g in zip(pred, gt):
        total += np.sqrt((p[0] - g[0]) ** 2 + (p[1] - g[1]) ** 2)
    return total / len(pred)


class TestPointMetrics:
    def test_ade_hand_value(self):
        # displacements (0, 5): 3-4-5 triangle at the last frame
        pred = np.array([[0.0, 0.0], [3.0, 4.0]])
        gt = np.zeros((2, 2))
        assert ade(pred, gt) == pytest.approx(2.5)
        assert fde(pred, gt) == pytest.approx(5.0)

    def test_zero_on_identical(self, rng):
        t = rng.standard_normal((12, 2))
        assert ade(t, t) == 0.0
        assert fde(t, t) == 0.0

    def test_matches_brute_force_on_1000_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            pred = rng.standard_normal((n, 2)) * 10
            gt = rng.standard_normal((n, 2)) * 10
            assert ade(pred, gt) == pytest.approx(brute_ade(pred, gt), rel=1e-12)
            assert fde(pred, gt) == pytest.approx(
                np.hypot(*(pred[-1] - gt[-1])), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ade(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            fde(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_translation_invariance_of_differences(self, rng):
        pred = rng.standard_normal((5, 2))
        gt = rng.standard_normal((5, 2))
        shift = np.array([3.7, -1.2])
        assert ade(pred + shift, gt + shift) == pytest.approx(ade(pred, gt))


class TestBestOfN:
    def test_independent_minimization(self):
        # trajectory A best in ADE, trajectory B best in FDE
        gt = np.zeros((2, 2))
        a = np.array([[0.0, 0.0], [0.0, 3.0]])  # ade 1.5, fde 3
        b = np.array([[4.0, 0.0], [0.0, 1.0]])  # ade 2.5, fde 1
        best_ade, best_fde = best_of_n(np.stack([a, b]), gt)
        assert best_ade == pytest.approx(1.5)
        assert best_fde == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            preds = rng.standard_normal((n, 6, 2))
            gt = rng.standard_normal((6, 2))
            best_ade, best_fde = best_of_n(preds, gt)
            assert best_ade == pytest.approx(min(brute_ade(p, gt) for p in preds))
            assert best_fde == pytest.approx(min(np.hypot(*(p[-1] - gt[-1]))
                                                 for p in preds))

    def test_monotone_in_set_size(self, rng):
        preds = rng.standard_normal((20, 6, 2))
        gt = rng.standard_normal((6, 2))
        ades = [best_of_n(preds[:n], gt)[0] for n in range(1, 21)]
        fdes = [best_of_n(preds[:n], gt)[1] for n in range(1, 21)]
        assert all(a >= b for a, b in zip(ades, ades[1:]))
        assert all(a >= b for a, b in zip(fdes, fdes[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_of_n(np.zeros((0, 5, 2)), np.zeros((5, 2)))


def tiny_setup(n_windows: int):
    """A tiny model, its grid, a schedule and `n_windows` windows of one agent each."""
    grid = GridSpec(12, 12, (0.5, 0.5), 1.0)
    cfg = ModelConfig(t_h=4, t_f=3, d_f=8, encoder_hidden=8, denoiser_width=8,
                      denoiser_blocks=1, embed_dim=4, goal_base_channels=4,
                      sem_channels=1, sigma_px=1.0)
    model = PredictionModel(cfg, grid)
    sem = SemanticGrid(grid, np.ones((1, 12, 12)))
    sched = make_linear_schedule(20)
    path = np.stack([np.linspace(2, 8, 7), np.full(7, 5.0)], axis=1)
    windows = [TrajectoryWindow("s", i, path[:4], path[4:], 0) for i in range(n_windows)]
    return model, sem, sched, windows


class TestBench:
    @pytest.fixture
    def setup(self):
        return tiny_setup(2)

    def test_rows_and_exact_eval_counts(self, setup):
        model, sem, sched, windows = setup
        base = SamplerConfig(K=20, K_I=5, K_t=0, N=4)
        rows = bench_samplers(model, windows, sem, sched, base, trunk_steps=(4, 8), seed=0,
                              repeats=1)
        assert [r.sampler for r in rows] == ["ddpm", "ddim", "d_ddpm", "ts", "ts"]
        for r in rows:
            assert r.evals == total_evals(r.sampler, r.cfg)
            assert np.isfinite(r.ade) and np.isfinite(r.fde)
            assert r.ms >= 0.0

    def test_extra_denoiser_call_is_named(self, setup, monkeypatch):
        # a tree sampler that evaluates one row more per window than the closed form
        model, sem, sched, windows = setup
        tree_sample = trajlab.model.tree_sample

        def one_call_too_many(denoise, f_common, *args):
            denoise(1, np.zeros((model.cfg.t_f, 2)), f_common)
            return tree_sample(denoise, f_common, *args)

        monkeypatch.setattr(trajlab.model, "tree_sample", one_call_too_many)
        base = SamplerConfig(K=20, K_I=5, K_t=0, N=4)
        expected = total_evals("ts", replace(base, K_t=4))
        with pytest.raises(RuntimeError, match=f"^ts: measured {expected + 1} denoiser evals, "
                                               f"expected {expected}$"):
            bench_samplers(model, windows, sem, sched, base, trunk_steps=(4,), seed=0,
                           repeats=1)

    @pytest.mark.parametrize("rule", ["ts", "ddim", "ddpm", "d_ddpm"])
    def test_denoiser_rows_per_window(self, setup, rule):
        model, sem, sched, windows = setup
        cfg = SamplerConfig(K=20, K_I=5, K_t=4, N=4)
        ttst = TTSTConfig(n_samples=50) if rule == "ts" else None
        before = model.denoiser.rows
        for n, _ in enumerate(predict_windows(model, windows, sem, sched, cfg, 0, rule, ttst),
                              start=1):
            assert model.denoiser.rows - before == n * total_evals(rule, cfg)

    def test_denoiser_left_unpatched(self, setup):
        # the bench reads the denoiser's own row count and assigns no attribute,
        # so a later patch of the class method sees this model's calls
        model, sem, sched, windows = setup
        bench_samplers(model, windows, sem, sched, SamplerConfig(K=20, K_I=5, N=2),
                       trunk_steps=(4,), seed=0, repeats=1)
        assert "predict_noise" not in vars(model.denoiser)

    def test_csv_layout(self, setup, tmp_path):
        row = BenchRow("ts", SamplerConfig(K=20, K_I=5, K_t=4, N=4),
                       1.25, 2.5, 36, 7.125)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, [row])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == BENCH_HEADER
        assert lines[1] == "ts,20,5,4,1.0,4,1.250000,2.500000,36,7.125"


class TestPredictWindows:
    @pytest.fixture
    def setup(self):
        return tiny_setup(5)

    @staticmethod
    def state(g: np.random.Generator) -> tuple:
        s = g.bit_generator.state["state"]
        return s["state"], s["inc"]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_every_generator_of_a_run_has_its_own_state(self, setup, seed, monkeypatch):
        # the split's generator, then per window its goal and noise generators and
        # every chain's fork of the noise: no two start from one PCG64 state
        model, sem, sched, windows = setup
        cfg = SamplerConfig(K=20, K_I=5, K_t=4, N=4)  # eta 1: every branch draws noise
        states = []
        default_rng = np.random.default_rng

        def recording_rng(*args):
            g = default_rng(*args)
            states.append(self.state(g))
            return g

        with pytest.MonkeyPatch.context() as split:
            split.setattr(np.random, "default_rng", recording_rng)
            _split(windows, {"run": {"seed": seed}, "train": {"val_fraction": 0.4}})
        assert len(states) == 1
        fork, predict = NoiseStream.fork, model.predict_window

        def recording_fork(stream, index):
            child = fork(stream, index)
            states.append(self.state(child._rng))
            return child

        def recording_predict(history, sem, cfg, schedule, rng, goal_rng, **kwargs):
            states.extend([self.state(goal_rng), self.state(rng._rng)])
            with pytest.MonkeyPatch.context() as chains:  # the forks this window makes
                chains.setattr(NoiseStream, "fork", recording_fork)
                return predict(history, sem, cfg, schedule, rng, goal_rng, **kwargs)

        monkeypatch.setattr(model, "predict_window", recording_predict)
        list(predict_windows(model, windows, sem, sched, cfg, seed, "ts", None))
        assert len(states) == 1 + len(windows) * (2 + cfg.N)
        assert len(set(states)) == len(states)

    def test_reproducible_per_seed(self, setup):
        model, sem, sched, windows = setup
        cfg = SamplerConfig(K=20, K_I=5, K_t=4, N=4)

        def run(seed):
            return b"".join(p.tobytes() for _, p in predict_windows(
                model, windows, sem, sched, cfg, seed, "ts", TTSTConfig(n_samples=50)))

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestPredictionsJson:
    def test_round_trip(self, tmp_path, rng):
        window = TrajectoryWindow("eth", 4, rng.standard_normal((4, 2)),
                                  rng.standard_normal((5, 2)), 780)
        preds = rng.standard_normal((3, 5, 2))
        path = tmp_path / "preds.json"
        assert write_predictions_json(path, iter([(window, preds)])) == 1
        back = read_predictions_json(path)
        assert back[0]["scene"] == "eth"
        assert back[0]["agent"] == 4
        assert back[0]["frame_base"] == 780
        np.testing.assert_allclose(back[0]["predictions"], preds)
        np.testing.assert_allclose(back[0]["gt"], window.future)

    @pytest.mark.parametrize("predictions, gt, message", [
        ("[[[true, false]]]", "[[0, 0]]", "record 0: predictions/gt are not arrays of numbers"),
        ("[[[0, 0]]]", "[[0, \"1\"]]", "record 0: predictions/gt are not arrays of numbers"),
        ("[[[0, 0]], [[1]]]", "[[0, 0]]", "record 0: predictions/gt are not arrays of numbers"),
        ("[[[1" + "0" * 400 + ", 0]]]", "[[0, 0]]", "record 0: non-finite predictions or gt"),
        ("[[[0, 0]]]", "[[0, 0, 0]]", r"record 0: predictions \(1, 1, 2\) and gt \(1, 3\)"),
    ])
    def test_record_schema(self, tmp_path, predictions, gt, message):
        # booleans once read as 1.0 and 0.0, and a huge integer as an OverflowError
        path = tmp_path / "preds.json"
        path.write_text('[{"scene": "s", "agent": 0, "frame_base": 0, '
                        f'"predictions": {predictions}, "gt": {gt}}}]')
        with pytest.raises(ValueError, match=f"^{message}"):
            read_predictions_json(path)

    def test_payload_must_be_a_list(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text('{"scene": "eth"}')
        with pytest.raises(ValueError, match="JSON list"):
            read_predictions_json(path)
