import numpy as np
import pytest

from trajlab.data import TrajectoryWindow
from trajlab.goal import GridSpec, SemanticGrid, argmax_goals
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from trajlab.nncore import Tensor
from trajlab.sampler import NoiseStream, SamplerConfig
from trajlab.schedule import make_linear_schedule
from trajlab.train import (TrainConfig, Trainer, combined_loss, diffusion_loss,
                           goal_loss)

GRID = GridSpec(12, 12, (0.5, 0.5), 1.0)


def tiny_setup(teacher_forcing=True, epochs=1, seed=0):
    cfg = ModelConfig(t_h=4, t_f=3, d_f=8, encoder_hidden=8, denoiser_width=8,
                      denoiser_blocks=1, embed_dim=4, goal_base_channels=4,
                      sem_channels=1, sigma_px=1.0, init_seed=seed)
    model = PredictionModel(cfg, GRID)
    sem = SemanticGrid(GRID, np.ones((1, 12, 12)))
    sched = make_linear_schedule(10)
    tcfg = TrainConfig(epochs=epochs, batch_size=4, lr=1e-3, seed=seed,
                       teacher_forcing=teacher_forcing)
    return model, sem, sched, Trainer(model, sem, sched, tcfg)


def tiny_windows(n=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        start = rng.uniform(2.0, 4.0, size=2)
        step = rng.uniform(0.2, 0.6, size=2)
        path = start + np.arange(7)[:, None] * step
        out.append(TrajectoryWindow("s", i, path[:4], path[4:], 0))
    return out


class TestGoalLoss:
    def test_perfect_half_prediction(self):
        # p = 0.5 everywhere, t = 0.5 everywhere -> BCE = ln 2
        pred = Tensor(np.full((2, 12, 12), 0.5))
        target = np.full((2, 12, 12), 0.5)
        assert float(goal_loss(pred, target).data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_confident_correct(self):
        # p = 0.9 on t = 1 -> -ln 0.9
        pred = Tensor(np.full((1, 12, 12), 0.9))
        target = np.ones((1, 12, 12))
        assert float(goal_loss(pred, target).data) == pytest.approx(-np.log(0.9), rel=1e-9)

    def test_clip_keeps_loss_finite(self):
        pred = Tensor(np.zeros((1, 12, 12)))
        target = np.ones((1, 12, 12))
        assert np.isfinite(goal_loss(pred, target).data)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            goal_loss(Tensor(np.ones((1, 12, 12))), np.ones((2, 12, 12)))


class TestDiffusionLoss:
    def test_perfect_denoiser_gives_zero(self):
        # a denoiser returning exactly the drawn eps has zero loss; reproduce
        # the draw with the same seeded generator
        sched = make_linear_schedule(10)
        y0 = np.zeros((1, 3, 2))

        class Oracle:
            def forward_t(self, k, yk, f):
                rng = np.random.default_rng(99)
                rng.integers(1, 11, size=1)
                return Tensor(rng.standard_normal((1, 3, 2)).reshape(1, -1))

        loss = diffusion_loss(y0, None, Oracle(), sched, np.random.default_rng(99))
        assert float(loss.data) == 0.0

    def test_zero_denoiser_mean_squared_noise(self):
        sched = make_linear_schedule(10)
        y0 = np.zeros((1, 3, 2))

        class Zero:
            def forward_t(self, k, yk, f):
                return Tensor(np.zeros((1, 6)))

        rng = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        ref.integers(1, 11, size=1)
        eps = ref.standard_normal((1, 3, 2))
        assert float(diffusion_loss(y0, None, Zero(), sched, rng).data) == pytest.approx(
            float(np.mean(eps ** 2)))


def test_combined_loss_weighting():
    assert combined_loss(0.5, 0.1, 20.0) == pytest.approx(2.5)
    assert combined_loss(1.25, 0.0, 20.0) == 1.25
    assert combined_loss(0.0, 2.0, 0.0) == 0.0


class TestTrainer:
    def test_loss_decreases(self):
        model, sem, sched, trainer = tiny_setup(epochs=30)
        hist = trainer.fit(tiny_windows(16))
        assert hist[-1]["l_total"] < hist[0]["l_total"]

    def test_bit_reproducible(self):
        h1 = tiny_setup(epochs=3)[3].fit(tiny_windows(8))
        h2 = tiny_setup(epochs=3)[3].fit(tiny_windows(8))
        for a, b in zip(h1, h2):
            assert a == b

    def test_lr_decays(self):
        _, _, _, trainer = tiny_setup(epochs=3)
        hist = trainer.fit(tiny_windows(8))
        lrs = [h["lr"] for h in hist]
        assert lrs[1] == pytest.approx(lrs[0] * trainer.cfg.lr_decay)
        assert lrs[2] < lrs[1] < lrs[0]

    def test_csv_log_written(self, tmp_path):
        _, _, _, trainer = tiny_setup(epochs=2)
        log = tmp_path / "metrics.csv"
        hist = trainer.fit(tiny_windows(8), log_path=log)
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,l_goal,l_traj,l_total,lr"
        assert len(lines) == 3
        assert float(lines[1].split(",")[2]) == pytest.approx(hist[0]["l_traj"], abs=1e-7)

    def test_empty_training_set_rejected(self):
        _, _, _, trainer = tiny_setup()
        with pytest.raises(ValueError):
            trainer.train_epoch([])

    def test_max_seconds_stops_early(self):
        _, _, _, trainer = tiny_setup(epochs=500)
        hist = trainer.fit(tiny_windows(8), max_seconds=0.0)
        assert len(hist) == 1

    def test_semantic_grid_off_the_model_grid_rejected(self):
        # same shape, origin shifted by half a metre: the maps would not line up
        model, _, sched, _ = tiny_setup()
        shifted = GridSpec(12, 12, (1.0, 0.5), 1.0)
        trainer = Trainer(model, SemanticGrid(shifted, np.ones((1, 12, 12))), sched,
                          TrainConfig(batch_size=4))
        with pytest.raises(ValueError, match=r"semantic grid .*1\.0, 0\.5.* does not "
                                             r"match the model's grid .*0\.5, 0\.5"):
            trainer.train_epoch(tiny_windows(4))

    def test_failed_prediction_leaves_training_recording(self):
        # predict_window builds no graph; if one that raises left the tape off,
        # the next training step would silently update nothing
        windows = tiny_windows(4)
        ref_model, _, _, ref_trainer = tiny_setup()
        ref = ref_trainer.train_epoch(windows)
        model, sem, sched, trainer = tiny_setup()
        outside = windows[0].history + np.array([20.0, 0.0])
        with pytest.raises(ValueError, match="outside grid"):
            model.predict_window(outside, sem, SamplerConfig(K=10, K_I=5, K_t=2, N=3, t_f=3),
                                 sched, NoiseStream(0), np.random.default_rng(0))
        assert trainer.train_epoch(windows) == ref
        for name, p in model.parameters().items():
            assert p.data.tobytes() == ref_model.parameters()[name].data.tobytes(), name

    def test_student_forcing_path_runs(self):
        model, sem, sched, trainer = tiny_setup(teacher_forcing=False, epochs=2)
        hist = trainer.fit(tiny_windows(8))
        assert len(hist) == 2
        assert all(np.isfinite(h["l_total"]) for h in hist)


def tiny_batch(n=4):
    windows = tiny_windows(n)
    return np.stack([w.history for w in windows]), np.stack([w.future for w in windows])


def test_student_forcing_conditions_on_argmax_goals(monkeypatch):
    model, sem, _, trainer = tiny_setup(teacher_forcing=False)
    histories, futures = tiny_batch()
    want = argmax_goals(model.goal_logits(histories, sem).data[:, -1], GRID)
    seen = []
    condition = model.condition
    monkeypatch.setattr(model, "condition", lambda h, g: seen.append(g) or condition(h, g))
    trainer._batch_losses(histories, futures)
    assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()


def test_trajectory_loss_is_translation_invariant():
    # the condition and the diffusion target live in the agent frame, so a
    # constant shift of the whole batch leaves l_traj unchanged
    histories, futures = tiny_batch()
    shift = np.array([1.25, 0.5])
    _, ref = tiny_setup()[3]._batch_losses(histories, futures)
    _, moved = tiny_setup()[3]._batch_losses(histories + shift, futures + shift)
    assert abs(float(moved.data) - float(ref.data)) < 1e-12


class TestLossDecoupling:
    def _grads(self, loss_tensor, model):
        for p in model.parameters().values():
            p.grad[...] = 0.0
        loss_tensor.backward()
        return {k: p.grad.copy() for k, p in model.parameters().items()}

    def test_trajectory_loss_never_touches_goal_net(self):
        model, sem, sched, trainer = tiny_setup()
        windows = tiny_windows(4)
        histories = np.stack([w.history for w in windows])
        futures = np.stack([w.future for w in windows])
        _, l_traj = trainer._batch_losses(histories, futures)
        grads = self._grads(l_traj, model)
        for name, g in grads.items():
            if name.startswith("goal."):
                assert np.all(g == 0.0), name
        assert any(np.any(g != 0.0) for n, g in grads.items()
                   if n.startswith("denoiser."))

    def test_goal_loss_never_touches_trajectory_modules(self):
        model, sem, sched, trainer = tiny_setup()
        windows = tiny_windows(4)
        histories = np.stack([w.history for w in windows])
        futures = np.stack([w.future for w in windows])
        l_goal, _ = trainer._batch_losses(histories, futures)
        grads = self._grads(l_goal, model)
        for name, g in grads.items():
            if name.startswith(("denoiser.", "encoder.")):
                assert np.all(g == 0.0), name
        assert any(np.any(g != 0.0) for n, g in grads.items()
                   if n.startswith("goal."))
