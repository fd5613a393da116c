import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajlab import condition, goal
from trajlab.data import TrajectoryWindow
from trajlab.goal import GridSpec, SemanticGrid, argmax_goals, rasterize_points
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from conftest import finite_difference, lstm_chain, rel_error, upsample_conv_reference
from trajlab.nncore import Parameter, Tensor, adam_update
from trajlab.sampler import NoiseStream, SamplerConfig
from trajlab.schedule import make_linear_schedule
from trajlab.train import (BCE_CLIP, TrainConfig, Trainer, combined_loss, diffusion_loss,
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


def goal_loss_chain(probs: Tensor, target: np.ndarray) -> Tensor:
    """The goal loss as a chain of Tensor ops on sigmoid probabilities, the
    composition `goal_loss` replaces, kept as the oracle."""
    p = probs.clip(BCE_CLIP, 1.0 - BCE_CLIP)
    t = Tensor(target)
    return (-(t * p.log() + (1.0 - t) * (1.0 - p).log())).mean()


class TestGoalLoss:
    def test_perfect_half_prediction(self):
        # logit 0 -> p = 0.5 everywhere, t = 0.5 everywhere -> BCE = ln 2
        logits = Tensor(np.zeros((2, 12, 12)))
        target = np.full((2, 12, 12), 0.5)
        assert float(goal_loss(logits, target).data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_confident_correct(self):
        # logit ln 9 -> p = 0.9 on t = 1 -> -ln 0.9
        logits = Tensor(np.full((1, 12, 12), np.log(9.0)))
        target = np.ones((1, 12, 12))
        assert float(goal_loss(logits, target).data) == pytest.approx(-np.log(0.9), rel=1e-9)

    def test_clip_keeps_loss_finite(self):
        # sigmoid(-50) ~ 2e-22 is clipped to BCE_CLIP
        logits = Tensor(np.full((1, 12, 12), -50.0))
        target = np.ones((1, 12, 12))
        assert np.isfinite(goal_loss(logits, target).data)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            goal_loss(Tensor(np.ones((1, 12, 12))), np.ones((2, 12, 12)))

    def test_finite_difference_gradient(self, rng):
        x0 = rng.uniform(-3.0, 3.0, size=(2, 3, 4, 4))
        target = rng.uniform(0.0, 1.0, size=x0.shape)
        p = Parameter(x0.copy())
        goal_loss(p, target).backward()
        num = finite_difference(lambda v: float(goal_loss(Tensor(v), target).data), x0)
        assert rel_error(p.grad, num) < 1e-7

    def test_gradient_is_zero_where_clipped(self, rng):
        x0 = rng.uniform(-3.0, 3.0, size=(2, 6, 6))
        x0[0, :2] = -40.0  # p below BCE_CLIP
        x0[1, 3:] = 40.0  # p rounds to 1, above 1 - BCE_CLIP
        target = rng.uniform(0.0, 1.0, size=x0.shape)
        p = Parameter(x0)
        goal_loss(p, target).backward()
        clipped = np.abs(x0) == 40.0
        assert np.all(p.grad[clipped] == 0.0)
        assert np.all(p.grad[~clipped] != 0.0)

    def test_matches_tensor_chain(self, rng):
        # logits spanning the clip on both sides, against blurred 0/1 targets
        x0 = rng.uniform(-20.0, 20.0, size=(4, 3, 8, 8))
        target = rng.uniform(0.0, 1.0, size=x0.shape) * (rng.uniform(size=x0.shape) < 0.3)
        p_op, p_chain = Parameter(x0), Parameter(x0)
        op, chain = goal_loss(p_op, target), goal_loss_chain(p_chain.sigmoid(), target)
        assert float(op.data) == pytest.approx(float(chain.data), rel=1e-15, abs=0.0)
        (op * 20.0).backward()
        (chain * 20.0).backward()
        assert rel_error(p_op.grad, p_chain.grad) < 1e-12


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

        rng = np.random.default_rng(99)
        k = rng.integers(1, 11, size=1)
        loss = diffusion_loss(y0, None, Oracle(), sched, k, rng.standard_normal((1, 3, 2)))
        assert float(loss.data) == 0.0

    def test_zero_denoiser_mean_squared_noise(self):
        sched = make_linear_schedule(10)
        y0 = np.zeros((1, 3, 2))

        class Zero:
            def forward_t(self, k, yk, f):
                return Tensor(np.zeros((1, 6)))

        rng = np.random.default_rng(5)
        k, eps = rng.integers(1, 11, size=1), rng.standard_normal((1, 3, 2))
        ref = np.random.default_rng(5)
        ref.integers(1, 11, size=1)
        want = float(np.mean(ref.standard_normal((1, 3, 2)) ** 2))
        assert float(diffusion_loss(y0, None, Zero(), sched, k, eps).data) == pytest.approx(want)


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

    def test_csv_row_written_as_its_epoch_ends(self, tmp_path):
        # a run killed in epoch 2 keeps epoch 1's row
        _, _, _, trainer = tiny_setup(epochs=2)
        log = tmp_path / "metrics.csv"
        seen = []
        train_epoch = trainer.train_epoch

        def reading_epoch(windows):
            seen.append(log.read_text())
            return train_epoch(windows)

        trainer.train_epoch = reading_epoch
        hist = trainer.fit(tiny_windows(8), log_path=log)
        assert seen[0] == "epoch,l_goal,l_traj,l_total,lr\n"
        assert seen[1].split("\n")[1].startswith(f"1,{hist[0]['l_goal']:.8f},")
        assert seen[1].count("\n") == 2

    def test_empty_training_set_rejected(self):
        _, _, _, trainer = tiny_setup()
        with pytest.raises(ValueError):
            trainer.train_epoch([])

    def test_max_seconds_stops_early(self):
        _, _, _, trainer = tiny_setup(epochs=500)
        hist = trainer.fit(tiny_windows(8), max_seconds=1e-9)
        assert len(hist) == 1

    def test_max_seconds_zero_is_no_limit(self):
        # the INI's `train.max_seconds = 0` reaches fit unchanged and means "no limit"
        _, _, _, trainer = tiny_setup(epochs=3)
        assert len(trainer.fit(tiny_windows(8), max_seconds=0)) == 3

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
            model.predict_window(outside, sem, SamplerConfig(K=10, K_I=5, K_t=2, N=3),
                                 sched, NoiseStream(0), np.random.default_rng(0), rule="ts")
        assert trainer.train_epoch(windows) == ref
        for name, p in model.parameters().items():
            assert p.data.tobytes() == ref_model.parameters()[name].data.tobytes(), name

    def test_epoch_holds_one_batch_graph_at_a_time(self):
        # each batch's graph is dropped before the next batch builds its own, so
        # an epoch of three batches peaks no higher than three one-batch epochs
        # of three trainers, each dropped after its epoch, give or take. Both
        # sides take three steps: a step's peak depends on how its two halves'
        # threads interleave
        def peak(n, trainers):
            trainers = [tiny_setup()[3] for _ in range(trainers)]
            for trainer in trainers:
                trainer.train_epoch(tiny_windows(4))  # warm: lazily built caches
            tracemalloc.start()
            try:
                while trainers:
                    trainers.pop().train_epoch(tiny_windows(n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(4, trainers=3), peak(12, trainers=1)
        assert three < 1.3 * one, (one, three)

    def test_step_peak_below_reference_layers(self, monkeypatch):
        # one B=32 step of a default-sized model: the one-op LSTM and the
        # low-resolution decoder hold at most 0.85 of the traced peak of the
        # same step on the LSTMCell chain and upsample-concat-convolve layers
        def peak():
            trainer, windows = b32_trainer()
            trainer.train_epoch(windows)  # warm: lazily built caches
            tracemalloc.start()
            try:
                losses = trainer.train_epoch(windows)
                return tracemalloc.get_traced_memory()[1], losses
            finally:
                tracemalloc.stop()

        ours, losses = peak()
        monkeypatch.setattr(condition, "lstm", lstm_chain)
        monkeypatch.setattr(goal, "upsample_conv", upsample_conv_reference)
        ref, ref_losses = peak()
        assert losses["l_goal"] == pytest.approx(ref_losses["l_goal"], rel=1e-12)
        assert losses["l_traj"] == pytest.approx(ref_losses["l_traj"], rel=1e-12)
        assert ours <= 0.85 * ref, ours / ref

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc")
    def test_steps_keep_their_memory_mapped(self):
        # a fresh process: after two warm steps, a B=32 step of a default-sized
        # model mostly reuses the memory the previous step freed instead of
        # faulting pages in again (2000-3500 minor faults a step with glibc's
        # default thresholds; a step now and then still grows the heap)
        script = ("import resource, statistics; from test_train import b32_trainer\n"
                  "trainer, windows = b32_trainer()\n"
                  "faults = []\n"
                  "for _ in range(8):\n"
                  "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "    trainer.train_epoch(windows)\n"
                  "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
                  "print(statistics.median(faults[2:]))\n")
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 200

    def test_epoch_means_weigh_batches_by_windows(self):
        # 5 windows at batch size 4: a batch of 4 with losses 1 and one of 1
        # with losses 3 average to (4 * 1 + 3) / 5, not (1 + 3) / 2
        _, _, _, trainer = tiny_setup()
        trainer._step = lambda histories, futures, start: (1.0, 1.0) if start == 0 else (3.0, 3.0)
        stats = trainer.train_epoch(tiny_windows(5))
        assert stats["l_goal"] == stats["l_traj"] == pytest.approx(1.4, rel=1e-15)

    def test_student_forcing_path_runs(self):
        model, sem, sched, trainer = tiny_setup(teacher_forcing=False, epochs=2)
        hist = trainer.fit(tiny_windows(8))
        assert len(hist) == 2
        assert all(np.isfinite(h["l_total"]) for h in hist)


def b32_trainer():
    """A Trainer for a default-sized model on a 24x24 grid, and 32 windows
    that make one batch."""
    grid = GridSpec(24, 24, (0.5, 0.5), 1.0)
    rng = np.random.default_rng(0)
    windows = []
    for i in range(32):
        step = rng.uniform(0.3, 0.6, size=2)
        path = rng.uniform(4.0, 8.0, size=2) + np.arange(20)[:, None] * step
        windows.append(TrajectoryWindow("s", i, path[:8], path[8:], 0))
    sem = SemanticGrid(grid, rng.uniform(size=(2, 24, 24)))
    model = PredictionModel(ModelConfig(sigma_px=1.5), grid)
    return Trainer(model, sem, make_linear_schedule(100), TrainConfig(seed=0)), windows


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


def batch_in_trainer_order(windows, seed=0):
    """The trainer's first batch of `windows` (one batch) and its draws, made
    as the trainer makes them: the permutation, then k, then eps."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(windows))
    histories = np.stack([windows[i].history for i in order])
    futures = np.stack([windows[i].future for i in order])
    k = rng.integers(1, make_linear_schedule(10).K + 1, size=len(windows))
    return order, histories, futures, k, rng.standard_normal(futures.shape)


class TestHalfBatchStep:
    """A step runs its two half-batches on two threads and applies their
    gradients, summed half 0 first, in one Adam step."""

    @pytest.fixture(params=[None, 1e-6], ids=["default-switch", "1us-switch"])
    def switch_interval(self, request):
        # a 1 us interpreter switch interval interleaves the two halves' threads
        # between almost every bytecode, where a shared update would get lost
        saved = sys.getswitchinterval()
        sys.setswitchinterval(request.param or saved)
        try:
            yield
        finally:
            sys.setswitchinterval(saved)

    @pytest.mark.parametrize("teacher_forcing", [True, False])
    def test_step_is_its_halves_summed_in_order(self, teacher_forcing, switch_interval):
        windows = tiny_windows(4)  # one batch of 4: halves of 2
        model, _, _, trainer = tiny_setup(teacher_forcing=teacher_forcing)
        ref_model, _, _, ref = tiny_setup(teacher_forcing=teacher_forcing)
        _, histories, futures, k, eps = batch_in_trainer_order(windows)

        def grads_of(sl, weight):
            l_goal, l_traj = ref._losses(histories[sl], futures[sl], k[sl], eps[sl])
            grads = {}
            combined_loss(l_traj, l_goal, ref.cfg.lam).backward(weight, grads)
            return grads

        half0, half1 = grads_of(slice(0, 2), 0.5), grads_of(slice(2, 4), 0.5)
        whole = grads_of(slice(0, 4), 1.0)  # one graph, the one-batch arithmetic
        want = {}
        for name, p in ref_model.parameters().items():
            grad = np.zeros(p.shape) + half0[p] + half1[p]
            assert rel_error(grad, whole[p]) < 1e-12, name
            want[name], _, _ = adam_update(p.data, grad, np.zeros(p.shape), np.zeros(p.shape),
                                           1, ref.cfg.lr)
        trainer.train_epoch(windows)
        for name, p in model.parameters().items():
            assert p.data.tobytes() == want[name].tobytes(), name

    def test_one_window_batch_starts_no_thread(self, monkeypatch):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        tiny_setup()[3].train_epoch(tiny_windows(1))
        assert started == []
        tiny_setup()[3].train_epoch(tiny_windows(2))
        assert len(started) == 1

    @pytest.mark.parametrize("part", ["history", "future"])
    def test_bad_window_in_second_half_fails_as_in_one_batch(self, part):
        # the error names the position's index in the whole batch, as the
        # one-graph step named it, not its index in the half
        windows = tiny_windows(4)
        order = batch_in_trainer_order(windows)[0]
        w = windows[order[3]]  # batch row 3, in half 1
        points = getattr(w, part).copy()
        points[1] += [20.0, 0.0]
        windows[order[3]] = dataclasses.replace(w, **{part: points})
        rows = np.stack([getattr(windows[i], part) for i in order])
        with pytest.raises(ValueError) as one_batch:
            rasterize_points(rows, GRID, 1.0)
        assert str(one_batch.value).startswith(f"position {3 * len(points) + 1} ")
        before = threading.active_count()
        with pytest.raises(ValueError) as step:
            tiny_setup()[3].train_epoch(windows)
        assert str(step.value) == str(one_batch.value)
        assert threading.active_count() == before

    def test_non_finite_loss_in_second_half_changes_no_parameter(self, monkeypatch):
        model, _, _, trainer = tiny_setup()
        before = {name: p.data.tobytes() for name, p in model.parameters().items()}
        forward = model.denoiser.forward_t

        def nan_on_worker(k, y_flat, f):  # half 1 runs on the worker thread
            out = forward(k, y_flat, f)
            return out if threading.current_thread() is threading.main_thread() else out * np.nan

        monkeypatch.setattr(model.denoiser, "forward_t", nan_on_worker)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="non-finite loss in batch starting at index 0$"):
            trainer.train_epoch(tiny_windows(4))
        assert threading.active_count() == threads
        for name, p in model.parameters().items():
            assert p.data.tobytes() == before[name], name

    def test_worker_exception_is_raised_unchanged(self, monkeypatch):
        model, _, _, trainer = tiny_setup()
        error = KeyError("raised on the worker")
        condition = model.condition

        def failing_on_worker(histories, goals):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return condition(histories, goals)

        monkeypatch.setattr(model, "condition", failing_on_worker)
        threads = threading.active_count()
        with pytest.raises(KeyError) as raised:
            trainer.train_epoch(tiny_windows(4))
        assert raised.value is error
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="Linux CPU affinity")
    def test_bits_do_not_depend_on_the_core_count(self):
        # two B=32 steps in a process pinned to one CPU give this process's bytes
        script = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "import hashlib; from test_train import b32_trainer\n"
                  "trainer, windows = b32_trainer()\n"
                  "trainer.train_epoch(windows); trainer.train_epoch(windows)\n"
                  "params = trainer.model.parameters().values()\n"
                  "print(hashlib.sha256(b''.join(p.data.tobytes() for p in params)).hexdigest())\n")
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trainer, windows = b32_trainer()
        trainer.train_epoch(windows)
        trainer.train_epoch(windows)
        params = trainer.model.parameters().values()
        assert proc.stdout.strip() == hashlib.sha256(
            b"".join(p.data.tobytes() for p in params)).hexdigest()
