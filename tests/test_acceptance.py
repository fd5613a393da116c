"""Top-level acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible under `pytest -v -s` or in captured output on
failure). Tolerances and runtime budgets are asserted, not just reported.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import finite_difference, rel_error
from trajlab.condition import SequenceEncoder, augment_batch
from trajlab.data import (SyntheticSceneConfig, Track, generate_synthetic,
                          leave_one_scene_out, make_windows,
                          parse_trajectory_file, tail_windows,
                          write_trajectory_file)
from trajlab.denoiser import NoisePredictor
from trajlab.evaluation import ade, best_of_n, fde
from trajlab.goal import GoalNet, GridSpec, SemanticGrid
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from trajlab.nncore import (Dense, LSTMCell, Parameter, Tensor, concat, conv2d,
                            upsample2x)
from trajlab.sampler import (NoiseStream, SamplerConfig, branch_step_count,
                             forward_noise, sample_standard, step_coefficients,
                             total_evals, tree_sample)
from trajlab.schedule import NoiseSchedule, make_linear_schedule, posterior_variance
from trajlab.train import TrainConfig, Trainer


def report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def random_schedule(rng) -> NoiseSchedule:
    K = int(rng.integers(2, 200))
    betas = rng.uniform(1e-5, 0.3, size=K)
    return NoiseSchedule(betas)


def test_criterion_01_ddim_sigma_matches_posterior_variance():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = random_schedule(rng)
        k = int(rng.integers(2, s.K + 1))
        sig2 = step_coefficients(s, k, k - 1, 1.0)[2] ** 2
        ref = posterior_variance(s, k)
        worst = max(worst, abs(sig2 - ref) / ref)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"sigma(eta=1)^2 vs posterior variance, 1000 cases, "
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_trunkless_tree_is_plain_ddim():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for trial in range(100):
        K = int(rng.integers(4, 60))
        K_I = int(rng.integers(1, K + 1))
        N = int(rng.integers(1, 6))
        eta = float(rng.uniform(0.0, 1.0))
        t_f = int(rng.integers(2, 8))
        s = NoiseSchedule(rng.uniform(1e-4, 0.2, size=K))
        cfg = SamplerConfig(K=K, K_I=K_I, K_t=0, eta=eta, N=N, t_f=t_f)
        w = rng.standard_normal()

        def stub(k, y, f, w=w):
            return np.tanh(w * y) + 0.01 * k + (f if np.isscalar(f) else 0.0)

        fs = [float(i) for i in range(N)]
        seed = int(rng.integers(1 << 30))
        a = tree_sample(stub, 0.0, fs, cfg, s, NoiseStream(seed))
        b = sample_standard(stub, fs, cfg, s, NoiseStream(seed), rule="ddim")
        ok &= all(np.array_equal(x, y) for x, y in zip(a, b))
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 5.0,
           f"tree sampling with no trunk bitwise equals DDIM on 100 stubbed "
           f"instances, {elapsed:.2f}s")


def test_criterion_03_denoiser_eval_cost_arithmetic():
    start = time.perf_counter()
    cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=20)
    ddpm_cost = total_evals("ddpm", cfg)
    ts_cost = total_evals("ts", cfg)
    exact = ddpm_cost == 2000 and ts_cost == 340
    ratio = ddpm_cost / ts_cost
    ratio_ok = abs(ratio - 2000 / 340) == 0.0 and round(ratio, 2) == 5.88

    rng = np.random.default_rng(303)
    sweep_ok = True
    for _ in range(200):
        K = int(rng.integers(2, 300))
        K_I = int(rng.integers(1, K + 1))
        K_t = int(rng.integers(0, K + 1))
        N = int(rng.integers(1, 50))
        c = SamplerConfig(K=K, K_I=K_I, K_t=K_t, N=N)
        sweep_ok &= total_evals("ddpm", c) == N * K
        sweep_ok &= total_evals("d_ddpm", c) == N * K
        sweep_ok &= total_evals("ddim", c) == N * K_I
        sweep_ok &= total_evals("ts", c) == K_t + N * ((K - K_t) * K_I // K)
        sweep_ok &= branch_step_count(K, K_I, K_t) == (K - K_t) * K_I // K
    elapsed = time.perf_counter() - start
    report(3, exact and ratio_ok and sweep_ok and elapsed < 1.0,
           f"eval counts 2000 vs 340 (ratio {ratio:.2f}), 200-case sweep exact, "
           f"{elapsed:.2f}s")


def test_criterion_04_deterministic_chains_are_bit_reproducible():
    s = make_linear_schedule(60)
    cfg = SamplerConfig(K=60, K_I=12, K_t=15, N=3, t_f=6)

    def stub(k, y, f):
        return 0.3 * np.tanh(y) + 0.01 * k + 0.1 * (f if np.isscalar(f) else 0.0)

    runs = []
    for _ in range(10):
        out = tree_sample(stub, 0.5, [1.0, 2.0, 3.0], cfg, s, NoiseStream(404))
        runs.append(np.stack(out))
    repro = all(np.array_equal(runs[0], r) for r in runs[1:])

    chains = [np.stack(sample_standard(stub, [1.0, 2.0, 3.0], cfg, s,
                                       NoiseStream(405), "d_ddpm"))
              for _ in range(10)]
    repro &= all(np.array_equal(chains[0], c) for c in chains[1:])

    # DDPM fed zero noise: every forked chain stream draws zeros
    class ZeroForks(NoiseStream):
        def fork(self, index):
            return SimpleNamespace(normal=np.zeros)

    zero_z = True
    for seed in range(406, 416):
        fs = [1.0, 2.0, 3.0]
        a = sample_standard(stub, fs, cfg, s, ZeroForks(seed), "ddpm")
        b = sample_standard(stub, fs, cfg, s, NoiseStream(seed), "d_ddpm")
        zero_z &= all(np.array_equal(x, y) for x, y in zip(a, b))
    report(4, repro and zero_z,
           "10x bit-identical deterministic chains/trunks; DDPM(z=0) == d-DDPM")


def _fd_param_check(make_loss, params: dict, atol=1e-4) -> bool:
    for p in params.values():
        p.grad[...] = 0.0
    make_loss().backward()
    for name, p in params.items():
        def loss_at(v, p=p):
            orig = p.data
            p.data = v
            val = float(make_loss().data)
            p.data = orig
            return val
        # retry with smaller steps: a rectifier kink inside the stencil shrinks
        # away with h, a genuine gradient bug does not
        if not any(rel_error(p.grad, finite_difference(loss_at, p.data.copy(), h=h))
                   < atol for h in (1e-5, 1e-6, 1e-7)):
            return False
    return True


def test_criterion_05_finite_difference_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    count = 0
    all_ok = True

    # element-wise / structural op instances
    op_builders = [
        lambda t: (t.tanh() ** 2).sum(),
        lambda t: t.sigmoid().mean(),
        lambda t: (t * t + t).sum(),
        lambda t: (t.exp() + 1.0).log().sum(),
        lambda t: t.reshape(-1)[::1].sum(),
        lambda t: (t[1:] * 2.0).sum(),
        lambda t: concat([t, t], axis=0).mean(),
    ]
    for _ in range(5):
        for build in op_builders:
            x = rng.standard_normal((3, 4))
            p = Parameter(x.copy())
            build(p).backward()
            num = finite_difference(lambda v: float(build(Tensor(v)).data), x)
            all_ok &= rel_error(p.grad, num) < 1e-4
            count += 1

    # dense / lstm / conv / upsample blocks
    for _ in range(15):
        d = Dense(4, 3, rng)
        x = rng.standard_normal((2, 4))
        all_ok &= _fd_param_check(lambda: (d(Tensor(x)) ** 2).sum(), d.parameters())
        count += 1

        cell = LSTMCell(3, 4, rng)
        xs = rng.standard_normal((2, 2, 3))

        def lstm_loss(cell=cell, xs=xs):
            h = Tensor(np.zeros((2, 4)))
            c = Tensor(np.zeros((2, 4)))
            for t in range(xs.shape[1]):
                h, c = cell(Tensor(xs[:, t]), h, c)
            return (h ** 2).sum()

        all_ok &= _fd_param_check(lstm_loss, cell.parameters())
        count += 1

        w = Parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4)
        b = Parameter(rng.standard_normal(2))
        xc = rng.standard_normal((1, 2, 4, 4))
        all_ok &= _fd_param_check(
            lambda: (upsample2x(conv2d(Tensor(xc), w, b).relu()) ** 2).sum(),
            {"w": w, "b": b})
        count += 1

    # full modules: encoder, denoiser, goal net
    for _ in range(5):
        enc = SequenceEncoder(hidden=4, d_f=3, rng=rng)
        rows = rng.standard_normal((2, 3, 8))
        all_ok &= _fd_param_check(lambda: (enc.forward_t(rows) ** 2).sum(),
                                  enc.parameters())
        count += 1

        net = NoisePredictor(t_f=3, d_f=4, width=6, embed_dim=4, blocks=1, rng=rng)
        ks = np.array([2.0, 5.0])
        ys = rng.standard_normal((2, 6))
        fs = rng.standard_normal((2, 4))
        all_ok &= _fd_param_check(
            lambda: (net.forward_t(ks, ys, Tensor(fs)) ** 2).sum(), net.parameters())
        count += 1

        gnet = GoalNet(in_channels=2, t_f=2, base=2, rng=rng)
        # jitter the zero-initialized biases: with them at zero, rectifier
        # pre-activations can sit exactly on the kink, where one-sided and
        # two-sided slopes genuinely differ
        for p in gnet.parameters().values():
            p.data = p.data + rng.normal(0.0, 0.01, p.data.shape)
        xg = rng.standard_normal((1, 2, 8, 8))
        all_ok &= _fd_param_check(
            lambda: (gnet.forward_t(Tensor(xg)).sigmoid() ** 2).mean(),
            gnet.parameters())
        count += 1

    # end-to-end combined loss: directional finite differences over all params
    grid = GridSpec(8, 8, (0.5, 0.5), 1.0)
    mcfg = ModelConfig(t_h=3, t_f=2, d_f=4, encoder_hidden=4, denoiser_width=6,
                       denoiser_blocks=1, embed_dim=4, goal_base_channels=2,
                       sem_channels=1, sigma_px=1.0)
    model = PredictionModel(mcfg, grid)
    for p in model.parameters().values():  # move off the exact rectifier kinks
        p.data = p.data + rng.normal(0.0, 0.01, p.data.shape)
    sem = SemanticGrid(grid, np.ones((1, 8, 8)))
    trainer = Trainer(model, sem, make_linear_schedule(8),
                      TrainConfig(epochs=1, batch_size=2, seed=0))
    hists = rng.uniform(2.0, 5.0, size=(2, 3, 2))
    futs = rng.uniform(2.0, 5.0, size=(2, 2, 2))
    params = model.parameters()

    def loss_value():
        state = trainer.rng.bit_generator.state
        l_goal, l_traj = trainer._batch_losses(hists, futs)
        trainer.rng.bit_generator.state = state  # same k/eps draw every call
        return l_traj + 20.0 * l_goal

    for _ in range(10):
        for p in params.values():
            p.grad[...] = 0.0
        loss_value().backward()
        dirs = {n: rng.standard_normal(p.data.shape) for n, p in params.items()}
        analytic = sum(float(np.sum(p.grad * dirs[n])) for n, p in params.items())
        # step small enough that no rectifier unit flips sign across +-h
        h = 1e-6
        saved = {n: p.data.copy() for n, p in params.items()}
        for n, p in params.items():
            p.data = saved[n] + h * dirs[n]
        hi = float(loss_value().data)
        for n, p in params.items():
            p.data = saved[n] - h * dirs[n]
        lo = float(loss_value().data)
        for n, p in params.items():
            p.data = saved[n]
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        all_ok &= abs(analytic - numeric) / denom < 1e-4
        count += 1

    elapsed = time.perf_counter() - start
    report(5, all_ok and count >= 100 and elapsed < 60.0,
           f"finite-difference agreement (<1e-4) on {count} instances, {elapsed:.1f}s")


def test_criterion_06_forward_noise_statistics():
    rng = np.random.default_rng(606)
    s = make_linear_schedule(100)
    y0 = rng.uniform(-2.0, 2.0, size=(2, 2))
    n = 100_000
    ok = True
    for k in rng.choice(np.arange(1, 101), size=10, replace=False):
        k = int(k)
        abar = s.alpha_bar(k)
        eps = rng.standard_normal((n, 2, 2))
        # the trainer's batched closed form, one step index per row
        yk = forward_noise(np.broadcast_to(y0, eps.shape), np.full(n, k), eps, s)
        # spot-check the closed form itself on one draw
        ok &= np.array_equal(yk[0], np.sqrt(abar) * y0 + np.sqrt(1.0 - abar) * eps[0])
        mean_se = np.sqrt(1.0 - abar) / np.sqrt(n)
        ok &= np.all(np.abs(yk.mean(axis=0) - np.sqrt(abar) * y0) < 3 * mean_se)
        var = yk.var(axis=0)
        var_se = (1.0 - abar) * np.sqrt(2.0 / (n - 1))
        ok &= np.all(np.abs(var - (1.0 - abar)) < 3 * var_se)
    report(6, ok, "forward-noise mean/variance within 3 SE at 10 random steps, "
                  "100k draws each")


def test_criterion_07_displacement_metric_oracles():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        t_f = int(rng.integers(1, 15))
        preds = rng.standard_normal((n, t_f, 2)) * 10
        gt = rng.standard_normal((t_f, 2)) * 10
        # brute-force references (python-loop summation order differs, so the
        # scalar values agree to rounding; the best-of-N choice must be exact)
        ref_ades = [sum(np.sqrt(np.sum((p[t] - gt[t]) ** 2)) for t in range(t_f)) / t_f
                    for p in preds]
        ref_fdes = [np.sqrt(np.sum((p[-1] - gt[-1]) ** 2)) for p in preds]
        ok &= abs(ade(preds[0], gt) - ref_ades[0]) < 1e-12 * max(ref_ades[0], 1.0)
        ok &= abs(fde(preds[0], gt) - ref_fdes[0]) < 1e-12 * max(ref_fdes[0], 1.0)
        ba, bf = best_of_n(preds, gt)
        ok &= ba == min(ade(p, gt) for p in preds)
        ok &= bf == min(fde(p, gt) for p in preds)
        ok &= abs(ba - min(ref_ades)) < 1e-12 * max(min(ref_ades), 1.0)
        ok &= abs(bf - min(ref_fdes)) < 1e-12 * max(min(ref_fdes), 1.0)
    preds = np.random.default_rng(708).standard_normal((30, 8, 2))
    gt = np.zeros((8, 2))
    series = [best_of_n(preds[:m], gt) for m in range(1, 31)]
    ok &= all(a[0] >= b[0] and a[1] >= b[1] for a, b in zip(series, series[1:]))
    report(7, ok, "ade/fde/best-of-N match brute force on 1000 cases; "
                  "best-of-N monotone on nested sets")


# -- criterion 8: desk-scale end-to-end run (committed seeds) --

DATA_SEED = 2024
TRAIN_SEED = 7
EVAL_SEED = 500
N_AGENTS = 2000
EPOCHS = 50
N_VAL = 80
N_EVAL_WINDOWS = 80


@pytest.fixture(scope="module")
def desk_run():
    start = time.perf_counter()
    scene = SyntheticSceneConfig(grid_size=24)
    tracks, sem, anchors = generate_synthetic(scene, N_AGENTS,
                                              np.random.default_rng(DATA_SEED))
    windows = tail_windows(tracks)
    train_w, val_w = windows[:-N_VAL], windows[-N_VAL:]
    grid = scene.grid_spec()
    model = PredictionModel(ModelConfig(sigma_px=1.5, init_seed=0), grid)
    schedule = default_schedule()
    trainer = Trainer(model, sem, schedule,
                      TrainConfig(epochs=EPOCHS, lr=2e-3, lr_decay=0.97,
                                  seed=TRAIN_SEED))
    trainer.fit(train_w)
    return model, sem, schedule, grid, anchors, val_w, start


@pytest.mark.slow
def test_criterion_08_end_to_end_desk_scale(desk_run):
    model, sem, schedule, grid, anchors, val_w, start = desk_run

    # (c) goal-map argmax within 2 px of a true anchor
    anchors_px = np.array([grid.world_to_pixel(a) for a in anchors])
    hits = 0
    for w in val_w:
        gm = model.goal_logits(w.history[None], sem)[0, -1].sigmoid().data
        r, c = np.unravel_index(np.argmax(gm), gm.shape)
        if np.min(np.hypot(anchors_px[:, 0] - r, anchors_px[:, 1] - c)) <= 2.0:
            hits += 1
    frac = hits / len(val_w)

    # (a) + (b): best-of-20 vs best-of-1 and tree sampling vs full d-DDPM
    ts_cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=20, eta=1.0)
    dd_cfg = SamplerConfig(K=100, K_I=20, K_t=20, N=20)
    ade1s, ade_ts, ade_dd = [], [], []
    for i, w in enumerate(val_w[:N_EVAL_WINDOWS]):
        p_ts = model.predict_window(w.history, sem, ts_cfg, schedule,
                                    NoiseStream(EVAL_SEED + i),
                                    np.random.default_rng(1000 + i), rule="ts")
        p_dd = model.predict_window(w.history, sem, dd_cfg, schedule,
                                    NoiseStream(EVAL_SEED + i),
                                    np.random.default_rng(1000 + i), rule="d_ddpm")
        ade_ts.append(best_of_n(p_ts, w.future)[0])
        ade_dd.append(best_of_n(p_dd, w.future)[0])
        ade1s.append(best_of_n(p_ts[:1], w.future)[0])
    ade1 = float(np.mean(ade1s))
    ade20_ts = float(np.mean(ade_ts))
    ade20_dd = float(np.mean(ade_dd))
    rel_gap = abs(ade20_ts - ade20_dd) / ade20_dd
    elapsed = time.perf_counter() - start

    ok = (ade20_ts < ade1) and (rel_gap < 0.15) and (frac >= 0.70) and elapsed < 600
    report(8, ok,
           f"ADE1 {ade1:.3f} > ADE20 {ade20_ts:.3f}; TS vs d-DDPM gap "
           f"{rel_gap:.1%} (<15%); goal argmax hit rate {frac:.1%} (>=70%); "
           f"{elapsed:.0f}s (<600s)")


def test_criterion_09_loss_decoupling_is_exact():
    grid = GridSpec(12, 12, (0.5, 0.5), 1.0)
    mcfg = ModelConfig(t_h=4, t_f=3, d_f=8, encoder_hidden=8, denoiser_width=8,
                       denoiser_blocks=1, embed_dim=4, goal_base_channels=4,
                       sem_channels=1, sigma_px=1.0)
    model = PredictionModel(mcfg, grid)
    sem = SemanticGrid(grid, np.ones((1, 12, 12)))
    trainer = Trainer(model, sem, make_linear_schedule(10),
                      TrainConfig(epochs=1, batch_size=4, seed=0))
    rng = np.random.default_rng(909)
    hists = rng.uniform(2.0, 8.0, size=(4, 4, 2))
    futs = rng.uniform(2.0, 8.0, size=(4, 3, 2))
    l_goal, l_traj = trainer._batch_losses(hists, futs)
    params = model.parameters()

    for p in params.values():
        p.grad[...] = 0.0
    l_traj.backward()
    traj_only = all(np.all(p.grad == 0.0) for n, p in params.items()
                    if n.startswith("goal."))
    traj_moves = any(np.any(p.grad != 0.0) for n, p in params.items()
                     if n.startswith(("denoiser.", "encoder.")))

    for p in params.values():
        p.grad[...] = 0.0
    l_goal.backward()
    goal_only = all(np.all(p.grad == 0.0) for n, p in params.items()
                    if n.startswith(("denoiser.", "encoder.")))
    goal_moves = any(np.any(p.grad != 0.0) for n, p in params.items()
                     if n.startswith("goal."))

    report(9, traj_only and goal_only and traj_moves and goal_moves,
           "trajectory loss leaves goal net untouched and vice versa "
           "(exact zeros, non-trivial own gradients)")


def test_criterion_10_data_pipeline_contracts(tmp_path):
    # fixture file in frame/agent/x/y format round-trips
    fixture = tmp_path / "fixture.txt"
    fixture.write_text(
        "780 1 8.46 3.59\n790 1 8.99 3.61\n800 1 9.52 3.64\n"
        "780 2 1.00 2.00\n790 2 1.10 2.10\n")
    tracks = parse_trajectory_file(fixture, scene_id="eth")
    rt = tmp_path / "rt.txt"
    write_trajectory_file(rt, tracks)
    back = parse_trajectory_file(rt, scene_id="eth")
    round_trip = (len(back) == len(tracks)
                  and all(np.array_equal(a.frames, b.frames)
                          and np.allclose(a.xy, b.xy, atol=1e-6)
                          for a, b in zip(tracks, back)))

    L25 = Track("s", 0, np.arange(25),
                np.stack([np.arange(25.0), np.zeros(25)], axis=1))
    six = len(make_windows([L25], t_h=8, t_f=12, stride=1)) == 6

    windows = []
    for scene in ("a", "b", "c"):
        windows += make_windows(
            [Track(scene, 0, np.arange(22),
                   np.stack([np.arange(22.0), np.zeros(22)], axis=1))], 8, 12)
    train, test = leave_one_scene_out(windows, "b")
    ids = lambda ws: {(w.scene_id, w.agent_id, w.frame_base) for w in ws}
    partition = (len(train) + len(test) == len(windows)
                 and ids(train) | ids(test) == ids(windows)
                 and not (ids(train) & ids(test))
                 and {w.scene_id for w in test} == {"b"})

    report(10, round_trip and six and partition,
           "fixture round-trip; L=25 -> 6 windows at (8, 12, stride 1); "
           "leave-one-scene-out partitions")
