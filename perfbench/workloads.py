"""Set-up and timed loops of the three benchmark workloads, for one process.

Every workload is a closed loop with one client: one window (predict) or one
batch (train) at a time. All three use the desk-scale corridor scene of
acceptance criterion 8 (24x24 grid, sigma_px=1.5, tail windows). The model is
trained in set-up for a fixed number of steps from a fixed seed; the workload
seed only generates the windows the timed phase runs and their noise.

The functions here return raw samples; run.py pools them over the processes
of one run and computes the metrics.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from trajlab import goal, model as model_mod, nncore
from trajlab.condition import SequenceEncoder
from trajlab.data import (SyntheticSceneConfig, generate_synthetic, make_semantic_grid,
                          tail_windows)
from trajlab.denoiser import NoisePredictor
from trajlab.evaluation import best_of_n
from trajlab.goal import GoalNet, TTSTConfig
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from trajlab.sampler import NoiseStream, SamplerConfig, total_evals
from trajlab.train import TrainConfig, Trainer

from spans import Tracer

SCENE = SyntheticSceneConfig(grid_size=24)
MODEL_CFG = ModelConfig(sigma_px=1.5, init_seed=0)
# Criterion 8's training config. Each train_epoch call is one step, so the
# per-epoch learning-rate decay is switched off.
TRAIN_CFG = TrainConfig(lr=2e-3, lr_decay=1.0, batch_size=32, seed=7, teacher_forcing=True)
SAMPLER_CFG = SamplerConfig(K=100, K_I=20, K_t=20, eta=1.0, N=20)
TTST = TTSTConfig(n_samples=1000, kmeans_iters=20)

SETUP_DATA_SEED = 2024
SETUP_STEPS = 4  # set-up training steps of B=32 windows
FINGERPRINT_WINDOWS = 20  # held-out set-up windows for the ADE/FDE fingerprint
PREDICT_WINDOWS = 100  # windows per predict workload, cycled
TRAIN_STEPS_PER_PASS = 8  # a pass restarts from the set-up model
WARMUP_UNITS = 2
PEAK_RSS_UNITS = 12  # peak memory is read after this many units, a fixed amount
# of work, so that it does not grow with the number of units a faster program runs
MAX_SECONDS_FACTOR = 3  # hard stop when the minimum unit count takes longer: a
# slower program gives fewer samples, which the latency bounds judge


@dataclass(frozen=True)
class Workload:
    kind: str  # "predict" or "train"
    rule: str = "ts"
    ttst: TTSTConfig | None = None


WORKLOADS = {
    "predict_tree": Workload("predict", "ts", TTST),
    "predict_dddpm": Workload("predict", "d_ddpm", None),
    "train": Workload("train"),
}

# Self times of these layers partition one prediction or one training step.
PREDICT_LAYERS = ["goal.rasterize_ms", "goal.net_ms", "goal.select_ms", "condition.encode_ms",
                  "sampler.self_ms", "denoiser.ms", "model.other_ms"]
TRAIN_LAYERS = ["train.goal_forward_ms", "nncore.conv2d_forward_ms", "train.encoder_forward_ms",
                "train.denoiser_forward_ms", "train.backward_ms", "train.adam_ms",
                "train.other_ms"]
# Every per-layer metric with its unit; a workload that never reaches a
# layer reports 0 for it.
PER_LAYER = {**dict.fromkeys(PREDICT_LAYERS, "ms"),
             "sampler.ms": "ms", "sampler.trunk_ms": "ms", "sampler.branch_ms": "ms",
             "denoiser.us_per_row": "us", "goal.draws": "count",
             "condition.encodes": "count", "denoiser.evals": "count", "denoiser.rows": "count",
             **dict.fromkeys(TRAIN_LAYERS, "ms"), "nncore.conv2d_calls": "count"}


@dataclass
class Setup:
    workload: Workload
    seed: int
    model: PredictionModel
    sem: object
    schedule: object
    snapshot: dict
    setup_loss: float
    inputs: list
    held_out: list
    start: int  # first input this process runs
    refs: dict = field(default_factory=dict)  # unit index -> reference output
    problems: list = field(default_factory=list)


@dataclass
class Result:
    """Raw samples of one process."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # ms per completed unit, untraced
    wall_s: float = 0.0  # wall time of the timed phase
    peak_rss_mb: float | None = None
    values: dict = field(default_factory=dict)  # ade20_m, fde20_m, train_loss
    losses: list = field(default_factory=list)  # first training pass, for cross-checks
    trained: dict | None = None  # weights after the first training pass
    layers: list = field(default_factory=list)  # per traced unit: layer -> value
    tracer: Tracer | None = None

    def attempt(self) -> None:
        self.attempted += 1
        if self.attempted == PEAK_RSS_UNITS:
            self.peak_rss_mb = peak_rss_mb()

    def fail(self, unit: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{unit}: {message}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def weights_digest(s: Setup) -> str:
    h = hashlib.sha256()
    for name in sorted(s.snapshot):
        h.update(s.snapshot[name].tobytes())
    return h.hexdigest()


def scene_windows(seed_seq, n: int) -> list:
    """The tail windows of freshly generated corridor agents, n of them."""
    tracks, _, _ = generate_synthetic(SCENE, n + n // 4 + 8, np.random.default_rng(seed_seq))
    windows = tail_windows(tracks, MODEL_CFG.t_h, MODEL_CFG.t_f)
    if len(windows) < n:
        raise RuntimeError(f"scene gave {len(windows)} windows, need {n}")
    return windows[:n]


def _weights(model: PredictionModel) -> dict:
    return {n: p.data.copy() for n, p in model.parameters().items()}


def _load(model: PredictionModel, weights: dict) -> None:
    for name, p in model.parameters().items():
        p.data = weights[name].copy()


def _setup_train(windows: list) -> tuple[dict, float]:
    """Set-up training of a fresh model: (weights, l_total)."""
    model = PredictionModel(MODEL_CFG, SCENE.grid_spec())
    trainer = Trainer(model, make_semantic_grid(SCENE), default_schedule(), TRAIN_CFG)
    stats = trainer.train_epoch(windows)
    return _weights(model), stats["l_total"]


def set_up(name: str, seed: int, part: int, parts: int) -> Setup:
    """Scene, windows, model, set-up training, workload inputs and warmup.
    Process `part` of `parts` starts at its own share of the predict windows."""
    workload = WORKLOADS[name]
    n_train = SETUP_STEPS * TRAIN_CFG.batch_size
    windows = scene_windows(SETUP_DATA_SEED, n_train + FINGERPRINT_WINDOWS)
    # Set-up training runs in a forked child, so that its training graphs
    # (~115 MB each) stay out of this process's peak_rss_mb.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        snapshot, setup_loss = pool.submit(_setup_train, windows[:n_train]).result()
    sem = make_semantic_grid(SCENE)
    model = PredictionModel(MODEL_CFG, SCENE.grid_spec())
    _load(model, snapshot)
    schedule = default_schedule()
    if workload.kind == "predict":
        inputs = scene_windows([seed, 1], PREDICT_WINDOWS)
        start = part * PREDICT_WINDOWS // parts
    else:
        inputs = scene_windows([seed, 1], TRAIN_STEPS_PER_PASS * TRAIN_CFG.batch_size)
        start = 0
    s = Setup(workload, seed, model, sem, schedule, snapshot, setup_loss, inputs,
              windows[n_train:], start)
    if workload.kind == "predict":
        _warm_predict(s)
    else:
        _warm_train(s)
    return s


def _done(start: float, seconds: float, units: int, min_units: int) -> bool:
    elapsed = time.perf_counter() - start
    return (elapsed >= seconds and units >= min_units) or elapsed >= MAX_SECONDS_FACTOR * seconds


# -- predict --


def _predict_args(s: Setup, idx: int):
    w = s.inputs[idx]
    return (w.history, s.sem, SAMPLER_CFG, s.schedule, NoiseStream(s.seed).fork(idx),
            np.random.default_rng([s.seed, idx]))


def _check_prediction(out, ref) -> str | None:
    expected = (SAMPLER_CFG.N, MODEL_CFG.t_f, 2)
    if out.shape != expected:
        return f"prediction shape {out.shape}, expected {expected}"
    if not np.all(np.isfinite(out)):
        return "prediction has non-finite values"
    if ref is not None and out.tobytes() != ref.tobytes():
        return "prediction differs bitwise from an earlier one for the same window and seed"
    return None


class CountingRng:
    """Goal rng proxy that counts categorical goal draws; behaviour unchanged."""

    def __init__(self, rng: np.random.Generator, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def choice(self, a, size=None, **kwargs):
        self._tracer.add("goal.draws", int(np.prod(size if size is not None else 1)))
        return self._rng.choice(a, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def predict_tracer() -> Tracer:
    """Spans around the calls predict_window makes, named by layer."""
    def denoiser_call(args):  # (self, k, Yk, f) -> tag (condition kind, rows)
        return getattr(args[3], "kind", None), args[2].size // (2 * MODEL_CFG.t_f)

    tracer = Tracer()
    tracer.span(PredictionModel, "predict_window", "model.predict_window")
    tracer.span(PredictionModel, "history_stack", "goal.rasterize")
    tracer.span(model_mod, "predict_heatmaps", "goal.net")
    tracer.span(model_mod, "select_goals", "goal.select")
    tracer.span(PredictionModel, "condition_features", "condition.encode")
    tracer.count(SequenceEncoder, "encode", "condition.encodes")
    tracer.span(model_mod, "tree_sample", "sampler")
    tracer.span(model_mod, "sample_standard", "sampler")
    tracer.span(NoisePredictor, "predict_noise", "denoiser", denoiser_call)
    return tracer


def _traced_predict(s: Setup, tracer: Tracer, unit: int, idx: int):
    """One traced predict_window call: (output, denoiser evals it made)."""
    args = list(_predict_args(s, idx))
    args[5] = CountingRng(args[5], tracer)
    tracer.unit = unit
    first = len(tracer.spans)
    with tracer.installed():
        out = s.model.predict_window(*args, rule=s.workload.rule, ttst=s.workload.ttst)
    return out, sum(1 for span in tracer.spans[first:] if span[0] == "denoiser")


def _eval_count_problem(s: Setup, evals: int) -> str | None:
    expected = total_evals(s.workload.rule, SAMPLER_CFG)
    if evals != expected:
        return f"{evals} denoiser evals, expected {expected}"
    return None


def _warm_predict(s: Setup) -> None:
    tracer = predict_tracer()
    for k in range(WARMUP_UNITS):
        idx = (s.start + k) % len(s.inputs)
        out, evals = _traced_predict(s, tracer, k, idx)
        problem = _check_prediction(out, None) or _eval_count_problem(s, evals)
        if problem:
            s.problems.append(f"warmup window {idx}: {problem}")
        s.refs[idx] = out


def _timed_predict(s: Setup, idx: int):
    """One untraced predict_window call: (output or None, ms, error or None)."""
    args = _predict_args(s, idx)
    t0 = time.perf_counter_ns()
    try:
        out = s.model.predict_window(*args, rule=s.workload.rule, ttst=s.workload.ttst)
    except Exception as e:  # a failing window is counted, not fatal
        return None, 0.0, f"{type(e).__name__}: {e}"
    ms = (time.perf_counter_ns() - t0) / 1e6
    return out, ms, _check_prediction(out, s.refs.get(idx))


def run_predict(s: Setup, seconds: float, min_units: int) -> Result:
    r = Result()
    start = time.perf_counter()
    while not _done(start, seconds, r.attempted, min_units):
        idx = (s.start + r.attempted) % len(s.inputs)
        out, ms, problem = _timed_predict(s, idx)
        r.attempt()
        if problem:
            r.fail(f"window {idx}", problem)
            continue
        r.latencies.append(ms)
        s.refs.setdefault(idx, out)
    r.wall_s = time.perf_counter() - start
    r.values["train_loss"] = s.setup_loss
    return r


def trace_predict(s: Setup, seconds: float, min_units: int) -> Result:
    """Each window runs untraced, then traced with the same seeds."""
    r = Result(tracer=predict_tracer())
    unit = -1
    start = time.perf_counter()
    while not _done(start, seconds, unit + 1, min_units):
        unit += 1
        idx = (s.start + unit) % len(s.inputs)
        out, ms, problem = _timed_predict(s, idx)
        r.attempt()
        if problem:
            r.fail(f"window {idx}", problem)
            continue
        r.latencies.append(ms)
        s.refs.setdefault(idx, out)
        r.attempt()
        try:
            traced, evals = _traced_predict(s, r.tracer, unit, idx)
        except Exception as e:  # a failing window is counted, not fatal
            r.fail(f"traced window {idx}", f"{type(e).__name__}: {e}")
            continue
        problem = _check_prediction(traced, out) or _eval_count_problem(s, evals)
        if problem:
            r.fail(f"traced window {idx}", problem)
    for unit, indices in r.tracer.units().items():
        r.layers.append(_predict_layers(r.tracer, indices, r.tracer.counts[unit]))
    return r


def _predict_layers(tracer: Tracer, indices, counts) -> dict:
    """Per-layer values of one traced window (`indices` are its spans)."""
    spans = tracer.spans
    own = tracer.self_times_ns(indices)
    ms = {}
    for i in indices:
        ms[spans[i][0]] = ms.get(spans[i][0], 0.0) + own[i] / 1e6
    root_start, root_end = spans[indices[0]][1:3]
    sampler_start, sampler_end = next(spans[i][1:3] for i in indices if spans[i][0] == "sampler")
    denoiser = [spans[i] for i in indices if spans[i][0] == "denoiser"]
    # the trunk runs under the common feature, branches under diverse ones
    branch_start = min((d[1] for d in denoiser if d[5][0] == "diverse"), default=sampler_end)
    rows = sum(d[5][1] for d in denoiser)
    return {"goal.rasterize_ms": ms.get("goal.rasterize", 0.0),
            "goal.net_ms": ms.get("goal.net", 0.0),
            "goal.select_ms": ms.get("goal.select", 0.0),
            "condition.encode_ms": ms.get("condition.encode", 0.0),
            "sampler.ms": (sampler_end - sampler_start) / 1e6,
            "sampler.self_ms": ms.get("sampler", 0.0),
            "sampler.trunk_ms": (branch_start - sampler_start) / 1e6,
            "sampler.branch_ms": (sampler_end - branch_start) / 1e6,
            "denoiser.ms": ms.get("denoiser", 0.0),
            "denoiser.evals": len(denoiser),
            "denoiser.rows": rows,
            "denoiser.us_per_row": ms.get("denoiser", 0.0) * 1000.0 / max(rows, 1),
            "goal.draws": counts["goal.draws"],
            "condition.encodes": counts["condition.encodes"],
            "model.other_ms": ms.get("model.predict_window", 0.0),
            "root_ms": (root_end - root_start) / 1e6}


# -- train --


def _restore(s: Setup, model: PredictionModel | None = None) -> None:
    """Give `model` (default: the set-up model) the set-up weights."""
    _load(model or s.model, s.snapshot)


def _batches(s: Setup) -> list:
    b = TRAIN_CFG.batch_size
    return [s.inputs[i:i + b] for i in range(0, len(s.inputs), b)]


def _step(trainer: Trainer, batch):
    """One Trainer step: ((l_goal, l_traj) or None, ms, error or None)."""
    t0 = time.perf_counter_ns()
    try:
        m = trainer.train_epoch(batch)
    except Exception as e:  # a failing step is counted, not fatal
        return None, 0.0, f"{type(e).__name__}: {e}"
    ms = (time.perf_counter_ns() - t0) / 1e6
    losses = (m["l_goal"], m["l_traj"])
    if not np.all(np.isfinite(losses)):
        return None, ms, f"non-finite losses {losses}"
    return losses, ms, None


def _check_losses(losses, ref) -> str | None:
    if ref is not None and losses != ref:
        return f"losses {losses} differ bitwise from {ref} for the same step"
    return None


def _warm_train(s: Setup) -> None:
    _restore(s)
    losses, _, problem = _step(Trainer(s.model, s.sem, s.schedule, TRAIN_CFG), _batches(s)[0])
    if problem:
        s.problems.append(f"warmup step: {problem}")
    else:
        s.refs[0] = losses
    _restore(s)


def train_tracer() -> Tracer:
    """Spans around the calls Trainer.train_epoch makes, named by layer."""
    tracer = Tracer()
    tracer.span(Trainer, "train_epoch", "train.step")
    tracer.span(GoalNet, "forward_t", "train.goal_forward")
    tracer.span(goal, "conv2d", "nncore.conv2d_forward")
    tracer.span(SequenceEncoder, "forward_t", "train.encoder_forward")
    tracer.span(NoisePredictor, "forward_t", "train.denoiser_forward")
    tracer.span(nncore.Tensor, "backward", "train.backward")
    tracer.span(nncore.Adam, "step", "train.adam")
    return tracer


def _train_pass(s: Setup, r: Result, done):
    """Steps from the set-up model until the pass ends or `done()`; returns
    the per-step losses, or None when a step failed."""
    _restore(s)
    trainer = Trainer(s.model, s.sem, s.schedule, TRAIN_CFG)
    losses = []
    for k, batch in enumerate(_batches(s)):
        if done():
            break
        step_losses, ms, problem = _step(trainer, batch)
        r.attempt()
        problem = problem or _check_losses(step_losses, s.refs.get(k))
        if problem:
            r.fail(f"step {k}", problem)
            return None
        s.refs.setdefault(k, step_losses)
        r.latencies.append(ms)
        losses.append(step_losses)
    return losses


def run_train(s: Setup, seconds: float, min_units: int) -> Result:
    r = Result()
    start = time.perf_counter()
    done = lambda: _done(start, seconds, r.attempted, min_units)
    # The first pass always runs in full: train_loss and the fingerprint need it.
    losses = _train_pass(s, r, lambda: False)
    if losses is not None:
        r.losses = losses
        r.trained = _weights(s.model)
    while not done():
        _train_pass(s, r, done)
    r.wall_s = time.perf_counter() - start
    if r.losses:
        r.values["train_loss"] = float(np.mean([g * TRAIN_CFG.lam + t for g, t in r.losses]))
    _restore(s)
    return r


def trace_train(s: Setup, seconds: float, min_units: int) -> Result:
    """Two copies of the set-up model train in lockstep on the same batches:
    each step runs untraced on one and then traced on the other, and both
    must give the same losses bitwise."""
    r = Result(tracer=train_tracer())
    twin = PredictionModel(MODEL_CFG, SCENE.grid_spec())
    start = time.perf_counter()
    done = lambda: _done(start, seconds, len(r.latencies), min_units)
    while not done():
        _restore(s)
        _restore(s, twin)
        plain = Trainer(s.model, s.sem, s.schedule, TRAIN_CFG)
        traced = Trainer(twin, s.sem, s.schedule, TRAIN_CFG)
        for k, batch in enumerate(_batches(s)):
            if done():
                break
            losses, ms, problem = _step(plain, batch)
            r.attempt()
            problem = problem or _check_losses(losses, s.refs.get(k))
            if problem:
                r.fail(f"step {k}", problem)
                break
            r.latencies.append(ms)
            s.refs.setdefault(k, losses)
            r.tracer.unit = r.attempted
            with r.tracer.installed():
                traced_losses, _, problem = _step(traced, batch)
            r.attempt()
            problem = problem or _check_losses(traced_losses, losses)
            if problem:
                r.fail(f"traced step {k}", problem)
                break
    spans = r.tracer.spans
    for indices in r.tracer.units().values():
        own = r.tracer.self_times_ns(indices)
        row = dict.fromkeys(TRAIN_LAYERS, 0.0)
        for i in indices:
            name = spans[i][0]
            row["train.other_ms" if name == "train.step" else f"{name}_ms"] += own[i] / 1e6
        row["nncore.conv2d_calls"] = sum(1 for i in indices
                                         if spans[i][0] == "nncore.conv2d_forward")
        row["root_ms"] = (spans[indices[0]][2] - spans[indices[0]][1]) / 1e6
        r.layers.append(row)
    return r


def fingerprint(r: Result, s: Setup) -> None:
    """Best-of-20 ADE/FDE on the fixed held-out set-up windows, with fixed
    noise: a fingerprint of the program's numerics. Predict workloads score
    the set-up weights under their own rule; train scores the weights after
    its first timed pass, under rule "ts" with TTST."""
    if s.workload.kind == "predict":
        rule, ttst = s.workload.rule, s.workload.ttst
    elif r.trained is not None:
        rule, ttst = "ts", TTST
        _load(s.model, r.trained)
    else:
        r.problems.append("no full training pass to fingerprint")
        return
    scores = []
    for i, w in enumerate(s.held_out):
        out = s.model.predict_window(w.history, s.sem, SAMPLER_CFG, s.schedule,
                                     NoiseStream(SETUP_DATA_SEED).fork(i),
                                     np.random.default_rng([SETUP_DATA_SEED, i]),
                                     rule=rule, ttst=ttst)
        problem = _check_prediction(out, None)
        if problem:
            r.problems.append(f"fingerprint window {i}: {problem}")
            continue
        scores.append(best_of_n(out, w.future))
    _restore(s)
    if scores:
        r.values["ade20_m"] = float(np.mean([a for a, _ in scores]))
        r.values["fde20_m"] = float(np.mean([f for _, f in scores]))
