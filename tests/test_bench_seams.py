"""The benchmark's tracer seams.

perfbench traces a run by wrapping trajlab names from outside (see
perfbench/workloads.py). A refactor that renames a wrapped name, or routes a
call around it, breaks the benchmark's per-layer breakdown. These tests
install the benchmark's own tracers on a tiny model and check what they see.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from trajlab.data import TrajectoryWindow
from trajlab.goal import GridSpec, SemanticGrid, TTSTConfig
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from trajlab.sampler import NoiseStream, SamplerConfig, total_evals
from trajlab.train import TrainConfig, Trainer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GRID = GridSpec(12, 12, (0.5, 0.5), 1.0)
# t_f matches the benchmark model so its per-span row count reads 1
MCFG = ModelConfig(t_h=4, t_f=workloads.MODEL_CFG.t_f, d_f=8, encoder_hidden=8,
                   denoiser_width=8, denoiser_blocks=1, embed_dim=4,
                   goal_base_channels=4, sem_channels=1, sigma_px=1.0, init_seed=3)
SCFG = SamplerConfig(K=10, K_I=5, K_t=2, N=3)
SCHED = default_schedule(10)
SEM = SemanticGrid(GRID, np.ones((1, 12, 12)))
HISTORY = np.stack([np.linspace(2, 5, 4), np.full(4, 6.0)], axis=1)


def predict(model, rule):
    ttst = TTSTConfig(n_samples=10) if rule == "ts" else None
    return model.predict_window(HISTORY, SEM, SCFG, SCHED, NoiseStream(1),
                                np.random.default_rng(1), rule=rule, ttst=ttst)


@pytest.mark.parametrize("rule", ["ts", "d_ddpm"])
def test_predict_tracer_sees_every_stage(rule):
    model = PredictionModel(MCFG, GRID)
    plain = predict(model, rule)
    tracer = workloads.predict_tracer()
    tracer.unit = 0
    with tracer.installed():
        traced = predict(model, rule)
    assert traced.tobytes() == plain.tobytes()

    names = [span[0] for span in tracer.spans]
    for name in ("model.predict_window", "goal.rasterize", "goal.net", "goal.select",
                 "condition.encode", "sampler"):
        assert names.count(name) == 1, name
    assert tracer.counts[0]["condition.encodes"] >= 1
    tags = [span[5] for span in tracer.spans if span[0] == "denoiser"]
    assert len(tags) == total_evals(rule, SCFG)
    assert all(rows == 1 for _, rows in tags)
    kinds = [kind for kind, _ in tags]
    n_common = SCFG.K_t if rule == "ts" else 0
    assert kinds == ["common"] * n_common + ["diverse"] * (len(kinds) - n_common)

    layers = workloads._predict_layers(tracer, tracer.units()[0], tracer.counts[0])
    assert layers["denoiser.evals"] == total_evals(rule, SCFG)
    assert layers["sampler.trunk_ms"] > 0.0 and layers["sampler.branch_ms"] > 0.0


def test_train_tracer_sees_one_step():
    rng = np.random.default_rng(0)
    windows = []
    for i in range(4):
        path = rng.uniform(2.0, 4.0, size=2) + np.arange(4 + MCFG.t_f)[:, None] * 0.3
        windows.append(TrajectoryWindow("s", i, path[:4], path[4:], 0))
    tcfg = TrainConfig(batch_size=4, seed=0)
    plain = Trainer(PredictionModel(MCFG, GRID), SEM, SCHED, tcfg).train_epoch(windows)
    tracer = workloads.train_tracer()
    tracer.unit = 0
    with tracer.installed():
        traced = Trainer(PredictionModel(MCFG, GRID), SEM, SCHED, tcfg).train_epoch(windows)
    assert traced == plain

    # the step runs its two half-batches each through one forward and one backward
    names = [span[0] for span in tracer.spans]
    for name in ("train.step", "train.adam"):
        assert names.count(name) == 1, name
    for name in ("train.goal_forward", "train.encoder_forward", "train.denoiser_forward",
                 "train.backward"):
        assert names.count(name) == 2, name
    assert names.count("nncore.conv2d_forward") > 0
