import numpy as np
import pytest

from trajlab.goal import GoalSet, GridSpec, SemanticGrid, TTSTConfig, rasterize_points
from trajlab.model import ModelConfig, PredictionModel, default_schedule
from trajlab.sampler import NoiseStream, SamplerConfig


@pytest.fixture
def setup():
    grid = GridSpec(12, 12, (0.5, 0.5), 1.0)
    cfg = ModelConfig(t_h=4, t_f=3, d_f=8, encoder_hidden=8, denoiser_width=8,
                      denoiser_blocks=1, embed_dim=4, goal_base_channels=4,
                      sem_channels=1, sigma_px=1.0, init_seed=11)
    model = PredictionModel(cfg, grid)
    sem = SemanticGrid(grid, np.ones((1, 12, 12)))
    history = np.stack([np.linspace(2, 5, 4), np.full(4, 6.0)], axis=1)
    return model, sem, history


class TestModelConfig:
    @pytest.mark.parametrize("sigma_px", [0.0, -1.0, np.nan, np.inf, 0.01, 1e-200, 1e200])
    def test_bad_sigma_px_rejected(self, sigma_px):
        # at 0.01 px every Gaussian underflows, even half a pixel off-centre
        with pytest.raises(ValueError, match="sigma_px"):
            ModelConfig(sigma_px=sigma_px)

    def test_smallest_sigma_px_keeps_maps_finite(self):
        # a sigma near the smallest accepted (~0.0183 px) still gives an in-grid
        # point as far from the pixel centres as any a map of sum 1
        sigma = 0.02
        ModelConfig(sigma_px=sigma)
        grid = GridSpec(4, 4, (0.0, 0.0), 1.0)
        corner = np.array([[1.5 - 1e-12, 1.5 - 1e-12]])  # half a pixel off every centre
        m = rasterize_points(corner, grid, sigma)
        assert np.all(np.isfinite(m)) and m.sum() == pytest.approx(1.0)


class TestCheckpoint:
    def test_save_load_round_trip(self, setup, tmp_path):
        model, _, _ = setup
        path = tmp_path / "model.npz"
        model.save(path)
        back = PredictionModel.load(path)
        assert back.cfg == model.cfg
        assert back.grid == model.grid
        for name, p in model.parameters().items():
            assert np.array_equal(back.parameters()[name].data, p.data), name

    def test_loaded_model_predicts_identically(self, setup, tmp_path):
        model, sem, history = setup
        path = tmp_path / "model.npz"
        model.save(path)
        back = PredictionModel.load(path)
        scfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3, t_f=3)
        sched = default_schedule(10)
        a = model.predict_window(history, sem, scfg, sched, NoiseStream(1),
                                 np.random.default_rng(1))
        b = back.predict_window(history, sem, scfg, sched, NoiseStream(1),
                                np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self, setup, tmp_path):
        model, _, _ = setup
        path = tmp_path / "model.npz"
        model.save(path)
        other_cfg = ModelConfig(**{**vars(model.cfg), "denoiser_width": 16})
        # widen one module, then overwrite its stored config so load() builds
        # the wider net but finds the narrow arrays
        import trajlab.nncore as nncore
        arrays = nncore.load_checkpoint(path)
        arrays["cfg.denoiser_width"] = np.asarray(16.0)
        nncore.save_checkpoint(path, arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            PredictionModel.load(path)

    def test_missing_config_key_rejected(self, setup, tmp_path):
        model, _, _ = setup
        path = tmp_path / "model.npz"
        model.save(path)
        import trajlab.nncore as nncore
        arrays = nncore.load_checkpoint(path)
        del arrays["cfg.t_h"]
        nncore.save_checkpoint(path, arrays)
        with pytest.raises(ValueError, match="cfg.t_h"):
            PredictionModel.load(path)

    def test_older_checkpoint_with_retired_key_loads(self, setup, tmp_path):
        # checkpoints written while the agent frame was a knob carry cfg.agent_centric
        model, _, _ = setup
        path = tmp_path / "model.npz"
        model.save(path)
        import trajlab.nncore as nncore
        arrays = nncore.load_checkpoint(path)
        arrays["cfg.agent_centric"] = np.asarray(1.0)
        nncore.save_checkpoint(path, arrays)
        assert PredictionModel.load(path).cfg == model.cfg

    @pytest.mark.parametrize("key, value", [
        ("grid.spec", np.zeros(3)), ("grid.spec", np.array([16, 16, 0.5, np.nan, 1.0])),
        ("cfg.t_h", np.array([8.0, 8.0])), ("cfg.t_h", np.array(np.inf))])
    def test_malformed_entry_rejected(self, setup, tmp_path, key, value):
        model, _, _ = setup
        path = tmp_path / "model.npz"
        model.save(path)
        import trajlab.nncore as nncore
        arrays = nncore.load_checkpoint(path)
        arrays[key] = value
        nncore.save_checkpoint(path, arrays)
        with pytest.raises(ValueError, match=key):
            PredictionModel.load(path)


def test_condition_features_tag_the_condition_rows(setup, rng):
    # one "common" feature, then N "diverse" ones, each the bitwise row of the
    # one condition stage for the goals [common; diverse]
    model, _, history = setup
    goals = GoalSet(diverse=rng.uniform(1, 11, size=(5, 2)), common=np.array([7.5, 3.0]))
    common, diverse = model.condition_features(history, goals)
    rows = model.condition(np.stack([history] * 6),
                           np.vstack([goals.common, goals.diverse])).data
    assert common.kind == "common" and [f.kind for f in diverse] == ["diverse"] * 5
    assert np.stack([common.vector] + [f.vector for f in diverse]).tobytes() == rows.tobytes()


class TestPredictWindow:
    def test_output_shape_and_reproducibility(self, setup):
        model, sem, history = setup
        scfg = SamplerConfig(K=10, K_I=5, K_t=2, N=4, t_f=3)
        sched = default_schedule(10)
        a = model.predict_window(history, sem, scfg, sched, NoiseStream(3),
                                 np.random.default_rng(3))
        b = model.predict_window(history, sem, scfg, sched, NoiseStream(3),
                                 np.random.default_rng(3))
        assert a.shape == (4, 3, 2)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_rules_and_ttst_run(self, setup):
        model, sem, history = setup
        scfg = SamplerConfig(K=10, K_I=5, K_t=0, N=2, t_f=3)
        sched = default_schedule(10)
        for rule in ("ts", "ddpm", "d_ddpm", "ddim"):
            out = model.predict_window(history, sem, scfg, sched, NoiseStream(0),
                                       np.random.default_rng(0), rule=rule,
                                       ttst=TTSTConfig(n_samples=10))
            assert out.shape == (2, 3, 2)

    def test_agent_centric_translation_covariance(self, setup):
        # shifting history shifts predictions by the same offset
        model, sem, history = setup
        scfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3, t_f=3)
        sched = default_schedule(10)
        base = model.predict_window(history, sem, scfg, sched, NoiseStream(5),
                                    np.random.default_rng(5))
        shift = np.array([1.0, -2.0])
        moved = model.predict_window(history + shift, sem, scfg, sched,
                                     NoiseStream(5), np.random.default_rng(5))
        # goal selection reads the heat-map, which moves with the history only
        # approximately; compare relative displacement of the mean endpoints
        assert np.allclose(moved.mean(axis=(0, 1)) - base.mean(axis=(0, 1)),
                           shift, atol=2.0)

    def test_semantic_grid_off_the_model_grid_rejected(self, setup):
        model, _, history = setup
        sem = SemanticGrid(GridSpec(12, 12, (0.5, 0.5), 0.5), np.ones((1, 12, 12)))
        scfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3, t_f=3)
        with pytest.raises(ValueError, match="does not match the model's grid"):
            model.predict_window(history, sem, scfg, default_schedule(10), NoiseStream(0),
                                 np.random.default_rng(0))

    def test_history_outside_grid_rejected(self, setup):
        model, sem, history = setup
        scfg = SamplerConfig(K=10, K_I=5, K_t=2, N=3, t_f=3)
        outside = history + np.array([8.0, 0.0])  # x = 10, 11, 12, 13 on a 12 m grid
        with pytest.raises(ValueError, match=r"position 3 \[13\.0, 6\.0\] outside grid"):
            model.predict_window(outside, sem, scfg, default_schedule(10), NoiseStream(0),
                                 np.random.default_rng(0))
