import json

import numpy as np
import pytest

from trajlab.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_MISSING,
                         ConfigError, load_config, main, write_snapshot)

SMALL = [
    "--set", "synthetic.n_agents=40", "--set", "synthetic.grid_size=16",
    "--set", "model.d_f=8", "--set", "model.encoder_hidden=8",
    "--set", "model.denoiser_width=8", "--set", "model.denoiser_blocks=1",
    "--set", "model.embed_dim=4", "--set", "model.goal_base_channels=4",
    "--set", "model.sigma_px=1.5", "--set", "schedule.K=10",
    "--set", "sampler.K_I=5", "--set", "sampler.K_t=2", "--set", "sampler.N=3",
    "--set", "train.epochs=2", "--set", "eval.max_windows=3",
    "--set", "eval.n_ttst=20", "--set", "data.stride=8",
]


def run(out_dir, command, *extra):
    return main([command, "--set", f"run.out_dir={out_dir}"] + SMALL + list(extra))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["schedule"]["K"] == 100
        assert cfg["sampler"]["rule"] == "ts"

    def test_file_values_typed(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[schedule]\nK = 50\nbeta_end = 0.02\n[train]\nteacher_forcing = no\n")
        cfg = load_config(str(path))
        assert cfg["schedule"]["K"] == 50
        assert cfg["schedule"]["beta_end"] == pytest.approx(0.02)
        assert cfg["train"]["teacher_forcing"] is False

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[schedule]\nKK = 50\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[schedule]\nK = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_set_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[schedule]\nK = 50\n")
        cfg = load_config(str(path), ["schedule.K=25"])
        assert cfg["schedule"]["K"] == 25

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["scheduleK=25"])
        with pytest.raises(ConfigError):
            load_config(None, ["schedule.K"])

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("TRAJLAB_SEED", "777")
        assert load_config(None)["run"]["seed"] == 777

    def test_snapshot_round_trips(self, tmp_path):
        cfg = load_config(None, ["schedule.K=42", "train.lr=0.005"])
        path = tmp_path / "resolved.ini"
        write_snapshot(cfg, path)
        assert load_config(str(path)) == cfg


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["train", "--set", "schedule.K=banana"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("sampler.K_t=500", "K_t"),
        ("sampler.rule=euler", "euler"),
        ("train.val_fraction=1", "val_fraction"),
    ])
    def test_bad_config_value_is_2(self, override, key, capsys):
        assert main(["train", "--set", override]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and key in err
        assert len(err.splitlines()) == 1

    def test_bad_env_seed_is_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAJLAB_SEED", "abc")
        assert main(["train"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "TRAJLAB_SEED" in err and len(err.splitlines()) == 1

    def test_missing_config_file_is_3(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini")]) == EXIT_MISSING

    def test_missing_dataset_is_3(self, tmp_path):
        code = main(["train", "--set", f"run.out_dir={tmp_path}",
                     "--set", f"data.dataset_dir={tmp_path / 'none'}"])
        assert code == EXIT_MISSING

    def test_checkpoint_shape_mismatch_is_4(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        out = tmp_path / "run"
        assert run(data_dir, "synth-data") == 0
        assert run(out, "train", "--set", f"data.dataset_dir={data_dir}") == 0
        # reload under a wider model: parameter shapes no longer match
        code = main(["predict", "--set", f"run.out_dir={tmp_path / 'other'}"]
                    + SMALL
                    + ["--set", f"data.dataset_dir={data_dir}",
                       "--set", f"eval.checkpoint={tmp_path / 'data' / 'semantic.grid'}"])
        assert code == EXIT_CHECKPOINT


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-data + train once; downstream commands share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    run_dir = root / "run"
    assert run(data_dir, "synth-data") == 0
    assert run(run_dir, "train", "--set", f"data.dataset_dir={data_dir}") == 0
    return root, data_dir, run_dir


class TestPipeline:
    def test_synth_data_outputs(self, pipeline):
        _, data_dir, _ = pipeline
        assert (data_dir / "tracks.txt").exists()
        assert (data_dir / "semantic.grid").exists()
        assert (data_dir / "resolved.ini").exists()
        anchors = json.loads((data_dir / "anchors.json").read_text())
        assert len(anchors) == 3

    def test_synth_data_deterministic(self, pipeline, tmp_path):
        _, data_dir, _ = pipeline
        assert run(tmp_path / "again", "synth-data") == 0
        assert (tmp_path / "again" / "tracks.txt").read_bytes() == \
            (data_dir / "tracks.txt").read_bytes()

    def test_train_outputs(self, pipeline):
        _, _, run_dir = pipeline
        assert (run_dir / "checkpoint.npz").exists()
        lines = (run_dir / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,l_goal,l_traj,l_total,lr"
        assert len(lines) == 3  # header + 2 epochs

    def test_train_deterministic(self, pipeline, tmp_path):
        root, data_dir, run_dir = pipeline
        assert run(tmp_path / "re", "train",
                   "--set", f"data.dataset_dir={data_dir}") == 0
        assert (tmp_path / "re" / "metrics.csv").read_text() == \
            (run_dir / "metrics.csv").read_text()

    def test_predict_then_eval(self, pipeline):
        _, data_dir, run_dir = pipeline
        assert run(run_dir, "predict", "--set", f"data.dataset_dir={data_dir}") == 0
        records = json.loads((run_dir / "predictions.json").read_text())
        assert len(records) == 3
        assert np.asarray(records[0]["predictions"]).shape == (3, 12, 2)
        assert run(run_dir, "eval", "--set", f"data.dataset_dir={data_dir}") == 0
        lines = (run_dir / "displacement.csv").read_text().strip().split("\n")
        assert lines[0] == "scene,agent,frame_base,ade,fde"
        assert lines[-1].startswith("mean,")

    def test_trunkless_tree_equals_plain_ddim(self, pipeline, tmp_path):
        _, data_dir, run_dir = pipeline
        outs = {}
        for name, extra in {
            "ts0": ["--set", "sampler.K_t=0", "--set", "sampler.rule=ts"],
            "ddim": ["--set", "sampler.K_t=0", "--set", "sampler.rule=ddim"],
        }.items():
            out = tmp_path / name
            assert main(["predict", "--set", f"run.out_dir={out}"] + SMALL
                        + ["--set", f"data.dataset_dir={data_dir}",
                           "--set", f"eval.checkpoint={run_dir / 'checkpoint.npz'}"]
                        + extra) == 0
            outs[name] = (out / "predictions.json").read_text()
        assert outs["ts0"] == outs["ddim"]

    def test_bench_csv(self, pipeline):
        _, data_dir, run_dir = pipeline
        assert run(run_dir, "bench", "--set", f"data.dataset_dir={data_dir}",
                   "--set", "eval.trunk_steps=2,4",
                   "--set", "eval.max_windows=1") == 0
        lines = (run_dir / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == "sampler,K,K_I,K_t,eta,N,ade,fde,evals,ms"
        samplers = [l.split(",")[0] for l in lines[1:]]
        assert samplers == ["ddpm", "ddim", "d_ddpm", "ts", "ts"]
        evals = {l.split(",")[0]: int(l.split(",")[8]) for l in lines[1:]}
        assert evals["ddpm"] == 3 * 10
        assert evals["ddim"] == 3 * 5
