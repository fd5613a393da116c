import configparser
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trajlab.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_MISSING,
                         ConfigError, load_config, main, write_snapshot)
from trajlab.goal import GridSpec, SemanticGrid, save_semantic_grid

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

# the resolved.ini that `trajlab` writes for the defaults (load_config(None))
DEFAULT_SNAPSHOT = """\
[run]
seed = 0
out_dir = runs/out

[schedule]
K = 100
beta_start = 0.0001
beta_end = 0.05

[sampler]
K_I = 20
K_t = 20
eta = 1.0
N = 20
rule = ts

[model]
t_h = 8
t_f = 12
d_f = 64
encoder_hidden = 64
denoiser_width = 64
denoiser_blocks = 3
embed_dim = 32
goal_base_channels = 8
sigma_px = 4.0

[train]
lambda = 20.0
epochs = 200
batch_size = 32
lr = 0.001
lr_decay = 0.99
teacher_forcing = True
val_fraction = 0.1
max_seconds = 0.0

[data]
dataset_dir =
stride = 4

[synthetic]
n_agents = 2000
extent = 16.0
grid_size = 32
anchors = 14,3;14,8;14,13
speed_mean = 0.55
speed_std = 0.05
heading_noise = 0.06

[eval]
ttst = True
n_ttst = 1000
max_windows = 64
trunk_steps = 5,20,50
repeats = 1
checkpoint =
predictions =
"""


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
        # a "%" is a literal character, not interpolation syntax
        cfg = load_config(None, ["schedule.K=42", "train.lr=0.005", "run.out_dir=runs/50%(x)s"])
        path = tmp_path / "resolved.ini"
        write_snapshot(cfg, path)
        assert load_config(str(path)) == cfg

    def test_default_snapshot_keeps_its_keys(self, tmp_path):
        # a config-class field that leaks into its section, or a key that goes
        # missing from one, changes the INI surface that older snapshots use
        path = tmp_path / "resolved.ini"
        path.write_text(DEFAULT_SNAPSHOT)
        assert load_config(str(path)) == load_config(None)
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_string(DEFAULT_SNAPSHOT)
        assert {section: set(kv) for section, kv in load_config(None).items()} \
            == {section: set(parser[section]) for section in parser.sections()}

    @pytest.mark.parametrize("max_seconds", ["0", "inf"])
    def test_max_seconds_zero_and_inf_are_valid(self, max_seconds):
        # 0 means no limit
        assert load_config(None, [f"train.max_seconds={max_seconds}"])["train"]["max_seconds"] \
            == float(max_seconds)


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["train", "--set", "schedule.K=banana"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("sampler.K_t=500", "K_t"),
        ("sampler.rule=euler", "euler"),
        ("train.val_fraction=1", "val_fraction"),
        ("data.stride=0", "stride"),
        ("model.t_h=1", "t_h"),
        ("model.sigma_px=0", "sigma_px"),
        ("model.sigma_px=nan", "sigma_px"),
        ("model.sigma_px=0.01", "sigma_px"),
        ("model.sigma_px=1e200", "sigma_px"),
        ("eval.n_ttst=5", "n_ttst"),
        ("eval.max_windows=0", "max_windows"),
        ("eval.max_windows=-2", "max_windows"),
        ("eval.repeats=0", "repeats"),
        ("eval.trunk_steps=50 schedule.K=30", "trunk_steps"),
        ("synthetic.n_agents=0", "n_agents"),
        ("synthetic.extent=-1", "extent"),
        ("synthetic.speed_std=-1", "speed_std"),
        ("synthetic.grid_size=0", "grid_size"),
        ("synthetic.heading_noise=-0.1", "heading_noise"),
        ("synthetic.anchors=1,1,1", "anchors"),
        ("synthetic.anchors=nan,1", "anchors"),
        ("synthetic.extent=inf", "extent"),
        ("synthetic.speed_mean=nan", "speed_mean"),
        ("synthetic.heading_noise=inf", "heading_noise"),
        ("train.epochs=0", "epochs"),
        ("train.lr=nan", "lr"),
        ("train.lr=-1", "lr"),
        ("train.lr_decay=0", "lr_decay"),
        ("train.lr_decay=inf", "lr_decay"),
        ("train.lambda=nan", "lambda"),
        ("train.lambda=-1", "lambda"),
        ("train.max_seconds=nan", "max_seconds"),
        ("train.max_seconds=-5", "max_seconds"),
        ("run.seed=-1", "run.seed"),
        ("model.embed_dim=5", "embed_dim"),
        ("model.embed_dim=0", "embed_dim"),
        ("model.t_f=0", "t_f"),
        ("model.d_f=0", "d_f"),
        ("model.encoder_hidden=0", "encoder_hidden"),
        ("model.denoiser_width=0", "denoiser_width"),
        ("model.denoiser_blocks=-1", "denoiser_blocks"),
        ("model.goal_base_channels=0", "goal_base_channels"),
    ])
    def test_bad_config_value_is_2(self, override, key, capsys):
        sets = [arg for item in override.split() for arg in ("--set", item)]
        # only bench reads eval.trunk_steps; every other value is checked on load
        commands = ("bench",) if key == "trunk_steps" else ("train", "predict", "bench")
        for command in commands:
            assert main([command] + sets) == EXIT_CONFIG
            err = capsys.readouterr().err.strip()
            assert err.startswith("config error") and key in err
            assert len(err.splitlines()) == 1

    def test_retired_agent_centric_key_is_2(self, tmp_path, capsys):
        # the agent frame is always on; an older resolved.ini still names the knob
        path = tmp_path / "resolved.ini"
        path.write_text("[model]\nagent_centric = True\n")
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error") and "agent_centric" in err

    def test_bad_env_seed_is_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAJLAB_SEED", "abc")
        assert main(["train"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "TRAJLAB_SEED" in err and len(err.splitlines()) == 1

    def test_negative_env_seed_is_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TRAJLAB_SEED", "-3")
        assert main(["train"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "TRAJLAB_SEED" in err and "run.seed" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("content", [b"[run]\nseed = 1\nseed = 2\n", b"seed = 1\n",
                                         b"[run\nseed = 1\n", None],
                             ids=["duplicate-key", "no-section-header", "unclosed-section",
                                  "directory"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.ini"
        path.mkdir() if content is None else path.write_bytes(content)
        assert main(["train", "--config", str(path),
                     "--set", f"run.out_dir={tmp_path / 'run'}"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {path}: ")
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("below", ["", "run"], ids=["file", "under-a-file"])
    def test_out_dir_that_is_a_file_is_2(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / below
        assert main(["eval", "--set", f"run.out_dir={out}"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: run.out_dir {out}: ")

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


def write_dataset(data_dir, agents: dict, grid_bytes: bytes | None = None) -> None:
    """tracks.txt with 20 frames (step 10) per agent, one straight walk
    `(first frame, start xy, velocity per frame)` each, and a 16 x 16 m grid."""
    data_dir.mkdir()
    lines = []
    for agent, (frame0, start, velocity) in agents.items():
        for i in range(20):
            x, y = np.add(start, np.multiply(velocity, i))
            lines.append(f"{frame0 + 10 * i} {agent} {x:.3f} {y:.3f}")
    (data_dir / "tracks.txt").write_text("\n".join(lines) + "\n")
    if grid_bytes is None:
        save_semantic_grid(data_dir / "semantic.grid",
                           SemanticGrid(GridSpec(16, 16, (0.5, 0.5), 1.0), np.ones((1, 16, 16))))
    else:
        (data_dir / "semantic.grid").write_bytes(grid_bytes)


ONES = np.ones(16 * 16, "<f4").tobytes()  # payload of a one-channel 16 x 16 grid


class TestBadInputFiles:
    def one_line_error(self, capsys) -> str:
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "checkpoint" not in err
        return err

    def test_track_outside_grid_names_agent_and_frame(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        # agent 2 walks out of the grid (x > 16.5) in its last frames
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0)),
                                 2: (100, (8.0, 8.0), (0.5, 0.0))})
        for command in ("train", "predict"):
            assert run(tmp_path / "run", command, "--set", f"data.dataset_dir={data_dir}") \
                == EXIT_CHECKPOINT
            err = self.one_line_error(capsys)
            assert "tracks.txt" in err and "agent 2" in err and "frame 100" in err

    def test_malformed_tracks_line_is_one_line(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
        with open(data_dir / "tracks.txt", "a") as f:
            f.write("300 1 4.0\n")
        assert run(tmp_path / "run", "train", "--set", f"data.dataset_dir={data_dir}") \
            == EXIT_CHECKPOINT
        assert "tracks.txt: line 21: expected 4 fields" in self.one_line_error(capsys)

    @pytest.mark.parametrize("position", ["nan 2", "1 inf"])
    def test_non_finite_track_position_names_the_line(self, tmp_path, capsys, position):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
        with open(data_dir / "tracks.txt", "a") as f:
            f.write(f"300 1 {position}\n")
        for command in ("train", "predict"):
            assert run(tmp_path / "run", command, "--set", f"data.dataset_dir={data_dir}") \
                == EXIT_CHECKPOINT
            err = self.one_line_error(capsys)
            assert "tracks.txt: line 21: non-finite position" in err and "semantic grid" not in err

    def test_non_finite_grid_value_is_one_line(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        payload = np.ones(16 * 16, "<f4")
        payload[37] = np.nan
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))},
                      b"TRAJGRID 1 16 16 1 0.5 0.5 1\n" + payload.tobytes())
        for command in ("train", "predict"):
            assert run(tmp_path / "run", command, "--set", f"data.dataset_dir={data_dir}") \
                == EXIT_CHECKPOINT
            err = self.one_line_error(capsys)
            assert err.startswith(f"bad input file: {data_dir / 'semantic.grid'}: bad semantic "
                                  "grid: non-finite channel value")
        assert not (tmp_path / "run" / "checkpoint.npz").exists()

    @pytest.mark.parametrize("grid_bytes", [
        b"", b"TRAJGRID 1 16\n",
        pytest.param(b"TRAJGRID 1 16 16 1 0.5 0.5 nan\n" + ONES, id="nan-resolution"),
        pytest.param(b"TRAJGRID 1 16 16 1 nan 0.5 1\n" + ONES, id="nan-origin"),
        pytest.param(b"TRAJGRID 1 0 16 1 0.5 0.5 1\n", id="zero-rows"),
        pytest.param(b"TRAJGRID 1 16 16 0 0.5 0.5 1\n", id="zero-channels")])
    def test_empty_or_short_grid_is_one_line(self, tmp_path, capsys, grid_bytes):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))}, grid_bytes)
        assert run(tmp_path / "run", "train", "--set", f"data.dataset_dir={data_dir}") \
            == EXIT_CHECKPOINT
        err = self.one_line_error(capsys)
        assert "semantic.grid" in err and "tracks.txt" not in err

    def test_no_training_window_names_tracks(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
        # the only track keeps 12 frames, fewer than t_h + t_f = 20
        lines = (data_dir / "tracks.txt").read_text().splitlines()
        (data_dir / "tracks.txt").write_text("\n".join(lines[:12]) + "\n")
        assert run(tmp_path / "run", "train", "--set", f"data.dataset_dir={data_dir}") \
            == EXIT_CHECKPOINT
        err = self.one_line_error(capsys)
        assert err.startswith("bad input file:") and "tracks.txt" in err

    @pytest.mark.parametrize("damage", ["truncated", "unversioned", "nan-weight", "tiny-sigma",
                                        "odd-embed-dim", "zero-hidden", "fractional-embed-dim",
                                        "npy-file"])
    def test_unusable_checkpoint_names_it(self, pipeline, tmp_path, capsys, damage):
        _, data_dir, run_dir = pipeline
        ckpt = tmp_path / "checkpoint.npz"
        arrays = dict(np.load(run_dir / "checkpoint.npz"))
        if damage == "truncated":
            ckpt.write_bytes((run_dir / "checkpoint.npz").read_bytes()[:2000])
        elif damage == "unversioned":
            del arrays["__format_version__"]
            np.savez(ckpt, **arrays)
        elif damage == "nan-weight":
            arrays["denoiser.outp.b"][3] = np.nan
            np.savez(ckpt, **arrays)
        elif damage == "npy-file":  # one bare array, not an archive
            with open(ckpt, "wb") as f:
                np.save(f, arrays["denoiser.outp.b"])
        else:  # every Gaussian of a 0.01 px sigma underflows, or a size is unusable
            key, value = {"tiny-sigma": ("sigma_px", 0.01), "odd-embed-dim": ("embed_dim", 5.0),
                          "zero-hidden": ("encoder_hidden", 0.0),
                          "fractional-embed-dim": ("embed_dim", 4.7)}[damage]
            arrays[f"cfg.{key}"] = np.asarray(value)
            np.savez(ckpt, **arrays)
        for command in ("predict", "bench"):
            assert run(tmp_path / "run", command, "--set", f"data.dataset_dir={data_dir}",
                       "--set", f"eval.checkpoint={ckpt}", "--set", "eval.trunk_steps=2") \
                == EXIT_CHECKPOINT
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1 and err.startswith(f"bad checkpoint: {ckpt}: ")
            assert damage in ("truncated", "unversioned", "nan-weight", "npy-file") or key in err

    @pytest.mark.parametrize("grid", [
        SemanticGrid(GridSpec(16, 16, (0.5, 0.5), 1.0), np.ones((1, 16, 16))),
        SemanticGrid(GridSpec(32, 32, (0.25, 0.25), 0.5), np.ones((2, 32, 32)))],
        ids=["one-channel", "finer-grid"])
    def test_checkpoint_must_fit_the_grid(self, pipeline, tmp_path, capsys, grid):
        # the checkpoint was trained on a 16 x 16 grid of 1 m with 2 channels
        _, _, run_dir = pipeline
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
        save_semantic_grid(data_dir / "semantic.grid", grid)
        for command in ("predict", "bench"):
            out = tmp_path / command
            assert run(out, command, "--set", f"data.dataset_dir={data_dir}",
                       "--set", f"eval.checkpoint={run_dir / 'checkpoint.npz'}",
                       "--set", "eval.trunk_steps=2") == EXIT_CHECKPOINT
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1 and err.startswith("bad checkpoint:")
            assert "semantic.grid" in err
            assert not any(out.glob("*.json")) and not any(out.glob("*.csv"))

    @pytest.mark.parametrize("name, damage", [("tracks.txt", "not-utf-8"),
                                              ("tracks.txt", "directory"),
                                              ("semantic.grid", "directory"),
                                              ("predictions.json", "directory")])
    def test_unreadable_input_file_is_4(self, tmp_path, capsys, name, damage):
        data_dir = tmp_path / "data"
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
        path = data_dir / name
        if damage == "directory":
            path.unlink(missing_ok=True)
            path.mkdir()
        else:
            path.write_bytes(b"0 1 2.0 8.0\n10 1 2.3 8.0\xff\n")
        commands = ("eval",) if name == "predictions.json" else ("train", "predict")
        for command in commands:
            assert run(tmp_path / "run", command, "--set", f"data.dataset_dir={data_dir}",
                       "--set", f"eval.predictions={data_dir / 'predictions.json'}") \
                == EXIT_CHECKPOINT
            err = self.one_line_error(capsys)
            assert err.startswith(f"bad input file: {path}: ") and err.count(str(path)) == 1

    def test_eval_without_records_is_4(self, tmp_path, capsys):
        path = tmp_path / "predictions.json"
        path.write_text("[]")
        assert run(tmp_path / "run", "eval", "--set", f"eval.predictions={path}") \
            == EXIT_CHECKPOINT
        err = self.one_line_error(capsys)
        assert "predictions.json" in err and "nan" not in err.lower()
        assert not (tmp_path / "run" / "displacement.csv").exists()

    @pytest.mark.parametrize("records, fragment", [
        ('{"scene": "s", "agent": 1, "frame_base": 0, "predictions": [[[0, 0]]]}',
         "record 1: missing key 'gt'"),
        ('{"scene": "s", "agent": 1, "frame_base": 0, "predictions": [[[NaN, 0]]], '
         '"gt": [[0, 0]]}', "record 1: non-finite"),
        ('{"scene": "s", "agent": 1, "frame_base": 0, "predictions": [[[0, 0], [1, 1], '
         '[2, 2]]], "gt": [[0, 0], [1, 1]]}', "record 1: predictions (1, 3, 2) and gt (2, 2)"),
        ('[1, 2]', "record 1: not a JSON object"),
        ('{"scene": ', "predictions.json: Expecting value"),
    ])
    def test_eval_bad_record_names_file_and_index(self, tmp_path, capsys, records, fragment):
        # record 0 is well formed; record 1 is not
        path = tmp_path / "predictions.json"
        path.write_text('[{"scene": "s", "agent": 0, "frame_base": 0, '
                        '"predictions": [[[0, 0]]], "gt": [[1, 0]]}, ' + records + "]")
        assert run(tmp_path / "run", "eval", "--set", f"eval.predictions={path}") \
            == EXIT_CHECKPOINT
        err = self.one_line_error(capsys)
        assert err.startswith("bad input file:") and "predictions.json" in err
        assert fragment in err and "nan" not in err.lower()
        assert not (tmp_path / "run" / "displacement.csv").exists()


def _npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# a well-formed file of each input; a fuzzed file is random bytes, or a random
# prefix of this one followed by random bytes, so that parsing gets past the header
WELL_FORMED = {
    "config.ini": DEFAULT_SNAPSHOT.encode(),
    "tracks.txt": "".join(f"{10 * i} 1 {2 + 0.3 * i:.3f} 8.000\n" for i in range(20)).encode(),
    "semantic.grid": b"TRAJGRID 1 16 16 1 0.5 0.5 1\n" + ONES,
    "checkpoint.npz": _npz_bytes(__format_version__=np.array(1), **{"cfg.t_h": np.array(8.0)}),
    "predictions.json": b'[{"scene": "s", "agent": 0, "frame_base": 0, '
                        b'"predictions": [[[0, 0]]], "gt": [[1, 0]]}]',
}


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
@pytest.mark.filterwarnings("ignore:.*no observations parsed:UserWarning")
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_file_exits_with_a_documented_code(tmp_path, capsys, name, data):
    well_formed = WELL_FORMED[name]
    content = data.draw(st.binary(max_size=300) | st.builds(
        lambda n, tail: well_formed[:n] + tail, st.integers(0, len(well_formed)),
        st.binary(max_size=40)))
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        write_dataset(data_dir, {1: (0, (2.0, 8.0), (0.3, 0.0))})
    path = (data_dir if name in ("tracks.txt", "semantic.grid") else tmp_path) / name
    path.write_bytes(content)
    command = {"config.ini": "eval", "tracks.txt": "train", "semantic.grid": "train",
               "checkpoint.npz": "predict", "predictions.json": "eval"}[name]
    predictions = path if name == "predictions.json" else tmp_path / "none.json"
    argv = [command] + SMALL + ["--set", f"run.out_dir={tmp_path / 'run'}",
                                "--set", f"data.dataset_dir={data_dir}",
                                "--set", f"eval.checkpoint={tmp_path / 'checkpoint.npz'}",
                                "--set", f"eval.predictions={predictions}"]
    # --set wins over the file, so a config that parses ends at the missing predictions
    code = main(argv + ["--config", str(path)] if name == "config.ini" else argv)
    err = capsys.readouterr().err
    assert code in (0, EXIT_CONFIG, EXIT_MISSING, EXIT_CHECKPOINT)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


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
