"""Command-line front end: synth-data | train | predict | eval | bench.

Configuration is a sectioned key=value file (INI syntax). Every key has a
default; unknown sections or keys are rejected, and values are checked on
load, so a bad value is a configuration error that names its key.
`--set section.key=value` overrides individual entries and the TRAJLAB_SEED
environment variable overrides run.seed. Every run writes a resolved-config
snapshot that can be fed back through any subcommand to reproduce it.

Exit codes: 0 success, 2 configuration error, 3 missing input file,
4 unusable checkpoint or bad input file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (SyntheticSceneConfig, TrajectoryFileError, generate_synthetic,
                   make_windows, parse_trajectory_file, write_trajectory_file)
from .evaluation import (bench_samplers, best_of_n, read_predictions_json,
                         write_bench_csv, write_predictions_json)
from .goal import TTSTConfig, load_semantic_grid, save_semantic_grid
from .model import ModelConfig, PredictionModel, default_schedule
from .sampler import NoiseStream, SamplerConfig, total_evals
from .train import TrainConfig, Trainer

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_CHECKPOINT = 4

# full-scale reference configuration: K=100, K_I=20, K_t=20, eta in {0,1},
# lambda in {20,40}, N=20, n_ttst=1000, t_h=8, t_f=12
DEFAULTS: dict[str, dict[str, object]] = {
    "run": {"seed": 0, "out_dir": "runs/out"},
    "schedule": {"K": 100, "beta_start": 1e-4, "beta_end": 0.05},
    "sampler": {"K_I": 20, "K_t": 20, "eta": 1.0, "N": 20, "rule": "ts"},
    "model": {"t_h": 8, "t_f": 12, "d_f": 64, "encoder_hidden": 64,
              "denoiser_width": 64, "denoiser_blocks": 3, "embed_dim": 32,
              "goal_base_channels": 8, "sigma_px": 4.0, "agent_centric": True},
    "train": {"lambda": 20.0, "epochs": 200, "batch_size": 32, "lr": 1e-3,
              "lr_decay": 0.99, "teacher_forcing": True, "val_fraction": 0.1,
              "max_seconds": 0.0},
    "data": {"dataset_dir": "", "stride": 4},
    "synthetic": {"n_agents": 2000, "extent": 16.0, "grid_size": 32,
                  "anchors": "14,3;14,8;14,13", "speed_mean": 0.55,
                  "speed_std": 0.05, "heading_noise": 0.06},
    "eval": {"ttst": True, "n_ttst": 1000, "max_windows": 64,
             "trunk_steps": "5,20,50", "repeats": 1,
             "checkpoint": "", "predictions": ""},
}


class ConfigError(ValueError):
    pass


class InputFileError(ValueError):
    """A dataset or predictions file that a command cannot use (exit 4)."""


class CheckpointError(ValueError):
    """A checkpoint that cannot be loaded or does not fit the dataset (exit 4)."""


def _convert(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return type(default)(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from e


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    cfg = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case
        parser.read(path)
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in cfg[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                cfg[section][key] = _convert(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config entry {dotted!r}")
        cfg[section][key] = _convert(section, key, value)
    env_seed = os.environ.get("TRAJLAB_SEED")
    if env_seed is not None:
        try:
            cfg["run"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"TRAJLAB_SEED (run.seed): not an integer: {env_seed!r}") from None
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict) -> None:
    """Build each config object once, so that a bad value is a config error
    naming its section and key rather than a failure deep inside a command."""
    sampler = lambda c: total_evals(c["sampler"]["rule"], _sampler_config(c))  # checks the rule
    for section, build in (("schedule", _schedule), ("sampler", sampler), ("model", _model_config),
                           ("train", _train_config), ("synthetic", _scene_config)):
        try:
            build(cfg)
        except ValueError as e:
            raise ConfigError(f"[{section}] {e}") from e
    if not 0.0 <= cfg["train"]["val_fraction"] < 1.0:
        raise ConfigError(f"[train] val_fraction must lie in [0, 1), "
                          f"got {cfg['train']['val_fraction']}")
    if cfg["synthetic"]["n_agents"] < 1:
        raise ConfigError(f"[synthetic] n_agents must be >= 1, got {cfg['synthetic']['n_agents']}")
    if cfg["data"]["stride"] < 1:
        raise ConfigError(f"[data] stride must be >= 1, got {cfg['data']['stride']}")
    if cfg["eval"]["ttst"] and cfg["eval"]["n_ttst"] < cfg["sampler"]["N"]:
        raise ConfigError(f"[eval] n_ttst must be >= sampler.N, got {cfg['eval']['n_ttst']}")


def write_snapshot(cfg: dict, path) -> None:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, kv in cfg.items():
        parser[section] = {k: str(v) for k, v in kv.items()}
    with open(path, "w") as f:
        parser.write(f)


def _scene_config(cfg: dict) -> SyntheticSceneConfig:
    syn = cfg["synthetic"]
    anchors = tuple(tuple(float(v) for v in a.split(",")) for a in syn["anchors"].split(";"))
    return SyntheticSceneConfig(
        extent=syn["extent"], grid_size=syn["grid_size"], anchors=anchors,
        speed_mean=syn["speed_mean"], speed_std=syn["speed_std"],
        heading_noise=syn["heading_noise"])


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"], init_seed=cfg["run"]["seed"])


def _sampler_config(cfg: dict, k_t: int | None = None) -> SamplerConfig:
    s = cfg["sampler"]
    return SamplerConfig(K=cfg["schedule"]["K"], K_I=s["K_I"],
                         K_t=s["K_t"] if k_t is None else k_t,
                         eta=s["eta"], N=s["N"], t_f=cfg["model"]["t_f"])


def _schedule(cfg: dict):
    sc = cfg["schedule"]
    return default_schedule(sc["K"], sc["beta_start"], sc["beta_end"])


def _train_config(cfg: dict) -> TrainConfig:
    tc = cfg["train"]
    return TrainConfig(lam=tc["lambda"], epochs=tc["epochs"], batch_size=tc["batch_size"],
                       lr=tc["lr"], lr_decay=tc["lr_decay"], seed=cfg["run"]["seed"],
                       teacher_forcing=tc["teacher_forcing"])


def _load_dataset(cfg: dict):
    dataset_dir = Path(cfg["data"]["dataset_dir"])
    tracks_path = dataset_dir / "tracks.txt"
    grid_path = dataset_dir / "semantic.grid"
    for p in (tracks_path, grid_path):
        if not p.exists():
            raise FileNotFoundError(str(p))
    tracks = parse_trajectory_file(tracks_path, scene_id="synthetic")
    try:
        sem = load_semantic_grid(grid_path)
    except ValueError as e:
        raise InputFileError(str(e)) from e
    windows = make_windows(tracks, cfg["model"]["t_h"], cfg["model"]["t_f"],
                           cfg["data"]["stride"])
    if windows:
        points = np.stack([np.concatenate([w.history, w.future]) for w in windows])
        outside = np.flatnonzero(~sem.grid.contains(points).all(axis=1))
        if outside.size:
            w = windows[outside[0]]
            raise TrajectoryFileError(f"{tracks_path}: agent {w.agent_id}, window from frame "
                                      f"{w.frame_base}: position outside the semantic grid")
    return windows, sem


def _split(windows, cfg: dict):
    rng = np.random.default_rng(cfg["run"]["seed"])
    order = rng.permutation(len(windows))
    n_val = max(1, int(len(windows) * cfg["train"]["val_fraction"]))
    val_idx = set(order[:n_val].tolist())
    train = [w for i, w in enumerate(windows) if i not in val_idx]
    val = [w for i, w in enumerate(windows) if i in val_idx]
    return train, val


def cmd_synth_data(cfg: dict) -> int:
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    scene = _scene_config(cfg)
    rng = np.random.default_rng(cfg["run"]["seed"])
    tracks, sem, anchors = generate_synthetic(scene, cfg["synthetic"]["n_agents"], rng)
    write_trajectory_file(out / "tracks.txt", tracks)
    save_semantic_grid(out / "semantic.grid", sem)
    with open(out / "anchors.json", "w") as f:
        json.dump(anchors.tolist(), f)
    write_snapshot(cfg, out / "resolved.ini")
    print(f"wrote {len(tracks)} tracks to {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    windows, sem = _load_dataset(cfg)
    train_set, _ = _split(windows, cfg)
    if not train_set:
        tracks_path = Path(cfg["data"]["dataset_dir"]) / "tracks.txt"
        raise InputFileError(f"{tracks_path}: no training window: {len(windows)} windows in "
                             f"all, and validation holds out at least one")
    # the goal net takes as many semantic channels as the dataset's grid has
    model = PredictionModel(replace(_model_config(cfg), sem_channels=len(sem.channels)),
                            sem.grid)
    trainer = Trainer(model, sem, _schedule(cfg), _train_config(cfg))
    max_seconds = cfg["train"]["max_seconds"] or None
    history = trainer.fit(train_set, log_path=out / "metrics.csv",
                          max_seconds=max_seconds)
    model.save(out / "checkpoint.npz")
    write_snapshot(cfg, out / "resolved.ini")
    print(f"trained {len(history)} epochs on {len(train_set)} windows; "
          f"final l_total={history[-1]['l_total']:.4f}")
    return 0


def _prediction_setup(cfg: dict):
    """Validation windows, semantic grid and model for predict and bench. The
    checkpoint must load and fit the dataset and config before any window runs."""
    windows, sem = _load_dataset(cfg)
    _, val = _split(windows, cfg)
    path = cfg["eval"]["checkpoint"] or str(Path(cfg["run"]["out_dir"]) / "checkpoint.npz")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    # zipfile raises NotImplementedError when a corrupt entry names an unknown compression
    try:
        model = PredictionModel.load(path)
    except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as e:
        raise CheckpointError(f"{path}: {e}") from e
    grid_path = Path(cfg["data"]["dataset_dir"]) / "semantic.grid"
    fits = (("grid", model.grid, sem.grid, grid_path),
            ("goal-net input channels", model.goal_net.in_channels,
             cfg["model"]["t_h"] + len(sem.channels), f"{grid_path} and [model] t_h"),
            ("t_f", model.cfg.t_f, cfg["model"]["t_f"], "[model] t_f"))
    for name, ours, theirs, source in fits:
        if ours != theirs:
            raise CheckpointError(f"{path}: {name} {ours} does not match {theirs} from {source}")
    return val[:cfg["eval"]["max_windows"]], sem, model


def cmd_predict(cfg: dict) -> int:
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    val, sem, model = _prediction_setup(cfg)
    schedule = _schedule(cfg)
    scfg = _sampler_config(cfg)
    ttst = TTSTConfig(cfg["eval"]["n_ttst"]) if cfg["eval"]["ttst"] else None
    seed = cfg["run"]["seed"]
    records = []
    for i, w in enumerate(val):
        preds = model.predict_window(w.history, sem, scfg, schedule,
                                     NoiseStream(seed + i),
                                     np.random.default_rng(seed + i),
                                     rule=cfg["sampler"]["rule"], ttst=ttst)
        records.append({"scene": w.scene_id, "agent": w.agent_id,
                        "frame_base": w.frame_base, "predictions": preds,
                        "gt": w.future})
    write_predictions_json(out / "predictions.json", records)
    write_snapshot(cfg, out / "resolved.ini")
    print(f"wrote {len(records)} prediction records to {out / 'predictions.json'}")
    return 0


def cmd_eval(cfg: dict) -> int:
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    path = cfg["eval"]["predictions"] or str(out / "predictions.json")
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        records = read_predictions_json(path)
    except ValueError as e:
        raise InputFileError(f"{path}: {e}") from e
    if not records:
        raise InputFileError(f"{path}: no prediction records")
    with open(out / "displacement.csv", "w") as f:
        f.write("scene,agent,frame_base,ade,fde\n")
        ades, fdes = [], []
        for r in records:
            a, d = best_of_n(r["predictions"], r["gt"])
            ades.append(a)
            fdes.append(d)
            f.write(f"{r['scene']},{r['agent']},{r['frame_base']},{a:.6f},{d:.6f}\n")
        f.write(f"mean,,,{np.mean(ades):.6f},{np.mean(fdes):.6f}\n")
    write_snapshot(cfg, out / "resolved.ini")
    print(f"ADE={np.mean(ades):.4f} FDE={np.mean(fdes):.4f} over {len(records)} windows")
    return 0


def cmd_bench(cfg: dict) -> int:
    # not checked on load: only bench reads trunk_steps, and "5,20,50" needs K >= 50
    try:
        trunk_steps = tuple(_sampler_config(cfg, int(v)).K_t  # checks 0 <= K_t <= K
                            for v in cfg["eval"]["trunk_steps"].split(","))
    except ValueError as e:
        raise ConfigError(f"[eval] trunk_steps: {e}") from e
    out = Path(cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    val, sem, model = _prediction_setup(cfg)
    schedule = _schedule(cfg)
    ttst = TTSTConfig(cfg["eval"]["n_ttst"]) if cfg["eval"]["ttst"] else None
    rows = bench_samplers(model, val, sem, schedule, _sampler_config(cfg),
                          trunk_steps=trunk_steps, seed=cfg["run"]["seed"],
                          ttst=ttst, repeats=cfg["eval"]["repeats"])
    write_bench_csv(out / "bench.csv", rows)
    write_snapshot(cfg, out / "resolved.ini")
    for row in rows:
        print(row.as_csv())
    return 0


COMMANDS = {"synth-data": cmd_synth_data, "train": cmd_train,
            "predict": cmd_predict, "eval": cmd_eval, "bench": cmd_bench}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trajlab",
        description="Goal-conditioned diffusion trajectory prediction with tree sampling.",
        epilog="Exit codes: 0 success, 2 config error, 3 missing input file, "
               "4 unusable checkpoint or bad input file.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config entry")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as e:
        print(f"bad checkpoint: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (InputFileError, TrajectoryFileError) as e:
        print(f"bad input file: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
