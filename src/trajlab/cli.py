"""Command-line front end: synth-data | train | predict | eval | bench.

Configuration is a sectioned key=value file (INI syntax). Every key has a
default; unknown sections or keys are rejected, and values are checked on
load, so a bad value is a configuration error that names its key.
`--set section.key=value` overrides individual entries and the TRAJLAB_SEED
environment variable overrides run.seed. Every run writes a resolved-config
snapshot that can be fed back through any subcommand to reproduce it.
The [model], [train], [sampler] and [synthetic] sections are the fields of
their config classes (`CONFIG_SECTIONS`): a key's default and type are its
field's. `[schedule]`'s keys and defaults are `make_linear_schedule`'s
parameters. `DEFAULTS` adds the keys that no config class owns.

Exit codes: 0 success, 2 configuration error, 3 missing input file,
4 unusable checkpoint or bad input file. Every file read goes through `_read`:
a path that does not exist exits 3, and a file that cannot be opened, decoded
or parsed exits 2 (the INI) or 4, on one line that names the file before the
reader's reason. A run.out_dir that cannot be a directory is a config error.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import os
import sys
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (SyntheticSceneConfig, generate_synthetic, make_windows,
                   parse_trajectory_file, write_trajectory_file)
from .evaluation import (bench_samplers, best_of_n, predict_windows, read_predictions_json,
                         write_bench_csv, write_predictions_json)
from .goal import TTSTConfig, load_semantic_grid, save_semantic_grid
from .model import ModelConfig, PredictionModel, default_schedule
from .sampler import SamplerConfig, branch_step_count, total_evals
from .train import TrainConfig, Trainer

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_CHECKPOINT = 4

# section: (config class, {field the section leaves out: the "section.key" that
# sets it, or None if no INI key does}); every other field is a key of the section
CONFIG_SECTIONS = {
    "sampler": (SamplerConfig, {"K": "schedule.K"}),
    "model": (ModelConfig, {"sem_channels": None, "init_seed": "run.seed"}),
    "train": (TrainConfig, {"seed": "run.seed"}),
    "synthetic": (SyntheticSceneConfig, {"obstacles": None}),
}
INI_KEYS = {"lam": "lambda"}  # a field whose INI key is not its name


def _section_fields(section: str) -> dict:
    """{INI key: field} of the config-class fields that a section sets."""
    cls, left_out = CONFIG_SECTIONS[section]
    return {INI_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name not in left_out}


def _class_defaults(section: str) -> dict:
    """The defaults of a section's config-class keys; anchors are an x,y;x,y string."""
    defaults = {key: f.default for key, f in _section_fields(section).items()}
    if "anchors" in defaults:
        defaults["anchors"] = ";".join(",".join(np.format_float_positional(v, trim="-")
                                                for v in a) for a in defaults["anchors"])
    return defaults


# the defaults are the paper's full-scale reference run, which also uses eta=0 and lambda=40
DEFAULTS: dict[str, dict[str, object]] = {
    "run": {"seed": 0, "out_dir": "runs/out"},
    "schedule": {name: p.default
                 for name, p in inspect.signature(default_schedule).parameters.items()},
    "sampler": {**_class_defaults("sampler"), "rule": "ts"},
    "model": _class_defaults("model"),
    "train": {**_class_defaults("train"), "val_fraction": 0.1, "max_seconds": 0.0},
    "data": {"dataset_dir": "", "stride": 4},
    "synthetic": {"n_agents": 2000, **_class_defaults("synthetic")},
    "eval": {"ttst": True, "n_ttst": TTSTConfig.n_samples, "max_windows": 64,
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
        if isinstance(default, bool):  # 1/true/yes/on or 0/false/no/off
            if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {raw!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return type(default)(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from e


def _read(path, reader, error: type[ValueError]):
    """`reader(path)` for a file the CLI reads. A path that does not exist raises
    FileNotFoundError; a failure to open, decode or parse the file raises
    `error` with one line that names the path once, then the reader's reason."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        return reader(path)
    # zipfile raises NotImplementedError when a corrupt entry names an unknown compression,
    # and json RecursionError when arrays nest too deep
    except (OSError, ValueError, EOFError, NotImplementedError, RecursionError,
            zipfile.BadZipFile, configparser.Error) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else str(e)
        raise error(f"{path}: {' '.join(reason.split())}") from e


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    cfg = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # a "%" is literal
        parser.optionxform = str  # keep key case
        _read(path, lambda p: parser.read_string(Path(p).read_text()), ConfigError)
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
    if cfg["run"]["seed"] < 0:
        source = "TRAJLAB_SEED (run.seed)" if env_seed is not None else "run.seed"
        raise ConfigError(f"{source} must be >= 0, got {cfg['run']['seed']}")
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict) -> None:
    """Build each config object once, so that a bad value is a config error
    naming its section and key rather than a failure deep inside a command."""
    for section in ("schedule", *CONFIG_SECTIONS):
        try:
            if section == "schedule":
                default_schedule(**cfg["schedule"])
            elif section == "sampler":
                sampler = _build(cfg, "sampler")
                total_evals(cfg["sampler"]["rule"], sampler)  # checks the rule
                if cfg["sampler"]["rule"] == "ts":
                    _check_branch_steps(sampler)
            else:
                _build(cfg, section)
        except ValueError as e:
            raise ConfigError(f"[{section}] {e}") from e
    if not 0.0 <= cfg["train"]["val_fraction"] < 1.0:
        raise ConfigError(f"[train] val_fraction must lie in [0, 1), "
                          f"got {cfg['train']['val_fraction']}")
    if not cfg["train"]["max_seconds"] >= 0.0:  # NaN fails too: training would never stop
        raise ConfigError(f"[train] max_seconds must be >= 0 (0 = no limit), "
                          f"got {cfg['train']['max_seconds']}")
    for section, key in (("synthetic", "n_agents"), ("data", "stride"), ("eval", "max_windows"),
                         ("eval", "repeats")):
        if cfg[section][key] < 1:
            raise ConfigError(f"[{section}] {key} must be >= 1, got {cfg[section][key]}")
    if cfg["eval"]["ttst"] and cfg["eval"]["n_ttst"] < cfg["sampler"]["N"]:
        raise ConfigError(f"[eval] n_ttst must be >= sampler.N, got {cfg['eval']['n_ttst']}")


def _check_branch_steps(sampler: SamplerConfig) -> None:
    """Tree sampling needs at least one branch step after its K_t trunk steps."""
    if branch_step_count(sampler.K, sampler.K_I, sampler.K_t) < 1:
        raise ValueError(f"K_t={sampler.K_t} leaves no branch step: floor((1 - K_t/K) * K_I) "
                         f"is 0 for K={sampler.K}, K_I={sampler.K_I}")


def write_snapshot(cfg: dict, path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_dict(cfg)  # each value as str(value)
    with open(path, "w") as f:
        parser.write(f)


def _build(cfg: dict, section: str, **extra):
    """The config object of a `CONFIG_SECTIONS` section, from its keys, the
    keys of other sections that set its fields, and `extra`."""
    cls, left_out = CONFIG_SECTIONS[section]
    values = {f.name: cfg[section][key] for key, f in _section_fields(section).items()}
    if section == "synthetic":
        values["anchors"] = tuple(tuple(float(v) for v in a.split(","))
                                  for a in values["anchors"].split(";"))
    for name, source in left_out.items():
        if source is not None:
            other, key = source.split(".")
            values[name] = cfg[other][key]
    return cls(**values, **extra)


def _load_dataset(cfg: dict):
    dataset_dir = Path(cfg["data"]["dataset_dir"])
    tracks_path = dataset_dir / "tracks.txt"
    tracks = _read(tracks_path, lambda p: parse_trajectory_file(p, scene_id="synthetic"),
                   InputFileError)
    sem = _read(dataset_dir / "semantic.grid", load_semantic_grid, InputFileError)
    windows = make_windows(tracks, cfg["model"]["t_h"], cfg["model"]["t_f"],
                           cfg["data"]["stride"])
    if windows:
        points = np.stack([np.concatenate([w.history, w.future]) for w in windows])
        outside = np.flatnonzero(~sem.grid.contains(points).all(axis=1))
        if outside.size:
            w = windows[outside[0]]
            raise InputFileError(f"{tracks_path}: agent {w.agent_id}, window from frame "
                                 f"{w.frame_base}: position outside the semantic grid")
    return windows, sem


def _split(windows, cfg: dict):
    """(train, validation) windows, split by track: a `val_fraction` share of the
    tracks that have windows, at least one, drawn with run.seed, is held out whole,
    so that no validation window shares frames or an agent with a training window."""
    tracks = sorted({(w.scene_id, w.agent_id) for w in windows})
    order = np.random.default_rng(cfg["run"]["seed"]).permutation(len(tracks))
    n_val = max(1, int(len(tracks) * cfg["train"]["val_fraction"]))
    held = {tracks[i] for i in order[:n_val]}
    train = [w for w in windows if (w.scene_id, w.agent_id) not in held]
    val = [w for w in windows if (w.scene_id, w.agent_id) in held]
    return train, val


def cmd_synth_data(cfg: dict, out: Path) -> None:
    scene = _build(cfg, "synthetic")
    rng = np.random.default_rng(cfg["run"]["seed"])
    tracks, sem, anchors = generate_synthetic(scene, cfg["synthetic"]["n_agents"], rng)
    write_trajectory_file(out / "tracks.txt", tracks)
    save_semantic_grid(out / "semantic.grid", sem)
    with open(out / "anchors.json", "w") as f:
        json.dump(anchors.tolist(), f)
    print(f"wrote {len(tracks)} tracks to {out}")


def cmd_train(cfg: dict, out: Path) -> None:
    windows, sem = _load_dataset(cfg)
    train_set, _ = _split(windows, cfg)
    if not train_set:
        tracks_path = Path(cfg["data"]["dataset_dir"]) / "tracks.txt"
        raise InputFileError(f"{tracks_path}: no training window: {len(windows)} windows in "
                             f"all, and validation holds out at least one")
    # the goal net takes as many semantic channels as the dataset's grid has
    model_cfg = _build(cfg, "model", sem_channels=len(sem.channels))
    try:
        model = PredictionModel(model_cfg, sem.grid)
    except ValueError as e:  # a grid the goal net cannot take
        raise InputFileError(f"{Path(cfg['data']['dataset_dir']) / 'semantic.grid'}: {e}") from e
    schedule = default_schedule(**cfg["schedule"])
    trainer = Trainer(model, sem, schedule, _build(cfg, "train"))
    history = trainer.fit(train_set, log_path=out / "metrics.csv",
                          max_seconds=cfg["train"]["max_seconds"])
    model.save(out / "checkpoint.npz", schedule)
    print(f"trained {len(history)} epochs on {len(train_set)} windows; "
          f"final l_total={history[-1]['l_total']:.4f}")


def _prediction_setup(cfg: dict, out: Path):
    """Validation windows, semantic grid, model, schedule and TTST config for
    predict and bench. The checkpoint must load and fit the dataset and config,
    its schedule included, before any window runs."""
    windows, sem = _load_dataset(cfg)
    _, val = _split(windows, cfg)
    if not val:
        raise InputFileError(f"{Path(cfg['data']['dataset_dir']) / 'tracks.txt'}: no validation "
                             f"window: {len(windows)} windows in all")
    path = cfg["eval"]["checkpoint"] or str(out / "checkpoint.npz")
    model, trained = _read(path, PredictionModel.load, CheckpointError)
    grid_path = Path(cfg["data"]["dataset_dir"]) / "semantic.grid"
    fits = (("grid", model.grid, sem.grid, grid_path),
            ("goal-net input channels", model.goal_net.in_channels,
             cfg["model"]["t_h"] + len(sem.channels), f"{grid_path} and [model] t_h"),
            ("t_f", model.cfg.t_f, cfg["model"]["t_f"], "[model] t_f"))
    for name, ours, theirs, source in fits:
        if ours != theirs:
            raise CheckpointError(f"{path}: {name} {ours} does not match {theirs} from {source}")
    schedule = default_schedule(**cfg["schedule"])
    if not np.array_equal(trained.betas, schedule.betas):  # the denoiser learned `trained`
        raise CheckpointError(f"{path}: schedule {_schedule_text(trained)} does not match "
                              f"{_schedule_text(schedule)} from [schedule]")
    ttst = TTSTConfig(cfg["eval"]["n_ttst"]) if cfg["eval"]["ttst"] else None
    return val[:cfg["eval"]["max_windows"]], sem, model, schedule, ttst


def _schedule_text(s) -> str:
    return f"(K={s.K}, betas {float(s.betas[0])!r} to {float(s.betas[-1])!r})"


def cmd_predict(cfg: dict, out: Path) -> None:
    val, sem, model, schedule, ttst = _prediction_setup(cfg, out)
    predictions = predict_windows(model, val, sem, schedule, _build(cfg, "sampler"),
                                  cfg["run"]["seed"], cfg["sampler"]["rule"], ttst)
    n = write_predictions_json(out / "predictions.json", predictions)
    print(f"wrote {n} prediction records to {out / 'predictions.json'}")


def cmd_eval(cfg: dict, out: Path) -> None:
    path = cfg["eval"]["predictions"] or str(out / "predictions.json")
    records = _read(path, read_predictions_json, InputFileError)
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
    print(f"ADE={np.mean(ades):.4f} FDE={np.mean(fdes):.4f} over {len(records)} windows")


def cmd_bench(cfg: dict, out: Path) -> None:
    # not checked on load: only bench reads trunk_steps, and "5,20,50" needs K >= 50
    sampler_cfg = _build(cfg, "sampler")
    try:
        trunk_steps = tuple(int(v) for v in cfg["eval"]["trunk_steps"].split(","))
        for k_t in trunk_steps:
            _check_branch_steps(replace(sampler_cfg, K_t=k_t))  # replace checks 0 <= K_t <= K
    except ValueError as e:
        raise ConfigError(f"[eval] trunk_steps: {e}") from e
    val, sem, model, schedule, ttst = _prediction_setup(cfg, out)
    rows = bench_samplers(model, val, sem, schedule, sampler_cfg, trunk_steps=trunk_steps,
                          seed=cfg["run"]["seed"], repeats=cfg["eval"]["repeats"], ttst=ttst)
    write_bench_csv(out / "bench.csv", rows)
    for row in rows:
        print(row.as_csv())


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
        out = Path(cfg["run"]["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:  # a file at the path or above it
            raise ConfigError(f"run.out_dir {out}: {e.strerror}") from e
        COMMANDS[args.command](cfg, out)
        write_snapshot(cfg, out / "resolved.ini")  # to reproduce the run
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as e:
        print(f"bad checkpoint: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except InputFileError as e:
        print(f"bad input file: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
