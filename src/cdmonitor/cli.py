"""Command-line entry point.

Subcommands:
    dataset  write a generated training set to a file
    train    run a multi-seed training sweep from a JSON config
    sample   draw visible samples from a saved parameter file

Exit codes, each ending with one line on stderr and no traceback:
0 success; 1 too many aborted runs; 2 a usage or config error, an output
path that cannot be written (checked before any work), any other error
the OS reports or an allocation numpy refuses; 3 a worker process of the
pool lost, naming the runs the pool held; 130 an interrupt (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from pathlib import Path
from stat import S_ISDIR

import numpy as np

from .datasets import Dataset, write_dataset
from .experiment import (
    DATASET_LAYOUTS,
    ExperimentConfig,
    WorkerLostError,
    average_runs,
    build_dataset,
    default_config,
    generate_samples,
    peak_report_text,
    read_params_file,
    run_experiment,
    write_averaged_csv,
    write_params_file,
    write_run_csv,
)
from .training import TrainingConfig

# Fraction of aborted runs above which a sweep is considered failed.
ABORT_FAIL_FRACTION = 0.3


class ConfigError(ValueError):
    """The JSON config file is malformed or violates the schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# The JSON types each scalar field type accepts, and its name in messages.
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"), str: ((str,), "a string")}


def _typed_fields(section: dict, cls, label: str, prefix: str) -> dict:
    """The fields of dataclass ``cls`` that ``section`` sets, checked against
    their types: int, str, float (any finite number), or a tuple of enum
    members given as a list of their values; nested dataclasses are left to
    the caller.  Unknown keys are rejected so typos cannot fall back to defaults."""
    hints = typing.get_type_hints(cls)
    unknown = set(section) - set(hints)
    _require(not unknown, f"unknown {label} keys: {sorted(unknown)}")
    out = {}
    for key, value in section.items():
        kind = hints[key]
        if typing.get_origin(kind) is tuple:
            by_value = {m.value: m for m in typing.get_args(kind)[0]}
            ok = isinstance(value, list) and all(type(v) is str and v in by_value for v in value)
            _require(ok, f"{prefix}{key} must be a list of {sorted(by_value)}, got {value!r}")
            out[key] = tuple(by_value[v] for v in value)
        elif kind in _SCALARS:
            accepted, name = _SCALARS[kind]
            # type() rather than isinstance(), so that booleans are rejected
            ok = type(value) in accepted and (kind is not float or abs(value) <= sys.float_info.max)
            _require(ok, f"{prefix}{key} must be {name}, got {value!r}")
            out[key] = kind(value)
    return out


def resolve_config(doc: dict, seed: int | None = None, epochs: int | None = None) -> ExperimentConfig:
    """Validate a config document against the ExperimentConfig and
    TrainingConfig fields; unset fields keep the defaults of default_config.
    ``seed`` and ``epochs``, when given, replace ``base_seed`` and
    ``training.epochs`` and are checked as the file's values are."""
    _require(isinstance(doc, dict), "config root must be a JSON object")
    top = _typed_fields(doc, ExperimentConfig, "config", "")
    _require("dataset" in top, "config must set 'dataset'")
    training_doc = doc.get("training", {})
    _require(isinstance(training_doc, dict), "'training' must be an object")
    training = _typed_fields(training_doc, TrainingConfig, "training", "training.")
    if seed is not None:
        top["base_seed"] = seed
    if epochs is not None:
        training["epochs"] = epochs
    try:
        config = default_config(top.pop("dataset"))
        training = dataclasses.replace(config.training, **training)
        return dataclasses.replace(config, training=training, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, seed: int | None = None, epochs: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return resolve_config(doc, seed, epochs)


def config_to_json(config: ExperimentConfig) -> str:
    """Resolved config as canonical JSON (echoed into the output directory)."""
    doc = dataclasses.asdict(config)
    doc["variants_enabled"] = [v.value for v in config.variants_enabled]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_output_file(path) -> None:
    """Reject an output file whose directory does not exist, or that is a
    directory, before any work is done.  A path the OS cannot look up (a name
    too long, say) raises its OSError, which newer Pythons' Path.is_dir hides."""
    out = Path(path)
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {out}: directory {out.parent} does not exist")
    try:
        if S_ISDIR(out.stat().st_mode):
            raise ValueError(f"cannot write {out}: it is a directory")
    except FileNotFoundError:
        pass


def cmd_dataset(args) -> int:
    _check_output_file(args.out)
    data = build_dataset(default_config(args.name))
    write_dataset(data, args.out)
    print(f"wrote {len(data)} samples of {data.visible_len} bits to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_config(args.config, args.seed, args.epochs)
    epochs, every = config.training.epochs, config.training.measure_every
    msg = f"epochs ({epochs}) below 2 * measure_every ({every}): a peak report needs 3 measurements"
    _require(epochs >= 2 * every, msg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.json").write_text(config_to_json(config), encoding="ascii")

    results = list(run_experiment(config, jobs=args.jobs))
    for k, result in enumerate(results):
        write_run_csv(out_dir / f"run_{k:02d}.csv", result)
        if result.final_params is not None:
            write_params_file(out_dir / f"params_run_{k:02d}.txt", result.final_params)

    aborted = sum(1 for r in results if r.aborted)

    if aborted < len(results):
        averaged = average_runs(results)
        write_averaged_csv(out_dir / "averaged.csv", averaged, n_runs=len(results) - aborted)
        (out_dir / "peaks.txt").write_text(peak_report_text(averaged), encoding="ascii")

    print(f"completed {len(results) - aborted}/{len(results)} runs; outputs in {out_dir}")
    if aborted > ABORT_FAIL_FRACTION * config.num_runs:
        print(f"error: {aborted} aborted runs exceed the failure threshold", file=sys.stderr)
        return 1
    return 0


def cmd_sample(args) -> int:
    params = read_params_file(args.params)
    _check_output_file(args.out)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    samples = generate_samples(params, args.count, args.burn_in, args.thin, rng)
    write_dataset(Dataset(name="samples", samples=samples), args.out)
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmonitor",
        description="Train binary RBMs with CD-n and monitor partition-free stopping diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate a training set file")
    p_dataset.add_argument("name", choices=sorted(DATASET_LAYOUTS))
    p_dataset.add_argument("out", help="output path (dataset text format)")
    p_dataset.set_defaults(func=cmd_dataset)

    p_train = sub.add_parser("train", help="run a multi-seed training sweep")
    p_train.add_argument("--config", required=True, help="JSON experiment config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_train.add_argument("--jobs", type=int, default=1, help="parallel run workers")
    p_train.add_argument("--epochs", type=int, default=None, help="override training epochs")
    p_train.set_defaults(func=cmd_train)

    p_sample = sub.add_parser("sample", help="draw samples from saved parameters")
    p_sample.add_argument("--params", required=True, help="parameter file from a training run")
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output path (dataset text format)")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    p_sample.add_argument("--thin", type=int, default=10)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
