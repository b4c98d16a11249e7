"""Command-line entry point.

Subcommands:
    dataset  write a generated training set to a file
    train    run a multi-seed training sweep from a JSON config
    sample   draw visible samples from a saved parameter file

Exit codes: 0 success, 1 run-level failure (too many aborted runs),
2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .criteria import XiVariant
from .datasets import Dataset, generate_bars_and_stripes, generate_labeled_shifter, write_dataset
from .experiment import (
    DATASET_LAYOUTS,
    FULL_SCALE_EPOCHS,
    ExperimentConfig,
    ParamsFormatError,
    average_runs,
    generate_samples,
    peak_report_text,
    read_params_file,
    run_experiment,
    write_averaged_csv,
    write_params_file,
    write_run_csv,
)
from .training import TrainingConfig

logger = logging.getLogger(__name__)

# Fraction of aborted runs above which a sweep is considered failed.
ABORT_FAIL_FRACTION = 0.3


class ConfigError(ValueError):
    """The JSON config file is malformed or violates the schema."""


_TRAINING_KEYS = {"n", "learning_rate", "weight_decay", "epochs", "measure_every"}
_TOP_KEYS = {
    "dataset",
    "visible",
    "hidden",
    "training",
    "num_runs",
    "base_seed",
    "variants_enabled",
    "init_std",
    "lse_shift",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def resolve_config(doc: dict) -> ExperimentConfig:
    """Validate a config document and fill in defaults for optional fields.

    Unknown keys are rejected outright so typos cannot silently fall back
    to defaults.
    """
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("dataset" in doc, "config must set 'dataset'")
    dataset = doc["dataset"]
    _require(
        dataset in DATASET_LAYOUTS,
        f"dataset must be one of {sorted(DATASET_LAYOUTS)}, got {dataset!r}",
    )
    def_visible, def_hidden, def_epochs = DATASET_LAYOUTS[dataset]

    training_doc = doc.get("training", {})
    _require(isinstance(training_doc, dict), "'training' must be an object")
    unknown = set(training_doc) - _TRAINING_KEYS
    _require(not unknown, f"unknown training keys: {sorted(unknown)}")

    def _num(section: dict, key: str, default, kind, what: str):
        value = section.get(key, default)
        if kind is int:
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{what} must be an integer, got {value!r}",
            )
        else:
            _require(
                isinstance(value, (int, float)) and not isinstance(value, bool),
                f"{what} must be a number, got {value!r}",
            )
        return kind(value)

    variants_doc = doc.get("variants_enabled", [v.value for v in (XiVariant.RANDOM_HIDDEN, XiVariant.COMPLEMENT_H1)])
    _require(
        isinstance(variants_doc, list) and all(isinstance(v, str) for v in variants_doc),
        "'variants_enabled' must be a list of strings",
    )
    by_value = {v.value: v for v in XiVariant}
    variants = []
    for name in variants_doc:
        _require(name in by_value, f"unknown probe variant {name!r}, expected one of {sorted(by_value)}")
        variants.append(by_value[name])

    lse_shift = doc.get("lse_shift", "cyclic")
    _require(isinstance(lse_shift, str), "'lse_shift' must be a string")

    try:
        training = TrainingConfig(
            n=_num(training_doc, "n", 1, int, "training.n"),
            learning_rate=_num(training_doc, "learning_rate", 0.01, float, "training.learning_rate"),
            weight_decay=_num(training_doc, "weight_decay", 0.0, float, "training.weight_decay"),
            epochs=_num(training_doc, "epochs", def_epochs, int, "training.epochs"),
            measure_every=_num(training_doc, "measure_every", 50, int, "training.measure_every"),
        )
        return ExperimentConfig(
            dataset=dataset,
            visible=_num(doc, "visible", def_visible, int, "visible"),
            hidden=_num(doc, "hidden", def_hidden, int, "hidden"),
            training=training,
            num_runs=_num(doc, "num_runs", 10, int, "num_runs"),
            base_seed=_num(doc, "base_seed", 20260401, int, "base_seed"),
            variants_enabled=tuple(variants),
            init_std=_num(doc, "init_std", 0.01, float, "init_std"),
            lse_shift=lse_shift,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return resolve_config(doc)


def config_to_json(config: ExperimentConfig) -> str:
    """Resolved config as canonical JSON (echoed into the output directory)."""
    doc = {
        "dataset": config.dataset,
        "visible": config.visible,
        "hidden": config.hidden,
        "training": {
            "n": config.training.n,
            "learning_rate": config.training.learning_rate,
            "weight_decay": config.training.weight_decay,
            "epochs": config.training.epochs,
            "measure_every": config.training.measure_every,
        },
        "num_runs": config.num_runs,
        "base_seed": config.base_seed,
        "variants_enabled": [v.value for v in config.variants_enabled],
        "init_std": config.init_std,
        "lse_shift": config.lse_shift,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_dataset(args) -> int:
    if args.name == "bs":
        data = generate_bars_and_stripes()
    else:
        data = generate_labeled_shifter()
    write_dataset(data, args.out)
    print(f"wrote {len(data)} samples of {data.visible_len} bits to {args.out}")
    return 0


def _replace(obj, **kw):
    try:
        return dataclasses.replace(obj, **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def apply_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    epochs: int | None = None,
    full_scale: bool = False,
) -> ExperimentConfig:
    """Apply CLI-level overrides; an explicit --epochs beats --full-scale."""
    if seed is not None:
        config = _replace(config, base_seed=seed)
    if full_scale:
        config = _replace(config, training=_replace(config.training, epochs=FULL_SCALE_EPOCHS))
    if epochs is not None:
        config = _replace(config, training=_replace(config.training, epochs=epochs))
    return config


def cmd_train(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    config = load_config(args.config)
    config = apply_overrides(config, args.seed, args.epochs, args.full_scale)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.json").write_text(config_to_json(config), encoding="ascii")

    results = run_experiment(config, jobs=args.jobs)
    for k, result in enumerate(results):
        write_run_csv(out_dir / f"run_{k:02d}.csv", result)
        if result.final_params is not None:
            write_params_file(out_dir / f"params_run_{k:02d}.txt", result.final_params)

    aborted = sum(1 for r in results if r.aborted)
    guarded = sum(r.n_recon_guarded for r in results)
    if guarded:
        logger.warning("%d reconstruction log-probabilities hit the -inf guard", guarded)

    averaged = average_runs(results) if aborted < len(results) else None
    if averaged is not None:
        write_averaged_csv(out_dir / "averaged.csv", averaged, n_runs=len(results) - aborted)
        (out_dir / "peaks.txt").write_text(peak_report_text(averaged), encoding="ascii")

    print(f"completed {len(results) - aborted}/{len(results)} runs; outputs in {out_dir}")
    if aborted > ABORT_FAIL_FRACTION * config.num_runs:
        print(f"error: {aborted} aborted runs exceed the failure threshold", file=sys.stderr)
        return 1
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        print(f"error: --count must be >= 1, got {args.count}", file=sys.stderr)
        return 2
    try:
        params = read_params_file(args.params)
    except ParamsFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    samples = generate_samples(params, args.count, args.burn_in, args.thin, rng)
    write_dataset(
        Dataset(name="samples", visible_len=params.num_visible, samples=samples.astype(np.uint8)),
        args.out,
    )
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
    p_train.add_argument(
        "--full-scale",
        action="store_true",
        help=f"train for {FULL_SCALE_EPOCHS} epochs (overridden by --epochs)",
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
