"""Benchmark workloads and the configs generated for them.

Each workload is a shipped preset from ``configs/`` with a few fields
overridden.  The generated config and the ``sample`` arguments are a pure
function of (workload, seed): the seed only picks ``base_seed`` and the
sampler seed, never the problem size, so timings stay comparable across
seeds while the trajectories (and output bytes) differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ALL_VARIANTS = ("random_hidden", "complement_h1", "complement_mean_h")

# Runs per `cdmonitor train` call, on every workload.
NUM_RUNS = 10

# One `cdmonitor sample` call per cycle on params_run_00.txt:
# burn_in + count * thin Gibbs rounds at batch size 1.
SAMPLE_COUNT = 5000
SAMPLE_BURN_IN = 1000
SAMPLE_THIN = 10
SAMPLE_ROUNDS = SAMPLE_BURN_IN + SAMPLE_COUNT * SAMPLE_THIN


@dataclass(frozen=True)
class Workload:
    """A preset plus the overrides and process layout the benchmark runs it with.

    ``blas_threads`` is exported as OPENBLAS_NUM_THREADS (and the OMP/MKL
    equivalents) to every process the benchmark starts, so the thread
    count is fixed and recorded rather than inherited; jobs * blas_threads
    never exceeds the two cores the workloads are sized for.
    """

    name: str
    preset: str
    epochs: int
    jobs: int
    blas_threads: int
    measure_every: int | None = None
    variants: tuple[str, ...] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # lse CD-1 preset as shipped: the Gibbs and conditional-mean kernels
        # dominate, _measure is about a tenth of a run.
        Workload("lse_cd1_train", "lse_cd1_lr0.001_wd0.001", epochs=300, jobs=1, blas_threads=2),
        # Same data and rule, but a snapshot every epoch with all three
        # probes: _measure/criteria take most of the time.
        Workload(
            "lse_monitor",
            "lse_cd1_lr0.001_wd0.001",
            epochs=50,
            jobs=1,
            blas_threads=2,
            measure_every=1,
            variants=ALL_VARIANTS,
        ),
        # Small bs shapes: per-call overhead dominates, the process pool is
        # exercised.
        Workload("bs_sweep_sample", "bs_cd1_lr0.01_wd0", epochs=2000, jobs=2, blas_threads=1),
    )
}


def derived_seed(workload: str, seed: int, purpose: str) -> int:
    """A 32-bit seed fixed by (workload, seed, purpose); str seeding is hash-randomization free."""
    return random.Random(f"{workload}/{purpose}/{seed}").randrange(2**32)


def make_config(workload: Workload, seed: int, root: Path) -> dict:
    """The config document `cdmonitor train` is given for this workload and seed."""
    doc = json.loads((root / "configs" / f"{workload.preset}.json").read_text(encoding="utf-8"))
    training = dict(doc.get("training", {}), epochs=workload.epochs)
    if workload.measure_every is not None:
        training["measure_every"] = workload.measure_every
    if workload.epochs % training.get("measure_every", 50):
        # The exact log-likelihood check compares the last CSV row with the
        # final parameters, so the last epoch must be a measurement epoch.
        raise ValueError(f"{workload.name}: epochs must be a multiple of measure_every")
    doc = dict(
        doc,
        training=training,
        num_runs=NUM_RUNS,
        base_seed=derived_seed(workload.name, seed, "train"),
    )
    if workload.variants is not None:
        doc["variants_enabled"] = list(workload.variants)
    return doc


def sample_args(workload: Workload, seed: int) -> list[str]:
    """Arguments of the `cdmonitor sample` call after --params/--out."""
    return [
        "--count", str(SAMPLE_COUNT),
        "--burn-in", str(SAMPLE_BURN_IN),
        "--thin", str(SAMPLE_THIN),
        "--seed", str(derived_seed(workload.name, seed, "sample")),
    ]
