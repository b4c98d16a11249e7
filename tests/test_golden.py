"""Golden-output guard: the sha256 of every file `cdmonitor train` writes.

Each of the five shipped presets is trained for 100 epochs with
``--jobs 2`` (three snapshots, the fewest a peak report accepts), plus one
labeled-shifter CD-2 config with all three probe variants enabled, so the
``complement_mean_h`` column is pinned as well.

A change to any digest means the program's output bytes changed.  That is
allowed only as a deliberate re-baseline, with the reason recorded in
CHANGES.md.  The last one re-pinned every digest but the six
``config_resolved.json`` ones, once: each run's parameters became one
(H+1, V+1) matrix [[b, 0], [W, c]] with an always-on unit per layer, so
every conditional mean became one product with its bias inside the sum
(it was added after), the gradient's dc became the difference of two
sums (it was the sum of the differences), and the uniforms of a training
round and of a snapshot's round 1 go to units unit by unit (j*N + n)
rather than sample by sample.  These move the training trajectory and
the monitored columns.  The sampler draws in the same order, and on the
two models ``tests/test_cli.py`` samples no draw moved, so its two
``sample`` digests held, as did the ``dataset`` ones.  The one
before re-pinned the run CSV, ``averaged.csv`` and ``peaks.txt`` digests:
every per-sample sum of softplus terms became the log of a bounded
product over pre-activations formed unit-major.

The digests were taken with numpy 2.4.6 and OpenBLAS 0.3.31
(scipy-openblas, x86_64); another BLAS build may round a matrix product
differently in the last bit and so change them.  The sigmoid and the
softplus sums use numpy's exp and log, whose SIMD code numpy picks at run
time from the CPU: ``numpy.show_runtime()`` found X86_V3, X86_V4, AVX512_ICL and
AVX512_SPR here.  On a CPU with other extensions these may differ in the
last bit too.  So a mismatch here, or of the two ``sample`` digests in
``tests/test_cli.py``, names the running numpy version, BLAS and SIMD
extensions beside these.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cdmonitor.cli import main

PRESET_DIR = Path(__file__).parent.parent / "configs"
EPOCHS = 100

# Not a shipped preset: the one sweep that exercises complement_mean_h.
MEAN_H_CONFIG = {
    "dataset": "lse",
    "training": {"n": 2, "learning_rate": 0.01, "epochs": EPOCHS, "measure_every": 50},
    "num_runs": 2,
    "base_seed": 77,
    "variants_enabled": ["random_hidden", "complement_h1", "complement_mean_h"],
}

# {config name: {output file name: sha256}}, taken before any change they guard.
GOLDEN = json.loads((Path(__file__).parent / "golden_train_sha256.json").read_text())


def environment() -> str:
    """The message of a digest mismatch: the running numpy version, its
    BLAS and the SIMD extensions numpy found on this CPU, beside the ones
    the digests were taken with (see the module docstring)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)) or "none"
    except ImportError:
        simd = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"running numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} {blas.get('version', '')}, "
        f"SIMD extensions found: {simd}; the digests were taken with numpy 2.4.6, BLAS scipy-openblas "
        "0.3.31.188.0, SIMD extensions found: X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    )


def train_digests(config_path: Path, out_dir: Path) -> dict[str, str]:
    """Run `cdmonitor train` and return {file name: sha256} of its outputs."""
    rc = main(["train", "--config", str(config_path), "--out", str(out_dir),
               "--epochs", str(EPOCHS), "--jobs", "2"])
    assert rc == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def config_path(name: str, tmp_path: Path) -> Path:
    if name == "lse_cd2_mean_h":
        path = tmp_path / "lse_cd2_mean_h.json"
        path.write_text(json.dumps(MEAN_H_CONFIG))
        return path
    return PRESET_DIR / f"{name}.json"


def test_golden_covers_every_preset():
    presets = {p.stem for p in PRESET_DIR.glob("*.json")}
    assert presets | {"lse_cd2_mean_h"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_train_outputs_match_golden(name, tmp_path):
    got = train_digests(config_path(name, tmp_path), tmp_path / "out")
    assert got == GOLDEN[name], environment()
