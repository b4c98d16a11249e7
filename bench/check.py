"""Seed-independent correctness checks on what `cdmonitor` writes.

Nothing here imports cdmonitor: the training sets, the parameter parser and
the exact log-likelihood are re-derived from their definitions, so a check
that passes is agreement between two implementations.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

RUN_CSV_COLUMNS = [
    "epoch",
    "seed",
    "log_likelihood",
    "log_xi_random",
    "log_xi_complement",
    "log_recon_mean",
    "log_likelihood_mean",
]
MEAN_H_COLUMN = "log_xi_complement_mean_h"

# The CSV stores 17 significant digits; the recomputation sums in another
# order, which moves the last few bits of a total of a few thousand nats.
LL_RTOL = 1e-9


def training_set(name: str) -> np.ndarray:
    """The (N, V) training matrix of the bs or cyclic-lse dataset, as a set of rows."""
    if name == "bs":
        masks = [np.array([(m >> k) & 1 for k in range(4)]) for m in range(16)]
        rows = {tuple(np.repeat(bits, 4)) for bits in masks}
        rows |= {tuple(np.tile(bits, 4)) for bits in masks}
    elif name == "lse":
        rows = set()
        for p in range(256):
            bits = [(p >> (7 - i)) & 1 for i in range(8)]
            rows.add(tuple(bits + [0, 0, 1] + bits[1:] + bits[:1]))
            rows.add(tuple(bits + [0, 1, 0] + bits))
            rows.add(tuple(bits + [1, 0, 0] + bits[-1:] + bits[:-1]))
    else:
        raise ValueError(f"unknown dataset {name!r}")
    return np.array(sorted(rows), dtype=np.float64)


def read_params(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, b, c) from a params file: 'V H' header, H weight rows, b row, c row."""
    lines = Path(path).read_text(encoding="ascii").split("\n")
    visible, hidden = (int(tok) for tok in lines[0].split())
    if len(lines) < hidden + 3:
        raise ValueError(f"{path}: {len(lines) - 1} rows, expected {hidden + 2}")
    rows = [np.array([float(tok) for tok in ln.split()]) for ln in lines[1 : hidden + 3]]
    W, b, c = np.array(rows[:hidden]), rows[hidden], rows[hidden + 1]
    if W.shape != (hidden, visible) or b.shape != (visible,) or c.shape != (hidden,):
        raise ValueError(f"{path}: shapes inconsistent with header {visible} {hidden}")
    return W, b, c


def _logsumexp(v: np.ndarray) -> float:
    top = float(np.max(v))
    return top + math.log(float(np.sum(np.exp(v - top))))


def exact_log_likelihood(W: np.ndarray, b: np.ndarray, c: np.ndarray, X: np.ndarray) -> float:
    """sum_x log P(x), enumerating all 2^H hidden states for log Z."""
    H = c.size
    states = ((np.arange(1 << H)[:, None] >> np.arange(H)) & 1).astype(np.float64)
    log_z = _logsumexp(states @ c + np.logaddexp(0.0, states @ W + b).sum(axis=1))
    log_marginals = X @ b + np.logaddexp(0.0, X @ W.T + c).sum(axis=1)
    return float(log_marginals.sum() - X.shape[0] * log_z)


def check_run(
    csv_path,
    params_path,
    *,
    seed: int,
    epochs: int,
    measure_every: int,
    mean_h: bool,
    X: np.ndarray,
) -> list[str]:
    """Problems with one run's outputs; an empty list means the run passed."""
    csv_path, params_path = Path(csv_path), Path(params_path)
    if not csv_path.is_file():
        return [f"{csv_path.name}: missing"]
    if not params_path.is_file():
        return [f"{params_path.name}: missing (run aborted)"]
    lines = csv_path.read_text(encoding="ascii").split("\n")
    if lines[-1] != "":
        return [f"{csv_path.name}: no trailing newline"]
    header = RUN_CSV_COLUMNS + ([MEAN_H_COLUMN] if mean_h else [])
    if lines[0].split(",") != header:
        return [f"{csv_path.name}: header {lines[0]!r}"]
    try:
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:-1]]
    except ValueError as exc:
        return [f"{csv_path.name}: {exc}"]
    problems = []
    if any(len(row) != len(header) for row in rows):
        return [f"{csv_path.name}: ragged rows"]
    if [row[0] for row in rows] != list(range(0, epochs + 1, measure_every)):
        problems.append(f"{csv_path.name}: epoch grid differs from 0..{epochs} step {measure_every}")
    if any(row[1] != seed for row in rows):
        problems.append(f"{csv_path.name}: seed column is not {seed}")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append(f"{csv_path.name}: non-finite value")
    if problems:
        return problems
    try:
        expected = exact_log_likelihood(*read_params(params_path), X)
    except ValueError as exc:
        return [f"{params_path.name}: {exc}"]
    got = rows[-1][2]
    if not math.isclose(got, expected, rel_tol=LL_RTOL, abs_tol=LL_RTOL):
        problems.append(f"{csv_path.name}: final log_likelihood {got!r} != exact {expected!r}")
    return problems


def check_samples(path, count: int, visible: int) -> list[str]:
    """Problems with a `cdmonitor sample` output file."""
    path = Path(path)
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = path.read_text(encoding="ascii").split("\n")
    if lines[0] != f"# name=samples visible={visible} n={count}":
        return [f"{path.name}: header {lines[0]!r}"]
    rows = lines[1:-1]
    if lines[-1] != "" or len(rows) != count:
        return [f"{path.name}: {len(rows)} sample rows, expected {count}"]
    if any(len(row) != visible or set(row) - {"0", "1"} for row in rows):
        return [f"{path.name}: a row is not {visible} binary digits"]
    return []


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
