"""Training-set generators and the dataset text format they are written in.

Two synthetic pattern ensembles are provided:

* bars-and-stripes: every 4x4 binary image whose rows, or columns, but not
  both, are uniformly filled.  2*2^4 masks minus the blank and full images
  counted twice gives 30 distinct patterns of 16 pixels.
* labeled shifter: 19-bit states [8-bit pattern][3-bit code][8-bit result]
  where code 001 means the result is the pattern rotated one bit left,
  010 an unchanged copy, and 100 a rotation one bit right.  256 patterns
  times 3 codes gives 768 states.

File format, written by ``write_dataset`` (the package reads no dataset
file; it generates the sets): ASCII text, LF line endings.  A single header
line ``# name=<name> visible=<V> n=<N>`` followed by one sample per line
written as '0'/'1' characters with no separators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Dataset:
    """Ordered collection of binary visible vectors; ``==`` is identity, as
    for ``rbm.RbmParams``."""

    name: str
    samples: np.ndarray  # (N, V) uint8, entries 0/1

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples)
        if samples.ndim != 2:
            raise ValueError(f"samples must be an (N, V) matrix, got shape {samples.shape}")
        if not np.isin(samples, (0, 1)).all():  # before the cast, which makes 0.5 a 0 and 257 a 1
            raise ValueError("samples must contain only 0/1 entries")
        self.samples = samples.astype(np.uint8)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def visible_len(self) -> int:
        return self.samples.shape[1]

    def matrix(self) -> np.ndarray:
        """Samples as an (N, V) float64 matrix for numeric code."""
        return self.samples.astype(np.float64)


def generate_bars_and_stripes() -> Dataset:
    """All 30 bars-or-stripes 4x4 images, flattened row-major.

    Canonical order: row images for masks 0..15 ascending, then column
    images for masks 1..14 ascending; the blank and full column images of
    masks 0 and 15 are left out, since they already appeared as row images.
    Mask bit k selects row k or column k to be filled.
    """
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # (mask, k)
    rows = np.repeat(bits, 4, axis=1)  # pixel (r, c) is bit r
    cols = np.tile(bits[1:15], 4)  # pixel (r, c) is bit c
    return Dataset(name="bs", samples=np.concatenate([rows, cols]))


def generate_labeled_shifter() -> Dataset:
    """All 768 labeled shifter states, patterns ascending, codes in the
    order 001, 010, 100.

    Patterns are written MSB first, so a left shift moves every bit toward
    the most significant position.  Shifts are cyclic rotations, so every
    state is invertible.
    """
    states = []
    for p in range(256):
        bits = [(p >> (7 - i)) & 1 for i in range(8)]
        left, right = bits[1:] + bits[:1], bits[-1:] + bits[:-1]
        states += [bits + [0, 0, 1] + left, bits + [0, 1, 0] + bits, bits + [1, 0, 0] + right]
    return Dataset(name="lse", samples=np.array(states, dtype=np.uint8))


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the text format; exact bytes are deterministic."""
    if any(ch.isspace() for ch in dataset.name):
        raise ValueError(f"dataset name may not contain whitespace: {dataset.name!r}")
    header = f"# name={dataset.name} visible={dataset.visible_len} n={len(dataset)}\n"
    # One '0'/'1' byte per entry and a newline byte per row, built as one array.
    body = np.empty((len(dataset), dataset.visible_len + 1), dtype=np.uint8)
    body[:, :-1] = dataset.samples + ord("0")
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body.tobytes())

