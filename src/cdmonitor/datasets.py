"""Training-set generators and the dataset text format.

Two synthetic pattern ensembles are provided:

* bars-and-stripes: every 4x4 binary image whose rows, or columns, but not
  both, are uniformly filled.  2*2^4 masks minus the blank and full images
  counted twice gives 30 distinct patterns of 16 pixels.
* labeled shifter: 19-bit states [8-bit pattern][3-bit code][8-bit result]
  where code 001 means the result is the pattern rotated one bit left,
  010 an unchanged copy, and 100 a rotation one bit right.  256 patterns
  times 3 codes gives 768 states.

File format: ASCII text, LF line endings.  A single header line
``# name=<name> visible=<V> n=<N>`` followed by one sample per line written
as '0'/'1' characters with no separators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset file does not conform to the text format."""


@dataclass
class Dataset:
    """Ordered collection of binary visible vectors."""

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
    images for masks 0..15 ascending with the blank and full images dropped
    (they already appeared as row images).  Mask bit r selects row r
    (or column c) to be filled.
    """
    images = []
    seen = set()
    for orientation in ("rows", "cols"):
        for mask in range(16):
            img = np.zeros((4, 4), dtype=np.uint8)
            for k in range(4):
                if (mask >> k) & 1:
                    if orientation == "rows":
                        img[k, :] = 1
                    else:
                        img[:, k] = 1
            flat = img.reshape(16)
            key = flat.tobytes()
            if key in seen:
                continue
            seen.add(key)
            images.append(flat)
    return Dataset(name="bs", samples=np.stack(images))


def _rotate(bits: list[int], direction: str) -> list[int]:
    if direction == "left":
        return bits[1:] + bits[:1]
    return bits[-1:] + bits[:-1]


def _end_off_shift(bits: list[int], direction: str) -> list[int]:
    if direction == "left":
        return bits[1:] + [0]
    return [0] + bits[:-1]


def generate_labeled_shifter(shift: str = "cyclic") -> Dataset:
    """All 768 labeled shifter states, patterns ascending, codes in the
    order 001, 010, 100.

    Patterns are written MSB first, so a left shift moves every bit toward
    the most significant position.  ``shift`` selects "cyclic" rotation
    (default; states stay invertible) or "end-off" shifting with zero fill.
    """
    if shift not in ("cyclic", "end-off"):
        raise ValueError(f"shift must be 'cyclic' or 'end-off', got {shift!r}")
    move = _rotate if shift == "cyclic" else _end_off_shift
    codes = [
        ((0, 0, 1), "left"),
        ((0, 1, 0), None),
        ((1, 0, 0), "right"),
    ]
    states = []
    for p in range(256):
        bits = [(p >> (7 - i)) & 1 for i in range(8)]
        for code, direction in codes:
            result = bits if direction is None else move(bits, direction)
            states.append(bits + list(code) + result)
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


def read_dataset(path) -> Dataset:
    """Parse a dataset file; raises DatasetFormatError naming the bad line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(f"{path}: empty dataset")
    header = lines[0]
    fields = {}
    if header.startswith("# "):
        for token in header[2:].split():
            if "=" in token:
                key, _, value = token.partition("=")
                fields[key] = value
    if set(fields) != {"name", "visible", "n"}:
        raise DatasetFormatError(
            f"{path}: line 1: malformed header {header!r}, "
            "expected '# name=<name> visible=<V> n=<N>'"
        )
    try:
        visible = int(fields["visible"])
        count = int(fields["n"])
    except ValueError:
        raise DatasetFormatError(f"{path}: line 1: non-integer visible/n in header") from None
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if len(line) != visible:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {visible} bits, got {len(line)}"
            )
        bad = set(line) - {"0", "1"}
        if bad:
            raise DatasetFormatError(
                f"{path}: line {lineno}: invalid character {sorted(bad)[0]!r}"
            )
        rows.append([1 if ch == "1" else 0 for ch in line])
    if len(rows) != count:
        raise DatasetFormatError(
            f"{path}: header declares n={count} but file has {len(rows)} samples"
        )
    if not rows:
        raise DatasetFormatError(f"{path}: empty dataset")
    return Dataset(name=fields["name"], samples=np.array(rows, dtype=np.uint8))
