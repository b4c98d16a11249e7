"""Round-trip properties of the config echo and the CSV and params files.

The config echo and the params file are written from a dataclass and read
back into one; these properties pin that the two directions are exact
inverses over the values the formats can hold.  The package reads no
metric CSV, so those are split back into numbers with ``split_csv`` and
compared with the records written.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmonitor.cli import config_to_json, resolve_config
from cdmonitor.criteria import MetricsRecord, XiVariant
from cdmonitor.experiment import (
    RunResult,
    read_params_file,
    write_averaged_csv,
    write_params_file,
    write_run_csv,
)
from cdmonitor.rbm import RbmParams

from reference import split_csv

# Fixed examples and no example database, so every run checks the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None)

EXTREMES = st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EXTREMES
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6)

VARIANTS = st.tuples(st.permutations([v.value for v in XiVariant]), st.booleans()).map(
    lambda t: [v for v in t[0] if t[1] or v != XiVariant.COMPLEMENT_MEAN_H.value]
)
TRAINING_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(1, 50),
        "learning_rate": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        | st.integers(1, 10**6),
        "weight_decay": NON_NEGATIVE,
        "epochs": st.integers(1, 10**9),
        "measure_every": st.integers(1, 10**6),
    },
)
CONFIG_DOCS = st.fixed_dictionaries(
    {"dataset": st.sampled_from(["bs", "lse"])},
    optional={
        "hidden": st.integers(1, 10**4),
        "training": TRAINING_DOCS,
        "num_runs": st.integers(1, 10**4),
        "base_seed": st.integers(0, 2**64 - 1),
        "variants_enabled": VARIANTS,
    },
)


@PROPERTY
@given(CONFIG_DOCS)
def test_config_echo_resolves_to_the_same_config(doc):
    config = resolve_config(doc)
    # integers given for float fields are stored, and echoed, as floats
    floats = (config.training.learning_rate, config.training.weight_decay)
    assert all(type(v) is float for v in floats)
    echo = config_to_json(config)
    assert resolve_config(json.loads(echo)) == config
    assert config_to_json(resolve_config(json.loads(echo))) == echo


@st.composite
def series(draw):
    """Records on one epoch grid, all with or all without the mean-h column."""
    epochs = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=8, unique=True))
    mean_h = draw(st.booleans())
    return [
        MetricsRecord(
            epoch=epoch,
            log_likelihood=draw(FINITE),
            log_xi_random=draw(FINITE),
            log_xi_complement=draw(FINITE),
            log_recon_mean=draw(FINITE),
            log_likelihood_mean=draw(FINITE),
            log_xi_complement_mean_h=draw(FINITE) if mean_h else None,
        )
        for epoch in sorted(epochs)
    ]


def fields_set(records):
    """The names and per-record values of the fields the records set, in order."""
    names = [f.name for f in dataclasses.fields(MetricsRecord) if getattr(records[0], f.name) is not None]
    return names, [[getattr(rec, n) for n in names] for rec in records]


@PROPERTY
@given(series(), st.integers(0, 2**64 - 1))
def test_run_csv_round_trip(records, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        write_run_csv(path, RunResult(seed=seed, series=records, final_params=None))
        header, rows = split_csv(path)
    names, values = fields_set(records)
    assert header == [names[0], "seed", *names[1:]]
    assert rows == [[row[0], seed, *row[1:]] for row in values]


@PROPERTY
@given(series(), st.integers(1, 10**4))
def test_averaged_csv_round_trip(records, n_runs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "averaged.csv"
        write_averaged_csv(path, records, n_runs=n_runs)
        header, rows = split_csv(path)
    names, values = fields_set(records)
    assert header == [*names, "n_runs"]
    assert rows == [[*row, n_runs] for row in values]


@st.composite
def rbm_params(draw):
    V, H = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def vector(size):
        return np.array(draw(st.lists(FINITE, min_size=size, max_size=size)))

    return RbmParams(vector(H * V).reshape(H, V), vector(V), vector(H))


@PROPERTY
@given(rbm_params())
def test_params_file_round_trip(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.txt"
        write_params_file(path, params)
        loaded = read_params_file(path)
    for got, want in ((loaded.W, params.W), (loaded.b, params.b), (loaded.c, params.c)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
