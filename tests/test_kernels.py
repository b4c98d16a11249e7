"""The elementwise kernels: exact saturation, silenced overflow, the draw
count of a chain, and a runtime free of scipy."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cdmonitor
from cdmonitor.criteria import mean_reconstruction_log_prob
from cdmonitor.datasets import Dataset
from cdmonitor.experiment import _measure, default_config
from cdmonitor.rbm import (
    RbmParams,
    hidden_conditional_mean,
    run_gibbs_chain,
    softplus,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch, TrainingConfig
from reference import measure_one, train_epoch_one, zero_params


def saturated_params(V=4, H=3, bias=800.0):
    """Biases of alternating sign at +-bias: every pre-activation is +-bias
    on binary input, since the weights are zero."""
    signs_v = np.where(np.arange(V) % 2, -1.0, 1.0)
    signs_h = np.where(np.arange(H) % 2, 1.0, -1.0)
    return RbmParams(np.zeros((H, V)), bias * signs_v, bias * signs_h)


def binary_rows(n, width, seed=0):
    return (np.random.default_rng(seed).random((n, width)) < 0.5).astype(np.float64)


class TestSaturation:
    def test_conditional_means_are_exactly_zero_and_one_at_800(self):
        p = saturated_params()
        with np.errstate(over="ignore"):
            h = hidden_conditional_mean(p, binary_rows(5, 4))
            x = visible_conditional_mean(p, binary_rows(5, 3))
        np.testing.assert_array_equal(h, np.tile([0.0, 1.0, 0.0], (5, 1)))
        np.testing.assert_array_equal(x, np.tile([1.0, 0.0, 1.0, 0.0], (5, 1)))

    def test_softplus_is_exact_at_800(self):
        got = softplus(np.array([800.0, -800.0, 0.0]))
        np.testing.assert_array_equal(got, [800.0, 0.0, np.log(2.0)])

    def test_softplus_does_not_write_its_input(self):
        z = np.array([-3.0, 0.5, 40.0])
        softplus(z)
        np.testing.assert_array_equal(z, [-3.0, 0.5, 40.0])


class TestNoOverflowWarnings:
    """Batch operations on fully saturated models warn about nothing."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_gibbs_chain(self):
        chain = run_gibbs_chain(saturated_params(), binary_rows(6, 4), 3, np.random.default_rng(0))
        np.testing.assert_array_equal(chain.h1_mean, np.tile([0.0, 1.0, 0.0], (6, 1)))

    def test_train_epoch(self):
        data = Dataset(name="t", visible_len=4, samples=binary_rows(6, 4).astype(np.uint8))
        train_epoch_one(saturated_params(), data, TrainingConfig(n=2), np.random.default_rng(1))

    def test_measure(self):
        config = default_config("bs", variants_enabled=tuple(cdmonitor.XiVariant))
        params, X = saturated_params(16, 8), binary_rows(30, 16)
        record, guarded = measure_one(params, X, config, np.random.default_rng(2), epoch=0)
        assert guarded > 0
        assert np.isfinite(record.log_likelihood)
        # a stack of saturated models, biases of both signs, in one snapshot
        stack = [saturated_params(16, 8, bias) for bias in (800.0, -800.0, 800.0)]
        batch = RunBatch(stack, X, [np.random.default_rng(3) for _ in stack])
        rngs = [np.random.default_rng(4 + r) for r in range(len(stack))]
        measured = _measure(batch, config, rngs, epoch=0)
        assert all(guarded > 0 and np.isfinite(record.log_likelihood) for record, guarded in measured)

    def test_mean_reconstruction_log_prob(self):
        mean, guarded = mean_reconstruction_log_prob(saturated_params(), binary_rows(6, 4))
        assert guarded > 0 and np.isfinite(mean)


@pytest.mark.parametrize("batch", [(), (7,)])
def test_gibbs_chain_consumes_n_rounds_of_h_plus_v_uniforms(batch):
    n, V, H = 4, 5, 3
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    x1 = np.zeros((*batch, V))
    run_gibbs_chain(zero_params(V, H), x1, n, rng)
    twin.random(n * int(np.prod(batch)) * (H + V))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_cli_import_loads_no_scipy():
    src = str(Path(cdmonitor.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, cdmonitor.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
