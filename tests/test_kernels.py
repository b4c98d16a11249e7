"""The elementwise kernels and the softplus sums over units: exact
saturation, silenced overflow, the draw count of a chain, and a runtime
free of scipy."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cdmonitor
from cdmonitor.criteria import log_partition
from cdmonitor.datasets import Dataset, generate_bars_and_stripes
from cdmonitor.experiment import _measure, default_config
from cdmonitor.rbm import (
    RbmParams,
    _softplus_sum,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch, TrainingConfig, init_params, train_epoch

import oracles
from reference import (
    mean_reconstruction_log_prob,
    measure_one,
    run_gibbs_chain_per_round,
    softplus,
    train_epoch_one,
    zero_params,
)


def saturated_params(V=4, H=3, bias=800.0):
    """Biases of alternating sign at +-bias: every pre-activation is +-bias
    on binary input, since the weights are zero."""
    signs_v = np.where(np.arange(V) % 2, -1.0, 1.0)
    signs_h = np.where(np.arange(H) % 2, 1.0, -1.0)
    return RbmParams(np.zeros((H, V)), bias * signs_v, bias * signs_h)


def binary_rows(n, width, seed=0):
    return (np.random.default_rng(seed).random((n, width)) < 0.5).astype(np.float64)


def oracle_recon_mean(params, X):
    """The mean reconstruction log-probability of X's rows from ``oracles``."""
    W, b, c = params.W.tolist(), params.b.tolist(), params.c.tolist()
    return math.fsum(oracles.reconstruction_log_prob(W, b, c, x) for x in X.tolist()) / len(X)


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

    def test_softplus_sum_is_exact_at_800(self):
        # columns of two units: a saturated unit adds exactly its
        # pre-activation or exactly 0
        z = np.array([[800.0, -800.0, 800.0, 0.0], [-800.0, -800.0, 800.0, -800.0]])
        got = _softplus_sum(z)
        np.testing.assert_array_equal(got, [800.0, 0.0, 1600.0, np.log(2.0)])


def old_route_means(holder, x, h):
    """The conditional means by the direct route, the reference for the
    negated-bias one: the bias added to the product, the sum negated, then
    exp, +1 and reciprocal.  Returns E[h|x], E[x|h] and x's hidden
    pre-activation, row-major."""

    def sigmoid(z):
        np.negative(z, out=z)
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        return np.reciprocal(z, out=z)

    pre = np.matmul(x, holder.WT) + holder.c
    return sigmoid(pre.copy()), sigmoid(np.matmul(h, holder.W) + holder.b), pre


def assert_means_match_the_old_route(holder, x, h):
    """Both means bit for bit; for rows, x's unit-major ``pre`` equal up to
    the sign of zero; and the marginal from the new ``pre``, from none and
    from the old route's pre-activation bit for bit."""
    want_h, want_x, want_pre = old_route_means(holder, x, h)
    unit_major = want_pre[:, None] if x.ndim == 1 else want_pre.mT
    pre = np.empty(unit_major.shape) if x.ndim > 1 else None
    with np.errstate(over="ignore"):
        assert hidden_conditional_mean(holder, x, pre=pre).tobytes() == want_h.tobytes()
        assert visible_conditional_mean(holder, h).tobytes() == want_x.tobytes()
    want = np.asarray(log_unnormalized_marginal(holder, x, pre=np.ascontiguousarray(unit_major)))
    assert np.asarray(log_unnormalized_marginal(holder, x)).tobytes() == want.tobytes()
    if pre is not None:
        np.testing.assert_array_equal(pre, unit_major)
        assert log_unnormalized_marginal(holder, x, pre=pre).tobytes() == want.tobytes()


class TestNegatedBiases:
    """The means subtract the product from the negated biases, -c - x.W^T,
    which is -(x.W^T + c) bit for bit: rounding is symmetric in sign."""

    @staticmethod
    def params_with_exact_zeros(V=7, H=6):
        # hidden units 0-1 and visible units 0-1 saturate at +-800; units 2-3
        # of each layer cancel exactly on the first of the rows; the rest
        # are random
        rng = np.random.default_rng(11)
        W = rng.normal(0.0, 2.0, (H, V))
        X, Hs = binary_rows(6, V, seed=1), binary_rows(6, H, seed=2)
        b, c = rng.normal(size=V), rng.normal(size=H)
        b[:2], c[:2] = (800.0, -800.0), (-800.0, 800.0)
        b[2:4], c[2:4] = -(Hs @ W)[0, 2:4], -(X @ W.T.copy())[0, 2:4]
        return RbmParams(W, b, c), X, Hs

    def test_one_model_on_vectors_and_rows(self):
        params, X, Hs = self.params_with_exact_zeros()
        _, _, pre = old_route_means(params, X, Hs)
        assert (pre[0, 2:4] == 0.0).all() and (np.abs(pre[:, :2]) > 790.0).all()
        assert ((Hs @ params.W + params.b)[0, 2:4] == 0.0).all()
        assert_means_match_the_old_route(params, X[0], Hs[0])
        assert_means_match_the_old_route(params, X, Hs)

    @pytest.mark.parametrize("params", [zero_params(7, 6), saturated_params(7, 6), saturated_params(7, 6, -800.0)])
    def test_all_zero_and_saturated_models(self, params):
        assert_means_match_the_old_route(params, binary_rows(5, 7), binary_rows(5, 6, seed=3))

    def test_stacked_bs_runs_after_updates(self):
        X = generate_bars_and_stripes().matrix()
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, X, [np.random.default_rng(30 + s) for s in range(3)])
        for _ in range(4):
            train_epoch(batch, TrainingConfig(learning_rate=0.05, weight_decay=0.001))
        hiddens = binary_rows(3 * 30, 8, seed=4).reshape(3, 30, 8)
        assert_means_match_the_old_route(batch, X, hiddens)
        assert_means_match_the_old_route(batch, binary_rows(3 * 30, 16, seed=5).reshape(3, 30, 16), hiddens)


class TestNoOverflowWarnings:
    """Batch operations on fully saturated models warn about nothing."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_gibbs_chain(self):
        # the hidden draw is always (0, 1, 0), the visible one (1, 0, 1, 0)
        means = {}
        visibles = run_gibbs_chain(saturated_params(), binary_rows(1, 4)[0], 3, np.random.default_rng(0), means)
        assert list(means) == [np.array([0, 1, 0], dtype=bool).tobytes()]
        np.testing.assert_array_equal(visibles, np.tile([1.0, 0.0, 1.0, 0.0], (3, 1)))

    def test_gibbs_chain_keeps_one_hidden_mean_per_visible_state(self):
        # the rounds start from x1 and then from (1, 0, 1, 0) every time
        x1 = np.array([0.0, 1.0, 1.0, 0.0])
        hidden_means = {}
        run_gibbs_chain(saturated_params(), x1, 4, np.random.default_rng(0), hidden_means=hidden_means)
        assert list(hidden_means) == [x1.astype(bool).tobytes(), np.array([1, 0, 1, 0], dtype=bool).tobytes()]
        assert all(m.tolist() == [0.0, 1.0, 0.0] for m in hidden_means.values())

    def test_train_epoch(self):
        data = Dataset(name="t", samples=binary_rows(6, 4).astype(np.uint8))
        train_epoch_one(saturated_params(), data, TrainingConfig(n=2), np.random.default_rng(1))

    def test_measure(self):
        # every data bit a saturated conditional contradicts costs exactly 800 nats
        config = default_config("bs", variants_enabled=tuple(cdmonitor.criteria.XiVariant))
        params, X = saturated_params(16, 8), binary_rows(30, 16)
        record = measure_one(params, X, config, np.random.default_rng(2), epoch=0)
        assert record.log_recon_mean == oracle_recon_mean(params, X) < -800.0
        assert np.isfinite(record.log_likelihood)
        # a stack of saturated models, biases of both signs, in one snapshot
        stack = [saturated_params(16, 8, bias) for bias in (800.0, -800.0, 800.0)]
        batch = RunBatch(stack, X, [np.random.default_rng(3) for _ in stack])
        rngs = [np.random.default_rng(4 + r) for r in range(len(stack))]
        measured = _measure(batch, config, rngs, epoch=0)
        assert [record.log_recon_mean for record in measured] == [oracle_recon_mean(p, X) for p in stack]
        assert all(np.isfinite(record.log_likelihood) for record in measured)

    def test_mean_reconstruction_log_prob(self):
        params, X = saturated_params(), binary_rows(6, 4)
        assert mean_reconstruction_log_prob(params, X) == oracle_recon_mean(params, X) < -800.0


class TestRowSum:
    """Per-sample sums of softplus terms over units, as the log of a bounded
    product down a unit-major (..., K, N) block."""

    @pytest.mark.parametrize("N, K", [(30, 8), (768, 10), (1024, 19), (7, 19), (31, 16)])
    def test_stacked_rows_have_each_model_s_bits(self, N, K):
        z = 10.0 * np.random.default_rng(K).standard_normal((3, K, N))
        stacked = _softplus_sum(z.copy())
        for r in range(3):
            np.testing.assert_array_equal(stacked[r], _softplus_sum(z[r].copy()))

    @pytest.mark.parametrize("K", [1, 8, 10, 19])
    def test_each_row_agrees_with_fsum(self, K):
        # of the per-element log1p terms, to the product's bound: a relative
        # error of gamma_K in the product is an absolute one in its log
        z = 10.0 * np.random.default_rng(K).standard_normal((2, K, 50))
        got = _softplus_sum(z.copy())
        for r, n in np.ndindex(2, 50):
            assert got[r, n] == pytest.approx(math.fsum(softplus(z[r, :, n])), rel=1e-14, abs=1e-14)

    def test_one_vector(self):
        got = _softplus_sum(np.array([[0.5], [-0.25], [2.0]]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(math.fsum(softplus(np.array([0.5, -0.25, 2.0]))), rel=1e-15)

    def test_more_units_than_one_product_holds(self):
        # pre-activations near 0 make 1500 factors near 2, whose one product
        # (about 2^1400) would overflow; the reduced layer has 1500 units in
        # the marginal and in every block log_partition enumerates over the
        # 3 visible units
        rng = np.random.default_rng(12)
        p = RbmParams(rng.normal(0.0, 0.05, (1500, 3)), rng.normal(0.0, 1.0, 3), rng.normal(0.0, 0.1, 1500))
        X = binary_rows(8, 3, seed=1)
        want = X @ p.b + softplus(X @ p.W.T + p.c).sum(axis=-1)
        np.testing.assert_allclose(log_unnormalized_marginal(p, X), want, rtol=1e-12)
        states = np.array(list(np.ndindex(2, 2, 2)), dtype=np.float64)
        logs = states @ p.b + softplus(states @ p.W.T + p.c).sum(axis=-1)
        assert log_partition(p) == pytest.approx(np.logaddexp.reduce(logs), rel=1e-12)


@pytest.mark.parametrize("batch", [(), (7,)])
def test_gibbs_chain_consumes_n_rounds_of_h_plus_v_uniforms(batch):
    # the package's chain takes one start vector; a batch runs the
    # reference's, the CD-n chain measure_full_chain draws
    n, V, H = 4, 5, 3
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    x1 = np.zeros((*batch, V))
    (run_gibbs_chain_per_round if batch else run_gibbs_chain)(zero_params(V, H), x1, n, rng)
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
