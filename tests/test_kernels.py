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
    _sigmoid_of_negated,
    _softplus_sum,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch, TrainingConfig, init_params, train_epoch

import oracles
from reference import (
    chain_start,
    hidden_block,
    hidden_mean,
    log_marginal,
    mean_reconstruction_log_prob,
    measure_one,
    run_gibbs_chain_per_round,
    softplus,
    train_epoch_one,
    visible_block,
    visible_mean,
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
        h, x = hidden_mean(p, binary_rows(5, 4)), visible_mean(p, binary_rows(5, 3))
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


def assert_means_match_the_oracles(holder, X, Hs, enumerated=None):
    """For every model of ``holder`` (one, or a stack whose models are
    compared one at a time): the means of the rows of X (N, V) and Hs (N,
    H), given as blocks, the data marginal from ``pre`` and from none, and
    log Z, each against ``oracles`` to rtol 1e-12, and the stack's values
    bit for bit those of each model alone.  ``pre`` is the negated product
    with the negated operand, bit for bit.  ``enumerated`` rows of the
    means, all by default, are held to the scalar enumerations, and the
    visible mean only when that enumeration is small (V <= 8)."""
    theta = holder.theta.reshape(-1, *holder.theta.shape[-2:])
    stacked = holder.theta.ndim == 3
    Xb, Hb = visible_block(X), hidden_block(Hs)
    pre = np.empty((*holder.theta.shape[:-2], holder.num_hidden, len(X)))
    with np.errstate(over="ignore"):
        h_mean = hidden_conditional_mean(holder, Xb, pre=pre)
        x_mean = visible_conditional_mean(holder, Hb)
    assert pre.tobytes() == np.negative(np.matmul(holder.neg_hidden, Xb)).tobytes()
    from_pre = log_unnormalized_marginal(holder, Xb, pre=pre)
    direct, lz = log_unnormalized_marginal(holder, Xb), log_partition(holder)
    for r, t in enumerate(theta):
        one = RbmParams(t[1:, :-1], t[0, :-1], t[1:, -1])
        W, b, c = one.W.tolist(), one.b.tolist(), one.c.tolist()
        at = (lambda v: v[r]) if stacked else (lambda v: v)
        if stacked:
            with np.errstate(over="ignore"):
                assert at(h_mean).tobytes() == hidden_conditional_mean(one, Xb).tobytes()
                assert at(x_mean).tobytes() == visible_conditional_mean(one, Hb).tobytes()
            assert at(direct).tobytes() == np.asarray(log_unnormalized_marginal(one, Xb)).tobytes()
            assert at(lz) == log_partition(one)
        rows = slice(enumerated)
        want = [oracles.prob_h_given_x(W, b, c, x) for x in X[rows].tolist()]
        np.testing.assert_allclose(at(h_mean).T[rows], want, rtol=1e-12)
        if len(b) <= 8:
            want = [oracles.prob_x_given_h(W, b, c, h) for h in Hs[rows].tolist()]
            np.testing.assert_allclose(at(x_mean).T[rows], want, rtol=1e-12)
        want = oracles.log_marginal_weights_np(one.W, one.b, one.c, X)
        np.testing.assert_allclose(at(from_pre), want, rtol=1e-12)
        np.testing.assert_allclose(at(direct), want, rtol=1e-12)
        assert at(lz) == pytest.approx(oracles.log_partition_chunked_np(one.W, one.b, one.c), rel=1e-12)


class TestNegatedBiases:
    """Every conditional mean is one product of a negated operand of theta
    with the other layer's block, the negated pre-activation with its bias
    in it (see ``rbm``); the means, the marginal, log Z and an epoch's
    gradient match ``oracles``."""

    def test_one_model_on_vectors_and_rows(self):
        rng = np.random.default_rng(11)
        params = RbmParams(*oracles.random_params(rng, 7, 6, scale=1.5))
        X, Hs = binary_rows(6, 7, seed=1), binary_rows(6, 6, seed=2)
        assert_means_match_the_oracles(params, X, Hs)
        # a vector [x; 1] or [1; h], with pre of the mean's shape (H,)
        W, b, c = (a.tolist() for a in (params.W, params.b, params.c))
        pre = np.empty(6)
        got = hidden_conditional_mean(params, visible_block(X[0]), pre=pre)
        np.testing.assert_allclose(got, oracles.prob_h_given_x(W, b, c, X[0]), rtol=1e-12)
        np.testing.assert_allclose(pre, params.c + params.W @ X[0], rtol=1e-12)
        want = math.log(oracles.marginal_weight(W, b, c, X[0].tolist()))
        assert log_unnormalized_marginal(params, visible_block(X[0]), pre=pre) == pytest.approx(want, rel=1e-12)
        got = visible_conditional_mean(params, hidden_block(Hs[0]))
        np.testing.assert_allclose(got, oracles.prob_x_given_h(W, b, c, Hs[0]), rtol=1e-12)

    @pytest.mark.parametrize("params", [zero_params(7, 6), saturated_params(7, 6), saturated_params(7, 6, -800.0)])
    def test_all_zero_and_saturated_models(self, params):
        # W = 0: every pre-activation is its bias exactly, every mean 0.5,
        # exactly 0 or exactly 1
        X, Hs = binary_rows(5, 7), binary_rows(5, 6, seed=3)
        pre = np.empty((6, 5))
        with np.errstate(over="ignore"):
            h_mean = hidden_conditional_mean(params, visible_block(X), pre=pre)
            x_mean = visible_conditional_mean(params, hidden_block(Hs))
            np.testing.assert_array_equal(h_mean, np.tile(1.0 / (1.0 + np.exp(-params.c)), (5, 1)).T)
            np.testing.assert_array_equal(x_mean, np.tile(1.0 / (1.0 + np.exp(-params.b)), (5, 1)).T)
        np.testing.assert_array_equal(pre, np.tile(params.c, (5, 1)).T)
        want = X @ params.b + softplus(params.c).sum()
        np.testing.assert_allclose(log_unnormalized_marginal(params, visible_block(X), pre=pre), want, rtol=1e-12)
        np.testing.assert_allclose(log_unnormalized_marginal(params, visible_block(X)), want, rtol=1e-12)

    def test_stacked_bs_runs_after_updates(self):
        X = generate_bars_and_stripes().matrix()
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, X, [np.random.default_rng(30 + s) for s in range(3)])
        for _ in range(4):
            train_epoch(batch, TrainingConfig(learning_rate=0.05, weight_decay=0.001))
        assert_means_match_the_oracles(batch, X, binary_rows(30, 8, seed=4), enumerated=3)

    def test_epoch_gradient_matches_the_oracles(self):
        # with learning rate 1 and no decay, the step is the gradient:
        # sum_n E[h|X_n] [X_n, 1] - E[h|x_n] [x_n, 1], with [1; .] rows for
        # the biases, at the draws x the epoch leaves in its visible block
        X = generate_bars_and_stripes().matrix()
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(2)]
        batch = RunBatch(params, X, [np.random.default_rng(40 + s) for s in range(2)])
        before = [batch.params(r) for r in range(2)]
        train_epoch(batch, TrainingConfig(learning_rate=1.0, weight_decay=0.0))
        for r, p in enumerate(before):
            W, b, c = p.W.tolist(), p.b.tolist(), p.c.tolist()
            x = batch.visible[r, :-1].T
            want = np.zeros((9, 17))
            for data, model in zip(X.tolist(), x.tolist()):
                want[:, :] += np.outer(np.r_[1.0, oracles.prob_h_given_x(W, b, c, data)], np.r_[data, 1.0])
                want[:, :] -= np.outer(np.r_[1.0, oracles.prob_h_given_x(W, b, c, model)], np.r_[model, 1.0])
            assert batch.grad[r, 0, -1] == 0.0
            np.testing.assert_allclose(batch.grad[r], want, rtol=1e-12, atol=1e-12)
            assert batch.grad[r, 0, :-1].tobytes() == want[0, :-1].tobytes()  # db: bit counts, exact

class TestAlwaysOnRow:
    """The hidden mean's operand carries the always-on unit's row [0, ...,
    0, -64], so an ``out`` of H+1 units gets the whole block [1;
    E[h|x]^T]; a one-vector mean reads the H-row operand."""

    @pytest.mark.parametrize("scale", [0.01, 1.0, 1e3])
    @pytest.mark.parametrize("real", [False, True], ids=["binary", "real"])
    @pytest.mark.parametrize("R", [1, 5, 14])
    def test_whole_out_has_a_row_of_ones_over_the_h_row_bits(self, R, real, scale):
        # nothing but the product rows of a large |theta| may overflow, and
        # the always-on row neither overflows nor underflows
        rng = np.random.default_rng(R)
        V, H, N = 16, 8, 30
        params = [RbmParams(*oracles.random_params(rng, V, H, scale=scale)) for _ in range(R)]
        X = rng.random((N, V)) if real else binary_rows(N, V, seed=R)
        Xb = visible_block(X)
        batch = RunBatch(params, X, [None] * R)
        errors = {"all": "raise"} if scale <= 1 else {"over": "ignore"}
        for holder in [batch, params[0]] if R == 1 else [batch]:
            stack = holder.theta.shape[:-2]
            whole, rows = np.empty((*stack, H + 1, N)), np.empty((*stack, H, N))
            pre_whole, pre_rows = np.empty((2, *stack, H, N))
            with np.errstate(**errors):
                assert hidden_conditional_mean(holder, Xb, out=whole, pre=pre_whole) is whole
                hidden_conditional_mean(holder, Xb, out=rows, pre=pre_rows)
            assert (whole[..., 0, :] == 1.0).all()
            assert whole[..., 1:, :].tobytes() == rows.tobytes()
            assert pre_whole.tobytes() == pre_rows.tobytes()
        with np.errstate(**errors):
            vector = hidden_conditional_mean(params[0], Xb[:, 0])
            assert vector.tobytes() == _sigmoid_of_negated(params[0].neg_hidden.dot(Xb[:, 0])).tobytes()

    def test_always_on_row_is_read_only_and_survives_update_and_select(self):
        X = generate_bars_and_stripes().matrix()
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, X, [np.random.default_rng(10 + s) for s in range(3)])
        for holder in (batch, params[0]):
            with pytest.raises(ValueError, match="read-only"):
                holder.hidden_operand[..., 0, -1] = 0.0
        for _ in range(3):
            train_epoch(batch, TrainingConfig(learning_rate=0.05, weight_decay=0.001))
        for holder in (batch, batch.select([2, 0]), batch.params(1)):
            always_on = holder.hidden_operand[..., 0, :]
            assert (always_on[..., :-1] == 0.0).all() and (always_on[..., -1] == -64.0).all()
            whole = np.empty((*holder.theta.shape[:-2], 9, len(X)))
            with np.errstate(over="ignore"):
                hidden_conditional_mean(holder, visible_block(X), out=whole)
            assert (whole[..., 0, :] == 1.0).all()


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
        start = chain_start(binary_rows(1, 4)[0])
        visibles = run_gibbs_chain(saturated_params(), start, 3, np.random.default_rng(0), means, {})
        assert list(means) == [np.array([0, 1, 0], dtype=bool).tobytes()]
        np.testing.assert_array_equal(visibles, np.tile([True, False, True, False, True], (3, 1)))

    def test_gibbs_chain_keeps_one_hidden_mean_per_visible_state(self):
        # the rounds start from x1 and then from (1, 0, 1, 0) every time
        x1 = np.array([0.0, 1.0, 1.0, 0.0])
        hidden_means = {}
        run_gibbs_chain(saturated_params(), chain_start(x1), 4, np.random.default_rng(0), {}, hidden_means)
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
        np.testing.assert_allclose(log_marginal(p, X), want, rtol=1e-12)
        states = np.array(list(np.ndindex(2, 2, 2)), dtype=np.float64)
        logs = states @ p.b + softplus(states @ p.W.T + p.c).sum(axis=-1)
        assert log_partition(p) == pytest.approx(np.logaddexp.reduce(logs), rel=1e-12)


@pytest.mark.parametrize("batch", [(), (7,)])
def test_gibbs_chain_consumes_n_rounds_of_h_plus_v_uniforms(batch):
    # the package's chain takes one start vector; a batch runs the
    # reference's, the CD-n chain measure_full_chain draws
    n, V, H = 4, 5, 3
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    if batch:
        run_gibbs_chain_per_round(zero_params(V, H), np.zeros((*batch, V)), n, rng)
    else:
        run_gibbs_chain(zero_params(V, H), chain_start(np.zeros(V)), n, rng, {}, {})
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
