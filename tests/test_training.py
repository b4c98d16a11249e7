import math
import tracemalloc

import numpy as np
import pytest

import cdmonitor.criteria as criteria
import cdmonitor.experiment as experiment
import cdmonitor.rbm as rbm
import cdmonitor.training as training
from cdmonitor.datasets import Dataset, generate_bars_and_stripes
from cdmonitor.rbm import NonFiniteParameterError, RbmParams, hidden_conditional_mean
from cdmonitor.training import RunBatch, TrainingConfig, apply_update, init_params, train_epoch

import oracles
from reference import (
    GradientEstimate,
    apply_update_one,
    cd_gradient,
    exact_gradient,
    set_gradient,
    train_epoch_one,
    train_epoch_per_round,
    zero_params,
)


def make_dataset(rows):
    rows = np.asarray(rows, dtype=np.uint8)
    return Dataset(name="test", samples=rows)


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of the ``rbm`` function ``name`` made through any
    cdmonitor module.

    Modules import the function by name, so it is replaced in each of them.
    Returns the list that gains one entry, the shape of the second
    argument, per call.
    """
    calls = []
    original = getattr(rbm, name)

    def counted(first, second, *args, **kwargs):
        calls.append(np.shape(second))
        return original(first, second, *args, **kwargs)

    for module in (rbm, training, criteria, experiment):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(learning_rate=0.0),
            dict(learning_rate=-1.0),
            dict(weight_decay=-0.1),
            dict(epochs=0),
            dict(measure_every=0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainingConfig(**kw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainingConfig(**{field: value})


class TestCdGradient:
    def test_fixed_point_chain_gives_zero_gradient(self):
        # saturating visible biases pin x_{n+1} to x1; hidden means then cancel
        x1 = np.array([1.0, 0.0, 1.0])
        params = RbmParams(
            np.zeros((2, 3)), np.where(x1 > 0, 500.0, -500.0), np.array([0.3, -0.2])
        )
        grad, chain = cd_gradient(params, x1, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(chain.x_last, x1)
        np.testing.assert_array_equal(grad.dW, np.zeros((2, 3)))
        np.testing.assert_array_equal(grad.db, np.zeros(3))
        np.testing.assert_array_equal(grad.dc, np.zeros(2))

    def test_symmetric_start(self):
        # all-zero parameters: hidden means are 0.5 on both phases
        params = zero_params(4, 3)
        x1 = np.array([1.0, 1.0, 0.0, 0.0])
        grad, chain = cd_gradient(params, x1, 1, np.random.default_rng(1))
        np.testing.assert_array_equal(grad.dc, np.zeros(3))
        expected_dW = np.tile(0.5 * (x1 - chain.x_last), (3, 1))
        np.testing.assert_array_equal(grad.dW, expected_dW)
        np.testing.assert_array_equal(grad.db, x1 - chain.x_last)

    def test_rejects_batched_input(self):
        with pytest.raises(ValueError):
            cd_gradient(zero_params(2, 1), np.zeros((3, 2)), 1, np.random.default_rng(0))

    def test_long_chain_average_approximates_exact_gradient(self):
        # CD-n is asymptotically unbiased as the chain reaches stationarity:
        # the empirical mean over many chains must sit within 3 standard
        # errors of the exact gradient, per component
        rng = np.random.default_rng(123)
        W, b, c = oracles.random_params(rng, 3, 2, scale=0.6)
        params = RbmParams(W, b, c)
        x1 = np.array([1.0, 0.0, 1.0])
        exact = exact_gradient(params, make_dataset([x1.astype(int)]))

        n_chains, n_steps = 4000, 30
        dWs = np.empty((n_chains, 2, 3))
        dbs = np.empty((n_chains, 3))
        dcs = np.empty((n_chains, 2))
        for m in range(n_chains):
            grad, _ = cd_gradient(params, x1, n_steps, rng)
            dWs[m], dbs[m], dcs[m] = grad.dW, grad.db, grad.dc

        for est, ref in ((dWs, exact.dW), (dbs, exact.db), (dcs, exact.dc)):
            mean = est.mean(axis=0)
            sigma = est.std(axis=0, ddof=1) / math.sqrt(n_chains)
            assert np.all(np.abs(mean - ref) <= 3 * sigma + 1e-12)


class TestApplyUpdate:
    def test_zero_gradient_no_decay_is_identity(self):
        params = RbmParams(np.array([[0.4, -0.2]]), np.array([0.1, 0.0]), np.array([-0.3]))
        zero = GradientEstimate(np.zeros((1, 2)), np.zeros(2), np.zeros(1))
        out = apply_update_one(params, zero, TrainingConfig(weight_decay=0.0))
        np.testing.assert_array_equal(out.W, params.W)
        np.testing.assert_array_equal(out.b, params.b)
        np.testing.assert_array_equal(out.c, params.c)

    def test_decay_only_step(self):
        params = RbmParams(np.array([[2.0, -3.0]]), np.array([0.5, 0.5]), np.array([1.0]))
        zero = GradientEstimate(np.zeros((1, 2)), np.zeros(2), np.zeros(1))
        out = apply_update_one(
            params, zero, TrainingConfig(learning_rate=0.01, weight_decay=0.001)
        )
        np.testing.assert_allclose(out.W, params.W * (1 - 1e-5), rtol=1e-15)
        # decay touches theta's W block only: the biases keep their bits
        assert out.b.tobytes() == params.b.tobytes() and out.c.tobytes() == params.c.tobytes()
        assert_theta_invariants(out)

    def test_unit_gradient_on_scalar_model(self):
        params = zero_params(1, 1)
        grad = GradientEstimate(np.ones((1, 1)), np.zeros(1), np.zeros(1))
        out = apply_update_one(params, grad, TrainingConfig(learning_rate=0.01, weight_decay=0.0))
        assert out.W[0, 0] == 0.01

    def test_non_finite_update_aborts(self):
        params = zero_params(2, 1)
        bad = GradientEstimate(np.array([[np.inf, 0.0]]), np.zeros(2), np.zeros(1))
        with pytest.raises(NonFiniteParameterError):
            apply_update_one(params, bad, TrainingConfig())

    def test_non_finite_run_is_named_and_its_batch_mates_updated(self):
        rng = np.random.default_rng(8)
        params = [RbmParams(*oracles.random_params(rng, 3, 2)) for _ in range(3)]
        grads = [GradientEstimate(*oracles.random_params(rng, 3, 2)) for _ in range(3)]
        grads[1].dW[0, 2] = np.nan
        config = TrainingConfig(learning_rate=0.1, weight_decay=0.01)
        batch = RunBatch(params, np.zeros((1, 3)), [rng] * 3)
        for r, g in enumerate(grads):
            set_gradient(batch, r, g)
        with pytest.raises(NonFiniteParameterError, match="update produced non-finite") as info:
            apply_update(batch, config)
        assert info.value.runs == (1,)
        for r in (0, 2):
            alone = apply_update_one(params[r], grads[r], config)
            np.testing.assert_array_equal(batch.params(r).W, alone.W)
            np.testing.assert_array_equal(batch.params(r).b, alone.b)
            np.testing.assert_array_equal(batch.params(r).c, alone.c)


def reference_epoch(params, X, config):
    """Scalar-loop re-implementation of one full-batch epoch.

    Consumes uniforms in the same order as the library (per Gibbs round:
    the N*H hidden draws, then the N*V visible draws, each layer's unit by
    unit) but performs every piece of arithmetic with explicit Python loops.
    """
    rng = np.random.default_rng(9001)
    N, V = X.shape
    H = params.num_hidden
    W, b, c = params.W.tolist(), params.b.tolist(), params.c.tolist()

    def sigmoid(z):
        return 1.0 / (1.0 + math.exp(-z))

    x_cur = [list(row) for row in X]
    for _ in range(config.n):
        u_h = rng.random((H, N)).T
        h = [[0.0] * H for _ in range(N)]
        for s in range(N):
            for j in range(H):
                pre = c[j] + sum(W[j][i] * x_cur[s][i] for i in range(V))
                h[s][j] = 1.0 if u_h[s][j] < sigmoid(pre) else 0.0
        u_x = rng.random((V, N)).T
        nxt = [[0.0] * V for _ in range(N)]
        for s in range(N):
            for i in range(V):
                pre = b[i] + sum(W[j][i] * h[s][j] for j in range(H))
                nxt[s][i] = 1.0 if u_x[s][i] < sigmoid(pre) else 0.0
        x_cur = nxt

    h_pos = [[sigmoid(c[j] + sum(W[j][i] * X[s][i] for i in range(V))) for j in range(H)] for s in range(N)]
    h_neg = [[sigmoid(c[j] + sum(W[j][i] * x_cur[s][i] for i in range(V))) for j in range(H)] for s in range(N)]

    dW = [[0.0] * V for _ in range(H)]
    for j in range(H):
        for i in range(V):
            acc = 0.0
            for s in range(N):
                acc += h_pos[s][j] * X[s][i] - h_neg[s][j] * x_cur[s][i]
            dW[j][i] = acc
    db = [sum(X[s][i] - x_cur[s][i] for s in range(N)) for i in range(V)]
    dc = [sum(h_pos[s][j] - h_neg[s][j] for s in range(N)) for j in range(H)]

    lr = config.learning_rate
    W_new = [
        [W[j][i] + lr * (dW[j][i] - config.weight_decay * W[j][i]) for i in range(V)]
        for j in range(H)
    ]
    b_new = [b[i] + lr * db[i] for i in range(V)]
    c_new = [c[j] + lr * dc[j] for j in range(H)]
    return RbmParams(np.array(W_new), np.array(b_new), np.array(c_new))


class TestTrainEpoch:
    def test_single_sample_equals_per_sample_path(self):
        rng = np.random.default_rng(55)
        W, b, c = oracles.random_params(rng, 3, 2)
        params = RbmParams(W, b, c)
        data = make_dataset([[1, 0, 1]])
        config = TrainingConfig(n=2, learning_rate=0.05, weight_decay=0.001)

        batched = train_epoch_one(params, data, config, np.random.default_rng(77))
        grad, _ = cd_gradient(params, data.matrix()[0], config.n, np.random.default_rng(77))
        manual = apply_update_one(params, grad, config)
        np.testing.assert_array_equal(batched.W, manual.W)
        np.testing.assert_array_equal(batched.b, manual.b)
        np.testing.assert_array_equal(batched.c, manual.c)

    def test_duplicated_dataset_doubles_the_step(self):
        # deterministic saturated chains so realized gradients coincide;
        # the epoch step aggregates per-sample contributions, so a doubled
        # dataset moves the parameters exactly twice as far
        x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        params = RbmParams(
            np.zeros((2, 2)), np.array([500.0, -500.0]), np.array([500.0, -500.0])
        )
        config = TrainingConfig(learning_rate=0.01)
        single = train_epoch_one(params, make_dataset(x), config, np.random.default_rng(1))
        double = train_epoch_one(
            params, make_dataset(np.vstack([x, x])), config, np.random.default_rng(1)
        )
        np.testing.assert_allclose(
            double.W - params.W, 2 * (single.W - params.W), rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            double.b - params.b, 2 * (single.b - params.b), rtol=1e-12, atol=1e-15
        )

    def test_epoch_matches_scalar_reference_bit_for_bit(self):
        # all-zero start keeps every sum exactly representable, so the
        # vectorized epoch and the loop reference must agree to the bit
        data = generate_bars_and_stripes()
        params = zero_params(16, 8)
        config = TrainingConfig(n=1, learning_rate=0.01, weight_decay=0.0)
        got = train_epoch_one(params, data, config, np.random.default_rng(9001))
        ref = reference_epoch(params, data.matrix(), config)
        np.testing.assert_array_equal(got.W, ref.W)
        np.testing.assert_array_equal(got.b, ref.b)
        np.testing.assert_array_equal(got.c, ref.c)

    def test_positive_phase_matches_enumeration(self):
        # E[h x^t | x] has entries P(h_j = 1 | x) * x_i
        rng = np.random.default_rng(2)
        W, b, c = oracles.random_params(rng, 3, 2)
        params = RbmParams(W, b, c)
        x = [1.0, 0.0, 1.0]
        expected = np.outer(
            oracles.prob_h_given_x(W, b, c, x), np.array(x)
        )
        got = np.outer(hidden_conditional_mean(params, np.array(x + [1.0])), np.array(x))
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 3])
    def test_hidden_mean_computed_n_plus_one_times(self, monkeypatch, n):
        # one per Gibbs round plus the negative phase; the positive phase
        # reuses round 1's mean
        calls = count_calls(monkeypatch, "hidden_conditional_mean")
        params = init_params(16, 8, np.random.default_rng(3), 0.01)
        train_epoch_one(params, generate_bars_and_stripes(), TrainingConfig(n=n), np.random.default_rng(4))
        assert len(calls) == n + 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_draw_goes_through_sample_bernoulli(self, monkeypatch, n):
        # a hidden and a visible draw per Gibbs round, whatever the batch,
        # over unit-major (R, H, N) and (R, V, N) uniforms
        calls = count_calls(monkeypatch, "sample_bernoulli")
        params = [init_params(16, 8, np.random.default_rng(s), 0.01) for s in range(3)]
        batch = RunBatch(params, generate_bars_and_stripes().matrix(), [np.random.default_rng(s) for s in range(3)])
        train_epoch(batch, TrainingConfig(n=n))
        assert calls == [(3, 8, 30), (3, 16, 30)] * n

    def test_empty_dataset_rejected(self):
        data = Dataset(name="empty", samples=np.zeros((0, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            train_epoch_one(zero_params(2, 1), data, TrainingConfig(), np.random.default_rng(0))

    def test_training_is_seed_deterministic(self):
        data = generate_bars_and_stripes()
        config = TrainingConfig(n=1, learning_rate=0.01)

        def run():
            rng = np.random.default_rng(321)
            params = init_params(16, 8, np.random.default_rng(7), 0.01)
            for _ in range(20):
                params = train_epoch_one(params, data, config, rng)
            return params

        a, b = run(), run()
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.c, b.c)


def assert_theta_invariants(holder):
    """``holder.theta``'s corner is exactly 0; ``hidden_operand`` is the
    always-on row [0, ..., 0, -64] over -theta[..., 1:, :], and
    ``neg_visible`` is -theta[..., :, :V]^T, bit for bit, as read-only
    C-contiguous arrays of their own; ``neg_hidden`` is the read-only view
    of ``hidden_operand``'s rows 1:, each model's rows C-contiguous."""
    theta = holder.theta
    assert (theta[..., 0, -1] == 0.0).all()
    always_on = np.zeros((*theta.shape[:-2], 1, theta.shape[-1]))
    always_on[..., -1] = -64.0
    wanted = (
        np.concatenate([always_on, np.negative(theta[..., 1:, :])], axis=-2),
        np.ascontiguousarray(np.negative(theta[..., :-1].mT)),
    )
    for operand, want in zip((holder.hidden_operand, holder.neg_visible), wanted):
        assert operand.flags.c_contiguous and not operand.flags.writeable
        assert not np.shares_memory(operand, theta)
        assert operand.shape == want.shape and operand.tobytes() == want.tobytes()
    rows = holder.hidden_operand[..., 1:, :]
    neg_hidden = holder.neg_hidden
    assert not neg_hidden.flags.writeable
    assert neg_hidden.__array_interface__ == rows.__array_interface__
    assert neg_hidden.strides[-2:] == (8 * theta.shape[-1], 8)
    assert neg_hidden.tobytes() == np.negative(theta[..., 1:, :]).tobytes()


class TestRunBatch:
    def test_transpose_copy_after_construction_and_select(self):
        # neg_visible is theta's visible columns transposed and negated
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, generate_bars_and_stripes().matrix(), [np.random.default_rng(s) for s in range(3)])
        assert_theta_invariants(batch)
        train_epoch(batch, TrainingConfig(learning_rate=0.05))
        chosen = batch.select([2, 0])
        assert_theta_invariants(chosen)
        assert_theta_invariants(batch.params(2))
        np.testing.assert_array_equal(chosen.neg_visible[0], -batch.theta[2, :, :-1].T)
        np.testing.assert_array_equal(chosen.neg_hidden[1], -batch.theta[0, 1:])

    def test_transpose_copy_after_every_update(self):
        # the update refreshes both negated operands even when it raises:
        # the other runs go on
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, generate_bars_and_stripes().matrix(), [np.random.default_rng(s) for s in range(3)])
        config = TrainingConfig(learning_rate=0.05, weight_decay=0.001)
        for _ in range(3):
            train_epoch(batch, config)
            assert_theta_invariants(batch)
        rng = np.random.default_rng(7)
        for r in range(3):
            set_gradient(batch, r, GradientEstimate(*oracles.random_params(rng, 16, 8)))
        batch.grad[1, 5, 3] = np.inf
        with pytest.raises(NonFiniteParameterError) as info:
            apply_update(batch, config)
        assert info.value.runs == (1,)
        assert (batch.theta[:, 0, -1] == 0.0).all()
        np.testing.assert_array_equal(batch.neg_hidden, -batch.theta[:, 1:])
        np.testing.assert_array_equal(batch.neg_visible, -batch.theta[:, :, :-1].mT)

    def test_transpose_copy_of_params_read_from_a_file(self, tmp_path):
        path = tmp_path / "params.txt"
        experiment.write_params_file(path, init_params(19, 10, np.random.default_rng(1), 0.5))
        assert_theta_invariants(experiment.read_params_file(path))

    def test_parameters_cannot_be_written_in_place(self):
        # every mean reads a negated operand, so a write to theta outside
        # apply_update would leave them stale: RbmParams and a RunBatch's
        # operands are read-only, and RbmParams copies what it is given
        W = np.random.default_rng(2).normal(size=(8, 16))
        params = RbmParams(W, np.zeros(16), np.zeros(8))
        W[0, 0] = 1.0
        assert params.W[0, 0] != 1.0
        batch = RunBatch([params], generate_bars_and_stripes().matrix(), [np.random.default_rng(0)])
        operands = [(h.hidden_operand, h.neg_hidden, h.neg_visible) for h in (params, batch)]
        held = (params.W, params.b, params.c, params.theta, *operands[0], *operands[1])
        for array in (*held, batch.X1, batch.XT1, batch.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = np.nan
        assert np.isfinite(batch.theta).all()
        set_gradient(batch, 0, GradientEstimate(np.ones((8, 16)), np.ones(16), np.ones(8)))
        apply_update(batch, TrainingConfig(learning_rate=0.5))
        assert batch.theta[0, 1, 0] == params.W[0, 0] + 0.5
        assert_theta_invariants(batch)

    @pytest.mark.parametrize("n", [1, 3])
    def test_stacked_runs_match_runs_trained_alone_bit_for_bit(self, n):
        # each run draws from its own generator and numpy multiplies a
        # stack one run's matrix at a time, so stacking changes no bit
        data = generate_bars_and_stripes()
        config = TrainingConfig(n=n, learning_rate=0.05, weight_decay=0.001)
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(3)]
        batch = RunBatch(params, data.matrix(), [np.random.default_rng(100 + s) for s in range(3)])
        alone = list(params)
        rngs = [np.random.default_rng(100 + s) for s in range(3)]
        for _ in range(5):
            train_epoch(batch, config)
            alone = [train_epoch_one(p, data, config, g) for p, g in zip(alone, rngs)]
        for r in range(3):
            np.testing.assert_array_equal(batch.params(r).W, alone[r].W)
            np.testing.assert_array_equal(batch.params(r).b, alone[r].b)
            np.testing.assert_array_equal(batch.params(r).c, alone[r].c)
            assert batch.rngs[r].bit_generator.state == rngs[r].bit_generator.state

    @pytest.mark.parametrize("n", [1, 3])
    def test_bulk_draws_equal_per_round_draws_bit_for_bit(self, n):
        # each round's N*(H+V) uniforms of a run come from one generator
        # call, which gives the doubles of one call per layer, in that order
        data = generate_bars_and_stripes()
        config = TrainingConfig(n=n, learning_rate=0.05, weight_decay=0.001)
        params = [init_params(16, 8, np.random.default_rng(s), 0.3) for s in range(10)]
        got, want = (
            RunBatch(params, data.matrix(), [np.random.default_rng(200 + s) for s in range(10)])
            for _ in range(2)
        )
        for _ in range(5):
            train_epoch(got, config)
            train_epoch_per_round(want, config)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert [g.random() for g in got.rngs] == [g.random() for g in want.rngs]

    def test_bytes_per_run_counts_the_batch_arrays(self):
        batch = RunBatch([zero_params(16, 8)] * 3, np.zeros((30, 16)), [None] * 3)
        assert not np.shares_memory(batch.h_model, batch.x_mean)
        for view in (batch.hidden, batch.visible, batch.uniforms):
            assert np.shares_memory(view, batch.draws)
        # the ones rows of the draws and the hidden blocks, and the uniforms between
        assert (batch.hidden[:, 0] == 1.0).all() and (batch.visible[:, -1] == 1.0).all()
        assert (batch.h_data[:, 0] == 1.0).all()
        assert batch.uniforms.shape == (3, 30 * 24) and batch.uniforms[0].flags.c_contiguous

    def test_warm_lse_epoch_peaks_below_16_kb(self):
        # every conditional mean is a product and three in-place passes over
        # the batch's buffers: no broadcast operand, whose buffered loop
        # would allocate up to about 64 KB a pass
        X = experiment.build_dataset(experiment.default_config("lse")).matrix()
        batch = RunBatch([init_params(19, 10, np.random.default_rng(0), 0.01)], X, [np.random.default_rng(1)])
        config = TrainingConfig(learning_rate=0.001, weight_decay=0.001)
        for _ in range(3):
            train_epoch(batch, config)
        tracemalloc.start()
        try:
            for _ in range(10):
                train_epoch(batch, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_select_keeps_the_chosen_runs_and_generators(self):
        params = [init_params(4, 2, np.random.default_rng(s), 0.1) for s in range(3)]
        rngs = [np.random.default_rng(s) for s in range(3)]
        batch = RunBatch(params, np.zeros((2, 4)), rngs).select([0, 2])
        assert batch.rngs == [rngs[0], rngs[2]]
        np.testing.assert_array_equal(batch.params(1).W, params[2].W)

    def test_parameters_are_views_of_one_row_per_run(self):
        # run r's theta is [[b, 0], [W, c]]
        batch = RunBatch([zero_params(4, 2)] * 2, np.zeros((1, 4)), [None, None])
        assert batch.theta.shape == (2, 3, 5)
        batch.theta[1] = np.arange(15).reshape(3, 5)
        params = batch.params(1)
        np.testing.assert_array_equal(params.W, [[5, 6, 7, 8], [10, 11, 12, 13]])
        np.testing.assert_array_equal(params.b, [0, 1, 2, 3])
        np.testing.assert_array_equal(params.c, [9, 14])
        assert not batch.theta[0].any()

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            RunBatch([zero_params(4, 2)], np.zeros((1, 4)), [])
        with pytest.raises(ValueError):
            RunBatch([zero_params(4, 2), zero_params(3, 2)], np.zeros((1, 4)), [None, None])


class TestInitParams:
    def test_shapes_and_zero_biases(self):
        params = init_params(5, 3, np.random.default_rng(0), 0.01)
        assert params.W.shape == (3, 5)
        np.testing.assert_array_equal(params.b, np.zeros(5))
        np.testing.assert_array_equal(params.c, np.zeros(3))

    def test_weight_scale(self):
        params = init_params(50, 40, np.random.default_rng(1), 0.01)
        assert 0.005 < params.W.std() < 0.02
