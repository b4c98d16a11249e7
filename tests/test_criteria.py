import math

import numpy as np
import pytest

from cdmonitor.criteria import (
    _STACK_ELEMENTS,
    LOG_PROB_SENTINEL,
    EnumerationInfeasibleError,
    XiVariant,
    exact_log_likelihood,
    log_partition,
    mean_reconstruction_log_prob,
)
from cdmonitor.datasets import Dataset, generate_bars_and_stripes, generate_labeled_shifter
from cdmonitor.rbm import (
    GibbsChain,
    RbmParams,
    Workspace,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    visible_conditional_mean,
)
from cdmonitor.training import RunBatch

import oracles
from reference import (
    XiProbe,
    enumerate_binary_vectors,
    exact_gradient,
    log_xi,
    reconstruction_log_prob,
    xi_probe,
    zero_params,
)


def tiny_params():
    return RbmParams(np.array(oracles.TINY_W), np.array(oracles.TINY_B), np.array(oracles.TINY_C))


def make_dataset(rows):
    rows = np.asarray(rows, dtype=np.uint8)
    return Dataset(name="test", visible_len=rows.shape[1], samples=rows)


def finite_difference_gradient(params, data, step=1e-5):
    """Central differences of exact_log_likelihood/N, component by component."""
    n = len(data)

    def ll_at(W, b, c):
        return exact_log_likelihood(RbmParams(W, b, c), data) / n

    def diff(setter):
        plus = setter(+step)
        minus = setter(-step)
        return (ll_at(*plus) - ll_at(*minus)) / (2 * step)

    dW = np.zeros_like(params.W)
    for j in range(params.num_hidden):
        for i in range(params.num_visible):
            def bump(eps, j=j, i=i):
                W = params.W.copy()
                W[j, i] += eps
                return W, params.b, params.c
            dW[j, i] = diff(bump)
    db = np.zeros_like(params.b)
    for i in range(params.num_visible):
        def bump(eps, i=i):
            b = params.b.copy()
            b[i] += eps
            return params.W, b, params.c
        db[i] = diff(bump)
    dc = np.zeros_like(params.c)
    for j in range(params.num_hidden):
        def bump(eps, j=j):
            c = params.c.copy()
            c[j] += eps
            return params.W, params.b, c
        dc[j] = diff(bump)
    return dW, db, dc


class TestReconstructionLogProb:
    def test_uniform_conditionals(self):
        p = zero_params(16, 8)
        x = np.zeros(16)
        assert reconstruction_log_prob(p, x) == pytest.approx(16 * math.log(0.5), rel=1e-12)

    def test_perfect_reconstruction_approaches_zero_from_below(self):
        x = np.array([1.0, 0.0, 1.0])
        p = RbmParams(np.zeros((2, 3)), np.where(x > 0, 40.0, -40.0), np.zeros(2))
        val = reconstruction_log_prob(p, x)
        assert -1e-10 < val <= 0.0

    def test_tiny_model_against_composed_enumeration(self):
        p = tiny_params()
        x = [1.0, 0.0]
        hbar = oracles.prob_h_given_x(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, x)
        probs = [
            1.0 / (1.0 + math.exp(-(oracles.TINY_B[i] + sum(oracles.TINY_W[j][i] * hbar[j] for j in range(2)))))
            for i in range(2)
        ]
        expected = sum(
            xi * math.log(pi) + (1 - xi) * math.log(1 - pi) for xi, pi in zip(x, probs)
        )
        got = reconstruction_log_prob(p, np.array(x))
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(-0.6011535821830021, rel=1e-12)

    def test_nonpositive_and_zero_only_on_exact_match(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            W, b, c = oracles.random_params(rng, 4, 3)
            p = RbmParams(W, b, c)
            x = (rng.random(4) < 0.5).astype(float)
            assert reconstruction_log_prob(p, x) <= 0.0
        x = np.array([1.0, 0.0])
        exact = RbmParams(np.zeros((1, 2)), np.array([800.0, -800.0]), np.zeros(1))
        assert reconstruction_log_prob(exact, x) == 0.0

    def test_inf_guard_sentinel_and_counter(self):
        # saturated conditional contradicting a data bit
        x = np.array([0.0, 1.0])
        p = RbmParams(np.zeros((1, 2)), np.array([800.0, 800.0]), np.zeros(1))
        assert reconstruction_log_prob(p, x) == LOG_PROB_SENTINEL
        X = np.stack([x, np.array([1.0, 1.0])])
        mean, guarded = mean_reconstruction_log_prob(p, X)
        assert guarded == 1
        assert np.isfinite(mean)


class TestXiProbe:
    def test_complement_of_all_ones(self):
        p = tiny_params()
        chain = GibbsChain(
            x1=np.array([1.0, 0.0]),
            h1_mean=hidden_conditional_mean(p, np.array([1.0, 0.0])),
            hiddens=np.array([[1.0, 1.0]]),
            visibles=np.array([[0.0, 0.0]]),
        )
        probe = xi_probe(p, chain, XiVariant.COMPLEMENT_H1, np.random.default_rng(0))
        from scipy.special import expit

        np.testing.assert_allclose(probe.y, expit(p.b), rtol=1e-15)

    def test_all_zero_params_probe_is_half(self):
        p = zero_params(3, 2)
        chain = GibbsChain(
            x1=np.zeros(3),
            h1_mean=np.full(2, 0.5),
            hiddens=np.array([[1.0, 0.0]]),
            visibles=np.array([[0.0, 1.0, 0.0]]),
        )
        for variant in XiVariant:
            probe = xi_probe(p, chain, variant, np.random.default_rng(1))
            np.testing.assert_array_equal(probe.y, np.full(3, 0.5))

    def test_complement_h1_matches_hand_enumeration(self):
        p = tiny_params()
        chain = GibbsChain(
            x1=np.array([1.0, 0.0]),
            h1_mean=hidden_conditional_mean(p, np.array([1.0, 0.0])),
            hiddens=np.array([[1.0, 0.0]]),
            visibles=np.array([[1.0, 1.0]]),
        )
        probe = xi_probe(p, chain, XiVariant.COMPLEMENT_H1, np.random.default_rng(2))
        expected = oracles.prob_x_given_h(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, [0.0, 1.0])
        np.testing.assert_allclose(probe.y, expected, rtol=1e-10)
        np.testing.assert_allclose(
            probe.y, [0.6456563062257954, 0.45016600268752216], rtol=1e-12
        )

    def test_random_hidden_is_seed_deterministic(self):
        p = tiny_params()
        chain = GibbsChain(
            x1=np.array([1.0, 0.0]),
            h1_mean=hidden_conditional_mean(p, np.array([1.0, 0.0])),
            hiddens=np.array([[0.0, 0.0]]),
            visibles=np.array([[0.0, 0.0]]),
        )
        a = xi_probe(p, chain, XiVariant.RANDOM_HIDDEN, np.random.default_rng(11))
        b = xi_probe(p, chain, XiVariant.RANDOM_HIDDEN, np.random.default_rng(11))
        np.testing.assert_array_equal(a.y, b.y)
        h_s = np.random.default_rng(11).random(2)
        np.testing.assert_array_equal(a.y, visible_conditional_mean(p, h_s))

    def test_complement_mean_h(self):
        p = tiny_params()
        x1 = np.array([1.0, 0.0])
        chain = GibbsChain(
            x1=x1,
            h1_mean=hidden_conditional_mean(p, x1),
            hiddens=np.array([[0.0, 0.0]]),
            visibles=np.array([[0.0, 0.0]]),
        )
        probe = xi_probe(p, chain, XiVariant.COMPLEMENT_MEAN_H, np.random.default_rng(0))
        hbar = oracles.prob_h_given_x(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, list(x1))
        np.testing.assert_allclose(probe.y, visible_conditional_mean(p, 1.0 - hbar), rtol=1e-10)

    def test_probe_validates_range(self):
        with pytest.raises(ValueError):
            XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=np.array([0.5, 1.5]))


class TestLogXi:
    def test_all_zero_params_exactly_zero(self):
        p = zero_params(3, 4)
        data = make_dataset([[1, 0, 1], [0, 0, 1]])
        probes = [
            XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=np.array([0.2, 0.9, 0.4])),
            XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=np.array([0.5, 0.5, 0.5])),
        ]
        assert log_xi(p, data, probes) == 0.0

    def test_identical_sets_exactly_zero(self):
        rng = np.random.default_rng(4)
        W, b, c = oracles.random_params(rng, 3, 2)
        p = RbmParams(W, b, c)
        data = make_dataset([[1, 0, 1], [0, 1, 1]])
        probes = [
            XiProbe(variant=XiVariant.COMPLEMENT_H1, y=row.astype(float))
            for row in data.samples
        ]
        assert log_xi(p, data, probes) == 0.0

    def test_probe_count_must_match(self):
        p = zero_params(3, 2)
        data = make_dataset([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(ValueError):
            log_xi(p, data, [XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=np.full(3, 0.5))])

    def test_partition_cancellation_against_normalized_ratio(self):
        # the ratio of normalized probabilities, with Z from full enumeration,
        # must equal the Z-free computation
        rng = np.random.default_rng(5)
        for _ in range(5):
            W, b, c = oracles.random_params(rng, 3, 2)
            p = RbmParams(W, b, c)
            data = make_dataset([[1, 0, 1], [0, 1, 0]])
            probes = [
                XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=rng.random(3)),
                XiProbe(variant=XiVariant.RANDOM_HIDDEN, y=rng.random(3)),
            ]
            z = oracles.partition(W, b, c)
            expected = 0.0
            for x, probe in zip(data.matrix(), probes):
                px = oracles.marginal_weight(W, b, c, list(x)) / z
                py = oracles.marginal_weight(W, b, c, list(probe.y)) / z
                expected += math.log(px / py)
            assert log_xi(p, data, probes) == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestLogPartition:
    def test_uniform_models(self):
        assert log_partition(zero_params(16, 8)) == pytest.approx(24 * math.log(2), rel=1e-12)
        assert log_partition(zero_params(19, 10)) == pytest.approx(29 * math.log(2), rel=1e-12)

    def test_matches_joint_enumeration(self):
        rng = np.random.default_rng(6)
        W, b, c = oracles.random_params(rng, 4, 3)
        got = log_partition(RbmParams(W, b, c))
        assert got == pytest.approx(math.log(oracles.partition(W, b, c)), rel=1e-12)

    def test_dual_route_agreement(self):
        rng = np.random.default_rng(7)
        for V, H in [(6, 3), (3, 6), (9, 4), (5, 12), (7, 7)]:
            W, b, c = oracles.random_params(rng, V, H)
            p = RbmParams(W, b, c)
            hidden_side = log_partition(p, layer="hidden")
            visible_side = log_partition(p, layer="visible")
            assert hidden_side == pytest.approx(visible_side, rel=1e-10)

    def test_infeasible_layer_rejected(self):
        p = zero_params(26, 26)
        with pytest.raises(EnumerationInfeasibleError):
            log_partition(p)
        # the small side stays feasible even when the other side is huge
        wide = zero_params(30, 4)
        assert log_partition(wide) == pytest.approx(34 * math.log(2), rel=1e-12)
        with pytest.raises(EnumerationInfeasibleError):
            log_partition(wide, layer="visible")

    def test_chunked_enumeration_matches_direct(self):
        # 17 bits exceeds one chunk; compare against unchunked logsumexp
        from scipy.special import logsumexp

        from cdmonitor.rbm import log_unnormalized_marginal

        rng = np.random.default_rng(8)
        W = 0.3 * rng.standard_normal((17, 3))
        p = RbmParams(W, 0.3 * rng.standard_normal(3), 0.3 * rng.standard_normal(17))
        states = enumerate_binary_vectors(3)
        direct = logsumexp(log_unnormalized_marginal(p, states))
        assert log_partition(p) == pytest.approx(float(direct), rel=1e-12)


class TestExactLogLikelihood:
    def test_uniform_model_on_benchmark_sets(self):
        bs = generate_bars_and_stripes()
        assert exact_log_likelihood(zero_params(16, 8), bs) == pytest.approx(
            30 * (-16 * math.log(2)), rel=1e-12
        )
        lse = generate_labeled_shifter()
        assert exact_log_likelihood(zero_params(19, 10), lse) == pytest.approx(
            768 * (-19 * math.log(2)), rel=1e-12
        )

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(9)
        W, b, c = oracles.random_params(rng, 4, 3)
        data = make_dataset([[1, 0, 1, 1], [0, 0, 1, 0]])
        got = exact_log_likelihood(RbmParams(W, b, c), data)
        expected = oracles.log_likelihood(W, b, c, data.matrix())
        assert got == pytest.approx(expected, rel=1e-10)

    def test_never_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            W, b, c = oracles.random_params(rng, 4, 3)
            data = make_dataset((rng.random((5, 4)) < 0.5).astype(int))
            assert exact_log_likelihood(RbmParams(W, b, c), data) <= 0.0


class TestExactGradient:
    def test_uniform_model_full_space_has_zero_gradient(self):
        p = zero_params(2, 1)
        data = make_dataset([[0, 0], [0, 1], [1, 0], [1, 1]])
        grad = exact_gradient(p, data)
        np.testing.assert_allclose(grad.dW, 0.0, atol=1e-12)
        np.testing.assert_allclose(grad.db, 0.0, atol=1e-12)
        np.testing.assert_allclose(grad.dc, 0.0, atol=1e-12)

    def test_single_sample_bias_gradient(self):
        p = zero_params(2, 1)
        grad = exact_gradient(p, make_dataset([[1, 1]]))
        np.testing.assert_allclose(grad.db, [0.5, 0.5], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            V = int(rng.integers(2, 5))
            H = int(rng.integers(1, 4))
            W, b, c = oracles.random_params(rng, V, H, scale=0.6)
            params = RbmParams(W, b, c)
            data = make_dataset((rng.random((4, V)) < 0.5).astype(int))
            grad = exact_gradient(params, data)
            dW, db, dc = finite_difference_gradient(params, data)
            np.testing.assert_allclose(grad.dW, dW, atol=1e-6)
            np.testing.assert_allclose(grad.db, db, atol=1e-6)
            np.testing.assert_allclose(grad.dc, dc, atol=1e-6)

    def test_infeasible_visible_layer_rejected(self):
        p = zero_params(22, 2)
        with pytest.raises(EnumerationInfeasibleError):
            exact_gradient(p, make_dataset(np.zeros((1, 22), dtype=int)))


def model_stack(V, H, R=3, seed=9):
    """R models with different random weights and biases, and their RunBatch stack."""
    rng = np.random.default_rng(seed)
    models = [RbmParams(*oracles.random_params(rng, V, H)) for _ in range(R)]
    return models, RunBatch(models, np.zeros((1, V)), [rng] * R)


class TestStackedForms:
    """A stack of R models gives each model's values, bit for bit."""

    @pytest.mark.parametrize(
        "V, H, layer",
        [(16, 8, None), (6, 9, None), (17, 2, "visible")],
        ids=["hidden-enumeration", "visible-enumeration", "17-bit-multi-block"],
    )
    def test_log_partition(self, V, H, layer):
        models, batch = model_stack(V, H)
        got = log_partition(batch, layer)
        assert got.shape == (3,)
        assert got.tolist() == [log_partition(p, layer) for p in models]

    def test_log_partition_takes_a_large_stack_in_groups(self):
        # 3 models of 2^17 states x 2 units exceed _STACK_ELEMENTS together,
        # so their blocks' temporaries are sized for groups of 2 runs
        sizes = []

        class RecordingWorkspace(Workspace):
            def __call__(self, name, shape, dtype=np.float64):
                sizes.append(math.prod(shape))
                return super().__call__(name, shape, dtype)

        models, batch = model_stack(17, 2)
        got = log_partition(batch, "visible", work=RecordingWorkspace())
        assert got.tolist() == [log_partition(p, "visible") for p in models]
        assert max(sizes) == _STACK_ELEMENTS == 2 * 2**16 * 2

    @pytest.mark.parametrize("shared_rows", [True, False])
    def test_marginal_and_reconstruction(self, shared_rows):
        models, _ = model_stack(16, 8)
        # the middle model saturates, so only its reconstruction guards fire
        models[1] = RbmParams(100 * models[1].W, 100 * models[1].b, 100 * models[1].c)
        batch = RunBatch(models, np.zeros((1, 16)), [np.random.default_rng(0)] * 3)
        rng = np.random.default_rng(10)
        X = (rng.random((5, 16)) < 0.5).astype(np.float64)
        Y = X if shared_rows else rng.random((3, 5, 16))
        got = log_unnormalized_marginal(batch, Y)
        assert got.shape == (3, 5)
        for r, p in enumerate(models):
            np.testing.assert_array_equal(got[r], log_unnormalized_marginal(p, Y if shared_rows else Y[r]))
        means, guarded = mean_reconstruction_log_prob(batch, X)
        alone = [mean_reconstruction_log_prob(p, X) for p in models]
        assert means.tolist() == [mean for mean, _ in alone]
        assert guarded.tolist() == [n for _, n in alone]
        assert guarded[0] == guarded[2] == 0 < guarded[1]

    def test_single_model_gives_scalars(self):
        models, _ = model_stack(4, 3, R=1)
        mean, guarded = mean_reconstruction_log_prob(models[0], np.ones(4))
        assert type(log_partition(models[0])) is float
        assert type(mean) is float and type(guarded) is int
