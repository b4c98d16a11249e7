import numpy as np
import pytest

from cdmonitor.rbm import (
    DimensionMismatchError,
    GibbsChain,
    NonFiniteParameterError,
    RbmParams,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    sample_bernoulli,
    visible_conditional_mean,
)

import oracles
from reference import energy, run_gibbs_chain_per_round, unnormalized_marginal, zero_params
from test_training import count_calls


def tiny_params():
    return RbmParams(np.array(oracles.TINY_W), np.array(oracles.TINY_B), np.array(oracles.TINY_C))


class TestRbmParams:
    def test_shape_consistency_enforced(self):
        with pytest.raises(DimensionMismatchError):
            RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteParameterError):
            RbmParams(np.array([[np.nan]]), np.zeros(1), np.zeros(1))
        with pytest.raises(NonFiniteParameterError):
            RbmParams(np.zeros((1, 1)), np.array([np.inf]), np.zeros(1))

    def test_layer_sizes(self):
        p = tiny_params()
        assert p.num_visible == 2 and p.num_hidden == 2


class TestEnergy:
    def test_all_zero_params(self):
        p = zero_params(4, 3)
        rng = np.random.default_rng(0)
        x = (rng.random(4) < 0.5).astype(float)
        h = (rng.random(3) < 0.5).astype(float)
        assert energy(p, x, h) == 0.0

    def test_single_interaction_term(self):
        p = RbmParams(np.array([[1.0]]), np.array([0.0]), np.array([0.0]))
        assert energy(p, np.array([1.0]), np.array([1.0])) == -1.0

    def test_tiny_model_against_scalar_loop_oracle(self):
        p = tiny_params()
        x, h = [1.0, 1.0], [1.0, 0.0]
        expected = oracles.energy_loops(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, x, h)
        got = energy(p, np.array(x), np.array(h))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_random_models_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            W, b, c = oracles.random_params(rng, 4, 3)
            p = RbmParams(W, b, c)
            x = (rng.random(4) < 0.5).astype(float)
            h = (rng.random(3) < 0.5).astype(float)
            assert energy(p, x, h) == pytest.approx(
                oracles.energy_loops(W, b, c, list(x), list(h)), rel=1e-12, abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            energy(tiny_params(), np.zeros(3), np.zeros(2))

    def test_batched_rows_equal_per_sample(self):
        p = tiny_params()
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = np.array([[1.0, 1.0], [0.0, 1.0]])
        batched = energy(p, X, H)
        singles = [energy(p, X[i], H[i]) for i in range(2)]
        np.testing.assert_array_equal(batched, singles)


class TestUnnormalizedMarginal:
    def test_all_zero_params_is_two_to_the_h(self):
        x = np.zeros(5)
        assert unnormalized_marginal(zero_params(5, 8), x) == pytest.approx(256.0, rel=1e-12)
        assert unnormalized_marginal(zero_params(5, 10), x) == pytest.approx(1024.0, rel=1e-12)

    def test_tiny_model_equals_hidden_enumeration(self):
        p = tiny_params()
        x = [1.0, 1.0]
        expected = oracles.marginal_weight(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, x)
        assert unnormalized_marginal(p, np.array(x)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.837180251012873, rel=1e-12)

    def test_marginalization_identity_random_models(self):
        # hidden-sum identity, layers up to 12 units
        rng = np.random.default_rng(5)
        for sizes in [(3, 2), (5, 7), (12, 3), (2, 12), (6, 6)]:
            V, H = sizes
            W, b, c = oracles.random_params(rng, V, H)
            p = RbmParams(W, b, c)
            x = (rng.random(V) < 0.5).astype(float)
            expected = oracles.marginal_weight(W, b, c, list(x))
            got = unnormalized_marginal(p, x)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_real_valued_input_accepted(self):
        # probe vectors are conditional means, not samples
        p = tiny_params()
        y = np.array([0.3, 0.8])
        val = log_unnormalized_marginal(p, y)
        pre = p.c + p.W @ y
        expected = p.b @ y + np.sum(np.log1p(np.exp(pre)))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_log_domain_stable_for_large_preactivations(self):
        V, H = 3, 4
        big = RbmParams(np.zeros((H, V)), np.full(V, 700.0), np.full(H, 700.0))
        assert np.isfinite(log_unnormalized_marginal(big, np.ones(V)))
        small = RbmParams(np.zeros((H, V)), np.full(V, -700.0), np.full(H, -700.0))
        assert np.isfinite(log_unnormalized_marginal(small, np.ones(V)))


class TestConditionals:
    def test_all_zero_params_give_half(self):
        p = zero_params(6, 4)
        np.testing.assert_array_equal(hidden_conditional_mean(p, np.ones(6)), np.full(4, 0.5))
        np.testing.assert_array_equal(visible_conditional_mean(p, np.ones(4)), np.full(6, 0.5))

    def test_saturation_without_overflow(self):
        p = RbmParams(np.zeros((3, 2)), np.zeros(2), np.full(3, 40.0))
        m = hidden_conditional_mean(p, np.ones(2))
        assert np.all(np.abs(m - 1.0) <= 1e-15)

        neg = RbmParams(np.full((2, 3), -30.0), np.zeros(3), np.zeros(2))
        v = visible_conditional_mean(neg, np.ones(2))
        assert np.all(v <= 1e-15)

    def test_hidden_mean_matches_enumeration(self):
        p = tiny_params()
        x = [1.0, 0.0]
        expected = oracles.prob_h_given_x(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, x)
        np.testing.assert_allclose(hidden_conditional_mean(p, np.array(x)), expected, rtol=1e-10)

    def test_visible_mean_matches_enumeration(self):
        p = tiny_params()
        h = [1.0, 1.0]
        expected = oracles.prob_x_given_h(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, h)
        np.testing.assert_allclose(visible_conditional_mean(p, np.array(h)), expected, rtol=1e-10)

    def test_conditional_factorization(self):
        # P(h|x) from the joint equals the product of per-unit Bernoullis
        rng = np.random.default_rng(9)
        W, b, c = oracles.random_params(rng, 4, 3)
        p = RbmParams(W, b, c)
        x = [1.0, 0.0, 1.0, 1.0]
        means = hidden_conditional_mean(p, np.array(x))
        for h in oracles.all_bits(3):
            joint = oracles.joint_prob_of_h_given_x(W, b, c, x, h)
            factorized = np.prod([m if bit else 1 - m for m, bit in zip(means, h)])
            assert joint == pytest.approx(factorized, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            visible_conditional_mean(tiny_params(), np.zeros(3))


class TestSampleBernoulli:
    def test_degenerate_means(self):
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(sample_bernoulli(np.zeros(8), rng.random(8)), np.zeros(8))
        np.testing.assert_array_equal(sample_bernoulli(np.ones(8), rng.random(8)), np.ones(8))

    def test_empirical_frequency(self):
        draws = sample_bernoulli(np.full((100_000, 4), 0.5), np.random.default_rng(2).random((100_000, 4)))
        freq = draws.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) <= 0.01)

    def test_deterministic_given_state(self):
        a = sample_bernoulli(np.full(64, 0.5), np.random.default_rng(7).random(64))
        b = sample_bernoulli(np.full(64, 0.5), np.random.default_rng(7).random(64))
        np.testing.assert_array_equal(a, b)

    def test_a_draw_is_a_uniform_below_its_mean(self):
        u = np.array([0.1, 0.5, 0.9, 0.3])
        np.testing.assert_array_equal(sample_bernoulli(np.array([0.2, 0.5, 0.95, 0.0]), u), [1.0, 0.0, 1.0, 0.0])

    def test_result_is_u_itself(self):
        u = np.random.default_rng(3).random((5, 3))
        want = (u < [0.2, 0.5, 0.8]).astype(np.float64)
        got = sample_bernoulli(np.array([0.2, 0.5, 0.8]), u)
        assert got is u
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_scalar_mean_broadcasts(self):
        u = np.random.default_rng(4).random((6, 4))
        want = (u < 0.3).astype(np.float64)
        assert sample_bernoulli(0.3, u).tobytes() == want.tobytes()


class TestGibbsChain:
    def test_saturated_hidden_units(self):
        p = RbmParams(np.zeros((3, 4)), np.zeros(4), np.full(3, 50.0))
        chain = run_gibbs_chain(p, np.zeros(4), 5, np.random.default_rng(3))
        np.testing.assert_array_equal(chain.hiddens, np.ones((5, 3)))

    def test_length_contract(self):
        p = tiny_params()
        chain = run_gibbs_chain(p, np.array([1.0, 0.0]), 1, np.random.default_rng(4))
        assert chain.n == 1
        assert chain.hiddens.shape == (1, 2)
        assert chain.visibles.shape == (1, 2)
        np.testing.assert_array_equal(chain.h1, chain.hiddens[0])
        np.testing.assert_array_equal(chain.x_last, chain.visibles[-1])
        with pytest.raises(ValueError):
            run_gibbs_chain(p, np.array([1.0, 0.0]), 0, np.random.default_rng(4))

    def test_samples_are_binary(self):
        p = tiny_params()
        chain = run_gibbs_chain(p, np.array([1.0, 0.0]), 7, np.random.default_rng(5))
        assert np.isin(chain.hiddens, (0.0, 1.0)).all()
        assert np.isin(chain.visibles, (0.0, 1.0)).all()

    def test_one_step_transition_distribution(self):
        # empirical P(x2 | x1) vs the enumerated kernel, total variation <= 0.02
        W, b, c = oracles.TINY_W, oracles.TINY_B, oracles.TINY_C
        p = tiny_params()
        x1 = [1.0, 0.0]
        truth = {}
        ph = oracles.prob_h_given_x(W, b, c, x1)
        for x2 in oracles.all_bits(2):
            total = 0.0
            for h in oracles.all_bits(2):
                p_h = np.prod([m if bit else 1 - m for m, bit in zip(ph, h)])
                px = oracles.prob_x_given_h(W, b, c, h)
                p_x2 = np.prod([m if bit else 1 - m for m, bit in zip(px, x2)])
                total += p_h * p_x2
            truth[tuple(x2)] = total

        n_chains = 100_000
        X1 = np.tile(np.array(x1), (n_chains, 1))
        chain = run_gibbs_chain(p, X1, 1, np.random.default_rng(6))
        x2s = chain.x_last
        tv = 0.0
        for state, prob in truth.items():
            emp = np.mean(np.all(x2s == np.array(state), axis=1))
            tv += abs(emp - prob)
        assert tv / 2 <= 0.02

    def test_h1_mean_is_round_one_hidden_mean_bit_for_bit(self):
        rng = np.random.default_rng(8)
        p = RbmParams(*oracles.random_params(rng, 5, 3))
        single = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        batch = rng.integers(0, 2, size=(7, 5)).astype(np.float64)
        for x1 in (single, batch):
            chain = run_gibbs_chain(p, x1, 3, np.random.default_rng(9))
            want = hidden_conditional_mean(p, x1)
            assert chain.h1_mean.shape == want.shape == (*x1.shape[:-1], 3)
            assert chain.h1_mean.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_draw_goes_through_sample_bernoulli(self, monkeypatch, n):
        calls = count_calls(monkeypatch, "sample_bernoulli")
        p = RbmParams(*oracles.random_params(np.random.default_rng(8), 5, 3))
        run_gibbs_chain(p, np.zeros((7, 5)), n, np.random.default_rng(9))
        assert calls == [(7, 3), (7, 5)] * n

    def test_identical_seeds_identical_chains(self):
        p = tiny_params()
        x1 = np.array([0.0, 1.0])
        a = run_gibbs_chain(p, x1, 20, np.random.default_rng(42))
        b = run_gibbs_chain(p, x1, 20, np.random.default_rng(42))
        np.testing.assert_array_equal(a.hiddens, b.hiddens)
        np.testing.assert_array_equal(a.visibles, b.visibles)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("batch", [(), (6,)])
    def test_bulk_draws_equal_per_round_draws_bit_for_bit(self, n, batch):
        # one generator call for every round's uniforms gives the doubles of
        # one call per draw, in the same order: hidden, then visible, per round
        rng = np.random.default_rng(21)
        p = RbmParams(*oracles.random_params(rng, 6, 4))
        x1 = rng.integers(0, 2, size=(*batch, 6)).astype(np.float64)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = run_gibbs_chain(p, x1, n, got_rng)
        want = run_gibbs_chain_per_round(p, x1, n, want_rng)
        for name in ("h1_mean", "hiddens", "visibles"):
            assert getattr(got, name).shape == getattr(want, name).shape
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got_rng.random() == want_rng.random()
