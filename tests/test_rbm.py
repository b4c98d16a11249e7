import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdmonitor import rbm
from cdmonitor.rbm import (
    DimensionMismatchError,
    NonFiniteParameterError,
    RbmParams,
    hidden_conditional_mean,
    log_unnormalized_marginal,
    run_gibbs_chain,
    sample_bernoulli,
    visible_conditional_mean,
)

import oracles
from reference import chain_start, energy, run_gibbs_chain_per_round, unnormalized_marginal, zero_params
from test_roundtrips import PROPERTY
from test_training import count_calls


def tiny_params():
    return RbmParams(np.array(oracles.TINY_W), np.array(oracles.TINY_B), np.array(oracles.TINY_C))


@st.composite
def model_and_draws(draw):
    """One random model, a share of whose entries are +-800, which saturate
    every unit they reach, and a 0/1 [x; 1] and [1; h] for it, as bool.
    Drawn from a seed, so a failing example shrinks in a few steps."""
    V, H = draw(st.integers(1, 20)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W, b, c = (rng.uniform(-4.0, 4.0, shape) for shape in ((H, V), V, H))
    for a in (W, b, c):
        saturated = rng.random(a.shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        a[saturated] = np.copysign(800.0, a[saturated])
    x, h = np.ones(V + 1, dtype=bool), np.ones(H + 1, dtype=bool)
    x[:V], h[1:] = rng.random(V) < 0.5, rng.random(H) < 0.5
    return RbmParams(W, b, c), x, h


class TestRbmParams:
    def test_shape_consistency_enforced(self):
        with pytest.raises(DimensionMismatchError):
            RbmParams(np.zeros((2, 3)), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("W, b, c", [((2, 3, 1), (3,), (2,)), ((2, 3), (1, 3), (2,)), ((2, 3), (3,), ())])
    def test_layer_dimensions_enforced(self, W, b, c):
        with pytest.raises(DimensionMismatchError, match="expected W 2-d, b 1-d, c 1-d"):
            RbmParams(np.zeros(W), np.zeros(b), np.zeros(c))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteParameterError):
            RbmParams(np.array([[np.nan]]), np.zeros(1), np.zeros(1))
        with pytest.raises(NonFiniteParameterError):
            RbmParams(np.zeros((1, 1)), np.array([np.inf]), np.zeros(1))

    def test_layer_sizes(self):
        p = tiny_params()
        assert p.num_visible == 2 and p.num_hidden == 2

    def test_equality_is_identity(self):
        # a generated == would compare the arrays, whose result has no truth value
        p, q = tiny_params(), tiny_params()
        assert p == p and not p == q and p != q


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
        val = log_unnormalized_marginal(p, np.r_[y, 1.0])
        pre = p.c + p.W @ y
        expected = p.b @ y + np.sum(np.log1p(np.exp(pre)))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_log_domain_stable_for_large_preactivations(self):
        V, H = 3, 4
        big = RbmParams(np.zeros((H, V)), np.full(V, 700.0), np.full(H, 700.0))
        assert np.isfinite(log_unnormalized_marginal(big, np.ones(V + 1)))
        small = RbmParams(np.zeros((H, V)), np.full(V, -700.0), np.full(H, -700.0))
        assert np.isfinite(log_unnormalized_marginal(small, np.ones(V + 1)))

    def test_rows_of_more_dimensions_than_the_model_rejected(self):
        # one model takes a (V+1,) vector or a (V+1, N) block; (R, V+1, N)
        # blocks need a stack of R
        p = RbmParams(*oracles.random_params(np.random.default_rng(4), 6, 3))
        with pytest.raises(DimensionMismatchError, match=r"\(V\+1,\), \(V\+1, N\) or.*\(R, V\+1, N\)"):
            log_unnormalized_marginal(p, np.zeros((3, 7, 4)))


class TestConditionals:
    def test_all_zero_params_give_half(self):
        p = zero_params(6, 4)
        # [x; 1] and [1; h] carry each layer's always-on unit
        np.testing.assert_array_equal(hidden_conditional_mean(p, np.ones(7)), np.full(4, 0.5))
        np.testing.assert_array_equal(visible_conditional_mean(p, np.ones(5)), np.full(6, 0.5))

    def test_saturation_without_overflow(self):
        p = RbmParams(np.zeros((3, 2)), np.zeros(2), np.full(3, 40.0))
        m = hidden_conditional_mean(p, np.ones(3))
        assert np.all(np.abs(m - 1.0) <= 1e-15)

        neg = RbmParams(np.full((2, 3), -30.0), np.zeros(3), np.zeros(2))
        v = visible_conditional_mean(neg, np.ones(3))
        assert np.all(v <= 1e-15)

    def test_hidden_mean_matches_enumeration(self):
        p = tiny_params()
        x = [1.0, 0.0]
        expected = oracles.prob_h_given_x(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, x)
        np.testing.assert_allclose(hidden_conditional_mean(p, np.array(x + [1.0])), expected, rtol=1e-10)

    def test_visible_mean_matches_enumeration(self):
        p = tiny_params()
        h = [1.0, 1.0]
        expected = oracles.prob_x_given_h(oracles.TINY_W, oracles.TINY_B, oracles.TINY_C, h)
        np.testing.assert_allclose(visible_conditional_mean(p, np.array([1.0] + h)), expected, rtol=1e-10)

    def test_conditional_factorization(self):
        # P(h|x) from the joint equals the product of per-unit Bernoullis
        rng = np.random.default_rng(9)
        W, b, c = oracles.random_params(rng, 4, 3)
        p = RbmParams(W, b, c)
        x = [1.0, 0.0, 1.0, 1.0]
        means = hidden_conditional_mean(p, np.array(x + [1.0]))
        for h in oracles.all_bits(3):
            joint = oracles.joint_prob_of_h_given_x(W, b, c, x, h)
            factorized = np.prod([m if bit else 1 - m for m, bit in zip(means, h)])
            assert joint == pytest.approx(factorized, rel=1e-10)

    def test_dimension_mismatch(self):
        # a vector without the always-on unit, rows given row-major, or a
        # stack of such blocks; the message names every form taken
        expected = r"expected \(3,\), \(3, N\) or, for a stack, \(\.\.\., 3, N\): .*always-on unit"
        for mean in (hidden_conditional_mean, visible_conditional_mean):
            assert mean(tiny_params(), np.zeros((2, 3, 4))).shape == (2, 2, 4)
            for v in (np.zeros(2), np.zeros(4), np.zeros((4, 2)), np.zeros((2, 4, 2))):
                with pytest.raises(DimensionMismatchError, match=expected):
                    mean(tiny_params(), v)

    @PROPERTY
    @given(model_and_draws(), st.sampled_from([bool, np.float64, np.int64]))
    def test_vector_means_are_matmul_on_floats_bit_for_bit(self, drawn, dtype):
        # one model times one vector is ndarray.dot on the vector as given;
        # its bits are those of np.matmul on the float vector, for saturated
        # units too, and into out or with pre alike
        params, x, h = drawn
        with np.errstate(over="ignore"):
            for mean, operand, v in (
                (hidden_conditional_mean, params.neg_hidden, x),
                (visible_conditional_mean, params.neg_visible, h),
            ):
                want = np.reciprocal(np.exp(np.matmul(operand, v.astype(np.float64))) + 1.0)
                assert mean(params, v.astype(dtype)).tobytes() == want.tobytes()
                out = np.empty(len(want))
                assert mean(params, v.astype(dtype), out=out) is out and out.tobytes() == want.tobytes()
            pre = np.empty(params.num_hidden)
            hidden_conditional_mean(params, x.astype(dtype), pre=pre)
        assert pre.tobytes() == np.negative(np.matmul(params.neg_hidden, x.astype(np.float64))).tobytes()

    def test_pre_of_a_vector(self):
        # pre of a vector [x; 1] is the (H,) pre-activation c + Wx, which
        # the marginal then takes in place of its own
        p = RbmParams(*oracles.random_params(np.random.default_rng(3), 4, 3))
        x = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        pre = np.empty(3)
        hidden_conditional_mean(p, x, pre=pre)
        np.testing.assert_allclose(pre, p.c + p.W @ x[:4], rtol=1e-12)
        assert log_unnormalized_marginal(p, x, pre=pre) == pytest.approx(log_unnormalized_marginal(p, x), rel=1e-12)
        with pytest.raises(ValueError):
            hidden_conditional_mean(p, x, pre=np.empty((3, 1)))


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

    @pytest.mark.parametrize(
        "mean",
        [
            np.zeros((5, 4)),
            np.ones((5, 4)),
            np.array([0.0, 1.0, 0.25, 0.5]),  # broadcast over u's rows
            0.3,  # broadcast over all of u
            np.random.default_rng(6).random((5, 4)),
        ],
    )
    def test_bool_out_gives_the_float_draws(self, mean):
        u = np.random.default_rng(5).random((5, 4))
        u[0, 0], u[1, 2] = 0.0, 0.25  # a zero uniform and one equal to its mean
        kept = u.copy()
        out = np.empty(u.shape, dtype=bool)
        got = sample_bernoulli(mean, u, out=out)
        assert got is out
        assert u.tobytes() == kept.tobytes()
        want = sample_bernoulli(mean, kept)
        assert got.astype(np.float64).tobytes() == want.tobytes()


class TestGibbsChain:
    """The sampler's single-vector chain, from a bool [x; 1] start state;
    the batched chain is the reference's."""

    def test_saturated_hidden_units(self):
        # every hidden draw is all ones, so the chain caches one visible mean
        p = RbmParams(np.zeros((3, 4)), np.zeros(4), np.full(3, 50.0))
        means = {}
        run_gibbs_chain(p, chain_start([0, 0, 0, 0]), 5, np.random.default_rng(3), means, {})
        assert list(means) == [np.ones(3, dtype=bool).tobytes()]

    def test_length_contract(self):
        visibles = run_gibbs_chain(tiny_params(), chain_start([1, 0]), 1, np.random.default_rng(4), {}, {})
        assert visibles.shape == (1, 3)

    def test_samples_are_binary(self):
        # bool [x; 1] rows, the always-on unit set in each
        visibles = run_gibbs_chain(tiny_params(), chain_start([1, 0]), 7, np.random.default_rng(5), {}, {})
        assert visibles.dtype == bool
        assert visibles[:, -1].all()

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
        chain = run_gibbs_chain_per_round(p, X1, 1, np.random.default_rng(6))
        x2s = chain.x_last
        tv = 0.0
        for state, prob in truth.items():
            emp = np.mean(np.all(x2s == np.array(state), axis=1))
            tv += abs(emp - prob)
        assert tv / 2 <= 0.02

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_draw_goes_through_sample_bernoulli(self, monkeypatch, n):
        calls = count_calls(monkeypatch, "sample_bernoulli")
        p = RbmParams(*oracles.random_params(np.random.default_rng(8), 5, 3))
        run_gibbs_chain(p, chain_start(np.zeros(5)), n, np.random.default_rng(9), {}, {})
        assert calls == [(3,), (5,)] * n

    def test_means_take_the_bool_draws(self, monkeypatch):
        # the chain hands its bool x and h to the public means uncast, which
        # multiply them as given (see the bit-for-bit vector means test)
        seen = []

        def recording(name):
            original = getattr(rbm, name)

            def record(params, v, *args, **kwargs):
                seen.append((name, v.dtype, v.shape))
                return original(params, v, *args, **kwargs)

            monkeypatch.setattr(rbm, name, record)

        recording("hidden_conditional_mean")
        recording("visible_conditional_mean")
        p = RbmParams(*oracles.random_params(np.random.default_rng(8), 5, 3))
        got = run_gibbs_chain(p, chain_start(np.zeros(5)), 6, np.random.default_rng(9), {}, {})
        assert {name for name, _, _ in seen} == {"hidden_conditional_mean", "visible_conditional_mean"}
        # [x; 1] and [1; h], with their always-on units
        assert all(dtype == bool and shape in {(4,), (6,)} for _, dtype, shape in seen)
        want = run_gibbs_chain_per_round(p, np.zeros(5), 6, np.random.default_rng(9)).visibles
        assert got[:, :-1].astype(np.float64).tobytes() == want.tobytes()

    def test_identical_seeds_identical_chains(self):
        p = tiny_params()
        x1 = chain_start([0, 1])
        a = run_gibbs_chain(p, x1, 20, np.random.default_rng(42), {}, {})
        b = run_gibbs_chain(p, x1, 20, np.random.default_rng(42), {}, {})
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("batch", [(), (6,)])
    def test_bulk_draws_equal_per_round_draws_bit_for_bit(self, n, batch):
        # one generator call for every round's uniforms gives the doubles of
        # one call per draw, in the same order: hidden, then visible, per
        # round; a batch runs one chain per start row in turn, all of them
        # sharing one generator and both caches
        rng = np.random.default_rng(21)
        p = RbmParams(*oracles.random_params(rng, 6, 4))
        x1 = rng.integers(0, 2, size=(*batch, 6)).astype(np.float64)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        means, hidden_means = {}, {}
        for row in x1.reshape(-1, 6):
            got = run_gibbs_chain(p, chain_start(row), n, got_rng, means, hidden_means)
            want = run_gibbs_chain_per_round(p, row, n, want_rng).visibles
            assert got.shape == (n, 7) and want.shape == (n, 6)
            assert got[:, :-1].astype(np.float64).tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()
