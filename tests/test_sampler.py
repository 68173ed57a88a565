"""Tests for adaptive sampling, re-weighting, and the estimator oracles.

The estimator checks use exhaustive expectations: with K candidates the
sampled-index distribution is finite, so E[G], E[||G||^2] and the expected
one-step progress can be summed directly and compared against the closed
forms.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasample.errors import DegenerateDistributionError
from adasample.sampler import (SamplerConfig, adaptive_exponent,
                               categorical_sample, expected_rectification,
                               optimal_probs, positive_probs, reweights,
                               trace_variance, unbiased_weights,
                               update_loss_avg)
from row_counts import COUNT_MODES, draw_counts

CFG = SamplerConfig()
# 0.5 and 2.0 are the powers numpy takes with sqrt and square when raised
# to a scalar; the kernels raise to one exponent per row.
EXPONENTS = [0.0, 0.5, 2.0, 7.3, 50.0]


def scalar_positive_probs(d, exponent):
    """One candidate vector at a time: the oracle for positive_probs."""
    d = np.asarray(d, dtype=np.float64)
    d_max = float(d.max())
    if exponent == 0.0 or d_max == 0.0:
        return np.full(d.size, 1.0 / d.size)
    # An exponent array, as the kernel raises each row to its own exponent:
    # numpy raises to a scalar 2 or 0.5 with square or sqrt, whose last bit
    # may differ from the elementwise power's.
    scaled = (d / d_max) ** np.full(d.size, exponent)
    return scaled / scaled.sum()


def scalar_categorical_sample(probs, u):
    """One probability vector and one uniform at a time: the oracle for
    categorical_sample."""
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def one_row_probs(d, exponent):
    """positive_probs of one candidate vector, every column real."""
    d = np.asarray(d, dtype=np.float64)
    return positive_probs(d[None], np.array([exponent]),
                          np.array([d.size]))[0]


def one_row_sample(probs, u):
    """categorical_sample of one probability vector, every column real."""
    probs = np.asarray(probs, dtype=np.float64)
    return int(categorical_sample(probs[None], np.array([u]),
                                  np.array([probs.size]))[0])


class TestLossAverage:
    def test_first_observation_initializes(self):
        assert update_loss_avg(None, 2.0, CFG) == 2.0

    def test_fixed_point(self):
        assert update_loss_avg(1.0, 1.0, CFG) == pytest.approx(1.0)

    def test_ema_arithmetic(self):
        cfg = SamplerConfig(ema_decay=0.9)
        assert update_loss_avg(1.0, 0.0, cfg) == pytest.approx(0.9)

    @pytest.mark.parametrize("loss", [-0.1, np.nan, np.inf])
    def test_negative_loss_rejected(self, loss):
        """Negative and non-finite losses, with and without an average."""
        for l_avg in (None, 1.0):
            with pytest.raises(ValueError, match="finite and >= 0"):
                update_loss_avg(l_avg, loss, CFG)


class TestAdaptiveExponent:
    def test_default_lambda_over_unit_loss(self):
        assert adaptive_exponent(1.0, SamplerConfig(lambda_=10.0)) == 10.0

    def test_zero_lambda_means_uniform(self):
        assert adaptive_exponent(0.7, SamplerConfig(lambda_=0.0)) == 0.0

    def test_cap_engages_for_tiny_loss(self):
        assert adaptive_exponent(1e-9, SamplerConfig(lambda_=10.0)) == 50.0

    def test_infinite_lambda_pins_to_cap(self):
        assert adaptive_exponent(3.0, SamplerConfig(lambda_=np.inf)) == 50.0

    @pytest.mark.parametrize("lam", [0.0, 10.0, np.inf])
    def test_uniform_before_first_observation(self, lam):
        assert adaptive_exponent(None, SamplerConfig(lambda_=lam)) == 0.0


class TestPositiveProbs:
    def test_equal_distances_are_uniform(self):
        for e in (0.0, 1.0, 17.0):
            np.testing.assert_allclose(one_row_probs(np.ones(3), e), 1 / 3)

    def test_linear_proportionality(self):
        np.testing.assert_allclose(one_row_probs(np.array([0.5, 1.0]), 1.0),
                                   [1 / 3, 2 / 3], atol=1e-15)

    def test_large_exponent_concentrates_on_argmax(self):
        p = one_row_probs(np.array([0.5, 1.0]), 50.0)
        assert p[1] > 1.0 - 1e-10

    def test_zero_exponent_and_zero_distances_fall_back_to_uniform(self):
        np.testing.assert_allclose(one_row_probs(np.zeros(4), 9.0), 0.25)
        np.testing.assert_allclose(one_row_probs(np.array([0.2, 0.4]), 0.0),
                                   0.5)

    def test_probabilities_are_normalized_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.uniform(0, np.pi, size=rng.integers(1, 9))
            e = rng.uniform(0, 60)
            p = one_row_probs(d, e)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_extreme_exponent_is_numerically_stable(self):
        p = one_row_probs(np.array([1e-7, 2e-7, 3e-7]), 50.0)
        assert np.all(np.isfinite(p))
        assert p[2] > 1.0 - 1e-8

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            one_row_probs(np.array([0.1, -0.2]), 1.0)


class TestReweights:
    def test_equal_distances_give_unit_weights(self):
        w, clamped = reweights(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(w, 1.0)
        assert not clamped

    def test_inverse_distance_normalized_to_mean_one(self):
        w, _ = reweights(np.array([[0.5, 1.0]]))
        np.testing.assert_allclose(w[0], [4 / 3, 2 / 3], atol=1e-15)

    def test_scale_invariance(self):
        for c in (1e-3, 0.7, 42.0):
            w, _ = reweights(np.full((1, 5), c))
            np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_tiny_distances_clamped_and_flagged(self):
        """``clamped`` counts the batches (rows) holding a clamped
        distance; each row keeps mean 1."""
        w, clamped = reweights(np.array([[1e-9, 1.0], [0.5, 1.0]]))
        assert clamped == 1
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.mean(axis=1), 1.0)


class TestCategoricalSample:
    def test_single_outcome(self):
        rng = np.random.default_rng(0)
        assert all(one_row_sample(np.array([1.0]), rng.random()) == 0
                   for _ in range(20))

    def test_degenerate_mass(self):
        rng = np.random.default_rng(0)
        assert all(one_row_sample(np.array([0.0, 1.0, 0.0]),
                                  rng.random()) == 1
                   for _ in range(200))

    def test_empirical_frequency(self):
        rng = np.random.default_rng(123)
        draws = categorical_sample(np.tile([0.3, 0.7], (100_000, 1)),
                                   rng.random(100_000), np.full(100_000, 2))
        assert abs(draws.mean() - 0.7) < 0.01

    def test_unnormalized_probs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="sum to 1"):
            one_row_sample(np.array([0.5, 0.6]), rng.random())

    def test_deterministic_given_rng_state(self):
        p = np.array([0.2, 0.5, 0.3])
        u = np.random.default_rng(9).random(5)
        a = [one_row_sample(p, x) for x in u]
        b = categorical_sample(np.tile(p, (5, 1)), u, np.full(5, 3))
        assert a == b.tolist()


class TestMaskedRows:
    """The 2-D masked kernels against their one-vector oracles."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(1, 30), width=st.integers(1, 16),
           counts_mode=st.sampled_from(COUNT_MODES),
           exponent=st.sampled_from(EXPONENTS),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=9, width=7, counts_mode="one_below_width", exponent=7.3,
             seed=5)
    def test_rows_equal_scalar_oracles(self, n, width, counts_mode, exponent,
                                       seed):
        """Each row raised to its own exponent, as a lockstep step's rows
        are: ``exponent`` on most rows, another of the set on the rest."""
        rng = np.random.default_rng(seed)
        counts = draw_counts(rng, n, width, counts_mode)
        d = rng.uniform(0, np.pi, size=(n, width))
        d[rng.random(n) < 0.2] = 0.0            # rows of identical patches
        d[np.arange(width) >= counts[:, None]] = rng.uniform(5, 9)  # pads
        exponents = np.where(rng.random(n) < 0.3, rng.choice(EXPONENTS, n),
                             exponent)
        probs = positive_probs(d, exponents, counts)
        u = rng.random(n)
        picks = categorical_sample(probs, u, counts)
        for i, m in enumerate(counts):
            want = scalar_positive_probs(d[i, :m], exponents[i])
            np.testing.assert_array_equal(probs[i, :m], want)
            assert np.all(probs[i, m:] == 0.0)
            assert picks[i] == scalar_categorical_sample(want, u[i])

    def test_identical_patches_sample_uniformly(self):
        """A row whose real distances are all 0 is uniform over its own
        candidates, whatever the exponent and the pad values."""
        d = np.array([[0.0, 0.0, 0.0, 3.0, 3.0],
                      [0.2, 0.4, 0.1, 0.3, 0.5]])
        probs = positive_probs(d, np.full(2, 50.0), np.array([3, 5]))
        np.testing.assert_array_equal(probs[0], [1 / 3, 1 / 3, 1 / 3, 0, 0])
        assert probs[1, 4] > 0.99

    def test_single_candidate_is_forced(self):
        """k = 2 leaves one candidate: probability 1, picked for any u."""
        d = np.array([[0.7, 0.0, 0.0], [0.2, 0.9, 0.4]])
        counts = np.array([1, 3])
        probs = positive_probs(d, np.full(2, 10.0), counts)
        assert probs[0].tolist() == [1.0, 0.0, 0.0]
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert categorical_sample(probs, np.array([u, 0.0]),
                                      counts)[0] == 0

    def test_uniform_above_last_cdf_clamps_to_last_real_column(self):
        """Rows summing to just below 1: a uniform above the row's last
        CDF value picks the last real column, never a pad."""
        short = 1.0 - 4e-10
        probs = np.array([[0.5, short - 0.5, 0.0, 0.0],
                          [0.25, 0.25, 0.25, short - 0.75],
                          [short, 0.0, 0.0, 0.0]])
        counts = np.array([2, 4, 1])
        u = np.full(3, 1.0 - 1e-10)
        assert categorical_sample(probs, u, counts).tolist() == [1, 3, 0]
        assert one_row_sample(probs[0, :2], u[0]) == 1

    def test_scalar_path_checks_hold_per_row(self):
        counts = np.array([2, 1])
        ones = np.ones(2)
        d = np.array([[0.1, 0.2], [0.3, np.nan]])     # NaN in a pad: fine
        positive_probs(d, ones, counts)
        full = np.array([2, 2])
        with pytest.raises(ValueError, match="finite"):
            positive_probs(d, ones, full)
        with pytest.raises(ValueError, match="nonnegative"):
            positive_probs(np.array([[0.1, 0.2], [0.3, -1.0]]), ones, full)
        with pytest.raises(ValueError, match="exponent"):
            positive_probs(np.ones((2, 2)), np.array([1.0, -1.0]), full)
        with pytest.raises(ValueError, match="one exponent per row"):
            positive_probs(np.ones((2, 2)), 1.0, full)
        with pytest.raises(ValueError, match="counts"):
            positive_probs(np.ones((2, 2)), ones, np.array([0, 2]))
        with pytest.raises(ValueError, match="2-D"):
            positive_probs(np.ones(2), ones[:1], np.array([2]))
        with pytest.raises(ValueError, match="sum to 1"):
            categorical_sample(np.array([[0.5, 0.5], [0.5, 0.6]]),
                               np.array([0.1, 0.1]), full)
        with pytest.raises(ValueError, match="nonnegative"):
            categorical_sample(np.array([[1.5, -0.5]]), np.array([0.1]),
                               full[:1])
        with pytest.raises(ValueError, match="one uniform per row"):
            categorical_sample(np.array([[0.5, 0.5]] * 2), np.array([0.1]),
                               full)
        with pytest.raises(ValueError, match="2-D"):
            categorical_sample(np.array([0.5, 0.5]), np.array([0.1]),
                               full[:1])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
    def test_empty_input_rejected_by_name(self, shape):
        """A draw over no rows or no columns is an error that says so, not
        a reduction's error."""
        rows = np.zeros(shape[0])
        with pytest.raises(ValueError, match="nonempty"):
            positive_probs(np.zeros(shape), rows + 1.0, rows.astype(int))
        with pytest.raises(ValueError, match="nonempty"):
            categorical_sample(np.zeros(shape), rows, rows.astype(int))
        with pytest.raises(ValueError, match="nonempty"):
            reweights(np.zeros(shape))


class TestOptimalProbs:
    def test_alpha_one_is_proportional_to_grad_norms(self):
        p = optimal_probs(np.array([5.0, 5.0]), np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(p, [3 / 7, 4 / 7], atol=1e-15)

    def test_alpha_two_closed_form(self):
        p = optimal_probs(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 2.0)
        np.testing.assert_allclose(p, [3 / 11, 8 / 11], atol=1e-15)

    def test_symmetric_inputs_give_uniform(self):
        p = optimal_probs(np.full(4, 2.0), np.full(4, 0.3), 3.0)
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_all_zero_mass_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            optimal_probs(np.array([1.0, 1.0]), np.zeros(2), 2.0)


class TestUnbiasedWeights:
    def test_plain_sgd_recovery(self):
        w = unbiased_weights(np.full(4, 0.25), np.array([1.0, 2.0, 3.0, 4.0]),
                             1.0, 4)
        np.testing.assert_allclose(w, 1.0, atol=1e-15)

    def test_closed_form_case(self):
        probs = np.array([3 / 11, 8 / 11])
        w = unbiased_weights(probs, np.array([1.0, 2.0]), 2.0, 2)
        np.testing.assert_allclose(w, [11 / 3, 11 / 4], atol=1e-12)

    def test_defining_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            K = int(rng.integers(2, 9))
            L = rng.uniform(0.1, 3.0, size=K)
            alpha = float(rng.uniform(1.0, 4.0))
            p = optimal_probs(L, rng.uniform(0.1, 2.0, size=K), alpha)
            w = unbiased_weights(p, L, alpha, K)
            np.testing.assert_allclose(p * w, (alpha / K) * L ** (alpha - 1),
                                       atol=1e-12)

    def test_zero_probability_with_mass_rejected(self):
        with pytest.raises(ZeroDivisionError):
            unbiased_weights(np.array([0.0, 1.0]), np.array([2.0, 2.0]), 2.0, 2)


def exhaustive_moments(probs, weights, grads):
    """E[G] and E[||G||^2] by direct summation over the K outcomes."""
    mean = np.zeros_like(grads[0])
    second = 0.0
    for p, w, g in zip(probs, weights, grads):
        mean = mean + p * (w * g)
        second += p * float((w * g) @ (w * g))
    return mean, second


class TestTraceVariance:
    def test_single_sample_has_no_variance(self):
        g = [np.array([1.0, -2.0])]
        assert trace_variance([1.0], [3.0], g) == pytest.approx(0.0)

    def test_identical_weighted_gradients_have_no_variance(self):
        grads = [np.array([2.0, 1.0]), np.array([1.0, 0.5])]
        # w * g identical: (1, 2) scaling
        tv = trace_variance([0.5, 0.5], [1.0, 2.0], grads)
        assert tv == pytest.approx(0.0, abs=1e-14)

    def test_matches_exhaustive_expectation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            K = 3
            grads = [rng.normal(size=5) for _ in range(K)]
            p = rng.dirichlet(np.ones(K))
            w = rng.uniform(0.2, 2.0, size=K)
            mean, second = exhaustive_moments(p, w, grads)
            expected = second - float(mean @ mean)
            assert trace_variance(p, w, grads) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_variance([0.5, 0.5], [1.0, 1.0],
                           [np.ones(3), np.ones(4)])


def formula_unbiased_weights(p, L, alpha, K):
    """The where-based division unbiased_weights used before its per-call
    overhead was cut: the bit-for-bit oracle."""
    target = (alpha / K) * L ** (alpha - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(p > 0.0, target / np.where(p > 0.0, p, 1.0), 0.0)


def formula_trace_variance(p, w, grads):
    """np.stack and np.sum form of trace_variance: the bit-for-bit oracle."""
    G = np.stack([np.asarray(g, dtype=np.float64).ravel() for g in grads])
    second_moment = float(np.sum(p * w * w * np.sum(G * G, axis=1)))
    mu = (p * w) @ G
    return second_moment - float(mu @ mu)


class TestOracleFormulas:
    def test_fast_paths_equal_the_formulas_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            K = int(rng.integers(1, 9))
            alpha = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            L = rng.uniform(0.0, 2.0, size=K)
            p = rng.dirichlet(np.ones(K))
            if alpha > 1.0:
                # zero probabilities are allowed where the target is 0
                zero = rng.random(K) < 0.2
                p[zero] = 0.0
                L[zero] = 0.0
            p[rng.random(K) < 0.1] *= -1.0
            w = unbiased_weights(p, L, alpha, K)
            assert np.array_equal(w, formula_unbiased_weights(p, L, alpha, K))
            dim = int(rng.integers(1, 7))
            grads = [rng.normal(size=dim) for _ in range(K)]
            assert trace_variance(p, w, grads) == formula_trace_variance(
                p, w, grads)


class TestExpectedRectification:
    def test_zero_gradients_give_zero(self):
        grads = [np.zeros(3), np.zeros(3)]
        r = expected_rectification(np.ones(3), np.zeros(3), 0.1,
                                   [0.5, 0.5], [1.0, 1.0], grads)
        assert r == 0.0

    def test_at_optimum_progress_is_nonpositive(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(3)]
        p = rng.dirichlet(np.ones(3))
        w = rng.uniform(0.5, 1.5, size=3)
        r = expected_rectification(theta, theta.copy(), 0.2, p, w, grads)
        mean, second = exhaustive_moments(p, w, grads)
        tv = second - float(mean @ mean)
        assert r <= 0
        assert r == pytest.approx(-0.04 * (float(mean @ mean) + tv), abs=1e-12)

    def test_matches_exhaustive_definition(self):
        """Agrees with -sum_i p_i (||t - eta w_i g_i - t*||^2 - ||t - t*||^2)."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            K = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            theta = rng.normal(size=dim)
            theta_star = rng.normal(size=dim)
            eta = float(rng.uniform(0.01, 0.5))
            grads = [rng.normal(size=dim) for _ in range(K)]
            p = rng.dirichlet(np.ones(K))
            w = rng.uniform(0.2, 2.0, size=K)
            exhaustive = -sum(
                pi * (np.linalg.norm(theta - eta * wi * gi - theta_star) ** 2
                      - np.linalg.norm(theta - theta_star) ** 2)
                for pi, wi, gi in zip(p, w, grads))
            r = expected_rectification(theta, theta_star, eta, p, w, grads)
            assert r == pytest.approx(exhaustive, abs=1e-10)


class TestEstimatorProperties:
    def test_reweighted_estimator_is_unbiased(self):
        """sum_i p_i w_i grad(L_i) equals (1/K) sum_i grad(L_i^alpha) when
        probabilities come from the optimal rule and weights enforce the
        product constraint, for quadratic per-sample losses."""
        rng = np.random.default_rng(5)
        for K in (2, 4, 8, 16):
            dim = 6
            theta = rng.normal(size=dim)
            centers = rng.normal(size=(K, dim))
            L = 0.5 * np.sum((theta - centers) ** 2, axis=1)
            grads = theta - centers
            norms = np.linalg.norm(grads, axis=1)
            for alpha in (1.0, 2.0, 3.0):
                p = optimal_probs(L, norms, alpha)
                w = unbiased_weights(p, L, alpha, K)
                estimate = (p * w) @ grads
                target = np.mean(alpha * L[:, None] ** (alpha - 1) * grads,
                                 axis=0)
                np.testing.assert_allclose(estimate, target, atol=1e-10)

    def test_optimal_probs_minimize_trace_variance(self):
        """No random simplex point beats the closed-form distribution."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            K = int(rng.integers(2, 7))
            L = rng.uniform(0.1, 2.0, size=K)
            grads = [rng.normal(size=4) for _ in range(K)]
            norms = np.array([np.linalg.norm(g) for g in grads])
            alpha = float(rng.choice([1.0, 2.0, 3.0]))
            p_star = optimal_probs(L, norms, alpha)
            w_star = unbiased_weights(p_star, L, alpha, K)
            tv_star = trace_variance(p_star, w_star, grads)
            for _ in range(200):
                p = rng.dirichlet(np.ones(K))
                w = unbiased_weights(p, L, alpha, K)
                assert tv_star <= trace_variance(p, w, grads) + 1e-12
