import math

import numpy as np
import pytest

from dirichlet_reference import _mc_draws, mc_expected_aleatoric, mc_expected_epistemic

from ambiuq.dirichlet import (
    digamma,
    expected_aleatoric,
    expected_cross_entropy,
    expected_epistemic,
    posterior,
)
from ambiuq.dist import Categorical, kl, normalize, row_entropy
from ambiuq.errors import DomainError, SupportError, ValidationError

EULER_GAMMA = 0.5772156649015329


class TestPosterior:
    def test_uniform_prior_from_zero_counts(self):
        alpha = posterior([0, 0], gamma=1.0)
        assert alpha.tolist() == [1.0, 1.0]
        assert alpha.sum() == 2.0

    def test_count_update(self):
        alpha = posterior([31, 32, 25], gamma=1.0)
        assert alpha.tolist() == [32.0, 33.0, 26.0]

    def test_gamma_scaling(self):
        alpha = posterior([2, 3], gamma=10.0)
        assert alpha.tolist() == [21.0, 31.0]
        assert alpha.sum() == 52.0

    def test_gamma_below_one_rejected(self):
        with pytest.raises(DomainError):
            posterior([1, 2], gamma=0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(DomainError):
            posterior([1, 2], gamma)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValidationError):
            posterior([], gamma=1.0)
        with pytest.raises(ValidationError):
            posterior([1, -1], gamma=1.0)


class TestDigamma:
    def test_psi_one_is_negative_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_psi_two_by_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_psi_ten_and_a_half(self):
        assert digamma(10.5) == pytest.approx(2.3030010343, abs=1e-8)

    def test_against_scipy_over_wide_range(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        xs = np.concatenate(
            [rng.uniform(1e-8, 1.0, 500), rng.uniform(1.0, 50.0, 500),
             rng.uniform(50.0, 1e7, 500)]
        )
        mine = digamma(xs)
        ref = scipy_special.digamma(xs)
        scaled = np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))
        assert scaled.max() <= 1e-10

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 1.0, 7.7, 123.4])
        np.testing.assert_allclose(digamma(xs), [digamma(x) for x in xs], atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestExpectedAleatoric:
    def test_uniform_prior_half_nat(self):
        assert expected_aleatoric(posterior([0, 0])) == pytest.approx(0.5, abs=1e-9)

    def test_large_symmetric_limit_is_log_k(self):
        assert expected_aleatoric(np.full(4, 1e6)) == pytest.approx(math.log(4), abs=1e-4)

    def test_monte_carlo_agreement(self):
        d = posterior([31, 32, 25])
        mean, stderr = mc_expected_aleatoric(d, draws=100_000, seed=0)
        assert abs(expected_aleatoric(d) - mean) <= 3 * stderr

    def test_within_entropy_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 11))
            d = posterior(rng.integers(0, 500, size=k), gamma=1.0)
            ea = expected_aleatoric(d)
            assert -1e-12 <= ea <= math.log(k) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 100, size=5)
        perm = rng.permutation(5)
        assert expected_aleatoric(posterior(counts)) == pytest.approx(
            expected_aleatoric(posterior(counts[perm])), abs=1e-12
        )
        p = rng.dirichlet(np.ones(5))
        assert expected_epistemic(posterior(counts), p) == pytest.approx(
            expected_epistemic(posterior(counts[perm]), p[perm]), abs=1e-12
        )


class TestExpectedEpistemic:
    def test_uniform_prior_direct_value(self):
        got = expected_epistemic(posterior([0, 0]), [0.5, 0.5])
        assert got == pytest.approx(math.log(2) - 0.5, abs=1e-9)

    def test_posterior_mean_prediction_non_negative(self):
        alpha = posterior([31, 32, 25])
        alpha_0 = alpha.sum()
        p = alpha / alpha_0
        got = expected_epistemic(alpha, p)
        manual = float(
            ((alpha / alpha_0)
             * (digamma(alpha + 1) - digamma(alpha_0 + 1) - np.log(p))).sum()
        )
        assert got == pytest.approx(manual, abs=1e-12)
        assert got >= 0.0

    def test_monte_carlo_agreement(self):
        d = posterior([31, 32, 25])
        p = np.array([0.5, 0.25, 0.25])
        mean, stderr = mc_expected_epistemic(d, p, draws=100_000, seed=3)
        assert abs(expected_epistemic(d, p) - mean) <= 3 * stderr

    def test_accepts_categorical(self):
        d = posterior([3, 4])
        c = Categorical(("a", "b"), [0.4, 0.6])
        assert expected_epistemic(d, c) == pytest.approx(
            expected_epistemic(d, [0.4, 0.6]), abs=1e-15
        )

    def test_additivity_with_cross_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            d = posterior(rng.integers(0, 200, size=k), gamma=float(rng.integers(1, 20)))
            p = rng.dirichlet(np.ones(k))
            lhs = expected_cross_entropy(d, p)
            rhs = expected_aleatoric(d) + expected_epistemic(d, p)
            assert abs(lhs - rhs) <= 1e-9

    def test_zero_prob_prediction_rejected(self):
        with pytest.raises(SupportError):
            expected_epistemic(posterior([1, 2]), [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            expected_epistemic(posterior([1, 2]), [0.2, 0.3, 0.5])

    def test_gamma_convergence_to_point_kl(self):
        counts = np.array([8, 14, 3])
        p = np.array([0.2, 0.5, 0.3])
        target = kl(normalize(counts), Categorical(("c0", "c1", "c2"), p))
        gaps = [
            abs(expected_epistemic(posterior(counts, g), p) - target)
            for g in (1.0, 2.0, 5.0, 10.0, 100.0, 10_000.0)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3


class TestMonteCarloHarness:
    def test_seed_determinism(self):
        d = posterior([5, 9, 2])
        a = mc_expected_aleatoric(d, draws=20_000, seed=7)
        b = mc_expected_aleatoric(d, draws=20_000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        d = posterior([5, 9, 2])
        a = mc_expected_aleatoric(d, draws=20_000, seed=7)
        b = mc_expected_aleatoric(d, draws=20_000, seed=8)
        assert a != b

    def test_block_prefix_property(self):
        # a longer run at one seed starts with a shorter run's draws
        d = posterior([5, 9, 2])
        short, _ = mc_expected_aleatoric(d, draws=16_384, seed=9)
        draws = _mc_draws(d, 32_768, seed=9)
        assert float(row_entropy(draws[:16_384]).mean()) == pytest.approx(short, abs=0)


class TestBatched:
    def ragged_groups(self, seed):
        """(counts, predictions) batches of 2..8 classes, ragged across groups."""
        rng = np.random.default_rng(seed)
        for k in rng.permutation(np.arange(2, 9)):
            n = int(rng.integers(1, 40))
            counts = rng.integers(0, 60, size=(n, k)) * rng.choice([1.0, 0.5, 1.3])
            yield counts, rng.dirichlet(np.ones(k), size=n)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0, 100.0, 3.7])
    def test_rows_equal_scalar_calls_exactly(self, gamma):
        for counts, probs in self.ragged_groups(int(gamma * 10)):
            batch = posterior(counts, gamma)
            rows = [posterior(c, gamma) for c in counts]
            assert batch.sum(axis=-1).tolist() == [d.sum() for d in rows]
            ea = expected_aleatoric(batch)
            ee = expected_epistemic(batch, probs)
            ce = expected_cross_entropy(batch, probs)
            assert ea.shape == ee.shape == ce.shape == (counts.shape[0],)
            assert ea.tolist() == [expected_aleatoric(d) for d in rows]
            assert ee.tolist() == [expected_epistemic(d, p) for d, p in zip(rows, probs)]
            assert ce.tolist() == [expected_cross_entropy(d, p) for d, p in zip(rows, probs)]

    def test_vector_input_still_returns_float(self):
        d = posterior([3, 4])
        assert not d.flags.writeable
        for value in (expected_aleatoric(d), expected_epistemic(d, [0.4, 0.6]),
                      expected_cross_entropy(d, [0.4, 0.6])):
            assert type(value) is float

    def test_batch_errors_keep_their_types(self):
        counts = np.array([[1.0, 2.0], [3.0, 0.0]])
        with pytest.raises(DomainError):
            posterior(counts, gamma=0.5)
        with pytest.raises(ValidationError):
            posterior(np.array([[1.0, -2.0], [3.0, 0.0]]))
        with pytest.raises(ValidationError):
            posterior(np.array([[1.0, np.nan], [3.0, 0.0]]))
        with pytest.raises(ValidationError):
            posterior(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            posterior(np.ones((2, 2, 2)))
        d = posterior(counts)
        with pytest.raises(ValidationError):
            expected_epistemic(d, [0.4, 0.6])
        with pytest.raises(ValidationError):
            expected_epistemic(d, np.full((3, 2), 0.5))
        with pytest.raises(SupportError):
            expected_epistemic(d, [[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(SupportError):
            expected_cross_entropy(d, [[0.5, 0.5], [1.0, 0.0]])
