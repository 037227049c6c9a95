import math

import numpy as np
import pytest

from ambiuq.bounds import (
    BoundQuery,
    _bisect_decreasing,
    alpha_delta,
    binary_entropy,
    eu_lower_bound_high_entropy,
    gamma_delta,
    h_max,
    mi_counterexample,
    nonidentifiability_witnesses,
    thm2_probability_bound,
)
from ambiuq.dist import Categorical, kl, row_entropy
from ambiuq.errors import DegenerateInputError, DomainError, SupportError, ValidationError

LN2 = math.log(2.0)


def cat(probs):
    return Categorical(tuple(f"c{i}" for i in range(len(probs))), probs)


class TestHMax:
    def test_uniform_attains_log_k(self):
        assert h_max(1 / 3, 3) == pytest.approx(math.log(3), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert h_max(1.0, 5) == 0.0

    def test_direct_evaluation(self):
        # -0.6 ln 0.6 - 0.4 ln(0.4/2)
        assert h_max(0.6, 3) == pytest.approx(0.9502705, abs=1e-4)

    def test_strictly_decreasing(self):
        values = [h_max(a, 4) for a in np.linspace(0.25, 1.0, 50)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            h_max(0.2, 3)
        with pytest.raises(DomainError):
            h_max(1.1, 3)
        with pytest.raises(DomainError):
            h_max(0.5, 1)
        with pytest.raises(DomainError, match="finite float"):
            h_max(0.5, 10**400)

    def test_is_the_max_over_constrained_distributions(self):
        # no distribution with max class prob alpha exceeds h_max(alpha, k)
        rng = np.random.default_rng(0)
        draws = rng.dirichlet(np.ones(4), size=2000)
        alphas = draws.max(axis=1)
        caps = np.array([h_max(a, 4) for a in alphas])
        assert (row_entropy(draws) <= caps + 1e-9).all()


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-12)

    def test_endpoints_zero(self):
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.0) == 0.0

    @pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan])
    def test_outside_unit_interval(self, gamma):
        with pytest.raises(DomainError, match="outside"):
            binary_entropy(gamma)

    def test_direct_evaluation(self):
        assert binary_entropy(0.8) == pytest.approx(0.5004024, abs=1e-4)

    def test_symmetry(self):
        for g in np.linspace(0.0, 1.0, 21):
            assert binary_entropy(g) == pytest.approx(binary_entropy(1 - g), abs=1e-12)


class TestInversion:
    def test_alpha_delta_trivial_points(self):
        assert alpha_delta(BoundQuery(3, math.log(3))) == pytest.approx(1 / 3, abs=1e-6)
        assert alpha_delta(BoundQuery(7, 0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_delta_against_independent_root_finder(self):
        # frozen from scipy.optimize.brentq on h_max(a, 3) = 0.9
        assert alpha_delta(BoundQuery(3, 0.9)) == pytest.approx(
            0.6423172954, abs=1e-9
        )

    def test_gamma_delta_trivial_points(self):
        assert gamma_delta(LN2) == pytest.approx(0.5, abs=1e-6)
        assert gamma_delta(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_delta_against_independent_root_finder(self):
        # frozen from scipy.optimize.brentq on H_B(g) = 0.5
        assert gamma_delta(0.5) == pytest.approx(0.8002900974, abs=1e-9)

    def test_inversion_consistency(self):
        for k in (2, 3, 10, 30):
            for frac in np.linspace(0.01, 0.99, 15):
                delta = frac * math.log(k)
                assert h_max(alpha_delta(BoundQuery(k, delta)), k) == pytest.approx(
                    delta, abs=1e-9
                )
        for delta in np.linspace(0.01, LN2 * 0.999, 15):
            assert binary_entropy(gamma_delta(delta)) == pytest.approx(delta, abs=1e-9)

    def test_monotonicity_in_delta(self):
        deltas = np.linspace(0.05, math.log(3) - 0.01, 20)
        alphas = [alpha_delta(BoundQuery(3, d)) for d in deltas]
        assert all(x > y for x, y in zip(alphas, alphas[1:]))
        gammas = [gamma_delta(d) for d in np.linspace(0.05, LN2 - 0.01, 20)]
        assert all(x > y for x, y in zip(gammas, gammas[1:]))
        bounds = [eu_lower_bound_high_entropy(BoundQuery(3, d)) for d in deltas]
        assert all(x < y for x, y in zip(bounds, bounds[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alpha_delta(BoundQuery(3, math.log(3) + 0.1))
        with pytest.raises(DomainError):
            alpha_delta(BoundQuery(3, -0.1))
        with pytest.raises(DomainError):
            gamma_delta(LN2 + 0.01)
        with pytest.raises(DomainError, match="finite float"):
            BoundQuery(10**400, 0.5)

    def test_delta_domain_is_checked_by_the_query(self):
        # one Theorem 1 domain, [0, ln k] with EDGE of slack, for bounds and simulate
        for delta in (-1e-11, math.log(3) + 1e-11):
            with pytest.raises(DomainError, match=r"outside \[0, ln k\] for k=3"):
                BoundQuery(3, delta)
        assert alpha_delta(BoundQuery(3, -1e-13)) == alpha_delta(BoundQuery(3, 0.0))

    @pytest.mark.parametrize("k", [2, 3, 10, 1000])
    def test_alpha_delta_is_the_bisection_of_h_max(self, k):
        # alpha_delta skips h_max's checks inside the bracket; the root must
        # still be the very float that bisecting the checked h_max gives
        for delta in np.linspace(0.0, math.log(k), 300):
            expected = _bisect_decreasing(lambda a: h_max(a, k), 1 / k, 1.0, float(delta))
            assert alpha_delta(BoundQuery(k, float(delta))) == expected


class TestEuLowerBound:
    def test_max_entropy_forces_log_k(self):
        assert eu_lower_bound_high_entropy(BoundQuery(3, math.log(3))) == pytest.approx(
            math.log(3), abs=1e-6
        )

    def test_no_constraint_at_zero(self):
        assert eu_lower_bound_high_entropy(BoundQuery(5, 0.0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_value_from_alpha_oracle(self):
        # -ln(0.6423172954)
        assert eu_lower_bound_high_entropy(BoundQuery(3, 0.9)) == pytest.approx(
            0.4426728678, abs=2e-9
        )

    def test_high_entropy_bound_holds_empirically(self):
        # simplex-sampled predictions with H >= delta, every vertex truth
        rng = np.random.default_rng(1)
        k, delta = 3, 0.9
        bound = eu_lower_bound_high_entropy(BoundQuery(k, delta))
        draws = rng.dirichlet(np.ones(k), size=100_000)
        high = draws[row_entropy(draws) >= delta]
        assert high.size
        # vertex truths: EU = -ln p_y; the smallest over vertices is -ln(max p)
        min_eu = -np.log(high.max(axis=1))
        assert (min_eu >= bound - 1e-9).all()


class TestThm2Bound:
    def test_perfect_model(self):
        out = thm2_probability_bound(LN2, 0.0, 0.8)
        assert out.prob_lower_bound == 1.0
        assert out.gamma_delta == pytest.approx(0.5, abs=1e-6)

    def test_direct_evaluation_at_ln2(self):
        out = thm2_probability_bound(LN2, 0.2, 0.8)
        assert out.prob_lower_bound == pytest.approx(0.6393, abs=1e-4)

    def test_direct_evaluation_at_half(self):
        # gamma_delta(0.5) = 0.80029..., -ln(1-g) = 1.61166...
        out = thm2_probability_bound(0.5, 0.5, 0.5)
        assert out.prob_lower_bound == pytest.approx(0.3792249, abs=1e-3)
        assert out.eu_cap == pytest.approx(-math.log(out.gamma_delta), abs=1e-12)

    def test_vacuous_bound_reported_as_is(self):
        out = thm2_probability_bound(0.5, 10.0, 0.5)
        assert out.prob_lower_bound < 0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            thm2_probability_bound(0.0, 0.1, 0.5)
        with pytest.raises(DegenerateInputError):
            thm2_probability_bound(0.5, 0.1, 0.0)
        # gamma_delta(1e-300) is 1.0 in floating point
        with pytest.raises(DegenerateInputError, match="makes gamma_delta 1"):
            thm2_probability_bound(1e-300, 0.1, 0.5)
        # 0.1 / (1.61 * 1e-320) overflows to inf
        with pytest.raises(DegenerateInputError, match="overflows"):
            thm2_probability_bound(0.5, 0.1, 1e-320)

    def test_delta_inside_the_domain_slack_below_0_is_degenerate(self):
        # gamma_delta accepts -1e-13 and clamps it to 0, where gamma is 1
        assert gamma_delta(-1e-13) == 1.0
        with pytest.raises(DegenerateInputError, match="delta=-1e-13 makes gamma_delta 1"):
            thm2_probability_bound(-1e-13, 0.1, 0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thm2_probability_bound(LN2 + 0.1, 0.1, 0.5)
        with pytest.raises(DomainError):
            thm2_probability_bound(-0.1, 0.1, 0.5)
        with pytest.raises(DomainError):
            thm2_probability_bound(0.5, -0.1, 0.5)
        with pytest.raises(DomainError):
            thm2_probability_bound(0.5, 0.1, 1.5)
        for avg_loss in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                thm2_probability_bound(0.5, avg_loss, 0.5)


class TestWitnesses:
    def test_uniform_gives_log_k(self):
        k = 4
        _, p2, kl1, kl2 = nonidentifiability_witnesses(cat([1 / k] * k))
        assert kl1 == 0.0
        assert kl2 == pytest.approx(math.log(k), abs=1e-12)

    def test_direct_evaluation(self):
        _, p2, kl1, kl2 = nonidentifiability_witnesses(cat([0.5, 0.3, 0.2]))
        assert kl1 == 0.0
        assert kl2 == pytest.approx(-math.log(0.2), abs=1e-12)
        assert p2.probs.tolist() == [0.0, 0.0, 1.0]

    def test_witnesses_on_random_p(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 11))
            p = cat(rng.dirichlet(np.ones(k)))
            p1, p2, kl1, kl2 = nonidentifiability_witnesses(p)
            assert kl1 == 0.0
            assert kl2 == pytest.approx(kl(p2, p), abs=1e-12)
            assert kl2 >= math.log(k) - 1e-12

    def test_argmin_tie_breaks_low_index(self):
        _, p2, _, _ = nonidentifiability_witnesses(cat([0.2, 0.3, 0.2, 0.3]))
        assert p2.probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_zero_prob_rejected(self):
        with pytest.raises(SupportError):
            nonidentifiability_witnesses(cat([1.0, 0.0]))


class TestMICounterexample:
    def test_max_mi_ensemble(self):
        p_star, eu = mi_counterexample([cat([1, 0]), cat([0, 1])])
        assert p_star.probs.tolist() == [0.5, 0.5]
        assert eu == 0.0

    def test_single_member(self):
        member = cat([0.3, 0.7])
        p_star, eu = mi_counterexample([member])
        assert p_star == member
        assert eu == 0.0

    def test_two_member_average(self):
        p_star, eu = mi_counterexample([cat([0.6, 0.4]), cat([0.2, 0.8])])
        np.testing.assert_allclose(p_star.probs, [0.4, 0.6], atol=1e-15)
        assert eu == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mi_counterexample([])

    def test_misaligned_rejected(self):
        a = Categorical(("x", "y"), [0.5, 0.5])
        b = Categorical(("y", "x"), [0.5, 0.5])
        with pytest.raises(ValidationError):
            mi_counterexample([a, b])
