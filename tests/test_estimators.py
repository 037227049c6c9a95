import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiuq.dist import Categorical, entropy, row_kl
from ambiuq.errors import EstimatorUnavailableError, ValidationError
from ambiuq.estimators import (
    AnswerSample,
    AnswerSampleSet,
    EnsemblePrediction,
    EquivalenceMap,
    align,
    align_ensemble,
    cluster,
    ensemble_mean_mi,
    msp,
    mutual_information,
)

LN2 = math.log(2.0)


def cat(classes, probs):
    return Categorical(tuple(classes), probs)


def sample_set(probs_by_text, question_id="q0", **kwargs):
    samples = tuple(AnswerSample(text, p) for text, p in probs_by_text)
    return AnswerSampleSet(question_id=question_id, samples=samples, **kwargs)


class TestEquivalenceMap:
    def test_default_normalization(self):
        eq = EquivalenceMap()
        assert eq.canonical("It's Heat") == "its heat"
        assert eq.canonical("  OXYGEN!  ") == "oxygen"
        assert eq.canonical("heat") == "heat"

    def test_explicit_mapping(self):
        eq = EquivalenceMap({"It's Heat": "Heat"})
        assert eq.canonical("it's heat") == "heat"

    def test_idempotent_through_chains(self):
        eq = EquivalenceMap({"a": "b", "b": "c"})
        assert eq.canonical("a") == "c"
        assert eq.canonical(eq.canonical("a")) == eq.canonical("a")

    def test_cycle_terminates(self):
        eq = EquivalenceMap({"a": "b", "b": "a"})
        out = eq.canonical("a")
        assert out in {"a", "b"}

    @pytest.mark.parametrize("mapping", [{"a": "b", "b": "a"}, {"b": "a", "a": "b"}])
    def test_two_cycle_merges_to_its_least_member(self, mapping):
        eq = EquivalenceMap(mapping)
        assert eq.canonical("a") == eq.canonical("b") == "a"
        assert eq.canonical(eq.canonical("b")) == eq.canonical("b")

    @pytest.mark.parametrize("order", [("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x")])
    def test_three_cycle_merges_to_its_least_member(self, order):
        cycle = {"x": "y", "y": "z", "z": "x"}
        eq = EquivalenceMap({key: cycle[key] for key in order})
        for name in "xyz":
            assert eq.canonical(name) == "x"
            assert eq.canonical(eq.canonical(name)) == eq.canonical(name)

    def test_chain_into_a_cycle_ends_at_its_least_member(self):
        eq = EquivalenceMap({"t": "Y", "y": "z", "z": "y", "u": "t"})
        assert [eq.canonical(s) for s in ("u", "t", "y", "z")] == ["y"] * 4
        assert eq.canonical("other") == "other"


class TestAnswerSamples:
    def test_seq_prob_validated(self):
        with pytest.raises(ValidationError):
            AnswerSample("x", 0.0)
        with pytest.raises(ValidationError):
            AnswerSample("x", 1.5)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            AnswerSampleSet(question_id="q", samples=())


class TestCluster:
    def test_two_class_aggregation(self):
        s = sample_set([("heat", 0.4), ("heat", 0.2), ("oxygen", 0.1)])
        p = cluster(s)
        assert p.classes == ("heat", "oxygen")
        np.testing.assert_allclose(p.probs, [0.857142857, 0.142857143], atol=1e-3)

    def test_single_class(self):
        s = sample_set([("yes", 0.5), ("yes", 0.2), ("yes", 0.01)])
        p = cluster(s)
        assert p.classes == ("yes",)
        assert p.probs.tolist() == [1.0]

    def test_equal_probs_give_count_frequencies(self):
        s = sample_set([("a", 0.1)] * 3 + [("b", 0.1)] * 2 + [("c", 0.1)])
        p = cluster(s)
        np.testing.assert_allclose(p.probs, [3 / 6, 2 / 6, 1 / 6], atol=1e-12)

    def test_cluster_field_wins_over_text(self):
        samples = (
            AnswerSample("the answer is heat", 0.4, cluster="heat"),
            AnswerSample("heat", 0.1, cluster="heat"),
            AnswerSample("fuel", 0.5),
        )
        p = cluster(AnswerSampleSet(question_id="q", samples=samples))
        assert p.classes == ("heat", "fuel")
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-12)

    def test_order_invariance(self):
        pairs = [("a", 0.4), ("b", 0.3), ("a", 0.1), ("c", 0.05)]
        p = cluster(sample_set(pairs))
        q = cluster(sample_set(list(reversed(pairs))))
        assert sorted(zip(p.classes, p.probs)) == pytest.approx(
            sorted(zip(q.classes, q.probs))
        )

    def test_rescale_invariance(self):
        pairs = [("a", 0.4), ("b", 0.3), ("a", 0.1)]
        halved = [(t, p / 2) for t, p in pairs]
        np.testing.assert_allclose(
            cluster(sample_set(pairs)).probs,
            cluster(sample_set(halved)).probs,
            atol=1e-12,
        )

    def test_relabel_invariance_of_entropy(self):
        pairs = [("a", 0.4), ("b", 0.3), ("a", 0.1), ("c", 0.05)]
        plain = cluster(sample_set(pairs))
        relabeled = cluster(sample_set(pairs), EquivalenceMap({"a": "x", "b": "y", "c": "z"}))
        assert entropy(relabeled) == pytest.approx(
            entropy(plain), abs=1e-12
        )


class TestAlign:
    def test_worked_example(self):
        # ground truth over Heat/Fuel/Oxygen vs a model that produced
        # "It's Heat"/Carbon/Oxygen: joint support gains Carbon, the truth
        # gets 0 there, the model gets epsilon at Fuel and renormalizes
        p_star = cat(("Heat", "Fuel", "Oxygen"), [0.3, 0.34, 0.36])
        p_model = cat(("It's Heat", "Carbon", "Oxygen"), [0.4, 0.2, 0.4])
        eq = EquivalenceMap({"It's Heat": "Heat"})
        a_star, a_model = align(p_star, p_model, eq, epsilon=0.01)
        assert a_star.classes == ("heat", "fuel", "oxygen", "carbon")
        assert a_model.classes == a_star.classes
        np.testing.assert_allclose(a_star.probs, [0.3, 0.34, 0.36, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            a_model.probs, np.array([0.4, 0.01, 0.4, 0.2]) / 1.01, atol=1e-12
        )

    def test_identical_supports_unchanged(self):
        p_star = cat(("a", "b"), [0.3, 0.7])
        p_model = cat(("a", "b"), [0.6, 0.4])
        a_star, a_model = align(p_star, p_model)
        assert a_star == p_star
        np.testing.assert_allclose(a_model.probs, [0.6, 0.4], atol=0)

    def test_truth_subset_of_model(self):
        p_star = cat(("a",), [1.0])
        p_model = cat(("a", "b"), [0.6, 0.4])
        a_star, a_model = align(p_star, p_model)
        assert a_star.probs.tolist() == [1.0, 0.0]
        assert a_model.probs.tolist() == [0.6, 0.4]

    def test_postconditions_on_random_inputs(self):
        rng = np.random.default_rng(0)
        letters = list("abcdefgh")
        for _ in range(200):
            ks, km = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            star_classes = rng.choice(letters, size=ks, replace=False)
            model_classes = rng.choice(letters, size=km, replace=False)
            p_star = cat(star_classes, rng.dirichlet(np.ones(ks)))
            p_model = cat(model_classes, rng.dirichlet(np.ones(km)))
            a_star, a_model = align(p_star, p_model)
            assert abs(a_star.probs.sum() - 1.0) <= 1e-9
            assert abs(a_model.probs.sum() - 1.0) <= 1e-9
            assert (a_model.probs[a_star.probs > 0] > 0).all()

    def test_merging_duplicate_canonical_classes(self):
        p_star = cat(("Heat", "heat!", "Fuel"), [0.2, 0.3, 0.5])
        a_star, _ = align(p_star, cat(("fuel",), [1.0]))
        assert a_star.classes == ("heat", "fuel")
        np.testing.assert_allclose(a_star.probs, [0.5, 0.5], atol=1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(ValidationError):
            align(cat(("a",), [1.0]), cat(("b",), [1.0]), epsilon=0.0)


class TestSemanticEntropy:
    def test_uniform_four(self):
        s = sample_set([("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)])
        assert entropy(cluster(s)) == pytest.approx(math.log(4), abs=1e-12)

    def test_single_class_zero(self):
        s = sample_set([("a", 0.9), ("a", 0.3)])
        assert entropy(cluster(s)) == 0.0

    def test_direct_value(self):
        p = cat(("a", "b", "c"), [0.5, 0.25, 0.25])
        assert entropy(p) == pytest.approx(1.0397208, abs=1e-4)


class TestMSP:
    def test_certain(self):
        assert msp(1.0) == 0.0

    def test_direct(self):
        assert msp(0.35) == pytest.approx(0.65, abs=1e-12)

    def test_fixed_point(self):
        assert msp(0.5) == 0.5

    def test_missing_is_explicit_error(self):
        with pytest.raises(EstimatorUnavailableError, match="beam"):
            msp(None)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            msp(0.0)
        with pytest.raises(ValidationError):
            msp(1.2)


class TestMutualInformation:
    def test_identical_members_zero(self):
        m = cat(("a", "b"), [0.3, 0.7])
        assert mutual_information(EnsemblePrediction((m, m, m))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_near_vertex_pair(self):
        e = EnsemblePrediction(
            (cat(("a", "b"), [0.99, 0.01]), cat(("a", "b"), [0.01, 0.99]))
        )
        # ln 2 minus the entropy of a 0.99/0.01 member
        assert mutual_information(e) == pytest.approx(0.6371456, abs=1e-3)

    def test_two_member_value(self):
        e = EnsemblePrediction((cat(("a", "b"), [0.6, 0.4]), cat(("a", "b"), [0.2, 0.8])))
        assert mutual_information(e) == pytest.approx(0.0863046, abs=1e-3)

    def test_identity_and_upper_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            members = tuple(
                cat([f"c{i}" for i in range(k)], row)
                for row in rng.dirichlet(np.ones(k), size=m)
            )
            e = EnsemblePrediction(members)
            mi = mutual_information(e)
            p_bar = np.mean([mm.probs for mm in members], axis=0)
            h_bar = entropy(cat([f"c{i}" for i in range(k)], p_bar))
            mean_h = np.mean([entropy(mm) for mm in members])
            assert mi == pytest.approx(h_bar - mean_h, abs=1e-9)
            assert mi <= h_bar + 1e-9

    def test_misaligned_members_rejected(self):
        with pytest.raises(ValidationError):
            EnsemblePrediction((cat(("a", "b"), [1, 0]), cat(("b", "a"), [1, 0])))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda m: st.integers(2, 10).flatmap(
        lambda k: st.lists(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
                                    .filter(lambda w: sum(w) > 0), min_size=m, max_size=m),
                           min_size=1, max_size=4))))
    def test_equals_stacked_reference_bytes(self, weights):
        # m = 1..12 crosses the 8 terms from which numpy sums pairwise
        stacked = np.array(weights) / np.array(weights).sum(axis=-1, keepdims=True)  # (n, m, k)
        p_bar = stacked.mean(axis=1)
        want = row_kl(stacked, p_bar[..., None, :]).mean(axis=-1)
        # (n, k) members that are non-contiguous views of one (n, m, k) array
        got_bar, got = ensemble_mean_mi(list(stacked.transpose(1, 0, 2)))
        assert got_bar.tobytes() == p_bar.tobytes()
        assert got.tobytes() == want.tobytes()
        # (k,) members: the first ensemble alone, and through the object API
        classes = [f"c{i}" for i in range(stacked.shape[2])]
        e = EnsemblePrediction(tuple(cat(classes, row) for row in stacked[0]))
        assert np.float64(mutual_information(e)).tobytes() == want[0].tobytes()
        assert ensemble_mean_mi(list(stacked[0]))[0].tobytes() == p_bar[0].tobytes()

    @pytest.mark.parametrize("dtype", [int, np.float32, float])
    def test_row_members_give_a_float_mean_and_stay_unchanged(self, dtype):
        rng = np.random.default_rng(3)
        members = [rng.integers(1, 5, size=(6, 4)).astype(dtype) for _ in range(3)]
        before = [m.copy() for m in members]
        p_bar, mi = ensemble_mean_mi(members)
        wide = [m.astype(float) for m in members]
        assert p_bar.dtype == float
        assert p_bar.tobytes() == (((wide[0] + wide[1]) + wide[2]) / 3).tobytes()
        assert mi.shape == (6,)
        assert all(np.array_equal(m, b) and m.dtype == dtype for m, b in zip(members, before))


class TestAlignEnsemble:
    def test_union_support_with_epsilon(self):
        members = (cat(("a", "b"), [0.5, 0.5]), cat(("b", "c"), [0.5, 0.5]))
        e = align_ensemble(members, epsilon=0.01)
        assert e.classes == ("a", "b", "c")
        for member in e.members:
            assert abs(member.probs.sum() - 1.0) <= 1e-9
            assert (member.probs > 0).all()

    def test_already_aligned_members_unchanged(self):
        members = (cat(("a", "b"), [0.25, 0.75]), cat(("a", "b"), [0.5, 0.5]))
        e = align_ensemble(members)
        assert e.members[0].probs.tolist() == [0.25, 0.75]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            align_ensemble(())

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.01, 1.5, math.nan])
    @pytest.mark.parametrize("second", [("a", "b"), ("b", "c")])
    def test_bad_epsilon(self, epsilon, second):
        members = (cat(("a", "b"), [0.5, 0.5]), cat(second, [0.5, 0.5]))
        with pytest.raises(ValidationError, match="epsilon must be in"):
            align_ensemble(members, epsilon=epsilon)
