import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ambiuq.dist import (
    Categorical,
    cross_entropy,
    decompose,
    entropy,
    js_divergence,
    kl,
    normalize,
    row_cross_entropy,
    row_entropy,
    row_js,
    row_kl,
)
from ambiuq.errors import DegenerateInputError, SupportError, ValidationError
from ambiuq.formats import categorical_to_dict, parse_categorical


def cat(probs, classes=None):
    probs = np.asarray(probs, dtype=float)
    classes = classes or tuple(f"c{i}" for i in range(len(probs)))
    return Categorical(tuple(classes), probs)


def random_pair(rng, k):
    return cat(rng.dirichlet(np.ones(k))), cat(rng.dirichlet(np.ones(k)))


def simplex_point(k: int, zeros: bool):
    """A point of the k-simplex from drawn weights; with ``zeros``, some may be 0."""
    weight = st.floats(1e-3, 1.0) | st.just(0.0) if zeros else st.floats(1e-3, 1.0)
    return st.lists(weight, min_size=k, max_size=k).filter(any).map(
        lambda w: cat(np.array(w) / sum(w)))


@st.composite
def simplex_pairs(draw, zeros_in_p: bool):
    """(p*, p) on one random simplex, k = 2..12; p* may have zeros."""
    k = draw(st.integers(2, 12))
    return draw(simplex_point(k, zeros=True)), draw(simplex_point(k, zeros=zeros_in_p))


class TestCategorical:
    def test_rejects_negative_probs(self):
        with pytest.raises(ValidationError):
            cat([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            cat([0.6, 0.5])

    def test_renormalizes_small_drift(self):
        c = cat([0.5 + 4e-7, 0.5 + 4e-7])
        assert abs(float(c.probs.sum()) - 1.0) <= 1e-9
        assert c.probs[0] == pytest.approx(0.5)

    def test_accepts_within_tight_tolerance_unchanged(self):
        c = cat([0.5, 0.5 + 5e-10])
        assert float(c.probs[1]) == 0.5 + 5e-10

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ValidationError):
            Categorical(("a", "a"), [0.5, 0.5])

    def test_rejects_length_mismatch_and_empty(self):
        with pytest.raises(ValidationError):
            Categorical(("a",), [0.5, 0.5])
        with pytest.raises(ValidationError):
            Categorical((), [])

    def test_equality_and_hash(self):
        a, b = cat([0.25, 0.75]), cat([0.25, 0.75])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != cat([0.75, 0.25])
        assert a.__eq__((("c0", "c1"), [0.25, 0.75])) is NotImplemented
        assert a != (("c0", "c1"), [0.25, 0.75])

    def test_rejects_2d_probs(self):
        with pytest.raises(ValidationError, match="1-D vector"):
            Categorical(("a", "b"), [[0.5, 0.5]])

    def test_owns_its_probs(self):
        # the caller's array stays writeable, and a later write to it (here
        # to a row of a 2-D buffer) leaves the distribution as it was
        probs = np.array([0.25, 0.75])
        Categorical(("a", "b"), probs)
        assert probs.flags.writeable
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        c = Categorical(("a", "b"), rows[0])
        rows[0, 0] = 0.9
        assert c.probs.tolist() == [0.5, 0.5]
        assert not c.probs.flags.writeable

    @pytest.mark.parametrize("probs, message", [
        ([0.5, math.nan], "probabilities must be finite"),
        ([math.inf, 0.5], "probabilities must be finite"),
        ([-math.inf, 1.0], "probabilities must be finite"),
        ([-1.0, math.nan], "probabilities must be finite"),  # finite is checked first
        ([1.2, -0.2], "probabilities must be non-negative"),
        ([-0.0, 1.5], "probabilities sum to 1.5, not 1"),  # -0.0 is not negative
    ])
    def test_value_checks_keep_their_messages(self, probs, message):
        with pytest.raises(ValidationError) as err:
            Categorical(("a", "b"), probs)
        assert str(err.value) == message

    def test_round_trips_to_dict(self):
        # the {classes, probs} wire format is read and written in formats
        c = cat([0.25, 0.75], classes=("x", "y"))
        assert parse_categorical(categorical_to_dict(c), "c") == c


class TestEntropy:
    def test_fire_triangle_counts(self):
        # counts 31/32/25 normalized; value matches the published 1.1
        p = normalize([31, 32, 25])
        assert entropy(p) == pytest.approx(1.0929158, abs=1e-6)
        assert abs(entropy(p) - 1.09) <= 0.01 + 1e-9

    def test_indicator_is_zero(self):
        assert entropy(cat([1, 0, 0])) == 0.0

    def test_two_answer_counts(self):
        p = normalize([188, 91])
        assert entropy(p) == pytest.approx(0.63, abs=0.01)

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 7, 30):
            for _ in range(50):
                h = entropy(cat(rng.dirichlet(np.ones(k))))
                assert -1e-12 <= h <= math.log(k) + 1e-12


class TestKL:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = cat(rng.dirichlet(np.ones(4)))
            assert kl(p, p) == 0.0

    def test_indicator_vs_uniform(self):
        assert kl(cat([1, 0]), cat([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_direct_evaluation(self):
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert kl(cat([0.5, 0.5]), cat([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5108, abs=1e-4)

    def test_support_violation_mentions_align(self):
        with pytest.raises(SupportError, match="align"):
            kl(cat([0.5, 0.5]), cat([1.0, 0.0]))

    def test_mismatched_classes(self):
        with pytest.raises(ValidationError):
            kl(cat([0.5, 0.5], ("a", "b")), cat([0.5, 0.5], ("a", "c")))

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            ps, p = random_pair(rng, 5)
            assert kl(ps, p) >= 0.0

    def test_zero_au_reduction_is_exact(self):
        # indicator ground truth: KL equals the negative log-probability
        # of the true class, bit for bit
        rng = np.random.default_rng(3)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(4))
            y = rng.integers(4)
            indicator = np.zeros(4)
            indicator[y] = 1.0
            assert kl(cat(indicator), cat(probs)) == -math.log(probs[y])


class TestCrossEntropy:
    def test_self_cross_entropy_is_entropy(self):
        rng = np.random.default_rng(4)
        p = cat(rng.dirichlet(np.ones(6)))
        assert cross_entropy(p, p) == pytest.approx(entropy(p), abs=1e-12)

    def test_indicator_vs_uniform(self):
        assert cross_entropy(cat([1, 0]), cat([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_direct_evaluation(self):
        expected = -0.5 * (math.log(0.9) + math.log(0.1))
        got = cross_entropy(cat([0.5, 0.5]), cat([0.9, 0.1]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.2040, abs=1e-4)


class TestDecompose:
    def test_uniform_self(self):
        p = cat([0.25] * 4)
        parts = decompose(p, p)
        assert parts.total == pytest.approx(math.log(4), abs=1e-12)
        assert parts.aleatoric == pytest.approx(math.log(4), abs=1e-12)
        assert parts.epistemic == 0.0

    def test_vertex_truth(self):
        parts = decompose(cat([1, 0]), cat([0.8, 0.2]))
        assert parts.aleatoric == 0.0
        assert parts.epistemic == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_uniform_truth_closed_form(self):
        # EU for a uniform ground truth is -ln K - mean(ln p)
        rng = np.random.default_rng(5)
        k = 5
        p = rng.dirichlet(np.ones(k))
        parts = decompose(cat(np.full(k, 1.0 / k)), cat(p))
        expected = -math.log(k) - np.log(p).mean()
        assert parts.epistemic == pytest.approx(expected, abs=1e-12)

    def test_additivity_over_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            k = int(rng.integers(2, 31))
            ps, p = random_pair(rng, k)
            parts = decompose(ps, p)
            assert abs(parts.total - parts.aleatoric - parts.epistemic) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(simplex_pairs(zeros_in_p=False))
    def test_total_is_aleatoric_plus_epistemic(self, pair):
        parts = decompose(*pair)
        assert math.isclose(parts.total, parts.aleatoric + parts.epistemic, rel_tol=1e-12)


class TestJS:
    def test_identity(self):
        p = cat([0.3, 0.7])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports(self):
        assert js_divergence(cat([1, 0]), cat([0, 1])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_direct_evaluation(self):
        got = js_divergence(cat([0.7, 0.3]), cat([0.3, 0.7]))
        assert got == pytest.approx(0.0822829, abs=1e-4)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q = random_pair(rng, 4)
            a, b = js_divergence(p, q), js_divergence(q, p)
            assert a == pytest.approx(b, abs=1e-12)
            assert -1e-12 <= a <= math.log(2) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(simplex_pairs(zeros_in_p=True))
    def test_bounded_on_random_simplex_points(self, pair):
        assert 0.0 <= js_divergence(*pair) <= math.log(2)


class TestNormalize:
    def test_fire_triangle(self):
        p = normalize([31, 32, 25])
        np.testing.assert_allclose(p.probs, [0.3523, 0.3636, 0.2841], atol=1e-4)

    def test_single_count(self):
        assert normalize([5]).probs.tolist() == [1.0]

    def test_two_answers(self):
        np.testing.assert_allclose(normalize([188, 91]).probs, [0.6738, 0.3262], atol=1e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize([0, 0, 0])

    def test_scale_invariant(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(1, 100, size=6).astype(float)
        a = normalize(counts)
        b = normalize(counts * 7.5)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-15)

    @pytest.mark.parametrize("counts", [[[1, 2]], [], [1, -1], [1, float("nan")]])
    def test_rejects_non_vector_or_negative_counts(self, counts):
        with pytest.raises(ValidationError, match="counts must be"):
            normalize(counts)

    def test_custom_classes(self):
        p = normalize([1, 3], classes=("x", "y"))
        assert p.classes == ("x", "y")


class TestRowFunctions:
    def test_match_object_api(self):
        rng = np.random.default_rng(9)
        ps = rng.dirichlet(np.ones(4), size=50)
        p = rng.dirichlet(np.ones(4), size=50)
        h = row_entropy(ps)
        d = row_kl(ps, p)
        j = row_js(ps, p)
        for i in range(50):
            a, b = cat(ps[i]), cat(p[i])
            assert h[i] == pytest.approx(entropy(a), abs=1e-12)
            assert d[i] == pytest.approx(kl(a, b), abs=1e-12)
            assert j[i] == pytest.approx(js_divergence(a, b), abs=1e-12)

    def test_support_violation_gives_inf(self):
        assert row_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf


# The np.where formulas the row kernels replaced, kept as their reference.
def where_entropy(p):
    p = np.asarray(p, dtype=float)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def where_log_p(p_star, p):
    mask = p_star > 0
    log_p = np.where(mask, np.log(np.where(p > 0, p, 1.0)), 0.0)
    return mask, np.where(mask & (p <= 0), -np.inf, log_p)


def where_kl(p_star, p):
    p_star, p = np.asarray(p_star, dtype=float), np.asarray(p, dtype=float)
    mask, log_p = where_log_p(p_star, p)
    log_ps = np.log(np.where(mask, p_star, 1.0))
    return np.where(mask, p_star * (log_ps - log_p), 0.0).sum(axis=-1)


def where_cross_entropy(p_star, p):
    p_star, p = np.asarray(p_star, dtype=float), np.asarray(p, dtype=float)
    mask, log_p = where_log_p(p_star, p)
    return -np.where(mask, p_star * log_p, 0.0).sum(axis=-1)


# probabilities, and the entries a kernel must pass through unchanged
ENTRIES = (st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, math.nan, 1.0])
           | st.floats(-1.0, 0.0))


@st.composite
def kernel_operands(draw):
    """(p*, p): equal 1-D or 2-D shapes, or (n, m, k) against (n, 1, k) in
    either order, as the stacked ensemble MI passes them."""
    k = draw(st.integers(1, 12))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    shapes = draw(st.sampled_from([[(k,), (k,)], [(n, k), (n, k)],
                                   [(n, m, k), (n, 1, k)], [(n, 1, k), (n, m, k)]]))
    return tuple(draw(arrays(float, shape, elements=ENTRIES)) for shape in shapes)


def recorded(fn, *args):
    """(result bytes, RuntimeWarning messages) of fn(*args)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out.tobytes(), [str(w.message) for w in caught if w.category is RuntimeWarning]


class TestRowKernelsInPlace:
    @settings(max_examples=300, deadline=None)
    @given(kernel_operands())
    def test_bytes_and_warnings_equal_the_where_formulas(self, operands):
        p_star, p = operands
        before = p_star.tobytes(), p.tobytes()
        for a in (p_star, p):
            a.setflags(write=False)
        for kernel, reference, args in (
                (row_entropy, where_entropy, (p_star,)),
                (row_entropy, where_entropy, (p,)),
                (row_kl, where_kl, (p_star, p)),
                (row_cross_entropy, where_cross_entropy, (p_star, p))):
            got, want = recorded(kernel, *args), recorded(reference, *args)
            assert got == want
            assert want[1] == []
        assert (p_star.tobytes(), p.tobytes()) == before

    def test_fortran_ordered_rows_sum_in_the_reference_order(self):
        # k >= 8 rows sum pairwise only when contiguous, so the layout matters
        rng = np.random.default_rng(4)
        p_star, p = (np.asfortranarray(rng.dirichlet(np.ones(11), size=7)) for _ in range(2))
        assert row_kl(p_star, p).tobytes() == where_kl(p_star, p).tobytes()
        assert row_cross_entropy(p_star, p).tobytes() == where_cross_entropy(p_star, p).tobytes()
        assert row_entropy(p).tobytes() == where_entropy(p).tobytes()
