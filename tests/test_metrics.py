import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metrics_reference import brute_aucroc, brute_concordance

from ambiuq.errors import DegenerateInputError, ValidationError
from ambiuq.metrics import EvalRecord, aucroc, concordance, score_columns, summarize

LN2 = math.log(2.0)


def records_from(true_eus, scores, name="SE"):
    return [
        EvalRecord(f"q{i}", float(t), {name: float(s)})
        for i, (t, s) in enumerate(zip(true_eus, scores))
    ]


def se_column(true_eus, scores):
    """(truth, score) arrays of "SE" records, through score_columns."""
    return score_columns(records_from(true_eus, scores))["SE"]


def merge_sort_inversions(seq):
    """(pairs i < j with seq[i] > seq[j], sorted seq) by merge sort."""
    if len(seq) < 2:
        return 0, list(seq)
    mid = len(seq) // 2
    count_left, left = merge_sort_inversions(seq[:mid])
    count_right, right = merge_sort_inversions(seq[mid:])
    count, merged, i, j = count_left + count_right, [], 0, 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            count += len(left) - i
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    return count, merged + left[i:] + right[j:]


def merge_sort_concordance(true_eus, scores):
    """Concordance from a merge-sort inversion count; the oracle at sizes pair
    enumeration cannot reach. In (truth, score) order the discordant pairs
    are exactly the strict inversions of the scores."""

    def tied(values):
        return sum(c * (c - 1) // 2 for c in Counter(values).values())

    rows = sorted(zip(true_eus, scores))
    discordant = merge_sort_inversions([s for _, s in rows])[0]
    comparable = len(rows) * (len(rows) - 1) // 2 - tied(true_eus)
    score_tied = tied(scores) - tied(rows)
    concordant = comparable - discordant - score_tied
    return (concordant + 0.5 * score_tied) / comparable


class TestEvalRecord:
    def test_negative_eu_rejected(self):
        with pytest.raises(ValidationError):
            EvalRecord("q", -0.1, {})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_eu_rejected(self, value):
        with pytest.raises(ValidationError, match="true_eu"):
            EvalRecord("q", value, {"SE": 0.5})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, value):
        with pytest.raises(ValidationError, match="MI"):
            EvalRecord("q", 0.1, {"SE": 0.5, "MI": value})


class TestConcordance:
    def test_perfect_ranking(self):
        eus = [0.1, 0.5, 0.2, 0.9]
        assert concordance(*se_column(eus, eus)) == 1.0

    def test_constant_estimator_is_chance(self):
        assert concordance(*se_column([0.1, 0.2, 0.3], [1, 1, 1])) == 0.5

    def test_five_record_example(self):
        # EU [0.1..0.5] vs scores [0.3,0.1,0.4,0.2,0.5]: brute enumeration
        # gives 7 concordant of 10 pairs
        eus = [0.1, 0.2, 0.3, 0.4, 0.5]
        scores = [0.3, 0.1, 0.4, 0.2, 0.5]
        assert brute_concordance(eus, scores) == 0.7
        assert concordance(*se_column(eus, scores)) == 0.7

    def test_anti_ranking(self):
        eus = [0.1, 0.5, 0.2, 0.9]
        assert concordance(*se_column(eus, [-e for e in eus])) == 0.0

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            # integer grids force plenty of ties in both coordinates
            eus = rng.integers(0, 6, size=n).astype(float)
            scores = rng.integers(0, 6, size=n).astype(float)
            if (eus == eus[0]).all():
                eus[0] += 1.0
            expected = brute_concordance(eus.tolist(), scores.tolist())
            got = concordance(*se_column(eus, scores))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        eus = rng.uniform(0, 2, size=200)
        scores = rng.uniform(0, 2, size=200)
        base = concordance(*se_column(eus, scores))
        assert concordance(*se_column(eus, np.exp(scores))) == pytest.approx(base)
        assert concordance(*se_column(eus, 3.5 * scores + 2)) == pytest.approx(base)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2)
        eus = rng.uniform(0, 1, size=1000)
        scores = rng.uniform(0, 1, size=1000)
        assert concordance(*se_column(eus, scores)) == pytest.approx(0.5, abs=0.05)

    def test_all_tied_truth_degenerate(self):
        with pytest.raises(DegenerateInputError):
            concordance(*se_column([0.3, 0.3, 0.3], [1, 2, 3]))

    def test_missing_estimator_records_skipped(self):
        records = records_from([0.1, 0.2, 0.3], [1, 2, 3]) + [
            EvalRecord("extra", 0.9, {})
        ]
        assert concordance(*score_columns(records)["SE"]) == 1.0


class TestAUCROC:
    def test_perfect(self):
        eus = [0.1, 0.5, 0.8, 1.0]
        assert aucroc(*se_column(eus, eus), LN2) == 1.0

    def test_anti_correlated(self):
        eus = [0.1, 0.5, 0.8, 1.0]
        assert aucroc(*se_column(eus, [-e for e in eus]), LN2) == 0.0

    def test_four_record_example(self):
        eus = [0.1, 0.5, 0.8, 1.0]
        scores = [0.2, 0.9, 0.3, 0.8]
        assert brute_aucroc(eus, scores, LN2) == 0.5
        assert aucroc(*se_column(eus, scores), LN2) == 0.5

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            eus = rng.uniform(0, 1.5, size=n)
            scores = rng.integers(0, 5, size=n).astype(float)
            delta = float(rng.uniform(0.2, 1.2))
            if not ((eus >= delta).any() and (eus < delta).any()):
                continue
            expected = brute_aucroc(eus.tolist(), scores.tolist(), delta)
            got = aucroc(*se_column(eus, scores), delta)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_threshold_grid_supported(self):
        rng = np.random.default_rng(4)
        eus = rng.uniform(0, 2, size=300)
        scores = eus + rng.normal(0, 0.3, size=300)
        for delta in (math.log(1.5), math.log(2), math.log(3)):
            value = aucroc(*se_column(eus, scores), delta)
            assert 0.5 < value <= 1.0

    def test_single_class_names_delta(self):
        with pytest.raises(DegenerateInputError, match="0.6931"):
            aucroc(*se_column([0.1, 0.2], [1, 2]), LN2)


class TestSummarize:
    def test_constant(self):
        s = summarize([1, 1, 1])
        assert s.mean == 1.0
        assert s.std == 0.0

    def test_two_values_population_std(self):
        s = summarize([0, 1])
        assert s.mean == 0.5
        assert s.std == 0.5

    def test_histogram_shape_and_total(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, size=500)
        s = summarize(values, bins=12)
        assert len(s.bin_counts) == 12
        assert s.bin_counts.sum() == 500
        rows = s.histogram_rows()
        assert len(rows) == 12
        assert rows[0][0] == pytest.approx(values.min())

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            summarize([])

    def test_containers_and_iterables_summarize_alike(self):
        values = np.random.default_rng(6).exponential(size=300)
        want = summarize(values, bins=9)
        for given_values in (values.tolist(), tuple(values.tolist()), iter(values.tolist()),
                             values[:, None]):
            got = summarize(given_values, bins=9)
            assert (got.mean, got.std) == (want.mean, want.std)
            assert got.bin_edges.tobytes() == want.bin_edges.tobytes()
            assert got.bin_counts.tobytes() == want.bin_counts.tobytes()

    def test_array_is_not_copied_into_scalars(self):
        values = np.random.default_rng(7).random(200_000)
        summarize(values[:10])
        tracemalloc.start()
        try:
            summarize(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one NumPy scalar per value would take 32 bytes each, 4x the array
        assert peak < 2 * values.nbytes


# Small integer grids give heavy ties in truth, in score and in both at once.
tied_pairs = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)
oracle_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestArrayEntryPoints:
    @oracle_settings
    @given(tied_pairs)
    @example(([0, 1, 2, 3], [2, 2, 2, 2]))
    def test_concordance_matches_brute_force(self, pair):
        eus, scores = (np.array(v, dtype=float) for v in pair)
        if (eus == eus[0]).all():
            with pytest.raises(DegenerateInputError):
                concordance(eus, scores)
            return
        expected = brute_concordance(eus.tolist(), scores.tolist())
        assert concordance(eus, scores) == expected

    @oracle_settings
    @given(tied_pairs, st.sampled_from([0.5, 1.5, 2.5]))
    @example(([0, 1, 2, 3], [2, 2, 2, 2]), 1.5)
    def test_aucroc_matches_brute_force(self, pair, delta):
        eus, scores = (np.array(v, dtype=float) for v in pair)
        assume((eus >= delta).any() and (eus < delta).any())
        expected = brute_aucroc(eus.tolist(), scores.tolist(), delta)
        assert aucroc(eus, scores, delta) == expected

    # 70,000 > 2**16 distinct score ranks: the lowest passes of the inversion
    # count sort 32-bit keys, the higher ones 16- and 8-bit keys
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_concordance_matches_merge_sort_at_scale(self, tied):
        rng = np.random.default_rng(7)
        n = 70_000
        eus = rng.integers(0, 500, size=n) / 100.0 if tied else rng.uniform(0, 5, size=n)
        scores = eus + rng.normal(0, 1.0, size=n)
        if tied:
            scores = np.round(scores, 6)
        assert np.unique(scores).size > 2**16
        assert (np.unique(scores).size < n) == tied
        expected = merge_sort_concordance(eus.tolist(), scores.tolist())
        assert concordance(eus, scores) == expected

    def test_score_columns_agree(self):
        rng = np.random.default_rng(6)
        eus = rng.uniform(0, 1.5, size=300)
        scores = np.round(eus + rng.normal(0, 0.3, size=300), 1)
        assert concordance(*se_column(eus, scores)) == concordance(eus, scores)
        assert aucroc(*se_column(eus, scores), LN2) == aucroc(eus, scores, LN2)

    def test_score_columns_order(self):
        records = [
            EvalRecord("a", 0.3, {"SE": 1.0, "MI": 2.0}),
            EvalRecord("b", 0.1, {"SE": 3.0}),
            EvalRecord("c", 0.2, {"MI": 4.0, "SE": 5.0}),
        ]
        columns = score_columns(records)
        assert list(columns) == ["MI", "SE"]
        assert [c.tolist() for c in columns["MI"]] == [[0.3, 0.2], [2.0, 4.0]]
        assert [c.tolist() for c in columns["SE"]] == [[0.3, 0.1, 0.2], [1.0, 3.0, 5.0]]
        assert score_columns([]) == {}

    # The concordance case keeps the id it had under the function's former name.
    @pytest.mark.parametrize("fn", [pytest.param(concordance, id="concordance_from_scores"),
                                    lambda t, s: aucroc(t, s, 0.5)])
    def test_bad_arrays_rejected(self, fn):
        with pytest.raises(ValidationError, match="finite"):
            fn([0.1, math.nan, 0.9], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="finite"):
            fn([0.1, 0.5, 0.9], [1.0, math.inf, 3.0])
        with pytest.raises(ValidationError, match="equal length"):
            fn([0.1, 0.5, 0.9], [1.0, 2.0])
