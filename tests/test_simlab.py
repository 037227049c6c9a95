import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiuq.corpus import GroundTruthRecord
from ambiuq.dirichlet import expected_epistemic, posterior
from ambiuq.dist import normalize, row_entropy, row_kl
from ambiuq.errors import ConfigurationError, ValidationError
from ambiuq.estimators import (AnswerSample, AnswerSampleSet, EquivalenceMap, align, cluster,
                               score_questions)
from ambiuq.formats import parse_sim_config
from ambiuq.metrics import EvalRecord, concordance, score_columns
from ambiuq.simlab import (
    FREE_AU,
    HIGH_AU,
    ZERO_AU,
    SimConfig,
    _sample_models,
    _sample_truths,
    ablation_truths,
    gamma_ablation,
    MAX_CELLS,
    QuestionIds,
    run_experiment,
)

LN2 = math.log(2.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(k=1)
        with pytest.raises(ValidationError):
            SimConfig(n=0)
        with pytest.raises(ValidationError):
            SimConfig(regime="other")
        for noise in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                SimConfig(noise=noise)
        with pytest.raises(ValidationError):
            SimConfig(k=3, deltas=(math.log(3) + 0.2,))
        with pytest.raises(ValidationError, match=r"outside \[0, ln k\]"):
            SimConfig(k=3, deltas=(-1e-11,))
        with pytest.raises(ValidationError, match="delta must be finite"):
            SimConfig(k=3, deltas=(math.nan,))
        # BoundQuery's slack below 0, as bounds accepts
        assert SimConfig(k=3, deltas=(-1e-13,)).deltas == (-1e-13,)
        # built directly, past the --config reader's count checks
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            SimConfig(seed=-1)
        with pytest.raises(ValidationError, match="ensemble_size must be >= 1"):
            SimConfig(ensemble_size=0)
        with pytest.raises(ValidationError, match="counts_total must be >= 0"):
            SimConfig(counts_total=-1)

    # the --config object is parsed by formats.parse_sim_config
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match=r"config keys: \['mystery'\]"):
            parse_sim_config({"k": 3, "mystery": 1})

    def test_from_dict_round_trip(self):
        cfg = parse_sim_config({"k": 4, "n": 10, "seed": 3, "regime": "free-AU"})
        assert cfg == SimConfig(k=4, n=10, seed=3, regime=FREE_AU)


class TestSizeBudget:
    def test_cells_up_to_the_budget_pass(self):
        SimConfig(k=10, n=MAX_CELLS // 20)  # one truth and one prediction
        SimConfig(k=10, n=MAX_CELLS // 50, ensemble_size=5)
        SimConfig(k=50, n=10, regime=HIGH_AU)  # REJECTION_CAP draws of k
        SimConfig(counts_total=2**63 - 1)

    @pytest.mark.parametrize("fields, named", [
        (dict(k=10, n=MAX_CELLS // 20 + 1), "k*n*max(ensemble_size, 2)"),
        (dict(k=10, n=MAX_CELLS // 50, ensemble_size=6), "k*n*max(ensemble_size, 2)"),
        (dict(k=51, n=10, regime=HIGH_AU), "k*1000000 high-AU draws"),
        (dict(k=3, n=10, counts_total=2**63), "counts_total must be <= 2**63 - 1"),
    ])
    def test_over_the_budget_names_the_fields(self, fields, named):
        with pytest.raises(ValidationError) as info:
            SimConfig(**fields)
        assert named in str(info.value)

    def test_bench_and_test_populations_fit(self):
        # simulate-metrics in bench/, and the largest populations of this suite
        SimConfig(k=10, n=25_000, ensemble_size=5)
        SimConfig(k=30, n=100_000)
        SimConfig(k=30, n=100, regime=HIGH_AU)


class TestSampleTruth:
    def test_zero_au_draws_are_vertices(self):
        cfg = SimConfig(k=3, n=1, seed=0, regime=ZERO_AU)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = _sample_truths(cfg, rng, 1)[0]
            assert sorted(p.tolist()) == [0.0, 0.0, 1.0]

    def test_free_au_mean_is_uniform(self):
        cfg = SimConfig(k=4, n=1, seed=0, regime=FREE_AU)
        draws = _sample_truths(cfg, np.random.default_rng(1), 100_000)
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert (np.abs(mean - 0.25) <= 3 * stderr).all()

    def test_high_au_rejection_predicate(self):
        cfg = SimConfig(k=3, n=1, seed=0, regime=HIGH_AU)
        draws = _sample_truths(cfg, np.random.default_rng(2), 5_000)
        assert (row_entropy(draws) >= math.log(3) - 0.1).all()

    def test_high_au_rejection_failure_is_an_error(self):
        # k=30 makes near-maximal entropy essentially unreachable from Dir(1)
        cfg = SimConfig(k=30, n=100, seed=0, regime=HIGH_AU)
        with pytest.raises(ConfigurationError):
            _sample_truths(cfg, np.random.default_rng(3), 100)


class TestSampleModel:
    def test_zero_au_reduction(self):
        cfg = SimConfig(k=2, n=1, seed=0, regime=ZERO_AU, deltas=(0.25, 0.5))
        p_star = _sample_truths(cfg, np.random.default_rng(cfg.seed), 1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = _sample_models(p_star, 3.0, rng)[0]
            y = int(np.argmax(p_star[0]))
            assert row_kl(p_star[0], p) == -math.log(p[y])

    def test_more_noise_means_less_epistemic_uncertainty(self):
        rng = np.random.default_rng(5)
        p_star = np.tile(np.array([0.5, 0.3, 0.2]), (20_000, 1))
        low = row_kl(p_star, _sample_models(p_star, 3.0, rng)).mean()
        high = row_kl(p_star, _sample_models(p_star, 30.0, rng)).mean()
        assert low > high

    def test_concentration_limit(self):
        rng = np.random.default_rng(6)
        p_star = np.tile(np.array([0.6, 0.4]), (5_000, 1))
        eu = row_kl(p_star, _sample_models(p_star, 1e6, rng)).mean()
        assert eu < 1e-3


class TestRunExperiment:
    def test_seed_determinism(self):
        cfg = SimConfig(k=3, n=500, seed=11, regime=FREE_AU, noise=5.0)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert np.array_equal(a.true_eu, b.true_eu)
        assert a.scores.keys() == b.scores.keys()
        assert all(np.array_equal(a.scores[name], b.scores[name]) for name in a.scores)
        assert a.report == b.report

    def test_different_seeds_differ(self):
        base = dict(k=3, n=500, regime=FREE_AU, noise=5.0)
        a = run_experiment(SimConfig(seed=1, **base))
        b = run_experiment(SimConfig(seed=2, **base))
        assert not np.array_equal(a.true_eu, b.true_eu)

    def test_zero_au_concordance_high(self):
        cfg = SimConfig(k=3, n=10_000, seed=0, regime=ZERO_AU, noise=10.0)
        res = run_experiment(cfg)
        assert res.report["concordance"]["SE"] >= 0.7

    def test_free_au_concordance_near_chance(self):
        cfg = SimConfig(k=3, n=10_000, seed=0, regime=FREE_AU, noise=10.0)
        res = run_experiment(cfg)
        assert abs(res.report["concordance"]["SE"] - 0.5) <= 0.1

    def test_regime_contrast(self):
        zero = run_experiment(SimConfig(k=3, n=10_000, seed=0, regime=ZERO_AU))
        free = run_experiment(SimConfig(k=3, n=10_000, seed=0, regime=FREE_AU))
        gap = zero.report["concordance"]["SE"] - free.report["concordance"]["SE"]
        assert gap >= 0.1

    def test_theorem_1_no_violations(self):
        cfg = SimConfig(
            k=3, n=20_000, seed=3, regime=ZERO_AU, noise=2.0,
            deltas=(0.25, 0.5, LN2, 1.0),
        )
        res = run_experiment(cfg)
        for entry in res.report["theorem_1"]:
            assert entry["violations"] == 0

    def test_theorem_2_bound_holds(self):
        for noise in (0.5, 2.0, 8.0):
            cfg = SimConfig(
                k=3, n=10_000, seed=4, regime=ZERO_AU, noise=noise,
                deltas=(0.25, 0.5, LN2),
            )
            res = run_experiment(cfg)
            for entry in res.report["theorem_2"]:
                if entry.get("applicable"):
                    assert entry["observed_conditional_freq"] >= entry["prob_lower_bound"]

    def test_bounds_not_applied_outside_zero_au(self):
        res = run_experiment(SimConfig(k=3, n=100, seed=0, regime=FREE_AU))
        assert isinstance(res.report["theorem_1"], str)

    def test_ensemble_mi_scores(self):
        cfg = SimConfig(k=3, n=2_000, seed=5, regime=FREE_AU, noise=5.0, ensemble_size=3)
        res = run_experiment(cfg)
        assert "MI" in res.scores
        assert res.scores["MI"].shape == res.true_eu.shape == (cfg.n,)
        se = res.scores["SE"]
        mi = res.scores["MI"]
        # Eq.-2 style bound: MI never exceeds the entropy of the mean member
        assert (mi <= se + 1e-9).all()

    @pytest.mark.parametrize("ensemble_size", [1, 3])
    def test_records_property_matches_arrays(self, ensemble_size):
        cfg = SimConfig(k=4, n=300, seed=8, regime=FREE_AU, ensemble_size=ensemble_size)
        res = run_experiment(cfg)
        records = res.records
        assert [r.question_id for r in records] == [f"q{i:06d}" for i in range(cfg.n)]
        assert [r.true_eu for r in records] == res.true_eu.tolist()
        for name, vals in res.scores.items():
            assert [r.scores[name] for r in records] == vals.tolist()
        assert all(r.scores.keys() == res.scores.keys() for r in records)

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_question_ids_are_the_list_sliced_per_block(self, n):
        ids, expected = QuestionIds(n), [f"q{i:06d}" for i in range(n)]
        assert len(ids) == n and list(ids) == expected
        for i in range(0, n + 1, 1024):
            assert ids[i:i + 1024] == expected[i:i + 1024]
        assert ids[::-7] == expected[::-7] and (n == 0 or ids[-1] == expected[-1])
        with pytest.raises(IndexError):
            ids[n]

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 12), n=st.integers(1, 40), k=st.integers(2, 7),
           seed=st.integers(0, 2**32 - 1), noise=st.floats(0.05, 100.0),
           regime=st.sampled_from([ZERO_AU, FREE_AU]))
    def test_ensemble_mi_equals_batched_formula(self, m, n, k, seed, noise, regime):
        cfg = SimConfig(k=k, n=n, seed=seed, regime=regime, noise=noise, deltas=(0.25,),
                        ensemble_size=m)
        res = run_experiment(cfg)
        # the same draws, stacked into one (n, m, k) array: the object API's floats
        rng = np.random.default_rng(seed)
        p_star = _sample_truths(cfg, rng, n)
        stacked = np.stack([_sample_models(p_star, noise, rng) for _ in range(m)], axis=1)
        p_model = sum((stacked[:, j] for j in range(1, m)), stacked[:, 0]) / m
        mi = row_kl(stacked, p_model[..., None, :]).mean(axis=-1)
        assert res.p_model.tobytes() == p_model.tobytes()
        assert res.scores["MI"].tobytes() == mi.tobytes()

    def test_peak_memory_is_bounded_by_the_members(self):
        # members, truth, mean and the KL scratch: the peak stays below
        # m + 5 full (n, k) float arrays
        cfg = SimConfig(k=10, n=20_000, seed=0, regime=ZERO_AU, ensemble_size=5)
        run_experiment(SimConfig(k=10, n=20, regime=ZERO_AU, ensemble_size=5))  # lazy imports
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (cfg.ensemble_size + 5) * cfg.n * cfg.k * 8

    def test_high_au_population_has_high_aleatoric(self):
        res = run_experiment(SimConfig(k=3, n=2_000, seed=6, regime=HIGH_AU, noise=5.0))
        assert res.report["mean_aleatoric"] >= math.log(3) - 0.1

    def test_nonidentifiability_realized_in_free_regime(self):
        # nearly identical predictions whose true EU differs by ~ln k exist
        cfg = SimConfig(k=3, n=100_000, seed=0, regime=FREE_AU, noise=0.5)
        rng = np.random.default_rng(cfg.seed)
        p_star = _sample_truths(cfg, rng, cfg.n)
        p_model = _sample_models(p_star, cfg.noise, rng)
        eu = row_kl(p_star, p_model)
        keys = np.round(p_model[:, 0] / 0.02) * 1000 + np.round(p_model[:, 1] / 0.02)
        order = np.argsort(keys, kind="stable")
        grouped = np.split(eu[order], np.flatnonzero(np.diff(keys[order])) + 1)
        spread = max(g.max() - g.min() for g in grouped if len(g) > 1)
        assert spread >= math.log(3) - 0.2


def result_ablation(result, gammas):
    """The gamma ablation of a simulated population, as simulate --ablation-csv builds it."""
    group = (slice(None), result.counts.astype(float), result.p_model)
    return gamma_ablation(ablation_truths([group], result.config.n, gammas), result.scores)


class TestGammaAblation:
    def test_grid_emitted_in_order(self):
        cfg = SimConfig(k=3, n=200, seed=2, regime=FREE_AU, noise=8.0, counts_total=100)
        rows = result_ablation(run_experiment(cfg), (1.0, 2.0, 5.0, 10.0, 100.0))
        gammas = [r["gamma"] for r in rows]
        assert gammas == [1.0, 2.0, 5.0, 10.0, 100.0, "point"]

    def test_converges_to_point_estimate(self):
        cfg = SimConfig(k=3, n=400, seed=2, regime=FREE_AU, noise=8.0, counts_total=200)
        rows = result_ablation(run_experiment(cfg), (1e6,))
        by_gamma = {r["gamma"]: r["concordance"] for r in rows}
        assert abs(by_gamma[1e6] - by_gamma["point"]) <= 0.005

    def test_monotone_toward_point_with_decisive_counts(self):
        cfg = SimConfig(k=3, n=400, seed=2, regime=FREE_AU, noise=8.0, counts_total=200)
        rows = result_ablation(run_experiment(cfg), (1.0, 2.0, 5.0, 10.0, 100.0, 1e6))
        values = [r["concordance"] for r in rows if r["gamma"] != "point"]
        point = next(r["concordance"] for r in rows if r["gamma"] == "point")
        gaps = [abs(v - point) for v in values]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_ragged_supports_match_per_record_reference(self):
        # eval's support groups (k = 2..8) give each row the truth of its own
        # counts and imputed model, scored one record at a time
        rng = np.random.default_rng(11)
        questions, per_record = [], []
        for i, k in enumerate(rng.integers(2, 9, size=300)):
            classes = [f"a{j}" for j in range(k)]
            answers = rng.integers(1, k + 1)  # the ground truth's; the prediction has the rest
            counts = rng.integers(0, 30, size=answers)
            counts[0] += 1
            predicted = classes[rng.integers(0, answers):]
            gt = GroundTruthRecord(f"q{i}", tuple(classes[:answers]), tuple(counts.tolist()),
                                   None, False, None, ())
            samples = tuple(AnswerSample(c, float(rng.uniform(0.05, 1.0))) for c in predicted)
            pred = AnswerSampleSet(f"q{i}", samples)
            questions.append((gt, pred))
            star, model = align(normalize(counts, gt.answers), cluster(pred), epsilon=0.01)
            assert star.classes == tuple(classes)
            per_record.append((np.append(counts, [0] * (k - answers)).astype(float), model.probs))
        scores = {"A": rng.uniform(0, 2, size=300), "B": rng.integers(0, 4, size=300)}
        gammas = (1.0, 5.0, 100.0)

        def reference(truth):
            records = [
                EvalRecord(f"q{i}", max(t, 0.0), {n: float(v[i]) for n, v in scores.items()})
                for i, t in enumerate(truth)
            ]
            return {name: concordance(*col) for name, col in score_columns(records).items()}

        groups, _ = score_questions(questions, EquivalenceMap().canonical, 0.01)
        assert sorted(len(c[0]) for _, c, _ in groups) == list(range(2, 9))
        rows = gamma_ablation(ablation_truths(groups, 300, gammas), scores)
        got = {(r["gamma"], r["estimator"]): r["concordance"] for r in rows}
        for gamma in gammas:
            truth = [expected_epistemic(posterior(c, gamma), p) for c, p in per_record]
            for name, value in reference(truth).items():
                assert got[gamma, name] == value
        point = [float(row_kl(c / c.sum(), p)) for c, p in per_record]
        for name, value in reference(point).items():
            assert got["point", name] == value
