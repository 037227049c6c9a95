"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.

Criterion 2 checks the published Table 2 rows in two ways. The program's
probabilities must equal the exact co-occurrence normalization counts/total
(to 1e-12), and their sum-preserving two-decimal display (largest-remainder
rounding, as the table prints it) must equal the published row digit for
digit: 25/88 = 0.28409 is printed as 0.29 because the row's missing cent goes
to the largest remainder.
"""

import math
import time

import numpy as np
import pytest

from dirichlet_reference import mc_expected_aleatoric, mc_expected_epistemic

from ambiuq.bounds import mi_counterexample, nonidentifiability_witnesses
from ambiuq.corpus import (
    QuestionSpec,
    build_ground_truth,
    build_index,
    chunk_corpus,
    cooccurrence_count,
    stem_terms,
)
from ambiuq.dirichlet import (
    expected_aleatoric,
    expected_epistemic,
    posterior,
)
from ambiuq.dist import (
    Categorical,
    decompose,
    entropy,
    normalize,
    row_cross_entropy,
    row_entropy,
    row_kl,
)
from ambiuq.estimators import EnsemblePrediction, mutual_information
from ambiuq.metrics import EvalRecord, aucroc, concordance, score_columns
from ambiuq.simlab import (FREE_AU, ZERO_AU, SimConfig, ablation_truths, gamma_ablation,
                           run_experiment)

LN2 = math.log(2.0)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_01_additivity():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    total = 0
    for k in range(2, 31):
        n = 100_000 // 29 + 1
        p_star = rng.dirichlet(np.ones(k), size=n)
        p = rng.dirichlet(np.ones(k), size=n)
        gap = np.abs(
            row_cross_entropy(p_star, p) - row_entropy(p_star) - row_kl(p_star, p)
        )
        worst = max(worst, float(gap.max()))
        total += n
    # tie the array layer to the object API on a subsample
    for _ in range(2_000):
        k = int(rng.integers(2, 31))
        classes = tuple(f"c{i}" for i in range(k))
        parts = decompose(
            Categorical(classes, rng.dirichlet(np.ones(k))),
            Categorical(classes, rng.dirichlet(np.ones(k))),
        )
        worst = max(worst, abs(parts.total - parts.aleatoric - parts.epistemic))
    elapsed = time.monotonic() - start
    report(
        1,
        "eq1-additivity",
        total >= 100_000 and worst <= 1e-9 and elapsed < 5.0,
        f"pairs={total + 2000}, max|CE-AU-EU|={worst:.2e}, {elapsed:.2f}s",
    )


def largest_remainder_cents(probs) -> list[int]:
    """Two-decimal display of a distribution in integer cents summing to 100.

    Each entry is floored to whole cents; the cents still missing from 100
    go one each to the largest remainders, ties broken by lower index.
    """
    scaled = np.asarray(probs, dtype=float) * 100.0
    cents = np.floor(scaled).astype(int)
    short = 100 - int(cents.sum())
    order = np.argsort(-(scaled - cents), kind="stable")
    cents[order[:short]] += 1
    return cents.tolist()


def test_02_table2_reproduction():
    rows = {  # name: (co-occurrence counts, published row in cents)
        "fire": ([31, 32, 25], [35, 36, 29]),
        "frozen": ([188, 91], [67, 33]),
    }
    dists = {name: normalize(counts) for name, (counts, _) in rows.items()}
    shown = {name: largest_remainder_cents(d.probs) for name, d in dists.items()}
    checks = {
        "fire entropy 1.10+/-0.01": abs(entropy(dists["fire"]) - 1.10) <= 0.01,
        "frozen entropy 0.63+/-0.01": abs(entropy(dists["frozen"]) - 0.63) <= 0.01,
    }
    for name, (counts, published) in rows.items():
        exact = np.asarray(counts, dtype=float) / sum(counts)
        checks[f"{name} probs == counts/total to 1e-12"] = bool(
            np.all(np.abs(dists[name].probs - exact) <= 1e-12)
        )
        checks[f"{name} displayed cents == {published}"] = shown[name] == published
    failed = [name for name, ok in checks.items() if not ok]
    probs = {name: np.round(d.probs, 5).tolist() for name, d in dists.items()}
    report(
        2,
        "table2-reproduction",
        not failed,
        "all checks pass" if not failed else
        f"failed: {failed}; probs={probs}, displayed cents={shown}",
    )


def test_03_theorem1_exactness():
    start = time.monotonic()
    deltas = (0.25, 0.5, LN2, 1.0)
    violations = 0
    populations = 0
    for k in (3, 10, 30):
        result = run_experiment(
            SimConfig(k=k, n=100_000, seed=k, regime=ZERO_AU, noise=2.0, deltas=deltas)
        )
        for entry in result.report["theorem_1"]:
            violations += entry["violations"]
            populations += 1
    elapsed = time.monotonic() - start
    report(
        3,
        "theorem1-exactness",
        violations == 0 and populations == 12 and elapsed < 60.0,
        f"12 (k, delta) populations x 1e5 draws, violations={violations}, "
        f"{elapsed:.1f}s",
    )


def test_04_theorem2_frequency_bound():
    deltas = (0.25, 0.5, LN2)
    checked = 0
    failures = []
    for noise in (0.5, 2.0, 8.0, 32.0):
        result = run_experiment(
            SimConfig(k=3, n=10_000, seed=17, regime=ZERO_AU, noise=noise, deltas=deltas)
        )
        for entry in result.report["theorem_2"]:
            if not entry.get("applicable"):
                continue
            checked += 1
            if entry["observed_conditional_freq"] < entry["prob_lower_bound"]:
                failures.append((noise, entry["delta"]))
    report(
        4,
        "theorem2-frequency-bound",
        checked >= 8 and not failures,
        f"{checked} populations checked, violations={failures or 0}",
    )


def test_05_prop1_witnesses():
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    for _ in range(1_000):
        k = int(rng.integers(2, 11))
        p = Categorical(tuple(f"c{i}" for i in range(k)), rng.dirichlet(np.ones(k)))
        _, p2, kl1, kl2 = nonidentifiability_witnesses(p)
        assert kl1 == 0.0
        direct = -math.log(float(p.probs.min()))
        worst_gap = max(worst_gap, abs(kl2 - direct))
        assert abs(kl2 - direct) <= 1e-12
        assert kl2 >= math.log(k)
    report(5, "prop1-witnesses", True, f"1000 draws, max|kl2-(-ln min p)|={worst_gap:.1e}")


def test_06_prop2_mi_counterexample():
    results = []
    for k in (2, 5):
        classes = tuple(f"c{i}" for i in range(k))
        vertices = [
            Categorical(classes, np.eye(k)[i]) for i in range(k)
        ]
        p_star, eu = mi_counterexample(vertices)
        results.append(eu == 0.0)
        assert np.allclose(p_star.probs, 1.0 / k)
        # epsilon-imputed members: 1-(k-1)*eps on one class, eps elsewhere
        eps = 0.01
        members = tuple(
            Categorical(classes, np.where(np.arange(k) == i, 1 - (k - 1) * eps, eps))
            for i in range(k)
        )
        mi = mutual_information(EnsemblePrediction(members))
        h_member = -(1 - (k - 1) * eps) * math.log(1 - (k - 1) * eps) \
            - (k - 1) * eps * math.log(eps)
        hand = math.log(k) - h_member
        results.append(abs(mi - hand) <= 1e-3)
        if k == 2:
            results.append(abs(mi - 0.6371) <= 1e-3)
    report(6, "prop2-mi-counterexample", all(results), "eu exactly 0, MI matches ln K - H")


def test_07_mi_identity():
    rng = np.random.default_rng(7)
    checked = 0
    max_gap = 0.0
    for k, m in ((2, 3), (4, 3), (6, 5), (10, 2)):
        batch = 2_500
        members = rng.dirichlet(np.ones(k), size=(batch, m))
        p_bar = members.mean(axis=1)
        kl_form = row_kl(members, p_bar[:, None, :]).mean(axis=1)
        ent_form = row_entropy(p_bar) - row_entropy(members).mean(axis=1)
        gap = np.abs(kl_form - ent_form)
        max_gap = max(max_gap, float(gap.max()))
        assert (gap <= 1e-9).all()
        assert (kl_form <= row_entropy(p_bar) + 1e-9).all()
        checked += batch
    report(7, "mi-identity", checked == 10_000, f"{checked} ensembles, max gap={max_gap:.1e}")


def test_08_dirichlet_closed_forms():
    start = time.monotonic()
    assert expected_aleatoric(posterior([0, 0])) == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(8)
    cells = 0
    for k in (2, 3, 5, 10):
        counts = rng.integers(0, 501, size=k)
        p = rng.dirichlet(np.ones(k))
        for gamma in (1.0, 2.0, 5.0, 10.0, 100.0):
            d = posterior(counts, gamma)
            ea_mean, ea_se = mc_expected_aleatoric(d, draws=100_000, seed=cells)
            assert abs(expected_aleatoric(d) - ea_mean) <= 3 * max(ea_se, 1e-12)
            ee_mean, ee_se = mc_expected_epistemic(d, p, draws=100_000, seed=1000 + cells)
            assert abs(expected_epistemic(d, p) - ee_mean) <= 3 * max(ee_se, 1e-12)
            cells += 1
    elapsed = time.monotonic() - start
    report(
        8,
        "dirichlet-closed-forms",
        cells == 20 and elapsed < 120.0,
        f"20 grid cells x 1e5 draws within 3 SE, uniform prior E[H]=0.5, {elapsed:.1f}s",
    )


def brute_concordance(eus, scores):
    credit, comparable = 0.0, 0
    n = len(eus)
    for i in range(n):
        for j in range(i + 1, n):
            if eus[i] == eus[j]:
                continue
            comparable += 1
            direction = (eus[i] - eus[j]) * (scores[i] - scores[j])
            if direction > 0:
                credit += 1.0
            elif scores[i] == scores[j]:
                credit += 0.5
    return credit / comparable if comparable else None


def brute_aucroc(eus, scores, delta):
    pos = [s for t, s in zip(eus, scores) if t >= delta]
    neg = [s for t, s in zip(eus, scores) if t < delta]
    if not pos or not neg:
        return None
    credit = sum(
        1.0 if sp > sn else (0.5 if sp == sn else 0.0) for sp in pos for sn in neg
    )
    return credit / (len(pos) * len(neg))


def test_09_metrics_oracle_equivalence():
    rng = np.random.default_rng(9)
    instances = 0
    while instances < 100:
        n = int(rng.integers(2, 201))
        # mixed continuous / tie-heavy integer instances
        if instances % 2:
            eus = rng.integers(0, 5, size=n).astype(float)
            scores = rng.integers(0, 5, size=n).astype(float)
        else:
            eus = rng.uniform(0, 1.5, size=n)
            scores = rng.uniform(0, 1.5, size=n)
        records = [
            EvalRecord(f"q{i}", float(t), {"SE": float(s)})
            for i, (t, s) in enumerate(zip(eus, scores))
        ]
        expected = brute_concordance(eus.tolist(), scores.tolist())
        if expected is None:
            continue
        truth, score = score_columns(records)["SE"]
        assert concordance(truth, score) == pytest.approx(expected, abs=1e-12)
        base = concordance(truth, score)
        exp_records = [
            EvalRecord(r.question_id, r.true_eu, {"SE": math.exp(r.scores["SE"])})
            for r in records
        ]
        assert concordance(*score_columns(exp_records)["SE"]) == pytest.approx(base, abs=1e-12)
        delta = float(rng.uniform(0.2, 1.2))
        expected_auc = brute_aucroc(eus.tolist(), scores.tolist(), delta)
        if expected_auc is not None:
            assert aucroc(truth, score, delta) == pytest.approx(expected_auc, abs=1e-12)
        instances += 1
    report(9, "metrics-oracle-equivalence", instances == 100, "100 instances, exact match")


def test_10_corpus_counts():
    rng = np.random.default_rng(10)
    vocab = np.array([f"w{i:03d}" for i in range(300)])
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(8_000)]
    planted = rng.choice(8_000, size=200, replace=False)
    for pos in planted[:120]:
        texts[pos] += " quartz crystal lattice"
    for pos in planted[120:]:
        texts[pos] += " quartz geode"
    texts += ["ruby laser cavity"] * 1_500
    chunks = list(chunk_corpus([("doc", texts)]))
    assert len(chunks) <= 10_000
    index = build_index(chunks)

    def brute(keywords, answer):
        required = set()
        for kw in keywords:
            required |= stem_terms(kw)
        required |= stem_terms(answer)
        return sum(1 for c in chunks if required <= c.stemmed_terms)

    queries = [(["quartz"], "lattice"), (["quartz"], "geode"), (["quartz"], "absent"),
               (["crystal"], "quartz"), (["ruby laser"], "cavity")]
    for kw, ans in queries:
        assert cooccurrence_count(index, kw, ans, cap=10_000) == brute(kw, ans)
    assert brute(["ruby"], "cavity") == 1_500
    assert cooccurrence_count(index, ["ruby"], "cavity", cap=1_000) == 1_000

    specs = [
        QuestionSpec("q-a", "?", ("quartz",), ("lattice", "geode")),
        QuestionSpec("q-b", "?", ("quartz",), ("lattice", "unobtainium")),
    ]
    by_id = {r.question_id: r for r in build_ground_truth(index, specs, cap=1_000)}
    assert not by_id["q-a"].discarded and by_id["q-a"].counts == (120, 80)
    assert by_id["q-b"].discarded
    report(10, "corpus-counts", True,
           "index == full scan, cap 1500->1000, discard rule")


def test_11_regime_contrast():
    zero = run_experiment(SimConfig(regime=ZERO_AU))
    free = run_experiment(SimConfig(regime=FREE_AU))
    gap = zero.report["concordance"]["SE"] - free.report["concordance"]["SE"]
    high_noise = [
        run_experiment(
            SimConfig(regime=FREE_AU, noise=noise, seed=21)
        ).report["concordance"]["SE"]
        for noise in (20.0, 50.0)
    ]
    ok = gap >= 0.1 and all(abs(c - 0.5) <= 0.1 for c in high_noise)
    report(
        11,
        "regime-contrast",
        ok,
        f"zero-AU={zero.report['concordance']['SE']:.3f}, "
        f"free-AU={free.report['concordance']['SE']:.3f}, "
        f"high-noise free-AU={[round(c, 3) for c in high_noise]}",
    )


def test_12_gamma_ablation(tmp_path):
    cfg = SimConfig(k=3, n=400, seed=2, regime=FREE_AU, noise=8.0, counts_total=200)
    result = run_experiment(cfg)
    group = (slice(None), result.counts.astype(float), result.p_model)
    truths = ablation_truths([group], cfg.n, (1.0, 2.0, 5.0, 10.0, 100.0, 1e6))
    rows = gamma_ablation(truths, result.scores)
    by_gamma = {r["gamma"]: r["concordance"] for r in rows if r["estimator"] == "SE"}
    converged = abs(by_gamma[1e6] - by_gamma["point"]) <= 0.005

    import csv
    import json

    from ambiuq.cli import main

    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(
        {"k": 3, "n": 400, "seed": 2, "regime": "free-AU", "noise": 8.0,
         "counts_total": 200}
    ))
    ablation = tmp_path / "ablation.csv"
    code = main(
        ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.jsonl"),
         "--report", str(tmp_path / "rep.json"), "--ablation-csv", str(ablation),
         "--gammas", "1,2,5,10,100"]
    )
    with open(ablation, newline="") as fh:
        grid = [row["gamma"] for row in csv.DictReader(fh) if row["estimator"] == "SE"]
    report(
        12,
        "gamma-ablation",
        converged and code == 0 and grid == ["1.0", "2.0", "5.0", "10.0", "100.0", "point"],
        f"|conc(1e6) - conc(point)|={abs(by_gamma[1e6] - by_gamma['point']):.4f}, "
        f"CSV grid={grid[:5]}",
    )
