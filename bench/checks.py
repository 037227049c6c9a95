"""Output checks: each workload's files against the benchmark's own
recomputation. Run in the work directory after the timed jobs.

``run(plan)`` returns one ``{"commands", "check", "ok", "detail"}`` per
check; ``commands`` names the CLI command whose output is checked.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

import workloads
from filter_cmd import accepts

RECOUNT_SAMPLE = 40
CSV_TOL = 5e-7 + 1e-12  # six decimals in the CSV
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _jsonl(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _result(command, check, failures) -> dict:
    failures = list(failures)
    return {"commands": [command], "check": check, "ok": not failures,
            "detail": "; ".join(map(str, failures[:5]))}


def _corpus_gt(plan) -> list:
    # Stemming is the one step taken from the program (ambiuq.porter, which
    # its own tests pin to the reference rules); splitting, tokenizing,
    # matching, the cap and the filter are recomputed here.
    from ambiuq.porter import stem

    cap = plan["expect"]["cap"]
    specs = _jsonl("in/specs.jsonl")
    kept = _jsonl("out/gt.jsonl")
    discarded = _jsonl("out/gt.discards.jsonl")
    out = []

    ids = [r["question_id"] for r in kept + discarded]
    expected = sorted(s["question_id"] for s in specs)
    out.append(_result("build-gt", "each spec once in output or discard log",
                       [] if sorted(ids) == expected else [f"{len(ids)} ids for {len(expected)} specs"]))

    bad = []
    for r in kept:
        counts = np.array(r["counts"], dtype=float)
        p = np.array(r["p_star"]["probs"])
        if r["p_star"]["classes"] != r["answers"] or not np.allclose(p, counts / counts.sum(), rtol=0, atol=1e-15):
            bad.append(r["question_id"])
    out.append(_result("build-gt", "p_star = counts/sum(counts)", bad))
    bad = [r["question_id"] for r in kept if min(r["counts"]) == 0]
    bad += [r["question_id"] for r in discarded if r["counts"] and min(r["counts"]) > 0]
    out.append(_result("build-gt", "discarded exactly when an answer has zero count", bad))

    stems = {}

    def terms(text):
        words = _TOKEN_RE.findall(text.casefold())
        for w in words:
            if w not in stems:
                stems[w] = stem(w)
        return frozenset(stems[w] for w in words)

    chunks = [(cid, terms(text)) for cid, text in workloads.iter_chunks(_jsonl("in/corpus.jsonl"))]
    by_id = {r["question_id"]: r for r in kept + discarded}
    pairs = [(s, j) for s in specs for j in range(len(s["answers"]))]
    rng = np.random.default_rng(plan["seed"])
    bad = []
    for i in sorted(rng.choice(len(pairs), size=min(RECOUNT_SAMPLE, len(pairs)), replace=False)):
        spec, j = pairs[i]
        answer = spec["answers"][j]
        required = frozenset().union(*(terms(k) for k in spec["keywords"]), terms(answer))
        matches = [cid for cid, ts in chunks if required <= ts]
        count = sum(accepts(cid) for cid in matches[:cap])
        record = by_id[spec["question_id"]]
        got = (record["counts"][j], record["raw_matches"][j])
        if got != (count, len(matches)):
            bad.append(f"{spec['question_id']}/{answer}: got {got}, recount {(count, len(matches))}")
    out.append(_result("build-gt", f"recount of {RECOUNT_SAMPLE} sampled (spec, answer) pairs", bad))
    return out


def _brute_concordance(truth, score) -> float:
    dt = np.sign(truth[:, None] - truth[None, :])
    ds = np.sign(score[:, None] - score[None, :])
    comparable = dt != 0
    agree = (dt * ds > 0).sum() + 0.5 * ((ds == 0) & comparable).sum()
    return float(agree / comparable.sum())


def _brute_auc(truth, score, delta):
    pos, neg = score[truth >= delta], score[truth < delta]
    if not len(pos) or not len(neg):
        return None
    diff = pos[:, None] - neg[None, :]
    return float((diff > 0).mean() + 0.5 * (diff == 0).mean())


def _rank_metrics(records, metrics_rows, deltas, command) -> list:
    """Every metrics.csv cell against brute-force pair counting; an empty
    cell must be exactly an undefined metric."""
    bad = []
    for row in metrics_rows:
        name = row["estimator"]
        carried = [r for r in records if name in r["scores"]]
        truth = np.array([r["true_eu"] for r in carried])
        score = np.array([r["scores"][name] for r in carried])
        expect = {"concordance": _brute_concordance(truth, score)}
        for d in deltas:
            expect[f"aucroc@{d:.6g}"] = _brute_auc(truth, score, d)
        for col, want in expect.items():
            cell = row[col]
            if (want is None) != (cell == "") or (want is not None and abs(float(cell) - want) > CSV_TOL):
                bad.append(f"{name} {col}: csv {cell!r}, brute force {want}")
    return [_result(command, "metrics.csv against brute-force pair counting", bad)]


def _eval_ablation(plan) -> list:
    records = _jsonl("out/records.jsonl")
    rows = _csv("out/metrics.csv")
    deltas = [float(d) for d in workloads.EVAL_DELTAS.split(",")]
    expect = plan["expect"]
    out = _rank_metrics(records, rows, deltas, "eval")

    point = {r["estimator"]: r["concordance"] for r in _csv("out/ablation.csv") if r["gamma"] == "point"}
    conc = {r["estimator"]: r["concordance"] for r in rows}
    out.append(_result("eval", "ablation point row equals metrics.csv concordance",
                       [] if point == conc else [f"point {point} vs metrics {conc}"]))
    got = (len(records), sum("MSP" not in r["scores"] for r in records),
           sum("MI" not in r["scores"] for r in records))
    want = (expect["questions"], expect["missing_msp"], expect["missing_mi"])
    out.append(_result("eval", "records, MSP-less and MI-less counts as generated",
                       [] if got == want else [f"got {got}, generated {want}"]))
    return out


def h_max(alpha: float, k: int) -> float:
    rest = 1.0 - alpha
    if rest <= 0.0:
        return 0.0
    return -alpha * math.log(alpha) - rest * math.log(rest / (k - 1))


def _simulate_metrics(plan) -> list:
    expect = plan["expect"]
    n, k = expect["n"], expect["k"]
    with open("out/report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    out = []
    thm1 = report["theorem_1"]
    out.append(_result("simulate", "zero Theorem 1 violations at every delta",
                       [t for t in thm1 if t["violations"] != 0] if thm1 else ["no deltas"]))
    for command, path in (("simulate", "out/entropy_hist.csv"), ("metrics", "out/eu_hist.csv")):
        total = sum(int(r["count"]) for r in _csv(path))
        out.append(_result(command, f"{path} counts sum to n",
                           [] if total == n else [f"sum {total} != {n}"]))

    records = _jsonl("out/records.jsonl")
    rows = _csv("out/metrics.csv")
    args = next(c["args"] for c in plan["commands"] if c["name"] == "metrics")
    deltas = [float(d) for d in args[args.index("--deltas") + 1].split(",")]
    empty = [(r["estimator"], col) for r in rows for col, v in r.items() if v == ""]
    out.append(_result("metrics", "every metrics cell filled", empty))
    csv_conc = {r["estimator"]: r["concordance"] for r in rows}
    rep_conc = {name: f"{c:.6f}" for name, c in report["concordance"].items()}
    out.append(_result("metrics", "metrics.csv concordance equals the report's",
                       [] if csv_conc == rep_conc else [f"csv {csv_conc} vs report {rep_conc}"]))
    out.append(_result("simulate", "records file holds n records",
                       [] if len(records) == n else [f"{len(records)} records"]))
    # brute force is quadratic, so the AUC cells are checked on exactly
    # recomputed midranks instead of pairs at this n
    truth = np.array([r["true_eu"] for r in records])
    bad = []
    for row in rows:
        score = np.array([r["scores"][row["estimator"]] for r in records])
        _, inverse, counts = np.unique(score, return_inverse=True, return_counts=True)
        midrank = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
        for d in deltas:
            pos = truth >= d
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            want = (midrank[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            cell = row[f"aucroc@{d:.6g}"]
            if cell == "" or abs(float(cell) - want) > CSV_TOL:
                bad.append(f"{row['estimator']} aucroc@{d:.6g}: csv {cell!r}, midranks {want}")
    out.append(_result("metrics", "AUC cells against recomputed midranks", bad))

    with open("out/bounds.json", "r", encoding="utf-8") as fh:
        b = json.load(fh)
    bad = []
    if abs(h_max(b["alpha_delta"], k) - expect["bound_delta"]) > 1e-9:
        bad.append(f"h_max(alpha_delta) = {h_max(b['alpha_delta'], k)}")
    if abs(b["eu_lower_bound"] + math.log(b["alpha_delta"])) > 1e-12:
        bad.append("eu_lower_bound != -ln(alpha_delta)")
    for point in b["bound_line"]:
        if abs(h_max(math.exp(-point["eu_lower_bound"]), k) - point["delta"]) > 1e-9:
            bad.append(f"bound_line at delta={point['delta']}")
    out.append(_result("bounds", "h_max(alpha_delta) = delta, report and bound line", bad))
    return out


def run(plan) -> list:
    return {"corpus-gt": _corpus_gt, "eval-ablation": _eval_ablation,
            "simulate-metrics": _simulate_metrics}[plan["workload"]](plan)
