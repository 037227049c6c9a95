"""Seeded synthetic inputs and CLI command sequences for the three workloads.

Every input comes from ``numpy.random.default_rng([seed, workload index])``,
so one seed gives byte-identical files. ``prepare`` writes the inputs under
``./in`` and returns a plan: the commands of one job (CLI arguments after
``python -m ambiuq.cli``) with the output files each writes, the item count
that ``job.items_per_s`` divides by, and the facts the output checks need.

Why these workloads:

- ``corpus-gt`` is the only one that runs ``porter``, ``corpus`` and the
  ``--filter-cmd`` round trip. A Zipfian vocabulary makes tokens repeat the
  way text does, which is what stem memoization depends on.
- ``eval-ablation`` runs the per-record ``estimators``/``dist``/``dirichlet``
  path and ``simlab.gamma_ablation``, which ``corpus-gt`` never touches.
- ``simulate-metrics`` is dominated by rank metrics at large n and by a large
  JSONL write followed by a re-read; ``dirichlet`` does no work there.
"""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import sys

import numpy as np

WORKLOADS = ("corpus-gt", "eval-ablation", "simulate-metrics")

# corpus-gt
CORPUS_UNITS = 1_500
VOCAB_TYPES = 20_000
ZIPF_EXPONENT = 1.07
LONG_UNIT_SHARE = 0.01  # units of ~400 tokens, so sentence splitting runs
SPECS = 150
CAP = 50
CHUNK_CHAR_LIMIT = 2000  # the program's documented split threshold
SUFFIXES = ("", "s", "ing", "ed", "er", "ly", "ness", "ment",
            "ful", "ation", "ive", "ous", "ize", "ity", "ence", "able")

# eval-ablation
QUESTIONS = 400
GAMMAS = "1,2,5,10,100"
# ln 1.5, ln 2, ln 3 written at the precision of the CSV column names, so
# the checks binarize at exactly the thresholds the program used
EVAL_DELTAS = "0.405465,0.693147,1.09861"
ENSEMBLE_SIZE = 5
MISSING_SHARE = 0.05  # each of: no best_answer_prob, no ensemble

# simulate-metrics
SIM_N = 25_000
SIM_K = 10
BOUND_LINE_POINTS = 1000
EU_QUANTILES = (0.25, 0.5, 0.75)

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def split_unit(text: str) -> list:
    """The documented chunking rule: a unit longer than the limit is packed
    greedily into pieces of whole sentences. Generated sentences are short,
    so the hard split of one oversized sentence never applies."""
    if len(text) <= CHUNK_CHAR_LIMIT:
        return [text]
    pieces, current = [], ""
    for sentence in _SENTENCE_RE.split(text):
        if len(sentence) > CHUNK_CHAR_LIMIT:
            raise ValueError("generated sentence exceeds the chunk limit")
        if not current:
            current = sentence
        elif len(current) + 1 + len(sentence) <= CHUNK_CHAR_LIMIT:
            current = f"{current} {sentence}"
        else:
            pieces.append(current)
            current = sentence
    pieces.append(current)
    return pieces


def iter_chunks(docs):
    """(chunk_id, text) in corpus order, named as the program names them."""
    for doc in docs:
        for unit_idx, unit in enumerate(doc["sections"]):
            pieces = split_unit(unit)
            for piece_idx, piece in enumerate(pieces):
                suffix = "" if len(pieces) == 1 else f".{piece_idx}"
                yield f"{doc['doc_id']}:{unit_idx}{suffix}", piece


def _command(args: list, outputs: list) -> dict:
    return {"name": args[0], "args": args, "outputs": outputs}


def _roots(rng, n: int) -> list:
    consonants, vowels = "bcdfghklmnprstvz", "aeiou"
    out, seen = [], set()
    while len(out) < n:
        syllables = int(rng.integers(2, 4))
        cs = rng.integers(0, len(consonants), size=syllables + 1)
        vs = rng.integers(0, len(vowels), size=syllables)
        root = "".join(consonants[c] + vowels[v] for c, v in zip(cs, vs))
        root += consonants[cs[-1]]
        if root not in seen:
            seen.add(root)
            out.append(root)
    return out


def _corpus_inputs(rng) -> dict:
    n_roots = -(-VOCAB_TYPES // len(SUFFIXES))
    roots = _roots(rng, n_roots + SPECS)
    unseen = roots[n_roots:]  # roots of answers that occur nowhere
    vocab = np.array([r + s for r in roots[:n_roots] for s in SUFFIXES])
    vocab = vocab[rng.permutation(len(vocab))[:VOCAB_TYPES]]  # index = Zipf rank
    weights = 1.0 / (np.arange(VOCAB_TYPES) + 2.7) ** ZIPF_EXPONENT
    weights /= weights.sum()

    lengths = rng.integers(20, 61, size=CORPUS_UNITS)
    long_units = rng.random(CORPUS_UNITS) < LONG_UNIT_SHARE
    lengths[long_units] = rng.integers(380, 460, size=int(long_units.sum()))
    words = vocab[rng.choice(VOCAB_TYPES, size=int(lengths.sum()), p=weights)]
    sentence_lengths = iter(rng.integers(6, 15, size=int(lengths.sum())).tolist())

    units, start = [], 0
    for length in lengths.tolist():
        unit_words = words[start:start + length].tolist()
        start += length
        sentences, pos = [], 0
        while pos < length:
            sent = unit_words[pos:pos + next(sentence_lengths)]
            pos += len(sent)
            sentences.append(" ".join(sent).capitalize() + ".")
        units.append(" ".join(sentences))

    docs, pos, doc_idx = [], 0, 0
    while pos < len(units):
        size = int(rng.integers(5, 16))
        docs.append({"doc_id": f"d{doc_idx:05d}", "sections": units[pos:pos + size]})
        pos += size
        doc_idx += 1

    # One mid-frequency keyword per spec; answers are a frequent word (which
    # hits --cap), two middling ones and sometimes a word absent from the
    # corpus (zero counts, so a discard). Fixed tiers keep the filter round
    # trips steady from seed to seed.
    specs = []
    for i in range(SPECS):
        keyword = str(vocab[rng.integers(40, 120)])
        ranks = [int(rng.integers(0, 20)), *rng.integers(20, 600, size=2).tolist()]
        answers = vocab[ranks].tolist()
        if rng.random() < 0.2:
            answers.append(unseen[i] + SUFFIXES[int(rng.integers(len(SUFFIXES)))])
        answers = list(dict.fromkeys(answers))  # duplicates would be discarded
        specs.append({
            "question_id": f"s{i:04d}",
            "question": f"What goes with {keyword}?",
            "keywords": [keyword],
            "answers": answers,
        })

    write_jsonl("in/corpus.jsonl", docs)
    write_jsonl("in/specs.jsonl", specs)
    filter_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "filter_cmd.py")
    return {
        "items": sum(1 for _ in iter_chunks(docs)),
        "item_unit": "chunks",
        "commands": [_command(
            ["build-gt", "--corpus", "in/corpus.jsonl", "--specs", "in/specs.jsonl",
             "--out", "out/gt.jsonl", "--discard-log", "out/gt.discards.jsonl",
             "--cap", str(CAP), "--filter-cmd",
             f"{shlex.quote(sys.executable)} {shlex.quote(filter_script)}"],
            ["out/gt.jsonl", "out/gt.discards.jsonl"],
        )],
        "expect": {"cap": CAP},
    }


def _variant(rng, name: str) -> str:
    forms = (name, name.upper(), name.title(), name + ".", name.capitalize() + "!",
             f" {name}?")
    return forms[int(rng.integers(len(forms)))]


def _eval_inputs(rng) -> dict:
    pool = [f"{a} {b}" for a, b in zip(_roots(rng, 600), _roots(rng, 600))]
    gt_rows, pred_rows = [], []
    missing_msp = missing_mi = 0
    for i in range(QUESTIONS):
        qid = f"q{i:06d}"
        k = int(rng.integers(2, 9))
        picks = rng.choice(len(pool), size=k + 2, replace=False)
        names = [pool[j] for j in picks[:k]]
        model_only = [pool[j] for j in picks[k:k + int(rng.integers(0, 3))]]
        answers = [n.title() for n in names]
        counts = rng.integers(1, 50, size=k)
        gt_rows.append({
            "question_id": qid,
            "answers": answers,
            "counts": counts.tolist(),
            "raw_matches": counts.tolist(),
            "discarded": False,
            "p_star": {"classes": answers, "probs": (counts / counts.sum()).tolist()},
        })

        # the model misses some true classes (epsilon imputation) and adds
        # classes of its own; texts differ from the truth in case and
        # punctuation only
        kept = [j for j in range(k) if rng.random() > 0.25] or [0]
        model = [names[j] for j in kept] + model_only
        weights = np.concatenate([counts[kept], np.full(len(model_only), 5.0)])
        weights = weights * rng.dirichlet(np.full(len(model), 1.5))
        weights /= weights.sum()
        samples = [
            {"text": _variant(rng, model[j]), "seq_prob": float(rng.uniform(0.05, 1.0))}
            for j in rng.choice(len(model), size=10, p=weights).tolist()
        ]
        pred = {"question_id": qid, "samples": samples}
        u = rng.random()
        if u >= MISSING_SHARE:
            pred["best_answer_prob"] = float(rng.uniform(0.1, 1.0))
        else:
            missing_msp += 1
        if not MISSING_SHARE <= u < 2 * MISSING_SHARE:
            members = []
            for _ in range(ENSEMBLE_SIZE):
                classes = [n for n in model if rng.random() > 0.15] or model[:1]
                probs = rng.dirichlet(np.full(len(classes), 2.0))
                members.append({"classes": [_variant(rng, c) for c in classes],
                                "probs": probs.tolist()})
            # a member's raw labels must be unique; variants rarely collide
            if all(len(set(m["classes"])) == len(m["classes"]) for m in members):
                pred["ensemble"] = members
        if "ensemble" not in pred:
            missing_mi += 1
        pred_rows.append(pred)

    write_jsonl("in/gt.jsonl", gt_rows)
    write_jsonl("in/preds.jsonl", pred_rows)
    return {
        "items": QUESTIONS,
        "item_unit": "questions",
        "commands": [_command(
            ["eval", "--ground-truth", "in/gt.jsonl", "--predictions", "in/preds.jsonl",
             "--records-out", "out/records.jsonl", "--metrics-out", "out/metrics.csv",
             "--ablation-out", "out/ablation.csv", "--dirichlet-gamma", GAMMAS,
             "--deltas", EVAL_DELTAS],
            ["out/records.jsonl", "out/metrics.csv", "out/ablation.csv"],
        )],
        "expect": {"questions": QUESTIONS, "missing_msp": missing_msp,
                   "missing_mi": missing_mi},
    }


def _simulate_inputs(rng, run_cli) -> dict:
    config = {"k": SIM_K, "n": SIM_N, "seed": int(rng.integers(2**31)),
              "regime": "zero-AU", "ensemble_size": ENSEMBLE_SIZE,
              "deltas": [math.log(1.5), math.log(2.0), math.log(3.0), math.log(5.0)]}
    with open("in/sim.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
    simulate = ["simulate", "--config", "in/sim.json", "--out", "out/records.jsonl",
                "--report", "out/report.json", "--scatter-csv", "out/scatter.csv",
                "--hist-csv", "out/entropy_hist.csv"]

    # The default --deltas lie above every EU of this population, which
    # would leave every AUC cell empty; take them from its EU quantiles.
    run_cli(simulate)
    with open("out/records.jsonl", "r", encoding="utf-8") as fh:
        eu = np.array([json.loads(line)["true_eu"] for line in fh])
    deltas = ",".join(f"{q:.6g}" for q in np.quantile(eu, EU_QUANTILES))
    bound_delta = math.log(3.0)
    return {
        "items": SIM_N,
        "item_unit": "records",
        "commands": [
            _command(simulate, ["out/records.jsonl", "out/report.json",
                                "out/scatter.csv", "out/entropy_hist.csv"]),
            _command(["metrics", "--records", "out/records.jsonl", "--metrics-out",
                      "out/metrics.csv", "--hist-out", "out/eu_hist.csv",
                      "--deltas", deltas],
                     ["out/metrics.csv", "out/eu_hist.csv"]),
            _command(["bounds", "--k", str(SIM_K), "--delta", repr(bound_delta),
                      "--bound-line-points", str(BOUND_LINE_POINTS),
                      "--out", "out/bounds.json"],
                     ["out/bounds.json"]),
        ],
        "expect": {"n": SIM_N, "k": SIM_K, "bound_delta": bound_delta},
    }


def prepare(workload: str, seed: int, run_cli) -> dict:
    """Write the workload's inputs under ./in and return its plan.

    Runs in the work directory. ``run_cli(args)`` runs one untimed CLI
    command; only ``simulate-metrics`` needs it, to pick its thresholds.
    """
    os.makedirs("in", exist_ok=True)
    os.makedirs("out", exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "corpus-gt":
        plan = _corpus_inputs(rng)
    elif workload == "eval-ablation":
        plan = _eval_inputs(rng)
    else:
        plan = _simulate_inputs(rng, run_cli)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
