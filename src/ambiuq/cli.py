"""Command-line entry point wiring the pipeline stages together.

Subcommands: build-gt (corpus co-occurrence ground truth), eval (estimator
scoring against ground truth), bounds (threshold-bound report), simulate
(synthetic populations + bound verification), metrics (metrics over an
existing record file).

Exit codes: 0 success, 1 fatal I/O, 2 validation/domain error, 3 degenerate
input. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from . import corpus as corpus_mod
from . import formats
from . import porter
from . import simlab
# bench/tracer.py wraps decompose, expected_epistemic, posterior, semantic_entropy; none is called
from .dirichlet import expected_epistemic, posterior
from .dist import decompose, entropy as semantic_entropy, row_entropy
from .errors import (
    DegenerateInputError,
    DomainError,
    EstimatorUnavailableError,
    UQError,
    ValidationError,
)
# bench/tracer.py wraps align, align_ensemble, cluster and mutual_information
# here; eval scores on arrays and calls none of them
from .estimators import (
    DEFAULT_EPSILON,
    EquivalenceMap,
    align,
    align_ensemble,
    cluster,
    msp,
    mutual_information,
    score_questions,
)
from .metrics import EvalRecord, aucroc, concordance, score_columns, summarize


def _warn(msg: str) -> None:
    print(f"ambiuq: {msg}", file=sys.stderr)


def _read(path, parse, unique=None) -> list:
    """The parsed items of a JSONL file, after one warning per skipped line."""
    items, errors = formats.read_jsonl(path, parse, unique)
    for lineno, message in errors:
        _warn(f"{path}:{lineno}: skipped: {message}")
    return [item for _, item in items]


def _parse_float_list(text: str, flag: str, rule: str, ok):
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValidationError(f"{flag}: expected comma-separated numbers: {exc}")
    for v in values:
        if not ok(v):
            raise ValidationError(f"{flag} values must be {rule}, got {v}")
    return values


def _parse_gammas(text: str, flag: str):
    return _parse_float_list(text, flag, "in [1, inf)", lambda g: 1.0 <= g < math.inf)


def _parse_deltas(text: str):
    return _parse_float_list(text, "--deltas", "finite and > 0", lambda d: 0.0 < d < math.inf)


# the largest accepted value runs in a few seconds (README)
MAX_BOUND_LINE_POINTS = 100_000
MAX_HIST_BINS = 1_000_000


def _check_size(value: int, flag: str, low: int, high: int) -> None:
    if value < low:
        raise ValidationError(f"{flag} must be >= {low}, got {value}")
    if value > high:
        raise ValidationError(f"{flag} must be <= {high}, got {value}")


FILTER_TIMEOUT_S = 30.0  # longest wait for the next --filter-cmd reply line, or for its exit


def _request_lines(chunks, question: str, answer: str):
    """Per chunk, json.dumps({"chunk_id", "text", "question", "answer"},
    sort_keys=True) + "\\n" as bytes, from json.dumps's own string escaper."""
    quote = json.encoder.encode_basestring_ascii
    head = f'{{"answer": {quote(answer)}, "chunk_id": '
    middle = f', "question": {quote(question)}, "text": '
    return (f"{head}{quote(c.chunk_id)}{middle}{quote(c.text)}}}\n".encode() for c in chunks)


class CommandFilter:
    """Entailment filter backed by an external command.

    The command receives one JSON object per line on stdin
    ({"chunk_id", "text", "question", "answer"}) and must reply with one
    line per object, in order: yes/no, accept/reject, true/false, or 1/0.
    Requests go out without waiting for replies. A command that exits before
    replying is an I/O error naming its exit code; one that sends no reply
    line within FILTER_TIMEOUT_S is killed, also an I/O error.
    """

    _YES = {"yes", "accept", "true", "1"}
    _NO = {"no", "reject", "false", "0"}

    def __init__(self, command: str):
        # imported here and below, so that commands that start no filter do not load them
        import shlex
        import subprocess

        self.command = command
        try:
            argv = shlex.split(command)
        except ValueError as exc:
            raise ValidationError(f"--filter-cmd {command!r}: {exc}")
        if not argv:
            raise ValidationError(f"--filter-cmd {command!r} names no program")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._buffer = b""  # reply bytes not yet split into lines

    def _take_replies(self, replies: list, n: int) -> bool:
        """Append to ``replies``, up to n in all, the decisions of the complete
        reply lines at the front of the buffer; whether there was one."""
        *lines, self._buffer = self._buffer.split(b"\n", n - len(replies))
        for line in lines:
            reply = line.decode("utf-8", "backslashreplace").strip().casefold()
            if reply not in self._YES and reply not in self._NO:
                raise ValidationError(f"filter command {self.command!r} replied {reply!r}; "
                                      "expected yes/no")
            replies.append(reply in self._YES)
        return bool(lines)

    def __call__(self, batches):
        """One decision list per (chunks, question, answer) batch, in order.
        Batch i+1 is taken once batch i is written and the only one unanswered,
        so the command answers one batch while it receives the next."""
        import select

        batches = iter(batches)
        stdin, stdout = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        owed, replies, pending = [], [], b""  # owed: replies per batch
        deadline = time.monotonic() + FILTER_TIMEOUT_S
        while True:
            if not pending and len(owed) < 2:  # every request taken is written
                batch = next(batches, None)
                if batch is not None:
                    owed.append(len(batch[0]))
                    pending = b"".join(_request_lines(*batch))
                    continue
                if not owed:
                    return
            # owed is non-empty: pending bytes are an owed batch's, and with none owed we returned
            if self._take_replies(replies, owed[0]):
                deadline = time.monotonic() + FILTER_TIMEOUT_S
            if len(replies) == owed[0] and (len(owed) == 2 or not pending):  # and written
                owed.pop(0)
                yield replies
                replies, deadline = [], time.monotonic() + FILTER_TIMEOUT_S
                continue
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                self.proc.kill()  # close() reaps it
                raise OSError(f"filter command {self.command!r} "
                              f"sent no reply in {FILTER_TIMEOUT_S:g} s")
            readable, writable, _ = select.select(
                [stdout], [stdin] if pending else [], [], timeout)
            try:
                while writable and pending:  # as much as the pipe accepts
                    pending = pending[os.write(stdin, pending):]
            except BlockingIOError:
                pass
            except BrokenPipeError:  # the command has exited; stdout says how
                pending = b""
            if readable:
                data = os.read(stdout, 65536)
                if not data:  # EOF: the command has exited
                    self.close()
                    code = self.proc.returncode
                    raise OSError(f"filter command {self.command!r} exited with code {code}")
                self._buffer += data

    def close(self) -> bytes:
        """Reap the child; the reply bytes it sent past the last reply read."""
        import subprocess

        # communicate closes stdin, tolerating a broken pipe, and reaps the child
        try:
            out, _ = self.proc.communicate(timeout=FILTER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return self._buffer + (out or b"")


class FileFilter:
    """Entailment filter from a pre-computed decision file.

    Rows: {"question", "answer", "chunk_id", "accept": bool}. Chunks with no
    recorded decision are accepted (the file only refines, never widens), so a
    bad or contradicting row is an error naming its line.
    """

    def __init__(self, path: str):
        items, errors = formats.read_jsonl(path, formats.parse_filter_decision)
        first = formats.first_rows(items, lambda decision: decision[0])
        errors += [(lineno, f"filter decision: accept differs from line {first[key][0]}'s")
                   for lineno, (key, accept) in items if first[key][1][1] != accept]
        if errors:
            lineno, message = min(errors)
            raise ValidationError(f"{path}:{lineno}: {message}")
        self.decisions = dict(item for _, item in items)

    def __call__(self, batches):
        return ([self.decisions.get((question, answer, c.chunk_id), True) for c in chunks]
                for chunks, question, answer in batches)


def cmd_build_gt(args) -> int:
    if args.cap < 1:
        raise ValidationError(f"--cap must be >= 1, got {args.cap}")
    if args.filter_cmd is not None and args.filter_file is not None:
        raise ValidationError("--filter-cmd and --filter-file are mutually exclusive")
    docs = _read(args.corpus, formats.parse_corpus_doc, "doc_id")
    specs = _read(args.specs, formats.parse_question_spec, "question_id")
    if not specs:
        _warn("specs file contains no usable question specs; writing empty dataset")

    accept = None
    if args.filter_file is not None:
        accept = FileFilter(args.filter_file)
    command_filter = None
    if args.filter_cmd is not None:
        accept = command_filter = CommandFilter(args.filter_cmd)

    surplus = b""
    try:
        index = corpus_mod.build_index(corpus_mod.chunk_corpus(docs))
        porter.stem.cache_clear()  # the corpus words; counting stems only keywords and answers
        records = corpus_mod.build_ground_truth(index, specs, cap=args.cap, accept=accept)
    finally:
        if command_filter is not None:
            surplus = command_filter.close()
    if surplus:  # replies past the requests put every later decision on the wrong chunk
        raise ValidationError(f"filter command {args.filter_cmd!r} sent more reply lines "
                              "than requests")

    for r in (r for r in records if r.same_terms):
        _warn(f"{r.question_id}: answers {list(r.same_terms)} require the same stemmed terms, "
              "so they count the same chunks")
    kept = [r for r in records if not r.discarded]
    discarded = [r for r in records if r.discarded]
    discard_log = args.discard_log or f"{args.out}.discards.jsonl"
    with formats.staged_writes() as stage:
        for path, rows in ((args.out, kept), (discard_log, discarded)):
            formats.write_jsonl(stage(path), map(formats.ground_truth_to_dict, rows))
    print(
        f"wrote {len(kept)} ground-truth records to {args.out}; "
        f"{len(discarded)} discarded (see {discard_log})"
    )
    return 0


def _metric_rows(columns, deltas):
    """One CSV row per estimator column: concordance plus AUCROC at each delta;
    DegenerateInputError when no value in any row is defined."""
    fieldnames = ["estimator", "concordance", *(f"aucroc@{d:.6g}" for d in deltas)]
    rows = []
    n_values = 0
    for name, (truth, score) in columns.items():
        row = [name]
        cells = [(f"concordance[{name}]", partial(concordance, truth, score))] + [
            (f"aucroc[{name}, delta={d:.6g}]", partial(aucroc, truth, score, d)) for d in deltas]
        for label, metric in cells:
            try:
                row.append(f"{metric():.6f}")
                n_values += 1
            except DegenerateInputError as exc:
                _warn(f"{label}: {exc}")
                row.append("")
        rows.append(row)
    if n_values == 0:
        raise DegenerateInputError("no metric is defined on these records (constant true EU "
                                   "and/or single-class binarization at every delta)")
    return fieldnames, rows


def _write_histogram(path, values, bins: int) -> None:
    rows = summarize(values, bins=bins).histogram_rows()
    formats.write_csv(path, ["bin_left", "bin_right", "count"],
                      ([f"{left:.9g}", f"{right:.9g}", count] for left, right, count in rows))


def _write_ablation(path, rows) -> None:
    formats.write_csv(path, ["gamma", "estimator", "concordance"],
                      ([r["gamma"], r["estimator"], f"{r['concordance']:.6f}"] for r in rows))


def cmd_eval(args) -> int:
    if not (0.0 < args.epsilon <= 0.1):
        raise ValidationError(f"--epsilon must be in (0, 0.1], got {args.epsilon}")
    deltas = _parse_deltas(args.deltas)
    gammas = _parse_gammas(args.dirichlet_gamma, "--dirichlet-gamma") \
        if args.dirichlet_gamma else ()

    eq = EquivalenceMap(formats.read_json_object(args.equivalence, "--equivalence")
                        if args.equivalence else None)

    gt_records = {}
    for record in _read(args.ground_truth, formats.parse_ground_truth, "question_id"):
        if record.discarded:
            _warn(f"{record.question_id}: ground truth is discarded; skipped")
            continue
        gt_records[record.question_id] = record
    predictions = {pred.question_id: pred
                   for pred in _read(args.predictions, formats.parse_prediction, "question_id")}

    matched = sorted(set(gt_records) & set(predictions))
    for qid in sorted(set(gt_records) - set(predictions)):
        _warn(f"{qid}: no prediction record; skipped")
    for qid in sorted(set(predictions) - set(gt_records)):
        _warn(f"{qid}: no ground-truth record; skipped")
    if not matched:
        raise ValidationError("no question_id is present in both input files")

    # each parsed pair is released once its rows are built; MSP needs only its prob
    n = len(matched)
    best_probs = [predictions[qid].best_answer_prob for qid in matched]
    groups, scores = score_questions(
        ((gt_records.pop(qid), predictions.pop(qid)) for qid in matched), eq.canonical,
        args.epsilon)
    # MSP per question, through the msp that bench/tracer.py wraps
    for qid, row, prob in zip(matched, scores, best_probs):
        try:
            row["MSP"] = msp(prob)
        except EstimatorUnavailableError as exc:
            _warn(f"{qid}: MSP disabled: {exc}")
        if "MI" not in row:
            _warn(f"{qid}: MI disabled: no ensemble in prediction record")

    # [(gamma, truth), ..., ("point", truth)]: one gamma sets the records'
    # truth, none leaves the point estimate, a grid scores every row
    truths = simlab.ablation_truths(groups, n, gammas)
    truth = truths[0 if len(gammas) == 1 else -1][1]
    # raises the first bad record's ValidationError
    records = [EvalRecord(qid, t, row) for qid, t, row in zip(matched, truth.tolist(), scores)]
    columns = score_columns(records)

    ablation = []
    if len(gammas) > 1:
        # each estimator is scored on the records that carry it
        for name, (_, score) in columns.items():
            carries = np.array([name in r.scores for r in records])
            try:
                ablation += simlab.gamma_ablation(
                    [(label, values[carries]) for label, values in truths], {name: score})
            except DegenerateInputError as exc:
                _warn(f"gamma ablation[{name}]: {exc}")
        labels = [*gammas, "point"]
        ablation.sort(key=lambda r: (labels.index(r["gamma"]), r["estimator"]))

    fieldnames, rows = _metric_rows(columns, deltas)

    ablation_out = args.ablation_out or f"{args.metrics_out}.ablation.csv"
    with formats.staged_writes() as stage:
        formats.write_jsonl(stage(args.records_out), map(formats.eval_record_to_dict, records))
        if len(gammas) > 1:
            _write_ablation(stage(ablation_out), ablation)
        formats.write_csv(stage(args.metrics_out), fieldnames, rows)
    print(f"wrote {n} eval records to {args.records_out}")
    if len(gammas) > 1:
        print(f"wrote gamma ablation to {ablation_out}")
    print(f"wrote metrics for {len(columns)} estimators to {args.metrics_out}")
    return 0


def cmd_bounds(args) -> int:
    _check_size(args.bound_line_points, "--bound-line-points", 0, MAX_BOUND_LINE_POINTS)
    try:
        query = bounds_mod.BoundQuery(k=args.k, delta=args.delta)
        a_delta = bounds_mod.alpha_delta(query)
    except DomainError as exc:
        raise DomainError(f"--delta/--k: {exc}")
    report = {
        "k": args.k,
        "delta": args.delta,
        "alpha_delta": a_delta,
        "eu_lower_bound": bounds_mod.eu_lower_bound_high_entropy(query),
    }
    try:
        report["gamma_delta"] = bounds_mod.gamma_delta(args.delta)
    except DomainError:
        report["gamma_delta"] = None

    if (args.avg_loss is None) != (args.p_low_entropy is None):
        raise ValidationError("--avg-loss and --p-low-entropy must be given together")
    if args.avg_loss is not None:
        try:
            bound = bounds_mod.thm2_probability_bound(
                args.delta, args.avg_loss, args.p_low_entropy
            )
        except (DomainError, DegenerateInputError) as exc:
            raise type(exc)(f"--delta/--avg-loss/--p-low-entropy: {exc}")
        report["thm2"] = asdict(bound)
    else:
        report["thm2"] = None

    grid = np.linspace(0.0, math.log(args.k), args.bound_line_points)
    report["bound_line"] = [
        {
            "delta": float(d),
            "eu_lower_bound": bounds_mod.eu_lower_bound_high_entropy(
                bounds_mod.BoundQuery(k=args.k, delta=float(d))
            ),
        }
        for d in grid
    ]
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with formats.staged_writes() as stage:
            with open(stage(args.out), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    _check_size(args.hist_bins, "--hist-bins", 1, MAX_HIST_BINS)
    raw = formats.read_json_object(args.config, "--config")
    if args.seed is not None:
        raw["seed"] = args.seed
    config = formats.parse_sim_config(raw)
    if args.ablation_csv:
        gammas = _parse_gammas(args.gammas, "--gammas")
        if config.counts_total == 0:
            raise DegenerateInputError("--ablation-csv needs counts_total > 0")
    result = simlab.run_experiment(config)
    if args.ablation_csv:
        counts = result.counts.astype(float)  # like eval's; past 2**53 int row sums differ
        truths = simlab.ablation_truths([(slice(None), counts, result.p_model)], config.n, gammas)
        ablation = simlab.gamma_ablation(truths, result.scores)

    question_ids = result.question_ids
    with formats.staged_writes() as stage:
        formats.write_eval_columns(stage(args.out), question_ids, result.true_eu, result.scores)
        with open(stage(args.report), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result.report, indent=2, sort_keys=True) + "\n")
        if args.scatter_csv:
            formats.write_csv(
                stage(args.scatter_csv), ["question_id", "predictive_entropy", "true_eu"],
                formats.column_rows((question_ids, iter), *(
                    (col, lambda v: [f"{x:.9g}" for x in v.tolist()])
                    for col in (result.scores["SE"], result.true_eu))),
            )
        if args.hist_csv:
            _write_histogram(stage(args.hist_csv), row_entropy(result.p_star), args.hist_bins)
        if args.ablation_csv:
            _write_ablation(stage(args.ablation_csv), ablation)
    print(f"wrote {config.n} records to {args.out}; report to {args.report}")
    return 0


def cmd_metrics(args) -> int:
    _check_size(args.hist_bins, "--hist-bins", 1, MAX_HIST_BINS)
    deltas = _parse_deltas(args.deltas)
    true_eu, columns, errors = formats.read_eval_columns(args.records)
    for lineno, message in errors:
        _warn(f"{args.records}:{lineno}: skipped: {message}")
    if not true_eu:
        raise ValidationError("no usable eval records")
    fieldnames, rows = _metric_rows(columns, deltas)
    with formats.staged_writes() as stage:
        formats.write_csv(stage(args.metrics_out), fieldnames, rows)
        if args.hist_out:
            _write_histogram(stage(args.hist_out), true_eu, args.hist_bins)
    print(f"wrote metrics for {len(columns)} estimators to {args.metrics_out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiuq",
        description="Uncertainty decomposition toolkit for ambiguous QA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-gt", help="build ground-truth answer distributions")
    p.add_argument("--corpus", required=True, help="corpus JSONL: {doc_id, sections}")
    p.add_argument("--specs", required=True, help="question spec JSONL")
    p.add_argument("--out", required=True, help="output ground-truth JSONL")
    p.add_argument("--discard-log", default=None, help="discarded-record JSONL")
    p.add_argument("--cap", type=int, default=corpus_mod.DEFAULT_CAP)
    p.add_argument("--filter-cmd", default=None, help="external entailment command")
    p.add_argument("--filter-file", default=None, help="pre-computed decisions JSONL")
    p.set_defaults(func=cmd_build_gt)

    p = sub.add_parser("eval", help="score estimators against ground truth")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--records-out", required=True, help="EvalRecord JSONL output")
    p.add_argument("--metrics-out", required=True, help="metrics CSV output")
    p.add_argument("--ablation-out", default=None,
                   help="gamma-ablation CSV (default: <metrics-out>.ablation.csv)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--deltas", default=",".join(str(d) for d in simlab.DEFAULT_DELTAS))
    p.add_argument(
        "--dirichlet-gamma",
        default=None,
        help="comma-separated gamma values; one switches true EU to the "
        "Dirichlet expected EU, several emit a gamma-ablation CSV",
    )
    p.add_argument("--equivalence", default=None, help="JSON class-mapping file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="entropy-threshold bound report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--avg-loss", type=float, default=None)
    p.add_argument("--p-low-entropy", type=float, default=None)
    p.add_argument("--bound-line-points", type=int, default=33)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="synthetic populations and verification")
    p.add_argument("--config", required=True, help="SimConfig JSON file")
    p.add_argument("--out", required=True, help="EvalRecord JSONL output")
    p.add_argument("--report", required=True, help="verification report JSON")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--scatter-csv", default=None, help="(H(p), EU) scatter data")
    p.add_argument("--hist-csv", default=None, help="ground-truth entropy histogram")
    p.add_argument("--hist-bins", type=int, default=30)
    p.add_argument("--ablation-csv", default=None, help="gamma-ablation CSV")
    p.add_argument("--gammas", default=",".join(str(g) for g in simlab.DEFAULT_GAMMAS))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="metrics over an EvalRecord file")
    p.add_argument("--records", required=True)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--hist-out", default=None, help="true-EU histogram CSV")
    p.add_argument("--hist-bins", type=int, default=30)
    p.add_argument("--deltas", default=",".join(str(d) for d in simlab.DEFAULT_DELTAS))
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        _warn(f"degenerate input: {exc}")
        return 3
    except UQError as exc:
        _warn(f"error: {exc}")
        return 2
    except OSError as exc:
        _warn(f"I/O error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
