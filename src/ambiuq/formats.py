"""JSONL / CSV readers and writers for the pipeline's file schemas.

Bad JSONL lines are collected with their line numbers instead of aborting
the batch; callers decide whether to warn or fail.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from typing import Iterable, Optional

import numpy as np

from .corpus import GroundTruthRecord, QuestionSpec
from .dist import Categorical
from .errors import ValidationError
from .estimators import AnswerSample, AnswerSampleSet
from .metrics import EvalRecord, score_columns


def _iter_jsonl(path, errors: list):
    """Yield (lineno, obj) per JSON object; other lines go to ``errors``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append((lineno, f"invalid JSON: {exc}"))
                continue
            if not isinstance(obj, dict):
                errors.append((lineno, "expected a JSON object"))
                continue
            yield lineno, obj


def read_jsonl(path):
    """Parse a JSONL file into ([(lineno, obj), ...], [(lineno, error), ...])."""
    errors: list = []
    return list(_iter_jsonl(path, errors)), errors


def write_jsonl(path, objs: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_csv(path, fieldnames, rows: Iterable) -> None:
    """A header row, then one row per sequence of values in field order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ValidationError(f"{context}: missing required field {key!r}")
    return obj[key]


def parse_corpus_doc(obj: dict) -> tuple:
    doc_id = str(_require(obj, "doc_id", "corpus document"))
    sections = _require(obj, "sections", f"document {doc_id}")
    if not isinstance(sections, list):
        raise ValidationError(f"document {doc_id}: sections must be a list")
    return doc_id, [str(s) for s in sections]


@contextmanager
def _with_context(context: str):
    """Re-raise stray coercion errors as ValidationError naming the record."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{context}: {exc}") from exc


def parse_question_spec(obj: dict) -> QuestionSpec:
    qid = str(_require(obj, "question_id", "question spec"))
    with _with_context(f"spec {qid}"):
        return QuestionSpec(
            question_id=qid,
            question=str(obj.get("question", "")),
            keywords=tuple(str(k) for k in _require(obj, "keywords", f"spec {qid}")),
            answers=tuple(str(a) for a in _require(obj, "answers", f"spec {qid}")),
        )


def ground_truth_to_dict(record: GroundTruthRecord) -> dict:
    out = {
        "question_id": record.question_id,
        "answers": list(record.answers),
        "counts": [int(c) for c in record.counts],
        "raw_matches": [int(c) for c in record.raw_matches],
        "discarded": record.discarded,
    }
    if record.discarded:
        out["reason"] = record.reason
    else:
        out["p_star"] = record.p_star.to_dict()
    return out


def parse_ground_truth(obj: dict) -> GroundTruthRecord:
    qid = str(_require(obj, "question_id", "ground-truth record"))
    with _with_context(f"record {qid}"):
        answers = tuple(str(a) for a in _require(obj, "answers", f"record {qid}"))
        counts = tuple(int(c) for c in _require(obj, "counts", f"record {qid}"))
        discarded = bool(obj.get("discarded", False))
        p_star = None
        if not discarded:
            p_star = Categorical.from_dict(_require(obj, "p_star", f"record {qid}"))
            if p_star.classes != answers:
                raise ValidationError(f"record {qid}: p_star classes differ from answers")
        return GroundTruthRecord(
            question_id=qid,
            answers=answers,
            counts=counts,
            p_star=p_star,
            discarded=discarded,
            reason=obj.get("reason"),
            raw_matches=tuple(int(c) for c in obj.get("raw_matches", counts)),
        )


def parse_prediction(obj: dict) -> AnswerSampleSet:
    qid = str(_require(obj, "question_id", "prediction record"))
    raw_samples = _require(obj, "samples", f"prediction {qid}")
    if not isinstance(raw_samples, list) or not raw_samples:
        raise ValidationError(f"prediction {qid}: samples must be a non-empty list")
    if not all(isinstance(s, dict) for s in raw_samples):
        raise ValidationError(f"prediction {qid}: samples must be objects")
    with _with_context(f"prediction {qid}"):
        samples = tuple(
            AnswerSample(
                text=str(_require(s, "text", f"prediction {qid} sample")),
                seq_prob=float(_require(s, "seq_prob", f"prediction {qid} sample")),
                cluster=None if s.get("cluster") is None else str(s["cluster"]),
            )
            for s in raw_samples
        )
        ensemble = obj.get("ensemble")
        members: Optional[tuple] = None
        if ensemble is not None:
            if not isinstance(ensemble, list) or not ensemble:
                raise ValidationError(
                    f"prediction {qid}: ensemble must be a non-empty list"
                )
            members = tuple(Categorical.from_dict(m) for m in ensemble)
        best = obj.get("best_answer_prob")
        return AnswerSampleSet(
            question_id=qid,
            samples=samples,
            best_answer_prob=None if best is None else float(best),
            ensemble=members,
        )


def eval_record_to_dict(record: EvalRecord) -> dict:
    return {
        "question_id": record.question_id,
        "true_eu": record.true_eu,
        "scores": {k: float(v) for k, v in record.scores.items()},
    }


def _json_floats(values) -> list:
    """Items whose str() is json.dumps of each value: floats if all are finite."""
    values = np.asarray(values, dtype=float)
    return values.tolist() if np.isfinite(values).all() else [json.dumps(v) for v in values]


def write_eval_columns(path, question_ids, true_eu, scores: dict) -> None:
    """write_jsonl(eval_record_to_dict(r) ...)'s bytes, from one column per field."""
    names = sorted(scores)
    fields = ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names)
    template = '{"question_id": %s, "scores": {' + fields + '}, "true_eu": %s}\n'
    columns = [[json.dumps(qid) for qid in question_ids],
               *(_json_floats(scores[name]) for name in names), _json_floats(true_eu)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(template % row for row in zip(*columns))


def parse_eval_record(obj: dict) -> EvalRecord:
    qid = str(_require(obj, "question_id", "eval record"))
    scores = _require(obj, "scores", f"eval record {qid}")
    if not isinstance(scores, dict):
        raise ValidationError(f"eval record {qid}: scores must be an object")
    with _with_context(f"eval record {qid}"):
        return EvalRecord(
            question_id=qid,
            true_eu=float(_require(obj, "true_eu", f"eval record {qid}")),
            scores={str(k): float(v) for k, v in scores.items()},
        )


def read_eval_columns(path) -> tuple:
    """Stream an eval-record JSONL file into (true_eu, score_columns, errors),
    keeping no record past its line; the (lineno, message) errors list JSON
    errors first, then record errors, each in line order."""
    errors, record_errors, true_eu = [], [], []

    def records():
        for lineno, obj in _iter_jsonl(path, errors):
            try:
                record = parse_eval_record(obj)
            except (ValidationError, ValueError, TypeError) as exc:
                record_errors.append((lineno, str(exc)))
                continue
            true_eu.append(record.true_eu)
            yield record

    columns = score_columns(records())
    return true_eu, columns, errors + record_errors
