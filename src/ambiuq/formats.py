"""JSONL / CSV readers and writers for the pipeline's file schemas.

Every input file is read, coerced and rejected here. Bad JSONL lines are
collected with their line numbers; callers decide whether to warn or fail.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .corpus import GroundTruthRecord, QuestionSpec
from .dist import SUM_TOL, Categorical
from .errors import ValidationError
from .estimators import AnswerSample, AnswerSampleSet
from .metrics import EvalRecord
from .simlab import SimConfig


_scan = json.decoder.JSONDecoder().scan_once
ROWS_PER_BLOCK = 1024  # rows a column writer encodes at a time


def _decode(line: str):
    """json.loads(line) for a stripped line: one call of the C scanner when
    the value spans the line, else json.loads itself, for its exact error."""
    try:
        obj, end = _scan(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def _iter_jsonl(path, errors: list, parse):
    """Yield (lineno, parse(obj)) per JSON-object line. Every other line goes
    to ``errors`` as (lineno, message) once the file is read: JSON errors
    first, then the ValidationErrors of ``parse``, each in line order."""
    json_errors, record_errors = [], []
    # undecodable bytes become lone surrogates, which valid UTF-8 never yields
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line = line.encode("utf-8", "surrogateescape").decode("utf-8")
                obj = _decode(line)
            except (ValueError, RecursionError) as exc:
                json_errors.append((lineno, f"invalid JSON: {exc}"))
                continue
            if not isinstance(obj, dict):
                json_errors.append((lineno, "expected a JSON object"))
                continue
            try:
                yield lineno, parse(obj)
            except ValidationError as exc:
                record_errors.append((lineno, str(exc)))
    errors += json_errors + record_errors


def first_rows(items, key) -> dict:
    """{key(item): (lineno, item)} of the first (lineno, item) row per key, in order."""
    first: dict = {}
    for lineno, item in items:
        first.setdefault(key(item), (lineno, item))
    return first


def read_jsonl(path, parse, unique: Optional[str] = None):
    """Parse a JSONL file into ([(lineno, item), ...], [(lineno, error), ...]);
    ``unique`` names the item field (question_id, doc_id) whose first row per
    value is kept, and each later row with that value is an error."""
    errors: list = []
    items = list(_iter_jsonl(path, errors, parse))
    if unique:
        key = operator.attrgetter(unique)
        first = first_rows(items, key)
        errors += [(lineno, f"duplicate {unique} {key(item)!r}")
                   for lineno, item in items if first[key(item)][0] != lineno]
        items = list(first.values())
    return items, errors


def read_json_object(path, flag: str) -> dict:
    """The JSON object a whole file holds; anything else names ``flag``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.loads(fh.read())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ValidationError(f"{flag}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{flag} must contain a JSON object")
    return obj


@contextlib.contextmanager
def staged_writes():
    """Yield ``stage(path)``, the name of a temporary next to ``path`` for the
    caller to write. When the block succeeds every temporary is renamed onto
    its path; when it raises every temporary is removed, so each output is
    either complete or left as it was. Two outputs may not name one file."""
    staged = {}

    def stage(path):
        # a link, a device or a directory is opened in place, as before
        if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
            return path
        if os.path.realpath(path) in map(os.path.realpath, staged):
            raise ValidationError(f"{path} is named for two outputs")
        head, tail = os.path.split(path)
        return staged.setdefault(path, os.path.join(head, f".{tail}.{os.getpid()}.tmp"))

    try:
        yield stage
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


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


def _list(obj: dict, key: str, context: str) -> list:
    value = _require(obj, key, context)
    if not isinstance(value, list):
        raise ValidationError(f"{context}: {key} must be a list")
    return value


def _str(obj: dict, key: str, context: str) -> str:
    value = _require(obj, key, context)
    if not isinstance(value, str):
        raise ValidationError(f"{context}: {key} must be a string, got {json.dumps(value)}")
    return value


def _strs(obj: dict, key: str, context: str) -> tuple:
    values = _list(obj, key, context)
    if not all(isinstance(v, str) for v in values):
        raise ValidationError(f"{context}: {key} must be a list of strings")
    return tuple(values)


def _bool(value, key: str, context: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{context}: {key} must be true or false, got {value!r}")
    return value


def _number(value, context: str, count: bool = False):
    """float(value), or with ``count`` an int >= 0; JSON true/false are not numbers."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"expected a number, got {json.dumps(value)}")
        number = float(value)
        if count and not (number >= 0 and number.is_integer()):
            raise ValueError(f"expected a count (an integer >= 0), got {value!r}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"{context}: {exc}") from exc
    if not count:
        return number
    return value if isinstance(value, int) else int(number)  # an int stays exact past 2**53


def _counts(obj: dict, key: str, context: str) -> tuple:
    return tuple(_number(c, context, count=True) for c in _list(obj, key, context))


def parse_categorical(value, context: str) -> Categorical:
    """The {"classes", "probs"} object that ``context`` names."""
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be an object")
    classes = _strs(value, "classes", context)
    probs = [_number(p, f"{context}: probs") for p in _list(value, "probs", context)]
    try:
        return Categorical(classes, probs)
    except ValidationError as exc:  # Categorical's value checks know no record
        raise ValidationError(f"{context}: {exc}") from exc


def categorical_to_dict(p: Categorical) -> dict:
    return {"classes": list(p.classes), "probs": p.probs.tolist()}


def parse_sim_config(obj: dict) -> SimConfig:
    """The SimConfig of a --config object: every number but noise is a count."""
    unknown = set(obj) - set(SimConfig.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown simulation config keys: {sorted(unknown)}")
    fields = dict(obj)
    for name in ("k", "n", "seed", "ensemble_size", "counts_total", "noise"):
        if name in fields:
            fields[name] = _number(fields[name], f"simulation config {name}",
                                   count=name != "noise")
    if "deltas" in fields:
        fields["deltas"] = tuple(_number(d, "simulation config deltas")
                                 for d in _list(fields, "deltas", "simulation config"))
    return SimConfig(**fields)


class CorpusDoc(NamedTuple):
    doc_id: str
    sections: list


def parse_corpus_doc(obj: dict) -> CorpusDoc:
    doc_id = _str(obj, "doc_id", "corpus document")
    return CorpusDoc(doc_id, list(_strs(obj, "sections", f"document {doc_id}")))


def parse_question_spec(obj: dict) -> QuestionSpec:
    qid = _str(obj, "question_id", "question spec")
    context = f"spec {qid}"
    return QuestionSpec(qid, _str(obj, "question", context) if "question" in obj else "",
                        _strs(obj, "keywords", context), _strs(obj, "answers", context))


def parse_filter_decision(obj: dict) -> tuple:
    """((question, answer, chunk_id), accept) from one --filter-file row."""
    context = "filter decision"
    key = tuple(_str(obj, k, context) for k in ("question", "answer", "chunk_id"))
    return key, _bool(_require(obj, "accept", context), "accept", context)


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
        out["p_star"] = categorical_to_dict(record.p_star)
    return out


def parse_ground_truth(obj: dict) -> GroundTruthRecord:
    qid = _str(obj, "question_id", "ground-truth record")
    context = f"record {qid}"
    answers = _strs(obj, "answers", context)
    counts = _counts(obj, "counts", context)
    discarded = _bool(obj.get("discarded", False), "discarded", context)
    p_star = None
    if not discarded:
        if len(counts) != len(answers):
            raise ValidationError(f"{context}: {len(counts)} counts for {len(answers)} answers")
        freqs = np.array(counts, dtype=float)
        if freqs.sum() == 0:
            raise ValidationError(f"{context}: counts sum to 0")
        p_star = parse_categorical(_require(obj, "p_star", context), f"{context}: p_star")
        if p_star.classes != answers:
            raise ValidationError(f"{context}: p_star classes differ from answers")
        # eval takes its truth from the counts, so p_star must be counts / sum(counts)
        if np.abs(p_star.probs - freqs / freqs.sum()).max() > SUM_TOL:
            raise ValidationError(f"{context}: p_star differs from counts / sum(counts)")
    raw = _counts(obj, "raw_matches", context) if "raw_matches" in obj else counts
    return GroundTruthRecord(qid, answers, counts, p_star, discarded, obj.get("reason"), raw)


def parse_prediction(obj: dict) -> AnswerSampleSet:
    qid = _str(obj, "question_id", "prediction record")
    context = f"prediction {qid}"
    raw_samples = _require(obj, "samples", context)
    if not isinstance(raw_samples, list) or not raw_samples:
        raise ValidationError(f"{context}: samples must be a non-empty list")
    if not all(isinstance(s, dict) for s in raw_samples):
        raise ValidationError(f"{context}: samples must be objects")
    sample = f"{context} sample"
    samples = tuple(AnswerSample(_str(s, "text", sample),
                                 _number(_require(s, "seq_prob", sample), context),
                                 None if s.get("cluster") is None else _str(s, "cluster", sample))
                    for s in raw_samples)
    ensemble = obj.get("ensemble")
    members: Optional[tuple] = None
    if ensemble is not None:
        if not isinstance(ensemble, list) or not ensemble:
            raise ValidationError(f"{context}: ensemble must be a non-empty list")
        members = tuple(parse_categorical(m, f"{context}: ensemble[{i}]")
                        for i, m in enumerate(ensemble))
    best = obj.get("best_answer_prob")
    return AnswerSampleSet(qid, samples, None if best is None else _number(best, context), members)


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


def column_rows(*columns) -> Iterator[tuple]:
    """zip(*(encode(values) for values, encode in columns)) of (values, encode)
    pairs, encoding ROWS_PER_BLOCK rows at a time."""
    for i in range(0, min(len(values) for values, _ in columns), ROWS_PER_BLOCK):
        yield from zip(*(encode(values[i:i + ROWS_PER_BLOCK]) for values, encode in columns))


def write_eval_columns(path, question_ids, true_eu, scores: dict) -> None:
    """write_jsonl(eval_record_to_dict(r) ...)'s bytes, from one column per field."""
    names = sorted(scores)
    fields = ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names)
    template = '{"question_id": %s, "scores": {' + fields + '}, "true_eu": %s}\n'
    # json.dumps of a str is encode_basestring_ascii of it
    rows = column_rows((question_ids, lambda ids: map(json.encoder.encode_basestring_ascii, ids)),
                       *((scores[name], _json_floats) for name in names), (true_eu, _json_floats))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(template % row for row in rows)


def parse_eval_record(obj: dict) -> EvalRecord:
    qid = _str(obj, "question_id", "eval record")
    context = f"eval record {qid}"
    scores = _require(obj, "scores", context)
    if not isinstance(scores, dict):
        raise ValidationError(f"{context}: scores must be an object")
    return EvalRecord(qid, _number(_require(obj, "true_eu", context), context),
                      {str(k): _number(v, context) for k, v in scores.items()})


def _finite_floats(values) -> bool:
    """Whether every value is a float but NaN and ±inf (JSON 1 and true are not)."""
    for value in values:
        if type(value) is not float or not -math.inf < value < math.inf:
            return False
    return True


def read_eval_columns(path) -> tuple:
    """Stream an eval-record JSONL file into (true_eu, score_columns, errors),
    keeping no record past its line; the (lineno, message) errors are ordered
    as _iter_jsonl orders them. A row of a string id and exact floats goes
    straight into the columns; parse_eval_record takes every other row."""
    errors, true_eu, columns = [], [], defaultdict(lambda: ([], []))

    def add(obj):
        t, scores = obj.get("true_eu"), obj.get("scores")
        if not (type(obj.get("question_id")) is str and type(t) is float and 0.0 <= t < math.inf
                and type(scores) is dict and _finite_floats(scores.values())):
            record = parse_eval_record(obj)
            t, scores = record.true_eu, record.scores
        true_eu.append(t)
        for name, value in scores.items():
            truth, score = columns[name]
            truth.append(t)
            score.append(value)

    for _ in _iter_jsonl(path, errors, add):
        pass
    return true_eu, {name: tuple(np.array(col, dtype=float) for col in columns[name])
                     for name in sorted(columns)}, errors
