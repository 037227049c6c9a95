"""Input contracts at the parse boundary: every line a CLI command reads is
either parsed as written or rejected with a warning or a documented exit
code, never coerced into a different value or left to end in a traceback."""

import contextlib
import io
import json
import signal
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambiuq import cli, formats
from ambiuq.corpus import build_ground_truth, build_index, chunk_corpus, cooccurrence_count
from ambiuq.errors import ValidationError
from ambiuq.estimators import EquivalenceMap

from test_cli import fixture_corpus, fixture_specs, read_jsonl, write_jsonl  # noqa: F401

# the four lines that each ended in a traceback: OverflowError, json's digit
# limit, bytes that are not UTF-8, and RecursionError
TRACEBACK_LINES = {
    "400-digit": b'{"question_id": "x", "true_eu": ' + b"1" * 400 + b', "scores": {"SE": 0.1}}',
    "5000-digit": b'{"question_id": "x", "true_eu": ' + b"1" * 5000 + b', "scores": {"SE": 0.1}}',
    "not-utf8": b"\xff\xfe",
    "deep": b"[" * 100_000,
}

GOOD_RECORDS = [
    {"question_id": "a", "true_eu": 0.5, "scores": {"SE": 0.1}},
    {"question_id": "b", "true_eu": 0.9, "scores": {"SE": 0.8}},
]


def run(argv):
    """(exit code, stderr) of cli.main, with stdout and stderr captured. It runs
    in this process, so an exception that escapes main fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


class TestTracebackLines:
    @pytest.mark.parametrize("name", sorted(TRACEBACK_LINES))
    def test_jsonl_line_is_skipped_with_its_location(self, tmp_path, name):
        records = tmp_path / "records.jsonl"
        good = b"".join(json.dumps(r).encode() + b"\n" for r in GOOD_RECORDS)
        records.write_bytes(good + TRACEBACK_LINES[name] + b"\n")
        code, err = run(["metrics", "--records", records,
                         "--metrics-out", tmp_path / "m.csv", "--deltas", "0.7"])
        assert code == 0
        assert f"{records}:3: skipped:" in err

    @pytest.mark.parametrize("name", ["5000-digit", "not-utf8", "deep"])
    def test_config_file_is_exit_2(self, tmp_path, name):
        config = tmp_path / "sim.json"
        config.write_bytes(TRACEBACK_LINES[name])
        code, err = run(["simulate", "--config", config, "--out", tmp_path / "o.jsonl",
                         "--report", tmp_path / "r.json"])
        assert code == 2
        assert "error: --config: invalid JSON:" in err
        assert not (tmp_path / "o.jsonl").exists()

    @staticmethod
    def run_equivalence(tmp_path, content: bytes):
        """eval with ``content`` as --equivalence, which is read before any other input."""
        equivalence = tmp_path / "eq.json"
        equivalence.write_bytes(content)
        return run(["eval", "--ground-truth", equivalence, "--predictions", equivalence,
                    "--records-out", tmp_path / "r.jsonl", "--metrics-out", tmp_path / "m.csv",
                    "--equivalence", equivalence])

    @pytest.mark.parametrize("name", sorted(TRACEBACK_LINES))
    def test_equivalence_file_is_exit_2(self, tmp_path, name):
        code, err = self.run_equivalence(tmp_path, TRACEBACK_LINES[name])
        assert code == 2
        assert "equivalence" in err

    @pytest.mark.parametrize("value", [1, None, ["heat"], {"a": "b"}, True])
    def test_equivalence_value_must_be_a_string(self, tmp_path, value):
        code, err = self.run_equivalence(tmp_path, json.dumps({"It's Heat": value}).encode())
        assert code == 2
        assert "equivalence mapping needs strings" in err
        with pytest.raises(ValidationError):
            EquivalenceMap({"It's Heat": value})


SPEC = {"question_id": "q", "question": "?", "keywords": ["fire"], "answers": ["heat", "fuel"]}
GT = {
    "question_id": "q", "answers": ["heat", "fuel"], "counts": [2, 1], "raw_matches": [2, 1],
    "discarded": False, "p_star": {"classes": ["heat", "fuel"], "probs": [2 / 3, 1 / 3]},
}
PRED = {
    "question_id": "q", "samples": [{"text": "heat", "seq_prob": 0.5}],
    "best_answer_prob": 0.5, "ensemble": [{"classes": ["heat", "fuel"], "probs": [0.5, 0.5]}],
}
EVAL = {"question_id": "q", "true_eu": 0.5, "scores": {"SE": 0.1}}
DOC = {"doc_id": "d", "sections": ["the fire needs heat"]}
PARSERS = {
    "spec": (formats.parse_question_spec, SPEC),
    "gt": (formats.parse_ground_truth, GT),
    "pred": (formats.parse_prediction, PRED),
    "eval": (formats.parse_eval_record, EVAL),
    "doc": (formats.parse_corpus_doc, DOC),
    "filter": (formats.parse_filter_decision,
               {"question": "?", "answer": "heat", "chunk_id": "d:0", "accept": False}),
}


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("spec", "keywords", "fire", "keywords must be a list"),
        ("spec", "answers", "heat", "answers must be a list"),
        ("doc", "sections", "text", "sections must be a list"),
        ("gt", "answers", "ab", "answers must be a list"),
        ("gt", "counts", "21", "counts must be a list"),
        ("gt", "raw_matches", {"heat": 2}, "raw_matches must be a list"),
        ("gt", "counts", [2.7, 1], "expected a count"),
        ("gt", "counts", [-1, 1], "expected a count"),
        ("gt", "counts", [True, 1], "expected a number, got true"),
        ("gt", "raw_matches", [2, False], "expected a number, got false"),
        ("gt", "counts", [3], "1 counts for 2 answers"),
        ("gt", "discarded", "no", "discarded must be true or false"),
        ("gt", "discarded", 0, "discarded must be true or false"),
        ("gt", "p_star", {"classes": "hf", "probs": [0.5, 0.5]},
         "record q: p_star: classes must be a list"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": "ab"},
         "record q: p_star: probs must be a list"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": [True, False]},
         "record q: p_star: probs: expected a number, got true"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": ["a", "b"]},
         "record q: p_star: probs: could not convert"),
        ("pred", "samples", [{"text": "heat", "seq_prob": True}], "expected a number, got true"),
        ("pred", "best_answer_prob", True, "expected a number, got true"),
        ("pred", "ensemble", [{"classes": "ab", "probs": [0.5, 0.5]}],
         "prediction q: ensemble[0]: classes must be a list"),
        ("eval", "true_eu", True, "expected a number, got true"),
        pytest.param("eval", "true_eu", 10**400, "int too large to convert to float",
                     id="eval-true_eu-400-digits"),
        ("eval", "scores", {"SE": False}, "expected a number, got false"),
        ("filter", "accept", "false", "accept must be true or false"),
        ("filter", "accept", 0, "accept must be true or false"),
        # string fields are JSON strings, never coerced through str()
        ("doc", "doc_id", ["d"], 'doc_id must be a string, got ["d"]'),
        ("doc", "sections", ["text", 3], "sections must be a list of strings"),
        ("spec", "question_id", 7, "question_id must be a string, got 7"),
        ("spec", "question", None, "question must be a string, got null"),
        ("spec", "keywords", [["fire"]], "keywords must be a list of strings"),
        ("spec", "answers", [True, "fuel"], "answers must be a list of strings"),
        ("filter", "question", None, "question must be a string, got null"),
        ("filter", "answer", {"a": "heat"}, "answer must be a string"),
        ("filter", "chunk_id", 0, "chunk_id must be a string, got 0"),
        ("gt", "question_id", None, "question_id must be a string, got null"),
        ("gt", "answers", ["heat", 1], "answers must be a list of strings"),
        ("gt", "p_star", {"classes": [1, 2], "probs": [2 / 3, 1 / 3]},
         "record q: p_star: classes must be a list of strings"),
        ("pred", "question_id", False, "question_id must be a string, got false"),
        ("pred", "samples", [{"text": 1, "seq_prob": 0.5}], "text must be a string, got 1"),
        ("pred", "samples", [{"text": "heat", "seq_prob": 0.5, "cluster": ["h"]}],
         'cluster must be a string, got ["h"]'),
        ("pred", "ensemble", [{"classes": [None, "fuel"], "probs": [0.5, 0.5]}],
         "prediction q: ensemble[0]: classes must be a list of strings"),
        ("eval", "question_id", 1.5, "question_id must be a string, got 1.5"),
        # a kept row's p_star is counts / sum(counts)
        ("gt", "counts", [0, 0], "counts sum to 0"),
        ("gt", "counts", [1, 1], "p_star differs from counts / sum(counts)"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": [0.67, 0.33]},
         "p_star differs from counts / sum(counts)"),
        # a categorical object is an object holding both fields
        ("gt", "p_star", [2 / 3, 1 / 3], "record q: p_star must be an object"),
        ("pred", "ensemble", [PRED["ensemble"][0], {"classes": ["heat"]}],
         "prediction q: ensemble[1]: missing required field 'probs'"),
        # value checks behind the type checks
        ("spec", "keywords", [], "q: keywords must be non-empty"),
        ("spec", "answers", [], "q: answers must be non-empty"),
        ("gt", "p_star", {"classes": ["fuel", "heat"], "probs": [1 / 3, 2 / 3]},
         "record q: p_star classes differ from answers"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": [0.5, 0.2]},
         "record q: p_star: probabilities sum to 0.7, not 1"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": ["NaN", 0.5]},
         "record q: p_star: probabilities must be finite"),
        ("gt", "p_star", {"classes": ["heat", "fuel"], "probs": [1.0]},
         "record q: p_star: 2 classes but 1 probabilities"),
        ("gt", "p_star", {"classes": ["heat", "heat"], "probs": [2 / 3, 1 / 3]},
         "record q: p_star: class identifiers must be unique"),
        ("pred", "ensemble", [{"classes": ["heat", "fuel"], "probs": [0.9, 0.3]}],
         "prediction q: ensemble[0]: probabilities sum to 1.2, not 1"),
        ("pred", "ensemble", [PRED["ensemble"][0], {"classes": ["heat"], "probs": [-1.0]}],
         "prediction q: ensemble[1]: probabilities must be non-negative"),
        ("pred", "best_answer_prob", 1.5, "q: best_answer_prob must be in (0, 1]"),
        ("pred", "ensemble", [], "prediction q: ensemble must be a non-empty list"),
        ("pred", "ensemble", PRED["ensemble"][0],
         "prediction q: ensemble must be a non-empty list"),
        ("pred", "samples", [PRED["samples"][0], "heat"], "prediction q: samples must be objects"),
        ("pred", "samples", [], "prediction q: samples must be a non-empty list"),
    ],
)
def test_json_types_at_the_boundary(tmp_path, kind, field, value, message):
    parse, good = PARSERS[kind]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [good, {**good, field: value}])
    items, errors = formats.read_jsonl(path, parse)
    assert [lineno for lineno, _ in items] == [1]
    assert len(errors) == 1 and errors[0][0] == 2
    assert message in errors[0][1]


def test_counts_keep_integers_and_integral_values(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_jsonl(path, [{**GT, "counts": [2.0, 1], "raw_matches": [2**60 + 1, 1]}])
    (_, record), = formats.read_jsonl(path, formats.parse_ground_truth)[0]
    assert record.counts == (2, 1) and record.raw_matches == (2**60 + 1, 1)
    assert all(type(c) is int for c in record.counts + record.raw_matches)


def test_eval_skips_a_short_counts_row(tmp_path):
    gt = tmp_path / "gt.jsonl"
    write_jsonl(gt, [{**GT, "question_id": "q2"}, {**GT, "counts": [3]}])
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [PRED, {**PRED, "question_id": "q2"}])
    code, err = run(["eval", "--ground-truth", gt, "--predictions", preds,
                     "--records-out", tmp_path / "r.jsonl", "--metrics-out", tmp_path / "m.csv"])
    assert f"{gt}:2: skipped: record q: 1 counts for 2 answers" in err
    assert "q: no ground-truth record; skipped" in err
    # q2 alone defines no metric: exit 3, and nothing is written
    assert code == 3 and "no metric is defined" in err
    assert not (tmp_path / "r.jsonl").exists() and not (tmp_path / "m.csv").exists()


def test_null_question_id_does_not_pair_with_the_string_none(tmp_path):
    gt = tmp_path / "gt.jsonl"
    write_jsonl(gt, [{**GT, "question_id": None}])
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{**PRED, "question_id": "None"}])
    code, err = run(["eval", "--ground-truth", gt, "--predictions", preds,
                     "--records-out", tmp_path / "r.jsonl", "--metrics-out", tmp_path / "m.csv"])
    assert code == 2
    assert f"{gt}:1: skipped: ground-truth record: question_id must be a string, got null" in err
    assert "None: no ground-truth record; skipped" in err
    assert "no question_id is present in both input files" in err
    assert not (tmp_path / "r.jsonl").exists()


def test_p_star_within_sum_tol_of_counts_is_kept(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_jsonl(path, [{**GT, "p_star": {"classes": ["heat", "fuel"],
                                         "probs": [2 / 3 + 5e-10, 1 / 3 - 5e-10]}}])
    (_, record), = formats.read_jsonl(path, formats.parse_ground_truth)[0]
    assert record.counts == (2, 1)


class TestFilterFile:
    QUESTION = "What is one essential part of the fire triangle?"

    def rows(self, accept):
        return [{"question": self.QUESTION, "answer": "Heat", "chunk_id": f"d{i:04d}:0",
                 "accept": accept} for i in range(31)]

    @pytest.mark.parametrize("accept", ["false", "no", 0, None])
    def test_non_bool_accept_is_exit_2(self, tmp_path, fixture_corpus, fixture_specs, accept):
        decisions = tmp_path / "decisions.jsonl"
        write_jsonl(decisions, self.rows(False)[:3] + self.rows(accept)[3:5])
        out = tmp_path / "gt.jsonl"
        code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                         "--out", out, "--filter-file", decisions])
        assert code == 2
        assert f"{decisions}:4: filter decision: accept must be true or false" in err
        assert not out.exists()

    def test_bad_row_names_its_line(self, tmp_path, fixture_corpus, fixture_specs):
        decisions = tmp_path / "decisions.jsonl"
        rows = self.rows(False)
        del rows[2]["chunk_id"]
        write_jsonl(decisions, rows)
        decisions.write_text(decisions.read_text() + "{bad\n")
        code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                         "--out", tmp_path / "gt.jsonl", "--filter-file", decisions])
        assert code == 2
        assert f"{decisions}:3: filter decision: missing required field 'chunk_id'" in err


    def test_contradicting_repeat_names_its_line(self, tmp_path, fixture_corpus, fixture_specs):
        decisions = tmp_path / "decisions.jsonl"
        rows = self.rows(False)
        write_jsonl(decisions, rows + [{**rows[4], "accept": True}])
        out = tmp_path / "gt.jsonl"
        code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                         "--out", out, "--filter-file", decisions])
        assert code == 2
        assert f"{decisions}:32: filter decision: accept differs from line 5's" in err
        assert not out.exists()

    def test_agreeing_repeat_is_one_decision(self, tmp_path, fixture_corpus, fixture_specs):
        outputs = []
        for tag, extra in (("once", []), ("twice", self.rows(False)[4:5])):
            decisions = tmp_path / f"{tag}.jsonl"
            write_jsonl(decisions, self.rows(False) + extra)
            out = tmp_path / f"{tag}.gt.jsonl"
            code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                             "--out", out, "--discard-log", tmp_path / f"{tag}.log.jsonl",
                             "--filter-file", decisions])
            assert code == 0
            outputs.append([out.read_bytes(), (tmp_path / f"{tag}.log.jsonl").read_bytes()])
        assert outputs[0] == outputs[1]


class TestRepeatedIds:
    """A repeated question_id keeps the first row; each later row is skipped
    with its file:line, so no input row is silently overwritten or doubled."""

    GT_ROWS = [{**GT, "question_id": "q1"},
               {**GT, "question_id": "q2", "counts": [1, 1], "raw_matches": [1, 1],
                "p_star": {"classes": ["heat", "fuel"], "probs": [0.5, 0.5]}}]
    PRED_ROWS = [{**PRED, "question_id": "q1"},
                 {**PRED, "question_id": "q2", "samples": [{"text": "heat", "seq_prob": 0.3},
                                                           {"text": "fuel", "seq_prob": 0.3}]}]
    LATER = {
        "ground-truth": {**GT, "question_id": "q1", "answers": ["oxygen", "fuel"],
                         "p_star": {"classes": ["oxygen", "fuel"], "probs": [2 / 3, 1 / 3]}},
        "predictions": {**PRED, "question_id": "q1",
                        "samples": [{"text": "oxygen", "seq_prob": 0.9}]},
    }

    def run_eval(self, folder, gt_rows, pred_rows):
        folder.mkdir()
        write_jsonl(folder / "ground-truth.jsonl", gt_rows)
        write_jsonl(folder / "predictions.jsonl", pred_rows)
        code, err = run(["eval", "--ground-truth", folder / "ground-truth.jsonl",
                         "--predictions", folder / "predictions.jsonl",
                         "--records-out", folder / "r.jsonl", "--metrics-out", folder / "m.csv"])
        assert code == 0
        return err, [(folder / name).read_bytes() for name in ("r.jsonl", "m.csv")]

    @pytest.mark.parametrize("repeated", ["ground-truth", "predictions"])
    def test_eval_scores_the_first_row_per_id(self, tmp_path, repeated):
        _, clean = self.run_eval(tmp_path / "clean", self.GT_ROWS, self.PRED_ROWS)
        rows = {"ground-truth": self.GT_ROWS, "predictions": self.PRED_ROWS}
        rows[repeated] = rows[repeated] + [self.LATER[repeated]]
        err, outputs = self.run_eval(tmp_path / "repeated", rows["ground-truth"],
                                     rows["predictions"])
        assert outputs == clean
        path = tmp_path / "repeated" / f"{repeated}.jsonl"
        assert f"{path}:3: skipped: duplicate question_id 'q1'" in err

    def test_build_gt_counts_the_first_spec_per_id(self, tmp_path, fixture_corpus,
                                                    fixture_specs):
        specs = read_jsonl(fixture_specs)
        repeated = tmp_path / "repeated.jsonl"
        write_jsonl(repeated, specs + [{**specs[1], "answers": ["Elsa", "Olaf"]}])
        outputs = []
        for tag, path in (("clean", fixture_specs), ("repeated", repeated)):
            out, log = tmp_path / f"{tag}.gt.jsonl", tmp_path / f"{tag}.log.jsonl"
            code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", path,
                             "--out", out, "--discard-log", log])
            assert code == 0
            outputs.append([out.read_bytes(), log.read_bytes()])
        assert outputs[0] == outputs[1]
        assert f"{repeated}:4: skipped: duplicate question_id 'q-frozen'" in err


class TestCap:
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cli_rejects_cap_below_one(self, tmp_path, fixture_corpus, fixture_specs, cap):
        out = tmp_path / "gt.jsonl"
        code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                         "--out", out, "--cap", cap])
        assert code == 2
        assert f"cap must be >= 1, got {cap}" in err
        assert not out.exists()
        # checked before any input is read or the filter command starts
        code, err = run(["build-gt", "--corpus", tmp_path / "missing.jsonl", "--specs",
                         fixture_specs, "--out", out, "--cap", cap])
        assert code == 2
        assert f"--cap must be >= 1, got {cap}" in err
        marker, child = tmp_path / "started", tmp_path / "child.py"
        child.write_text("import sys\nopen(sys.argv[1], 'w').close()\n")
        code, err = run(["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                         "--out", out, "--cap", cap, "--filter-cmd",
                         f"{sys.executable} {child} {marker}"])
        assert code == 2
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_library_rejects_cap_below_one(self, cap):
        index = build_index(chunk_corpus([("d", ["the fire needs heat"])]))
        with pytest.raises(ValidationError, match="cap must be >= 1"):
            build_ground_truth(index, [formats.parse_question_spec(SPEC)], cap=cap)
        with pytest.raises(ValidationError, match="cap must be >= 1"):
            cooccurrence_count(index, ["fire"], "heat", cap=cap)
        assert cooccurrence_count(index, ["fire"], "heat", cap=1) == 1


# --- CLI fuzz gate: short JSONL files from JSON values and junk bytes --------

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([10**400, -10**400, 2**64, -1, 0]),
    st.floats(),
    st.text(max_size=6),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
JUNK = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([*TRACEBACK_LINES.values(), b"{bad", b"[]", b"null"]),
    VALUES.map(lambda v: json.dumps(v).encode()),
)
QIDS = st.sampled_from(["q1", "q2"])
ANSWERS = ["heat", "fuel", "oxygen"]
PROBS = st.floats(0.01, 1.0)


@st.composite
def line(draw, rows):
    """One JSONL line: junk, a row with one field replaced by any JSON value
    or dropped, or (most often) the row as drawn."""
    row, kind = draw(rows), draw(st.integers(0, 7))
    if kind == 0:
        return draw(JUNK)
    field = draw(st.sampled_from(sorted(row)))
    if kind == 1:
        row = {**row, field: draw(VALUES)}
    elif kind == 2:
        del row[field]
    return json.dumps(row).encode()


def jsonl(rows):
    """File bytes: two to five lines."""
    return st.lists(line(rows), min_size=2, max_size=5).map(
        lambda lines: b"".join(b + b"\n" for b in lines))


@st.composite
def gt_rows(draw):
    answers = draw(st.lists(st.sampled_from(ANSWERS), min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(answers), max_size=len(answers)))
    return {"question_id": draw(QIDS), "answers": answers, "counts": counts,
            "raw_matches": counts, "discarded": False,
            "p_star": {"classes": answers, "probs": [c / sum(counts) for c in counts]}}


@st.composite
def pred_rows(draw):
    texts = draw(st.lists(st.sampled_from(ANSWERS + ["It's Heat"]), min_size=1, max_size=3))
    return {"question_id": draw(QIDS),
            "samples": [{"text": t, "seq_prob": draw(PROBS)} for t in texts],
            "best_answer_prob": draw(PROBS),
            "ensemble": [{"classes": ["heat", "fuel"], "probs": [p, 1 - p]}
                         for p in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))]}


EVAL_ROWS = st.fixed_dictionaries({
    "question_id": QIDS,
    "true_eu": st.floats(0.0, 2.0),
    "scores": st.dictionaries(st.sampled_from(["SE", "MI", "MSP"]), st.floats(0.0, 2.0),
                              max_size=3),
})
DOC_ROWS = st.fixed_dictionaries({
    "doc_id": st.sampled_from(["d1", "d2"]),
    "sections": st.lists(st.sampled_from(["the fire needs heat.", "fuel and fire.",
                                          "oxygen feeds the fire and heat."]), max_size=3),
})
SPEC_ROWS = st.fixed_dictionaries({
    "question_id": QIDS,
    "question": st.just("What does fire need?"),
    "keywords": st.lists(st.sampled_from(["fire", "needs"]), min_size=1, max_size=2),
    "answers": st.lists(st.sampled_from(ANSWERS), min_size=1, max_size=3),
})


def fuzz_files(tmp_path_factory, **contents):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, data in contents.items():
        (folder / name).write_bytes(data)
    return folder


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(gt=jsonl(gt_rows()), preds=jsonl(pred_rows()),
       gammas=st.sampled_from([[], ["--dirichlet-gamma", "2"], ["--dirichlet-gamma", "1,5"]]),
       equivalence=st.sampled_from([None, None, None, b'{"It\'s Heat": "heat"}', b'{"x": 1}']))
def test_fuzz_eval(tmp_path_factory, gt, preds, gammas, equivalence):
    folder = fuzz_files(tmp_path_factory, **{"gt.jsonl": gt, "preds.jsonl": preds,
                                             "eq.json": equivalence or b""})
    extra = [] if equivalence is None else ["--equivalence", folder / "eq.json"]
    code, _ = run(["eval", "--ground-truth", folder / "gt.jsonl",
                   "--predictions", folder / "preds.jsonl",
                   "--records-out", folder / "r.jsonl", "--metrics-out", folder / "m.csv",
                   *gammas, *extra])
    assert code in {0, 1, 2, 3}


@FUZZ
@given(corpus=jsonl(DOC_ROWS), specs=jsonl(SPEC_ROWS), cap=st.sampled_from(["1", "2", "0"]),
       decisions=st.one_of(st.none(), jsonl(st.fixed_dictionaries({
           "question": st.just("What does fire need?"), "answer": st.sampled_from(ANSWERS),
           "chunk_id": st.sampled_from(["d1:0", "d2:1"]), "accept": st.booleans()}))))
def test_fuzz_build_gt(tmp_path_factory, corpus, specs, cap, decisions):
    folder = fuzz_files(tmp_path_factory, **{"corpus.jsonl": corpus, "specs.jsonl": specs,
                                             "decisions.jsonl": decisions or b""})
    extra = [] if decisions is None else ["--filter-file", folder / "decisions.jsonl"]
    code, _ = run(["build-gt", "--corpus", folder / "corpus.jsonl",
                   "--specs", folder / "specs.jsonl", "--out", folder / "gt.jsonl",
                   "--cap", cap, *extra])
    assert code in {0, 1, 2, 3}


# --- size knobs, --config objects and numeric flags: simulate, bounds, metrics

EXAMPLE_SECONDS = 10  # wall-clock bound on one command; a hang fails the example


class Overtime(BaseException):
    """Raised into a command that outlives EXAMPLE_SECONDS. A BaseException,
    so that no handler in the command can take it for an error of its own."""


def run_bounded(argv):
    """run(argv) under the EXAMPLE_SECONDS bound; an argparse rejection (a flag
    value of the wrong type) counts as its exit code."""
    def overtime(signum, frame):
        raise Overtime(f"{argv[0]} ran past {EXAMPLE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def simulate_argv(folder, config, *flags):
    (folder / "sim.json").write_text(json.dumps(config))
    return ["simulate", "--config", folder / "sim.json", "--out", folder / "o.jsonl",
            "--report", folder / "r.json", *flags]


def metrics_argv(folder, *flags, records=GOOD_RECORDS):
    write_jsonl(folder / "records.jsonl", records)
    return ["metrics", "--records", folder / "records.jsonl", "--metrics-out", folder / "m.csv",
            "--hist-out", folder / "h.csv", "--deltas", "0.7", *flags]


def bounds_argv(folder, *flags):
    return ["bounds", "--k", "10", "--delta", "0.5", "--out", folder / "b.json", *flags]


def not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def outputs(folder) -> set:
    return {p.name for p in folder.iterdir()} - {"sim.json", "records.jsonl"}


# each ended in a traceback, or ran without end, before the size limits
OVERSIZED = {
    "bound-line-points": (bounds_argv, ["--bound-line-points", 10**15], "--bound-line-points"),
    "hist-bins": (metrics_argv, ["--hist-bins", 10**15], "--hist-bins"),
    "k-and-n": (simulate_argv, [{"k": 10**8, "n": 10**8, "regime": "free-AU"}],
                "k*n*max(ensemble_size, 2)"),
    "counts_total": (simulate_argv, [{"k": 3, "n": 10, "counts_total": 10**20}], "counts_total"),
    "k-301-digits": (simulate_argv, [{"k": 10**300, "n": 10}], "k*n*max(ensemble_size, 2)"),
    "ensemble_size": (simulate_argv, [{"k": 3, "n": 10, "ensemble_size": 10**14}],
                      "ensemble_size"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_size_over_its_limit_is_exit_2(tmp_path, name):
    argv, args, field = OVERSIZED[name]
    code, err = run_bounded(argv(tmp_path, *args))
    assert code == 2
    assert field in err
    assert "Traceback" not in err
    assert outputs(tmp_path) == set()


@pytest.mark.parametrize("argv, flag, limit", [
    (metrics_argv, "--hist-bins", cli.MAX_HIST_BINS),
    (bounds_argv, "--bound-line-points", cli.MAX_BOUND_LINE_POINTS),
])
def test_a_flag_runs_up_to_its_limit(tmp_path, argv, flag, limit):
    assert run_bounded(argv(tmp_path, flag, limit))[0] == 0
    if flag == "--hist-bins":
        assert len((tmp_path / "h.csv").read_text().splitlines()) == limit + 1
    else:
        assert len(json.loads((tmp_path / "b.json").read_text())["bound_line"]) == limit
    code, err = run_bounded(argv(tmp_path, flag, limit + 1))
    assert code == 2 and f"{flag} must be <= {limit}, got {limit + 1}" in err


def test_histogram_of_a_subnormal_range_is_exit_3(tmp_path):
    # found by test_fuzz_metrics: numpy cannot cut [0, 5e-324] into 2 bins
    records = [{**GOOD_RECORDS[0], "true_eu": 0.0}, {**GOOD_RECORDS[1], "true_eu": 5e-324}]
    code, err = run_bounded(metrics_argv(tmp_path, "--hist-bins", "2", records=records))
    assert code == 3 and "degenerate input: histogram: Too many bins" in err
    assert outputs(tmp_path) == set()


HUGE = st.sampled_from([10**8, 10**14, 10**20, 2**63, 2**63 - 1, 10**300, 10**400, -1, 0])


def maybe(strategy):
    """A config field: well formed, huge, or any JSON value."""
    return st.one_of(strategy, strategy, HUGE, VALUES)


CONFIG_OBJECTS = st.fixed_dictionaries({}, optional={
    "k": maybe(st.integers(2, 12)),
    "n": maybe(st.integers(1, 40)),
    "seed": maybe(st.integers(0, 2**32)),
    "regime": maybe(st.sampled_from(["zero-AU", "free-AU", "high-AU"])),
    "noise": maybe(st.one_of(st.floats(0.01, 100.0), st.sampled_from([1e-300, 1e300]))),
    "deltas": maybe(st.lists(st.floats(0.0, 1.2), max_size=3)),
    "ensemble_size": maybe(st.integers(1, 4)),
    "counts_total": maybe(st.integers(0, 50)),
})
CONFIGS = st.one_of(CONFIG_OBJECTS, CONFIG_OBJECTS, CONFIG_OBJECTS, VALUES)
# a numeric flag as argparse receives it: well formed, huge, non-finite, or not a number
NUMBERS = st.one_of(st.integers(-2, 40), HUGE, st.floats(), st.just("abc")).map(str)


def flag(strategy):
    """A numeric flag: well formed, huge, or any of NUMBERS."""
    return st.one_of(strategy.map(str), HUGE.map(str), NUMBERS)


@FUZZ
@given(config=CONFIGS, seed=st.one_of(st.none(), flag(st.integers(0, 2**32))),
       hist_bins=st.one_of(st.none(), flag(st.integers(1, 50))), ablation=st.booleans())
def test_fuzz_simulate(tmp_path_factory, config, seed, hist_bins, ablation):
    folder = tmp_path_factory.mktemp("fuzz")
    flags = ["--scatter-csv", folder / "s.csv", "--hist-csv", folder / "h.csv"]
    flags += [] if seed is None else ["--seed", seed]
    flags += [] if hist_bins is None else ["--hist-bins", hist_bins]
    flags += ["--ablation-csv", folder / "a.csv", "--gammas", "1,5"] if ablation else []
    code, err = run_bounded(simulate_argv(folder, config, *flags))
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code != 0:
        assert outputs(folder) == set()


@FUZZ
@given(k=flag(st.integers(2, 40)), delta=flag(st.floats(0.0, 0.7)),
       thm2=st.one_of(st.none(), st.tuples(flag(st.floats(0.0, 2.0)), flag(st.floats(0.0, 1.0)))),
       points=st.one_of(st.none(), flag(st.integers(0, 50))))
def test_fuzz_bounds(tmp_path_factory, k, delta, thm2, points):
    folder = tmp_path_factory.mktemp("fuzz")
    argv = ["bounds", "--k", k, "--delta", delta, "--out", folder / "b.json"]
    argv += [] if thm2 is None else ["--avg-loss", thm2[0], "--p-low-entropy", thm2[1]]
    argv += [] if points is None else ["--bound-line-points", points]
    code, err = run_bounded(argv)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    if code == 0:
        json.loads((folder / "b.json").read_text(), parse_constant=not_json)
    else:
        assert outputs(folder) == set()


@FUZZ
@given(records=jsonl(EVAL_ROWS), hist_bins=flag(st.integers(1, 50)),
       deltas=st.lists(flag(st.floats(0.01, 2.0)), min_size=1, max_size=3).map(",".join))
def test_fuzz_metrics(tmp_path_factory, records, hist_bins, deltas):
    folder = fuzz_files(tmp_path_factory, **{"records.jsonl": records})
    code, err = run_bounded(["metrics", "--records", folder / "records.jsonl",
                             "--deltas", deltas, "--hist-bins", hist_bins,
                             "--metrics-out", folder / "m.csv", "--hist-out", folder / "h.csv"])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
