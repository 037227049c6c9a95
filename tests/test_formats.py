import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiuq import cli, formats
from ambiuq.errors import DegenerateInputError, ValidationError
from ambiuq.formats import (
    eval_record_to_dict,
    parse_eval_record,
    read_eval_columns,
    staged_writes,
    write_csv,
    write_eval_columns,
    write_jsonl,
)
from ambiuq.metrics import score_columns
from ambiuq.simlab import FREE_AU, SimConfig, run_experiment

# every kind of line metrics must skip, between usable records
MALFORMED_LINES = [
    '{"question_id": "a1", "true_eu": 0.1, "scores": {"SE": 0.3, "MI": 0.2}}',
    "{bad",
    "[1, 2]",
    '{"true_eu": 0.1, "scores": {"SE": 1}}',
    '{"question_id": "m1", "true_eu": 0.1}',
    '{"question_id": "m2", "scores": {"SE": 1}}',
    '{"question_id": "m3", "true_eu": 0.1, "scores": [1]}',
    '{"question_id": "s1", "true_eu": 0.2, "scores": {"SE": "abc"}}',
    '{"question_id": "n1", "true_eu": 0.2, "scores": {"SE": null}}',
    '{"question_id": "nan1", "true_eu": NaN, "scores": {"SE": 0.1}}',
    '{"question_id": "inf1", "true_eu": 0.3, "scores": {"SE": Infinity, "MI": -Infinity}}',
    '{"question_id": "neg", "true_eu": -0.5, "scores": {"SE": 0.1}}',
    "",
    "   ",
    '{"question_id": "ns", "true_eu": 0.4, "scores": {"SE": "0.5"}}',
    '{"question_id": "st", "true_eu": "abc", "scores": {"SE": 0.5}}',
    '{"question_id": "tn", "true_eu": null, "scores": {"SE": 0.5}}',
    '{"question_id": null, "true_eu": 0.7, "scores": {"SE": 0.9}}',
    '{"question_id": "nd", "true_eu": 0.7, "scores": {"SE": {}}}',
    "42",
    "null",
    # the edges of read_eval_columns' exact-float rows: none of these is one,
    # so each is coerced by parse_eval_record or skipped
    '{"question_id": "i1", "true_eu": 0, "scores": {"SE": 1, "MI": 0}}',
    '{"question_id": "i2", "true_eu": 1, "scores": {"SE": 0.5, "MI": 0.25}}',
    '{"question_id": "b1", "true_eu": 0.2, "scores": {"SE": true}}',
    '{"question_id": "b2", "true_eu": false, "scores": {"SE": 0.2}}',
    '{"question_id": "b3", "true_eu": 0.2, "scores": {"SE": 0.1, "MI": false}}',
    '{"question_id": "big1", "true_eu": 1' + "0" * 400 + ', "scores": {"SE": 0.2}}',
    '{"question_id": "big2", "true_eu": 0.2, "scores": {"SE": 1' + "0" * 400 + "}}",
    '{"question_id": "e1", "true_eu": 1e400, "scores": {"SE": 0.2}}',
    '{"question_id": "e2", "true_eu": 0.2, "scores": {"SE": 0.1, "MI": 1e400}}',
    "{} {}",
    '{"question_id": "\udcff", "true_eu": 0.7, "scores": {"SE": 0.4}}',  # byte 0xff
    # ... and exact-float rows that read as written
    '{"question_id": "z1", "true_eu": -0.0, "scores": {"SE": -0.0, "MI": 0.5}}',
    '{"question_id": "d1", "true_eu": 0.6, "scores": {"SE": 0.1, "SE": 0.7}}',
    '{"question_id": "x1", "true_eu": 0.3, "scores": {"SE": 0.2}, "extra": [1, {"MI": null}]}',
    '{"question_id": "é漢\u00e9", "true_eu": 0.8, "scores": {"MSP": 0.4}}',
    '{"question_id": "a2", "true_eu": 0.5, "scores": {"SE": 0.1}}',
    '{"question_id": "a3", "true_eu": 0.9, "scores": {"SE": 0.8, "MI": 0.7, "MSP": 0.1}}',
    '{"question_id": "a4", "true_eu": 0.0, "scores": {}}',
]


def write_lines(path, lines) -> None:
    """One line per item; a lone surrogate U+DC80..U+DCFF is written as the
    byte it escapes, so a line can hold bytes that are not UTF-8."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


def reference_rows(path):
    """(true_eu, score_columns, errors) of an eval-record file, read with
    plain json.loads and parse_eval_record one line at a time."""
    json_errors, record_errors, records = [], [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                json_errors.append((lineno, f"invalid JSON: {exc}"))
                continue
            if not isinstance(obj, dict):
                json_errors.append((lineno, "expected a JSON object"))
                continue
            try:
                records.append(parse_eval_record(obj))
            except (ValidationError, ValueError, TypeError) as exc:
                record_errors.append((lineno, str(exc)))
    return [r.true_eu for r in records], score_columns(records), json_errors + record_errors


def reference_bytes(tmp_path, question_ids, true_eu, scores):
    """write_jsonl over eval_record_to_dict, one record object per row."""
    path = tmp_path / "reference.jsonl"
    columns = {name: np.asarray(v, dtype=float).tolist() for name, v in scores.items()}
    records = (
        SimpleNamespace(question_id=qid, true_eu=eu,
                        scores={name: col[i] for name, col in columns.items()})
        for i, (qid, eu) in enumerate(zip(question_ids, np.asarray(true_eu, dtype=float).tolist()))
    )
    write_jsonl(path, (eval_record_to_dict(r) for r in records))
    return path.read_bytes()


def column_bytes(tmp_path, question_ids, true_eu, scores):
    path = tmp_path / "columns.jsonl"
    write_eval_columns(path, question_ids, true_eu, scores)
    return path.read_bytes()


class TestWriteEvalColumns:
    @pytest.mark.parametrize(
        "values",
        [
            [-0.0, 5e-324, 1e16, 0.1 + 0.2],
            [1e-300, 123456789.125, 2.0**53 + 2, 1 / 3],
            [math.nan, math.inf, -math.inf, 0.0],
        ],
    )
    def test_awkward_values(self, tmp_path, values):
        ids = ['q"0', "q%1", "q\\2", "qé3"]
        scores = {'a"b': values[::-1], "p%s": values, "SE": [0.5] * 4}
        assert column_bytes(tmp_path, ids, values, scores) == reference_bytes(
            tmp_path, ids, values, scores
        )

    def test_no_estimators(self, tmp_path):
        assert column_bytes(tmp_path, ["q"], [0.25], {}) == reference_bytes(
            tmp_path, ["q"], [0.25], {}
        )

    @pytest.mark.parametrize("n", [0, 1, *(b * formats.ROWS_PER_BLOCK + d
                                           for b in (1, 2) for d in (-1, 0, 1))])
    def test_sizes_around_the_block_size(self, tmp_path, n):
        rng = np.random.default_rng(n)
        ids = [f"q{i:06d}" for i in range(n)]
        true_eu, se, mi = rng.exponential(size=(3, n))
        if n:
            # non-finite values in the last block only, so that the earlier
            # blocks are written as plain floats and the last through json.dumps
            mi[-1], true_eu[-1] = math.nan, math.inf
        scores = {"SE": se, "MI": mi}
        assert column_bytes(tmp_path, ids, true_eu, scores) == reference_bytes(
            tmp_path, ids, true_eu, scores)

    @pytest.mark.parametrize("ensemble_size", [1, 2, 5])
    def test_simulated_population(self, tmp_path, ensemble_size):
        res = run_experiment(SimConfig(k=4, n=400, seed=3, regime=FREE_AU,
                                       ensemble_size=ensemble_size))
        path = tmp_path / "records.jsonl"
        write_jsonl(path, (eval_record_to_dict(r) for r in res.records))
        assert column_bytes(tmp_path, res.question_ids, res.true_eu, res.scores) == (
            path.read_bytes()
        )

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.text(max_size=5), st.floats(), st.floats()),
                      min_size=1, max_size=8),
        names=st.lists(st.text(max_size=4), min_size=2, max_size=2, unique=True),
    )
    def test_matches_json_dumps(self, tmp_path_factory, rows, names):
        tmp_path = tmp_path_factory.mktemp("w")
        ids = [r[0] for r in rows]
        eus = [r[1] for r in rows]
        scores = {names[0]: [r[2] for r in rows], names[1]: eus}
        assert column_bytes(tmp_path, ids, eus, scores) == reference_bytes(
            tmp_path, ids, eus, scores
        )


def test_csv_rows_match_dict_writer(tmp_path):
    fields = ["question_id", "value", "count"]
    rows = [["q0", "1", 3], ["a,b", 2.5, 0], ['say "x"', "", -1], ["line\nbreak", "nan", 7]]
    with open(tmp_path / "dict.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(dict(zip(fields, row)) for row in rows)
    write_csv(tmp_path / "rows.csv", fields, rows)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "dict.csv").read_bytes()


def assert_same_columns(got, want):
    """Equal names in order, and per name equal float arrays, -0.0 included."""
    assert list(got) == list(want)
    for name, arrays in got.items():
        for array, reference in zip(arrays, want[name]):
            assert array.dtype == reference.dtype == np.float64
            assert repr(array.tolist()) == repr(reference.tolist())


# half of the drawn values are the edges of read_eval_columns' exact-float rows
EDGE_VALUES = [0, 1, 10**400, True, False, None, -0.0, 5e-324, 1e308, math.inf, -math.inf,
               math.nan, "0.5", "-0", "1e400", "nan", [], {}]
JSON_VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.one_of(st.floats(), st.integers(), st.text(max_size=3)))
SCORE_NAMES = ("SE", "MI", "MSP")


@st.composite
def eval_rows(draw):
    """A row of a string id and exact floats, with at most one field or score
    dropped or replaced by another JSON value."""
    row = {"question_id": draw(st.text(max_size=3)),
           "true_eu": draw(st.floats(min_value=0, max_value=2)),
           "scores": draw(st.dictionaries(st.sampled_from(SCORE_NAMES),
                                          st.floats(min_value=-2, max_value=2), max_size=3))}
    field = draw(st.sampled_from((None, "question_id", "true_eu", "scores", "extra")
                                 + SCORE_NAMES))
    target = row["scores"] if field in SCORE_NAMES else row
    if field is not None and draw(st.integers(0, 5)):
        target[field] = draw(JSON_VALUES)
    elif field is not None:
        target.pop(field, None)
    return row


class TestReadEvalColumns:
    def test_malformed_lines_match_per_record_parse(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_lines(path, MALFORMED_LINES)
        true_eu, columns, errors = read_eval_columns(path)
        want_eu, want_columns, want_errors = reference_rows(path)
        assert true_eu == want_eu == [0.1, 0.4, 0.0, 1.0, -0.0, 0.6, 0.3, 0.8, 0.5, 0.9, 0.0]
        assert repr(true_eu) == repr(want_eu)
        assert errors == want_errors
        assert list(columns) == ["MI", "MSP", "SE"]
        assert_same_columns(columns, want_columns)

    def test_error_order_json_first(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"question_id": "x", "scores": {}}\n[]\n{"question_id": "y"}\n{\n')
        _, columns, errors = read_eval_columns(path)
        assert columns == {}
        assert [lineno for lineno, _ in errors] == [2, 4, 1, 3]
        assert errors == reference_rows(path)[2]

    def test_each_edge_value_in_each_field_matches_per_record_parse(self, tmp_path):
        rows = []
        for field in ("question_id", "true_eu", "scores", "SE"):
            for value in EDGE_VALUES:
                row = {"question_id": "q", "true_eu": 0.5, "scores": {"MI": 0.25, "SE": 0.75}}
                (row["scores"] if field == "SE" else row)[field] = value
                rows.append(row)
        path = tmp_path / "records.jsonl"
        write_lines(path, [json.dumps(row) for row in rows])
        true_eu, columns, errors = read_eval_columns(path)
        want_eu, want_columns, want_errors = reference_rows(path)
        assert len(true_eu) == 19 and len(errors) == len(rows) - 19
        assert repr(true_eu) == repr(want_eu)
        assert errors == want_errors
        assert_same_columns(columns, want_columns)

    @settings(max_examples=500, deadline=None)
    @given(rows=st.lists(eval_rows(), min_size=1, max_size=12))
    def test_drawn_rows_match_per_record_parse(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("r") / "records.jsonl"
        write_lines(path, [json.dumps(row) for row in rows])
        true_eu, columns, errors = read_eval_columns(path)
        want_eu, want_columns, want_errors = reference_rows(path)
        assert repr(true_eu) == repr(want_eu)
        assert errors == want_errors
        assert_same_columns(columns, want_columns)


def outcome(decode, line):
    """("value", repr(decode(line))), or the type and text of what it raised."""
    try:
        return "value", repr(decode(line))
    except Exception as exc:  # the exception is what is compared
        return type(exc), str(exc)


# lines where json.loads itself fails before or after its one scanner call
DECODER_LINES = [
    "\ufeff{}", '\ufeff{"a": 1}', '"\\ud800"', '{"\\ud800": "\\udfff"}', '"\ud800"', "\ud800",
    "[" * 100_000, '{"a": ' * 100_000, "NaN", '{"a": NaN}', "-Infinity", "1e400",
    "{} {}", "{}x", "{},{}", "{}\n{}", " {}", "{} ", "\t[1]\r", "", " ", "01", "-",
    '{"a": 1,}', '"abc', '"\x01"', "1" * 5000,
]
JSON_TEXT = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
).map(json.dumps)
LINES = st.one_of(
    st.text(max_size=12),
    JSON_TEXT,
    # a value cut short, followed by more text, or doubled
    st.tuples(JSON_TEXT, st.integers(0, 40), st.text(max_size=4)).map(
        lambda t: t[0][: t[1]] + t[2]),
    st.tuples(JSON_TEXT, st.sampled_from(["", " ", ",", "\t"])).map(
        lambda t: t[0] + t[1] + t[0]),
)


class TestDecoder:
    @pytest.mark.parametrize("line", DECODER_LINES, ids=range(len(DECODER_LINES)))
    def test_fixed_lines_match_json_loads(self, line):
        assert outcome(formats._decode, line) == outcome(json.loads, line)

    @settings(max_examples=500, deadline=None)
    @given(line=LINES)
    def test_drawn_lines_match_json_loads(self, line):
        assert outcome(formats._decode, line) == outcome(json.loads, line)

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(LINES.map(lambda s: s.replace("\r", "").replace("\n", "")),
                          max_size=8))
    def test_iter_jsonl_matches_json_loads_per_line(self, tmp_path_factory, lines):
        """Each stripped line as json.loads decodes it: the object, or the
        line's place among the JSON errors with json.loads' message."""
        path = tmp_path_factory.mktemp("d") / "lines.jsonl"
        write_lines(path, lines)
        errors: list = []
        got = [(lineno, repr(obj)) for lineno, obj in formats._iter_jsonl(path, errors, dict)]
        want, want_errors = [], []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            kind, value = outcome(json.loads, line.strip())
            if kind != "value":
                want_errors.append((lineno, f"invalid JSON: {value}"))
            elif value.startswith("{"):
                want.append((lineno, value))
            else:
                want_errors.append((lineno, "expected a JSON object"))
        assert got == want
        assert errors == want_errors


# no line is valid JSON on its own, yet joined with commas the three decode to
# three well-typed records: "a,b", "c" and "d"
SPLIT_LINES = [
    '{"question_id": "a',
    'b", "scores": {"SE": 0.5}, "true_eu": 0.1}',
    '{"question_id": "c", "scores": {"SE": 0.2}, "true_eu": 0.3},'
    '{"question_id": "d", "scores": {"SE": 0.4}, "true_eu": 0.6}',
]


def test_metrics_ties_no_record_to_another_line(tmp_path, capsys):
    assert [r["question_id"] for r in json.loads("[" + ",".join(SPLIT_LINES) + "]")] == [
        "a,b", "c", "d"]
    records = tmp_path / "records.jsonl"
    write_lines(records, SPLIT_LINES)
    code = cli.main(["metrics", "--records", str(records),
                     "--metrics-out", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err[-1] == "ambiuq: error: no usable eval records"
    assert [line.split(": invalid JSON: ")[0] for line in err[:-1]] == [
        f"ambiuq: {records}:{lineno}: skipped" for lineno in (1, 2, 3)]
    assert not (tmp_path / "m.csv").exists()


def reference_metrics(records, metrics_out, hist_out, deltas) -> int:
    """The metrics command on per-record objects: reference_rows, then
    score_columns over the records."""
    try:
        true_eu, columns, errors = reference_rows(records)
        for lineno, message in errors:
            cli._warn(f"{records}:{lineno}: skipped: {message}")
        if not true_eu:
            raise ValidationError("no usable eval records")
        fieldnames, rows = cli._metric_rows(columns, deltas)
        cli.formats.write_csv(metrics_out, fieldnames, rows)
        cli._write_histogram(hist_out, true_eu, 4)
        print(f"wrote metrics for {len(columns)} estimators to {metrics_out}")
        return 0
    except DegenerateInputError as exc:
        cli._warn(f"degenerate input: {exc}")
        return 3
    except ValidationError as exc:
        cli._warn(f"error: {exc}")
        return 2


@pytest.mark.parametrize("keep", ["all", "bad-only", "no-scores"])
def test_metrics_streaming_matches_per_record_reference(tmp_path, capsys, keep):
    lines = {
        "all": MALFORMED_LINES,
        "bad-only": MALFORMED_LINES[1:12],
        "no-scores": [line for line in MALFORMED_LINES if '"scores": {}' in line],
    }[keep]
    records = tmp_path / "records.jsonl"
    write_lines(records, lines)
    outputs = {}
    for name, run in (
        ("reference", lambda m, h: reference_metrics(records, m, h, (0.3, 1.0))),
        ("streaming", lambda m, h: cli.main(["metrics", "--records", str(records),
                                         "--metrics-out", str(m), "--hist-out", str(h),
                                         "--hist-bins", "4", "--deltas", "0.3,1"])),
    ):
        out_dir = tmp_path / name
        out_dir.mkdir()
        code = run(out_dir / "m.csv", out_dir / "h.csv")
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        outputs[name] = code, captured.out.replace(str(out_dir), "OUT"), captured.err, files
    assert outputs["streaming"] == outputs["reference"]
    assert outputs["streaming"][0] == {"all": 0, "bad-only": 2, "no-scores": 3}[keep]


class TestStagedWrites:
    def test_renamed_into_place_on_success(self, tmp_path):
        target = tmp_path / "a.csv"
        with staged_writes() as stage:
            write_csv(stage(str(target)), ["x"], [[1]])
            assert not target.exists()
        assert target.read_text() == "x\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_removed_on_failure(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old\n")
        with pytest.raises(ValidationError):
            with staged_writes() as stage:
                write_csv(stage(str(target)), ["x"], [[1]])
                raise ValidationError("late failure")
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert target.read_text() == "old\n"

    def test_link_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        with staged_writes() as stage:
            write_csv(stage(str(link)), ["x"], [[1]])
        assert link.is_symlink() and real.read_text() == "x\n1\n"
