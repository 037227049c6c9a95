import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiuq import cli
from ambiuq.errors import DegenerateInputError, ValidationError
from ambiuq.formats import (
    eval_record_to_dict,
    parse_eval_record,
    read_eval_columns,
    read_jsonl,
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
    '{"question_id": "a2", "true_eu": 0.5, "scores": {"SE": 0.1}}',
    '{"question_id": "a3", "true_eu": 0.9, "scores": {"SE": 0.8, "MI": 0.7, "MSP": 0.1}}',
    '{"question_id": "a4", "true_eu": 0.0, "scores": {}}',
]


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


class TestReadEvalColumns:
    def reference(self, path):
        """read_jsonl, then parse_eval_record on each object."""
        objs, errors = read_jsonl(path, dict)
        records = []
        for lineno, obj in objs:
            try:
                records.append(parse_eval_record(obj))
            except (ValidationError, ValueError, TypeError) as exc:
                errors.append((lineno, str(exc)))
        return [r.true_eu for r in records], score_columns(records), errors

    def test_malformed_lines_match_per_record_parse(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(MALFORMED_LINES) + "\n")
        true_eu, columns, errors = read_eval_columns(path)
        want_eu, want_columns, want_errors = self.reference(path)
        assert true_eu == want_eu == [0.1, 0.4, 0.5, 0.9, 0.0]
        assert errors == want_errors
        assert list(columns) == list(want_columns) == ["MI", "MSP", "SE"]
        for name, (truth, score) in columns.items():
            assert truth.tolist() == want_columns[name][0].tolist()
            assert score.tolist() == want_columns[name][1].tolist()

    def test_error_order_json_first(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"question_id": "x", "scores": {}}\n[]\n{"question_id": "y"}\n{\n')
        _, columns, errors = read_eval_columns(path)
        assert columns == {}
        assert [lineno for lineno, _ in errors] == [2, 4, 1, 3]
        assert errors == self.reference(path)[2]


def reference_metrics(records, metrics_out, hist_out, deltas) -> int:
    """The metrics command on per-record objects: read_jsonl, then
    parse_eval_record on each object and score_columns over the records."""
    try:
        parsed = []
        objs, errors = read_jsonl(records, dict)
        for lineno, message in errors:
            cli._warn(f"{records}:{lineno}: skipped: {message}")
        for lineno, obj in objs:
            try:
                parsed.append(parse_eval_record(obj))
            except (ValidationError, ValueError, TypeError) as exc:
                cli._warn(f"{records}:{lineno}: skipped: {exc}")
        if not parsed:
            raise ValidationError("no usable eval records")
        columns = score_columns(parsed)
        fieldnames, rows = cli._metric_rows(columns, deltas)
        cli.formats.write_csv(metrics_out, fieldnames, rows)
        cli._write_histogram(hist_out, [r.true_eu for r in parsed], 4)
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
    records.write_text("\n".join(lines) + "\n")
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
