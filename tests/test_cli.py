import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_reference import brute_concordance

import ambiuq
from ambiuq import bounds, cli, formats, simlab
from ambiuq.cli import main
from ambiuq.dist import Categorical, canonical_merge, decompose, entropy, normalize
from ambiuq.errors import DegenerateInputError
from ambiuq.estimators import (EquivalenceMap, align, align_ensemble, cluster, msp,
                               mutual_information)
from ambiuq.metrics import concordance

LN2 = math.log(2.0)


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def fixture_corpus(tmp_path):
    docs = []
    filler = "nothing relevant appears in this sentence."
    planted = (
        [("the fire triangle needs heat to ignite.", 31)]
        + [("the fire triangle needs fuel to keep burning.", 32)]
        + [("the fire triangle needs oxygen from the air.", 25)]
        + [("princess elsa rules arendelle in frozen.", 188)]
        + [("princess anna of arendelle stars in frozen.", 91)]
        + [(filler, 20)]
    )
    i = 0
    for text, copies in planted:
        for _ in range(copies):
            docs.append({"doc_id": f"d{i:04d}", "sections": [text]})
            i += 1
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, docs)
    return path


@pytest.fixture
def fixture_specs(tmp_path):
    specs = [
        {
            "question_id": "q-fire",
            "question": "What is one essential part of the fire triangle?",
            "keywords": ["fire triangle"],
            "answers": ["Heat", "Fuel", "Oxygen"],
        },
        {
            "question_id": "q-frozen",
            "question": "Name one princess in Frozen.",
            "keywords": ["Frozen", "princess"],
            "answers": ["Elsa", "Anna"],
        },
        {
            "question_id": "q-dead",
            "question": "Unmatchable answer?",
            "keywords": ["fire triangle"],
            "answers": ["Heat", "Plutonium"],
        },
    ]
    path = tmp_path / "specs.jsonl"
    write_jsonl(path, specs)
    return path


@pytest.fixture
def filter_script(tmp_path):
    # accepts only chunks mentioning oxygen or heat
    script = tmp_path / "filter.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    obj = json.loads(line)\n"
        "    ok = 'oxygen' in obj['text'] or 'heat' in obj['text']\n"
        "    print('yes' if ok else 'no', flush=True)\n"
    )
    return script


def run_cli_process(*args, env=None, filter_timeout_s=None):
    """Run the CLI in a child process, so a hang fails the test by timeout;
    ``filter_timeout_s`` replaces cli.FILTER_TIMEOUT_S in that process."""
    src = str(Path(ambiuq.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["-m", "ambiuq.cli", *args]
    if filter_timeout_s is not None:
        argv = ["-c", f"import sys; from ambiuq import cli; cli.FILTER_TIMEOUT_S = "
                      f"{filter_timeout_s!r}; sys.exit(cli.main({[str(a) for a in args]!r}))"]
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60,
    )


def build_gt(tmp_path, fixture_corpus, fixture_specs, *extra):
    out = tmp_path / "gt.jsonl"
    log = tmp_path / "gt.discards.jsonl"
    code = main(
        [
            "build-gt",
            "--corpus", str(fixture_corpus),
            "--specs", str(fixture_specs),
            "--out", str(out),
            "--discard-log", str(log),
            *extra,
        ]
    )
    assert code == 0
    return out, log


class TestBuildGT:
    def test_reproduces_planted_distributions(self, tmp_path, fixture_corpus, fixture_specs):
        out, log = build_gt(tmp_path, fixture_corpus, fixture_specs)
        records = {r["question_id"]: r for r in read_jsonl(out)}
        assert set(records) == {"q-fire", "q-frozen"}
        fire = records["q-fire"]
        assert fire["counts"] == [31, 32, 25]
        np.testing.assert_allclose(
            fire["p_star"]["probs"], [31 / 88, 32 / 88, 25 / 88], atol=1e-12
        )
        frozen = records["q-frozen"]
        assert frozen["counts"] == [188, 91]
        (discarded,) = read_jsonl(log)
        assert discarded["question_id"] == "q-dead"
        assert "Plutonium" in discarded["reason"]

    def test_empty_specs_ok(self, tmp_path, fixture_corpus, capsys):
        specs = tmp_path / "empty.jsonl"
        specs.write_text("")
        out = tmp_path / "gt.jsonl"
        code = main(
            ["build-gt", "--corpus", str(fixture_corpus), "--specs", str(specs),
             "--out", str(out)]
        )
        assert code == 0
        assert read_jsonl(out) == []
        assert "no usable question specs" in capsys.readouterr().err

    def test_bad_jsonl_line_warns_and_continues(
        self, tmp_path, fixture_corpus, fixture_specs, capsys
    ):
        broken = tmp_path / "broken.jsonl"
        broken.write_text(fixture_specs.read_text() + "{not json\n")
        out, _ = build_gt(tmp_path, fixture_corpus, broken)
        err = capsys.readouterr().err
        assert ":4: skipped" in err
        assert len(read_jsonl(out)) == 2

    def test_answers_with_one_term_set_are_named(self, tmp_path, capsys):
        # "Paris" and "paris" stem alike, so they count the same two chunks
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"doc_id": f"d{i}", "sections": [text]} for i, text in
                             enumerate(["the capital Paris", "a capital Paris again",
                                        "capital London"])])
        specs = tmp_path / "specs.jsonl"
        write_jsonl(specs, [
            {"question_id": q, "keywords": ["capital"], "answers": answers}
            for q, answers in (("s1", ["Paris", "paris", "London"]), ("s2", ["London", "Paris"]))])
        out, _ = build_gt(tmp_path, corpus, specs)
        assert capsys.readouterr().err.splitlines() == [
            "ambiuq: s1: answers ['Paris', 'paris'] require the same stemmed terms, "
            "so they count the same chunks"]
        # the answers are neither merged nor discarded
        s1 = read_jsonl(out)[0]
        assert s1["counts"] == [2, 2, 1] and s1["p_star"]["probs"] == [0.4, 0.4, 0.2]

    def test_repeated_doc_id_keeps_its_first_row(self, tmp_path, capsys):
        # both docs would chunk to "d:0", and one filter row would reject the two
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"doc_id": "d", "sections": ["paris is where"]},
                             {"doc_id": "d", "sections": ["paris again, where"]},
                             {"doc_id": "e", "sections": ["london is where"]}])
        specs = tmp_path / "specs.jsonl"
        write_jsonl(specs, [{"question_id": "q", "question": "where?", "keywords": ["where"],
                             "answers": ["paris", "london"]}])
        decisions = tmp_path / "decisions.jsonl"
        write_jsonl(decisions, [{"question": "where?", "answer": "paris", "chunk_id": "d:0",
                                 "accept": False}])
        out, log = build_gt(tmp_path, corpus, specs)
        assert capsys.readouterr().err.splitlines() == [
            f"ambiuq: {corpus}:2: skipped: duplicate doc_id 'd'"]
        (record,) = read_jsonl(out)
        assert record["raw_matches"] == record["counts"] == [1, 1]
        build_gt(tmp_path, corpus, specs, "--filter-file", str(decisions))
        (record,) = read_jsonl(log)
        assert record["raw_matches"] == [1, 1] and record["counts"] == [0, 1]

    def test_rerun_is_byte_identical(self, tmp_path, fixture_corpus, fixture_specs):
        out1, log1 = build_gt(tmp_path, fixture_corpus, fixture_specs)
        first = out1.read_bytes(), log1.read_bytes()
        out2, log2 = build_gt(tmp_path, fixture_corpus, fixture_specs)
        assert (out2.read_bytes(), log2.read_bytes()) == first

    def test_filter_cmd_ignores_workers_env(
        self, tmp_path, fixture_corpus, fixture_specs, filter_script
    ):
        # AMBIUQ_WORKERS once sized a thread pool that shared the filter's
        # pipes, which garbled replies or hung; it must now change nothing
        outputs = []
        for workers in (None, "8"):
            env = {k: v for k, v in os.environ.items() if k != "AMBIUQ_WORKERS"}
            if workers is not None:
                env["AMBIUQ_WORKERS"] = workers
            out = tmp_path / f"gt-{workers}.jsonl"
            proc = run_cli_process(
                "build-gt", "--corpus", str(fixture_corpus),
                "--specs", str(fixture_specs), "--out", str(out),
                "--filter-cmd", f"{sys.executable} {filter_script}", env=env,
            )
            assert proc.returncode == 0, proc.stderr
            discards = Path(f"{out}.discards.jsonl")
            outputs.append((out.read_bytes(), discards.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("code, script", [
        (3, "import sys\nsys.exit(3)\n"),
        (4, "import sys\nsys.stdin.readline()\nprint('yes', flush=True)\nsys.exit(4)\n"),
    ], ids=["exits-at-once", "exits-after-one-reply"])
    def test_filter_cmd_exit_is_named(
        self, tmp_path, fixture_corpus, fixture_specs, code, script
    ):
        dead = tmp_path / "dead.py"
        dead.write_text(script)
        out = tmp_path / "gt.jsonl"
        proc = run_cli_process(
            "build-gt", "--corpus", str(fixture_corpus),
            "--specs", str(fixture_specs), "--out", str(out),
            "--filter-cmd", f"{sys.executable} {dead}",
        )
        assert proc.returncode == 1
        assert f"exited with code {code}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_filter_cmd_dead_before_first_write(self, tmp_path):
        # the CLI cases race the child's exit; here the first write must
        # meet a broken pipe, and closing the filter must not mask the error
        from ambiuq.cli import CommandFilter
        from ambiuq.corpus import Chunk

        dead = tmp_path / "dead.py"
        dead.write_text("import sys\nsys.exit(3)\n")
        accept = CommandFilter(f"{sys.executable} {dead}")
        accept.proc.wait(timeout=60)
        chunk = Chunk("d:0", "heat", frozenset({"heat"}))
        with pytest.raises(OSError, match="exited with code 3"):
            next(accept([([chunk], "q?", "heat")]))
        accept.close()

    def test_mute_filter_cmd_times_out(
        self, tmp_path, fixture_corpus, fixture_specs, monkeypatch, capsys
    ):
        # reads every request and never replies, without exiting
        mute = tmp_path / "mute.py"
        mute.write_text("import sys\nfor line in sys.stdin:\n    pass\n")
        monkeypatch.setattr(cli, "FILTER_TIMEOUT_S", 0.5)
        out = tmp_path / "gt.jsonl"
        code = main([
            "build-gt", "--corpus", str(fixture_corpus),
            "--specs", str(fixture_specs), "--out", str(out),
            "--filter-cmd", f"{sys.executable} {mute}",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "sent no reply in 0.5 s" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_close_kills_a_filter_that_outlives_stdin_eof(self, monkeypatch):
        from ambiuq.cli import CommandFilter

        # ignores stdin, so closing it does not end the child
        monkeypatch.setattr(cli, "FILTER_TIMEOUT_S", 0.5)
        accept = CommandFilter(f"{sys.executable} -c 'import time; time.sleep(60)'")
        start = time.monotonic()
        accept.close()
        assert accept.proc.returncode == -signal.SIGKILL
        assert time.monotonic() - start < 30

    def test_filter_cmd_reply_must_be_yes_or_no(self, tmp_path, fixture_corpus, fixture_specs,
                                                capsys):
        vague = tmp_path / "vague.py"
        vague.write_text("import sys\nfor line in sys.stdin:\n    print('maybe', flush=True)\n")
        out = tmp_path / "gt.jsonl"
        code = main(["build-gt", "--corpus", str(fixture_corpus), "--specs", str(fixture_specs),
                     "--out", str(out), "--filter-cmd", f"{sys.executable} {vague}"])
        assert code == 2
        assert "replied 'maybe'; expected yes/no" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_cmd_extra_reply_lines_exit_2(self, tmp_path, fixture_specs, capsys):
        # two lines per request shifted every later decision onto the wrong
        # chunk, and build-gt wrote fire counts [5, 5, 1] where they are [10, 10, 2]
        corpus = tmp_path / "fire.jsonl"
        write_jsonl(corpus, [{"doc_id": f"d{i}", "sections": [text]} for i, text in enumerate(
            ["the fire triangle needs heat and fuel."] * 8
            + ["the fire triangle needs heat, fuel and oxygen."] * 2)])
        twice, sent = tmp_path / "twice.py", tmp_path / "sent.jsonl"
        twice.write_text(f"import sys\nwith open({str(sent)!r}, 'w') as fh:\n"
                         "    for line in sys.stdin:\n        fh.write(line)\n"
                         "        print('yes\\nno', flush=True)\n")
        out = tmp_path / "gt.jsonl"
        code = main(["build-gt", "--corpus", str(corpus), "--specs", str(fixture_specs),
                     "--out", str(out), "--filter-cmd", f"{sys.executable} {twice}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"filter command '{sys.executable} {twice}' sent more reply lines than requests" \
            in err
        assert not out.exists() and not Path(f"{out}.discards.jsonl").exists()
        # every (spec, answer)'s requests were still written: heat, fuel, oxygen, heat
        assert len(sent.read_text().splitlines()) == 10 + 10 + 2 + 10

    def test_filter_cmd_and_filter_file_are_exclusive(self, tmp_path, fixture_corpus,
                                                      fixture_specs, filter_script, capsys):
        decisions = tmp_path / "decisions.jsonl"
        decisions.write_text("")
        out = tmp_path / "gt.jsonl"
        code = main(["build-gt", "--corpus", str(fixture_corpus), "--specs", str(fixture_specs),
                     "--out", str(out), "--filter-cmd", f"{sys.executable} {filter_script}",
                     "--filter-file", str(decisions)])
        assert code == 2
        assert "--filter-cmd and --filter-file are mutually exclusive" in capsys.readouterr().err
        assert not out.exists()
        # checked before any input is read
        code = main(["build-gt", "--corpus", str(tmp_path / "missing.jsonl"), "--specs",
                     str(fixture_specs), "--out", str(out), "--filter-cmd",
                     f"{sys.executable} {filter_script}", "--filter-file", str(decisions)])
        assert code == 2
        assert "--filter-cmd and --filter-file are mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code, message", [
        (["--filter-cmd", "   "], 2, "--filter-cmd '   ' names no program"),
        (["--filter-cmd", '"x'], 2, """--filter-cmd '"x': No closing quotation"""),
        (["--filter-cmd", ""], 2, "--filter-cmd '' names no program"),
        (["--filter-file", ""], 1, "No such file or directory: ''"),
        (["--filter-cmd", "", "--filter-file", ""], 2,
         "--filter-cmd and --filter-file are mutually exclusive"),
    ], ids=["blank-command", "unclosed-quote", "empty-command", "empty-file", "both-empty"])
    def test_empty_or_unsplittable_filter_flag_is_an_error(
        self, tmp_path, fixture_corpus, fixture_specs, flags, code, message, capsys
    ):
        out = tmp_path / "gt.jsonl"
        assert main(["build-gt", "--corpus", str(fixture_corpus), "--specs", str(fixture_specs),
                     "--out", str(out), *flags]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_filter_cmd(self, tmp_path, fixture_corpus, fixture_specs, filter_script):
        # fuel gets zero counts, so q-fire must land in the discard log
        out, log = build_gt(
            tmp_path, fixture_corpus, fixture_specs,
            "--filter-cmd", f"{sys.executable} {filter_script}",
        )
        ids = {r["question_id"] for r in read_jsonl(out)}
        assert "q-fire" not in ids
        logged = {r["question_id"] for r in read_jsonl(log)}
        assert "q-fire" in logged

    def test_filter_file(self, tmp_path, fixture_corpus, fixture_specs):
        decisions = tmp_path / "decisions.jsonl"
        # reject every heat chunk for q-fire: zero count -> discarded
        rows = [
            {
                "question": "What is one essential part of the fire triangle?",
                "answer": "Heat",
                "chunk_id": f"d{i:04d}:0",
                "accept": False,
            }
            for i in range(0, 31)
        ]
        write_jsonl(decisions, rows)
        out, log = build_gt(
            tmp_path, fixture_corpus, fixture_specs, "--filter-file", str(decisions)
        )
        ids = {r["question_id"] for r in read_jsonl(out)}
        assert ids == {"q-frozen"}


class TestFilterCmdPipeline:
    """The requests of one (spec, answer) go out without waiting for replies."""

    def build(self, tmp_path, corpus, specs, script, **kwargs):
        child = tmp_path / "child.py"
        child.write_text(script)
        out = tmp_path / "filtered.jsonl"  # build_gt writes gt.jsonl
        proc = run_cli_process(
            "build-gt", "--corpus", corpus, "--specs", specs, "--out", out,
            "--filter-cmd", f"{sys.executable} {child}", **kwargs,
        )
        return proc, out

    def test_requests_are_one_json_line_per_kept_chunk_in_order(
        self, tmp_path, fixture_corpus, fixture_specs
    ):
        from ambiuq import corpus, formats

        # one oxygen chunk whose id and text need escaping, with a lone
        # surrogate that the file's JSON "\\udc80" escape produces
        with open(fixture_corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doc_id": 'd\u00e9"\\', "sections": [
                'the fire triangle needs oxygen: "caf\u00e9" \\ \t\x01\u2603 \udc80']}) + "\n")
        sent = tmp_path / "sent.jsonl"
        proc, out = self.build(tmp_path, fixture_corpus, fixture_specs, (
            "import sys\n"
            f"with open({str(sent)!r}, 'wb') as fh:\n"
            "    for line in sys.stdin.buffer:\n"
            "        fh.write(line)\n"
            "        fh.flush()\n"
            "        print('yes', flush=True)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        docs = [doc for _, doc in formats.read_jsonl(fixture_corpus, formats.parse_corpus_doc)[0]]
        specs = [s for _, s in formats.read_jsonl(fixture_specs, formats.parse_question_spec,
                                                   "question_id")[0]]
        expected = []

        def record(batches):
            for chunks, question, answer in batches:
                expected.extend(json.dumps({"chunk_id": c.chunk_id, "text": c.text,
                                            "question": question, "answer": answer},
                                           sort_keys=True) + "\n" for c in chunks)
                yield [True] * len(chunks)

        corpus.build_ground_truth(corpus.build_index(corpus.chunk_corpus(docs)), specs,
                                  accept=record)
        assert len(expected) == 31 + 32 + 25 + 1 + 188 + 91 + 31
        assert '"chunk_id": "d\\u00e9\\"\\\\:0"' in "".join(expected)
        assert expected[0] == (
            '{"answer": "Heat", "chunk_id": "d0000:0", "question": "What is one essential '
            'part of the fire triangle?", "text": "the fire triangle needs heat to ignite."}\n')
        assert sent.read_bytes() == "".join(expected).encode()
        # every reply was yes, so the counts are the unfiltered ones
        plain, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        assert out.read_bytes() == plain.read_bytes()

    def test_replies_and_requests_larger_than_the_pipes(self, tmp_path):
        # 120 kept chunks of about 2 KB for "tail", 40 of them for "dust", and
        # 70 KB replies: both pipes fill up within one (spec, answer)
        docs = [{"doc_id": f"d{i:04d}",
                 "sections": ["comet tail " + ("dust " if i % 3 == 0 else "") + "ipsum " * 320]}
                for i in range(120)]
        corpus_path, specs_path = tmp_path / "corpus.jsonl", tmp_path / "specs.jsonl"
        write_jsonl(corpus_path, docs)
        write_jsonl(specs_path, [{"question_id": "q", "question": "What does a comet have?",
                                  "keywords": ["comet"], "answers": ["tail", "dust"]}])
        proc, out = self.build(tmp_path, corpus_path, specs_path, (
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    doc = int(json.loads(line)['chunk_id'][1:5])\n"
            "    reply = 'yes' if doc % 2 == 0 else 'no'\n"
            "    sys.stdout.write(reply + ' ' * 70_000 + '\\n')\n"
            "    sys.stdout.flush()\n"
        ))
        assert proc.returncode == 0, proc.stderr
        (record,) = read_jsonl(out)
        assert record["counts"] == [60, 20]

    def test_first_invalid_reply_in_a_batch_is_named(
        self, tmp_path, fixture_corpus, fixture_specs
    ):
        proc, out = self.build(tmp_path, fixture_corpus, fixture_specs, (
            "import sys\n"
            "for i, line in enumerate(sys.stdin):\n"
            "    print('yes' if i < 2 else f'bad{i}', flush=True)\n"
        ))
        assert proc.returncode == 2
        assert "replied 'bad2'; expected yes/no" in proc.stderr
        assert "bad3" not in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_crlf_replies_are_accepted(self, tmp_path, fixture_corpus, fixture_specs,
                                       filter_script):
        proc, out = self.build(tmp_path, fixture_corpus, fixture_specs, (
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    text = json.loads(line)['text']\n"
            "    ok = 'oxygen' in text or 'heat' in text\n"
            "    sys.stdout.buffer.write(b'yes\\r\\n' if ok else b'no\\r\\n')\n"
            "    sys.stdout.flush()\n"
        ))
        assert proc.returncode == 0, proc.stderr
        lf, _ = build_gt(tmp_path, fixture_corpus, fixture_specs,
                         "--filter-cmd", f"{sys.executable} {filter_script}")
        assert out.read_bytes() == lf.read_bytes()

    @pytest.mark.parametrize("reply", [b"yes", b"yes\r"], ids=["no-line-end", "lone-cr"])
    def test_reply_without_a_line_end_times_out(
        self, tmp_path, fixture_corpus, fixture_specs, reply
    ):
        # the child stays alive after its partial reply, so only the
        # deadline ends the wait
        proc, out = self.build(tmp_path, fixture_corpus, fixture_specs, (
            "import sys, time\n"
            "sys.stdin.readline()\n"
            f"sys.stdout.buffer.write({reply!r})\n"
            "sys.stdout.flush()\n"
            "time.sleep(60)\n"
        ), filter_timeout_s=0.5)
        assert proc.returncode == 1
        assert "sent no reply in 0.5 s" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_reply_that_is_not_utf8_is_exit_2(self, tmp_path, fixture_corpus, fixture_specs):
        proc, out = self.build(tmp_path, fixture_corpus, fixture_specs, (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'\\xff\\n')\n"
            "    sys.stdout.flush()\n"
        ))
        assert proc.returncode == 2
        assert r"replied '\\xff'; expected yes/no" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() and not Path(f"{out}.discards.jsonl").exists()


# JSON text that needs escaping: quotes, backslashes, control and non-ASCII
# characters, and the lone surrogates that a "\\udc80" escape in an input file gives
ESCAPED_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2603", "\U0001f600",
     "\ud800", "\udc80", "\udfff"])), max_size=12)


class TestFilterStream:
    """One filter call per run: a stream of (chunks, question, answer) batches in,
    one decision list per batch out, in order."""

    @settings(max_examples=200, deadline=None)
    @given(chunks=st.lists(st.tuples(ESCAPED_TEXT, ESCAPED_TEXT), max_size=4),
           question=ESCAPED_TEXT, answer=ESCAPED_TEXT)
    def test_request_line_is_the_json_dumps_line(self, chunks, question, answer):
        from ambiuq.corpus import Chunk

        chunks = [Chunk(chunk_id, text, frozenset()) for chunk_id, text in chunks]
        assert list(cli._request_lines(chunks, question, answer)) == [
            (json.dumps({"chunk_id": c.chunk_id, "text": c.text, "question": question,
                         "answer": answer}, sort_keys=True) + "\n").encode() for c in chunks]

    def test_command_filter_takes_at_most_one_batch_ahead(self, tmp_path):
        from ambiuq.cli import CommandFilter
        from ambiuq.corpus import Chunk

        taken = 0

        def batches():
            nonlocal taken
            for i in range(24):
                taken += 1
                yield [Chunk(f"d:{i}.{j}", "x", frozenset()) for j in range(i % 3)], "q?", "a"

        child = tmp_path / "yes.py"
        child.write_text("import sys\nfor line in sys.stdin:\n    print('yes', flush=True)\n")
        accept = CommandFilter(f"{sys.executable} {child}")
        try:
            seen = [(taken, decisions) for decisions in accept(batches())]
        finally:
            assert accept.close() == b""
        assert [decisions for _, decisions in seen] == [[True] * (i % 3) for i in range(24)]
        # batch i's decisions arrive before batch i + 2 is taken, whatever the timing
        assert all(n <= i + 2 for i, (n, _) in enumerate(seen))

    def test_file_filter_and_a_plain_callable_answer_each_batch_in_order(self, tmp_path):
        from ambiuq.cli import FileFilter
        from ambiuq.corpus import Chunk, QuestionSpec, build_ground_truth, build_index

        decisions = tmp_path / "decisions.jsonl"
        write_jsonl(decisions, [{"question": "q?", "answer": "b", "chunk_id": "d:1",
                                 "accept": False}])
        a, b = (Chunk(f"d:{i}", "x", frozenset()) for i in range(2))
        batches = [([a, b], "q?", "a"), ([], "q?", "b"), ([a, b], "q?", "b"), ([b], "q?", "b")]
        assert list(FileFilter(str(decisions))(iter(batches))) == [
            [True, True], [], [True, False], [False]]

        seen = []

        def first_rejected(stream):  # a plain callable: rejects each batch's first chunk
            for chunks, question, answer in stream:
                seen.append((question, answer, len(chunks)))
                yield [False] + [True] * (len(chunks) - 1)

        index = build_index(Chunk(f"d:{i}", "x", frozenset(terms)) for i, terms in
                            enumerate([{"k", "a"}, {"k", "a", "b"}, {"k", "b"}, {"k", "a"}]))
        specs = [QuestionSpec("s1", "one?", ("k",), ("a", "b")),
                 QuestionSpec("s0", "zero?", ("k",), ("b", "a"))]
        records = build_ground_truth(index, specs, accept=first_rejected)
        assert seen == [("one?", "a", 3), ("one?", "b", 2), ("zero?", "b", 2), ("zero?", "a", 3)]
        assert [r.counts for r in records] == [(1, 2), (2, 1)]


def test_plain_import_loads_no_process_modules():
    # CommandFilter imports them where it starts a child
    src = str(Path(ambiuq.__file__).resolve().parents[1])
    code = ("import sys, ambiuq.cli; "
            "print(sorted({'select', 'shlex', 'subprocess'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"


@pytest.fixture
def fixture_predictions(tmp_path):
    def samples(pairs):
        return [{"text": t, "seq_prob": p} for t, p in pairs]

    ensemble = [
        {"classes": ["heat", "fuel"], "probs": [0.7, 0.3]},
        {"classes": ["heat", "oxygen"], "probs": [0.5, 0.5]},
    ]
    preds = [
        {
            "question_id": "q-fire",
            "samples": samples(
                [("Heat", 0.30), ("It's Heat", 0.10), ("Fuel", 0.25), ("Carbon", 0.05)]
            ),
            "best_answer_prob": 0.35,
            "ensemble": ensemble,
        },
        {
            # no beam-search prob and no ensemble: MSP and MI must be
            # disabled for this record with a notice, not guessed
            "question_id": "q-frozen",
            "samples": samples([("Elsa", 0.5), ("Anna", 0.2), ("Olaf", 0.05)]),
        },
        {
            "question_id": "q-extra",
            "samples": samples([("whatever", 0.2)]),
        },
    ]
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, preds)
    return path


@pytest.fixture
def fixture_equivalence(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"It's Heat": "heat"}))
    return path


class TestEval:
    def run_eval(self, tmp_path, gt, preds, *extra, tag="records"):
        records = tmp_path / f"{tag}.jsonl"
        metrics = tmp_path / f"{tag}.metrics.csv"
        code = main(
            [
                "eval",
                "--ground-truth", str(gt),
                "--predictions", str(preds),
                "--records-out", str(records),
                "--metrics-out", str(metrics),
                *extra,
            ]
        )
        return code, records, metrics

    def test_end_to_end(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions,
        fixture_equivalence, capsys,
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        code, records_path, metrics_path = self.run_eval(
            tmp_path, gt, fixture_predictions, "--equivalence", str(fixture_equivalence)
        )
        assert code == 0
        records = read_jsonl(records_path)
        assert [r["question_id"] for r in records] == ["q-fire", "q-frozen"]
        by_id = {r["question_id"]: r for r in records}
        assert set(by_id["q-fire"]["scores"]) == {"SE", "MSP", "MI"}
        assert set(by_id["q-frozen"]["scores"]) == {"SE"}
        for r in records:
            assert r["true_eu"] > 0
        err = capsys.readouterr().err
        assert "q-extra: no ground-truth record; skipped" in err
        assert "q-frozen: MSP disabled" in err
        assert "q-frozen: MI disabled" in err
        rows = read_csv(metrics_path)
        assert [r["estimator"] for r in rows] == ["MI", "MSP", "SE"]

    @pytest.mark.parametrize("deltas, gamma", [
        ([], []), (["--deltas", "0.05,0.5"], []),
        (["--deltas", "0.1,1"], ["--dirichlet-gamma", "2"]),
    ], ids=["default-deltas", "two-deltas", "gamma"])
    def test_metrics_on_eval_records_reproduces_eval_metrics(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions,
        fixture_equivalence, deltas, gamma,
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        code, records, metrics = self.run_eval(
            tmp_path, gt, fixture_predictions, "--equivalence", str(fixture_equivalence),
            *deltas, *gamma,
        )
        assert code == 0
        again = tmp_path / "again.csv"
        assert main(["metrics", "--records", str(records), "--metrics-out", str(again),
                     *deltas]) == 0
        assert again.read_bytes() == metrics.read_bytes()

    def test_eval_true_eu_matches_library_path(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions,
        fixture_equivalence,
    ):
        from ambiuq.dist import Categorical, decompose
        from ambiuq.estimators import AnswerSample, AnswerSampleSet, EquivalenceMap, align, cluster

        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        _, records_path, _ = self.run_eval(
            tmp_path, gt, fixture_predictions, "--equivalence", str(fixture_equivalence)
        )
        record = read_jsonl(records_path)[0]
        eq = EquivalenceMap({"It's Heat": "heat"})
        p_star = Categorical(("Heat", "Fuel", "Oxygen"), np.array([31, 32, 25]) / 88)
        samples = tuple(
            AnswerSample(t, p)
            for t, p in [("Heat", 0.30), ("It's Heat", 0.10), ("Fuel", 0.25), ("Carbon", 0.05)]
        )
        p_model = cluster(AnswerSampleSet(question_id="q-fire", samples=samples), eq)
        a_star, a_model = align(p_star, p_model, eq)
        assert record["true_eu"] == pytest.approx(
            decompose(a_star, a_model).epistemic, abs=1e-12
        )

    def test_single_dirichlet_gamma_changes_truth(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        _, rec_point, _ = self.run_eval(tmp_path, gt, fixture_predictions, tag="point")
        code, rec_gamma, _ = self.run_eval(
            tmp_path, gt, fixture_predictions, "--dirichlet-gamma", "2", tag="gamma"
        )
        assert code == 0
        point = read_jsonl(rec_point)
        gamma = read_jsonl(rec_gamma)
        assert all(p["true_eu"] != g["true_eu"] for p, g in zip(point, gamma))

    def test_gamma_grid_emits_ablation_csv(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        ablation = tmp_path / "ablation.csv"
        code, _, _ = self.run_eval(
            tmp_path, gt, fixture_predictions,
            "--dirichlet-gamma", "1,2,5,10,100",
            "--ablation-out", str(ablation),
        )
        assert code == 0
        rows = read_csv(ablation)
        assert [r["gamma"] for r in rows if r["estimator"] == "SE"] == [
            "1.0", "2.0", "5.0", "10.0", "100.0", "point",
        ]

    def test_discarded_ground_truth_row_is_skipped(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions, capsys
    ):
        gt, log = build_gt(tmp_path, fixture_corpus, fixture_specs)
        both = tmp_path / "both.jsonl"
        both.write_text(gt.read_text() + log.read_text())
        capsys.readouterr()
        code, records, _ = self.run_eval(tmp_path, both, fixture_predictions)
        assert code == 0
        assert "q-dead: ground truth is discarded; skipped" in capsys.readouterr().err
        assert [r["question_id"] for r in read_jsonl(records)] == ["q-fire", "q-frozen"]

    def test_ablation_defaults_next_to_metrics(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions, monkeypatch
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, _, metrics = self.run_eval(
            tmp_path, gt, fixture_predictions, "--dirichlet-gamma", "1,2"
        )
        assert code == 0
        rows = read_csv(Path(f"{metrics}.ablation.csv"))
        assert [r["gamma"] for r in rows if r["estimator"] == "SE"] == ["1.0", "2.0", "point"]
        assert list(cwd.iterdir()) == []

    def test_single_gamma_truth_equals_per_record_scalar(self, tmp_path, monkeypatch):
        from ambiuq import simlab
        from ambiuq.dirichlet import expected_epistemic, posterior
        from ambiuq.estimators import align, cluster
        from ambiuq.formats import parse_ground_truth, parse_prediction

        # five questions over supports of two and three answers
        rng = np.random.default_rng(5)
        gt_rows, pred_rows = [], []
        for i, answers in enumerate([["a", "b"], ["a", "b", "c"], ["a", "b"],
                                     ["a", "b", "c"], ["a", "b", "c"]]):
            counts = [int(c) for c in rng.integers(1, 40, size=len(answers))]
            gt_rows.append({
                "question_id": f"q{i}", "answers": answers, "counts": counts,
                "discarded": False,
                "p_star": {"classes": answers, "probs": [c / sum(counts) for c in counts]},
            })
            probs = rng.dirichlet(np.ones(len(answers)))
            pred_rows.append({
                "question_id": f"q{i}",
                "samples": [{"text": a, "seq_prob": float(p)} for a, p in zip(answers, probs)],
            })
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        write_jsonl(gt, gt_rows)
        write_jsonl(preds, pred_rows)

        calls = []

        def counted(*args):
            calls.append(args)
            return expected_epistemic(*args)

        monkeypatch.setattr(simlab, "expected_epistemic", counted)
        code, records_path, _ = self.run_eval(tmp_path, gt, preds, "--dirichlet-gamma", "2")
        assert code == 0
        assert len(calls) == 2  # one batched call per support size
        records = read_jsonl(records_path)
        assert len(records) == 5
        for row, pred, record in zip(gt_rows, pred_rows, records):
            truth = parse_ground_truth(row)
            p_star, p_model = align(truth.p_star, cluster(parse_prediction(pred)))
            assert p_star.classes == truth.answers
            expected = max(expected_epistemic(posterior(truth.counts, 2.0), p_model), 0.0)
            assert record["true_eu"] == expected

    def test_non_finite_gamma_rejected_before_writing(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions, capsys
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        code, records, _ = self.run_eval(
            tmp_path, gt, fixture_predictions, "--dirichlet-gamma", "nan,2", tag="nan"
        )
        assert code == 2
        assert "--dirichlet-gamma" in capsys.readouterr().err
        assert not records.exists()

    @pytest.mark.parametrize("deltas", ["nan", "inf", "-1", "0", "0.5,nan"])
    def test_bad_deltas_rejected_before_writing(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions, deltas, capsys
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        code, records, metrics = self.run_eval(
            tmp_path, gt, fixture_predictions, "--deltas", deltas, tag="deltas"
        )
        assert code == 2
        assert "--deltas values must be finite and > 0" in capsys.readouterr().err
        assert not records.exists() and not metrics.exists()

    def test_gamma_grid_one_truth_per_gamma(self, tmp_path, monkeypatch, capsys):
        from ambiuq import simlab
        from ambiuq.dirichlet import expected_epistemic
        from ambiuq.metrics import concordance

        # ten questions on supports of two and three answers; MSP on the
        # first seven, an ensemble (MI) on one question only
        rng = np.random.default_rng(9)
        gt_rows, pred_rows = [], []
        for i in range(10):
            answers = ["a", "b", "c"][: 2 + i % 2]
            counts = [int(c) for c in rng.integers(1, 40, size=len(answers))]
            gt_rows.append({
                "question_id": f"q{i}", "answers": answers, "counts": counts,
                "discarded": False,
                "p_star": {"classes": answers, "probs": [c / sum(counts) for c in counts]},
            })
            probs = rng.dirichlet(np.ones(len(answers)))
            pred = {"question_id": f"q{i}",
                    "samples": [{"text": a, "seq_prob": float(p)}
                                for a, p in zip(answers, probs)]}
            if i < 7:
                pred["best_answer_prob"] = float(rng.uniform(0.2, 0.9))
            if i == 0:
                pred["ensemble"] = [{"classes": answers, "probs": probs.tolist()},
                                    {"classes": answers, "probs": probs[::-1].tolist()}]
            pred_rows.append(pred)
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        write_jsonl(gt, gt_rows)
        write_jsonl(preds, pred_rows)

        calls = []

        def counted(*args):
            calls.append(args)
            return expected_epistemic(*args)

        monkeypatch.setattr(simlab, "expected_epistemic", counted)
        gammas = ["1", "2", "7.5"]
        ablation = tmp_path / "ablation.csv"
        code, _, _ = self.run_eval(tmp_path, gt, preds, "--dirichlet-gamma",
                                   ",".join(gammas), "--ablation-out", str(ablation))
        assert code == 0
        assert len(calls) == len(gammas) * 2  # one per (gamma, support size)
        assert capsys.readouterr().err.count("gamma ablation[MI]: concordance undefined") == 1
        got = {(r["gamma"], r["estimator"]): r["concordance"] for r in read_csv(ablation)}
        assert {name for _, name in got} == {"MSP", "SE"}
        assert len(got) == 2 * (len(gammas) + 1)

        # each gamma's row is the concordance of the single-gamma truth over
        # the records that carry the estimator
        monkeypatch.undo()
        for gamma in gammas:
            code, records, _ = self.run_eval(tmp_path, gt, preds,
                                             "--dirichlet-gamma", gamma, tag=f"g{gamma}")
            assert code == 0
            rows = read_jsonl(records)
            for name in ("MSP", "SE"):
                carried = [r for r in rows if name in r["scores"]]
                value = concordance([r["true_eu"] for r in carried],
                                    [r["scores"][name] for r in carried])
                assert got[str(float(gamma)), name] == f"{value:.6f}"

    def test_identical_predictions_degenerate_exit(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(
            gt,
            [
                {
                    "question_id": f"q{i}",
                    "answers": ["a", "b"],
                    "counts": [3, 1],
                    "discarded": False,
                    "p_star": {"classes": ["a", "b"], "probs": [0.75, 0.25]},
                }
                for i in range(3)
            ],
        )
        preds = tmp_path / "preds.jsonl"
        write_jsonl(
            preds,
            [
                {
                    "question_id": f"q{i}",
                    "samples": [
                        {"text": "a", "seq_prob": 0.75},
                        {"text": "b", "seq_prob": 0.25},
                    ],
                }
                for i in range(3)
            ],
        )
        code, records_path, metrics_path = self.run_eval(tmp_path, gt, preds)
        assert code == 3
        assert not records_path.exists() and not metrics_path.exists()
        # every record's truth is exactly 0, so no metric is defined
        from ambiuq.dist import decompose
        from ambiuq.estimators import align, cluster
        from ambiuq.formats import parse_ground_truth, parse_prediction

        for row, pred in zip(read_jsonl(gt), read_jsonl(preds)):
            aligned = align(parse_ground_truth(row).p_star, cluster(parse_prediction(pred)))
            assert decompose(*aligned).epistemic == 0.0

    def test_symmetric_equivalence_pair_merges(self, tmp_path):
        # a -> b with b -> a names one class, the same one as the single edge
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [
            {"question_id": q, "answers": ["heat", "fuel"], "counts": counts,
             "p_star": {"classes": ["heat", "fuel"], "probs": [c / sum(counts) for c in counts]}}
            for q, counts in (("q1", [3, 1]), ("q2", [1, 1]))])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [
            {"question_id": "q1", "samples": [{"text": t, "seq_prob": p} for t, p in
                                              (("heat", 0.4), ("warmth", 0.4), ("fuel", 0.2))]},
            {"question_id": "q2", "samples": [{"text": "fuel", "seq_prob": 0.3}]}])
        outputs = []
        for tag, mapping in (("one", {"warmth": "heat"}),
                             ("pair", {"heat": "warmth", "warmth": "heat"})):
            eq = tmp_path / f"{tag}.json"
            eq.write_text(json.dumps(mapping))
            code, records, metrics = self.run_eval(tmp_path, gt, preds, "--equivalence",
                                                   str(eq), tag=tag)
            assert code == 0
            outputs.append([records.read_bytes(), metrics.read_bytes()])
        assert outputs[0] == outputs[1]
        q1 = json.loads(outputs[1][0].splitlines()[0])
        assert q1["scores"]["SE"] == pytest.approx(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)))

    def test_rerun_byte_identical(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions
    ):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        _, rec1, met1 = self.run_eval(tmp_path, gt, fixture_predictions, tag="first")
        _, rec2, met2 = self.run_eval(tmp_path, gt, fixture_predictions, tag="second")
        assert rec1.read_bytes() == rec2.read_bytes()
        assert met1.read_bytes() == met2.read_bytes()

    def test_malformed_prediction_records_skipped(
        self, tmp_path, fixture_corpus, fixture_specs, fixture_predictions, capsys
    ):
        broken = tmp_path / "broken_preds.jsonl"
        broken.write_text(
            fixture_predictions.read_text()
            + json.dumps({"question_id": "bad1", "samples": ["not-an-object"]}) + "\n"
            + json.dumps(
                {"question_id": "bad2", "samples": [{"text": "x", "seq_prob": "high"}]}
            ) + "\n"
        )
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        code, records_path, _ = self.run_eval(tmp_path, gt, broken)
        assert code == 0
        err = capsys.readouterr().err
        assert "bad1" in err and "bad2" in err
        ids = [r["question_id"] for r in read_jsonl(records_path)]
        assert ids == ["q-fire", "q-frozen"]

    def test_metrics_csv_matches_brute_force(self, tmp_path):
        # mixed-quality predictions over five questions; the CSV concordance
        # must equal plain pair enumeration over the emitted records
        rng = np.random.default_rng(0)
        gt_rows, pred_rows = [], []
        for i in range(5):
            p = float(rng.uniform(0.55, 0.95))
            counts = [int(100 * p), 100 - int(100 * p)]
            gt_rows.append(
                {
                    "question_id": f"q{i}",
                    "answers": ["a", "b"],
                    "counts": counts,
                    "discarded": False,
                    "p_star": {"classes": ["a", "b"], "probs": [c / 100 for c in counts]},
                }
            )
            q = float(rng.uniform(0.1, 0.9))
            pred_rows.append(
                {
                    "question_id": f"q{i}",
                    "samples": [
                        {"text": "a", "seq_prob": round(0.5 * q, 6)},
                        {"text": "b", "seq_prob": round(0.5 * (1 - q), 6)},
                    ],
                }
            )
        gt = tmp_path / "gt.jsonl"
        preds = tmp_path / "preds.jsonl"
        write_jsonl(gt, gt_rows)
        write_jsonl(preds, pred_rows)
        code, records_path, metrics_path = self.run_eval(tmp_path, gt, preds)
        assert code == 0
        records = read_jsonl(records_path)
        expected = brute_concordance([r["true_eu"] for r in records],
                                     [r["scores"]["SE"] for r in records])
        (row,) = [r for r in read_csv(metrics_path) if r["estimator"] == "SE"]
        assert float(row["concordance"]) == pytest.approx(expected, abs=1e-6)

    def test_no_shared_ids_is_validation_error(self, tmp_path, fixture_predictions):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(
            gt,
            [
                {
                    "question_id": "elsewhere",
                    "answers": ["a"],
                    "counts": [1],
                    "discarded": False,
                    "p_star": {"classes": ["a"], "probs": [1.0]},
                }
            ],
        )
        code, _, _ = self.run_eval(tmp_path, gt, fixture_predictions)
        assert code == 2

    def test_bad_epsilon_rejected(self, tmp_path, fixture_predictions):
        code, _, _ = self.run_eval(
            tmp_path, fixture_predictions, fixture_predictions, "--epsilon", "0.5"
        )
        assert code == 2


    def test_infinite_true_eu_names_its_record(self, tmp_path, capsys):
        # 5e-324 / 2 rounds to 0, so q2's model gives "a" no mass where p* does
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        write_jsonl(gt, [{"question_id": qid, "answers": ["a", "b"], "counts": [1, 1],
                          "discarded": False, "p_star": {"classes": ["a", "b"],
                                                         "probs": [0.5, 0.5]}}
                         for qid in ("q1", "q2")])
        write_jsonl(preds, [
            {"question_id": "q1", "samples": [{"text": "a", "seq_prob": 0.5}]},
            {"question_id": "q2", "samples": [
                {"text": t, "seq_prob": p} for t, p in (("a", 5e-324), ("b", 1.0), ("c", 1.0))]}])
        code, records, _ = self.run_eval(tmp_path, gt, preds)
        assert code == 2
        assert "error: q2: true_eu must be finite and >= 0, got inf" in capsys.readouterr().err
        assert not records.exists()

    def test_builds_no_categorical_after_parsing(self, tmp_path, fixture_corpus, fixture_specs,
                                                 fixture_predictions, monkeypatch):
        # per-record math runs on arrays: each Categorical eval builds is a
        # parsed p* or ensemble member
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        parsed = (sum("p_star" in row for row in read_jsonl(gt))
                  + sum(len(row.get("ensemble") or ()) for row in read_jsonl(fixture_predictions)))
        built = []
        post_init = Categorical.__post_init__
        monkeypatch.setattr(Categorical, "__post_init__",
                            lambda self: (built.append(self.classes), post_init(self))[1])
        code, _, _ = self.run_eval(tmp_path, gt, fixture_predictions, "--dirichlet-gamma", "1,2")
        assert code == 0
        assert len(built) == parsed == 4


# answer names and the case, punctuation and spacing variants that merge with them
NAMES = ["paris", "new york", "rome", "lima", "oslo"]
VARIANT = st.sampled_from([str, str.upper, str.title, lambda s: f"{s}!", lambda s: f" '{s}' ",
                           lambda s: s.replace(" ", "  ")])
LABELS = st.builds(lambda name, variant: variant(name), st.sampled_from(NAMES), VARIANT)
# a probs vector scaled off 1 by nothing, by less than SUM_TOL or into the
# band up to RENORM_TOL that Categorical renormalizes
DRIFT = st.sampled_from([1.0, 1.0 + 4e-10, 1.0 + 5e-9, 1.0 - 4e-7, 1.0 + 9e-7])


def _probs(draw, k):
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    drift = draw(DRIFT)
    return [w / sum(weights) * drift for w in weights]


@st.composite
def eval_question(draw, qid):
    """(ground-truth row, prediction row) of one question."""
    answers = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(0, 30), min_size=len(answers), max_size=len(answers))
                  .map(lambda c: c if any(c) else [1, *c[1:]]))
    drift = draw(DRIFT)
    gt = {"question_id": qid, "answers": answers, "counts": counts, "discarded": False,
          "p_star": {"classes": answers, "probs": [c / sum(counts) * drift for c in counts]}}
    samples = [{"text": text, "seq_prob": draw(st.floats(0.01, 1.0))}
               for text in draw(st.lists(LABELS, min_size=1, max_size=6))]
    if draw(st.booleans()):
        samples[0]["cluster"] = draw(LABELS)
    pred = {"question_id": qid, "samples": samples}
    if draw(st.booleans()):
        pred["best_answer_prob"] = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):  # 1..9 members cross the 8 from which numpy sums pairwise
        members = draw(st.lists(st.lists(LABELS, min_size=1, max_size=4, unique=True),
                                min_size=1, max_size=9))
        pred["ensemble"] = [{"classes": classes, "probs": _probs(draw, len(classes))}
                            for classes in members]
    return gt, pred


@settings(max_examples=150, deadline=None)
@given(questions=st.integers(1, 6).flatmap(
           lambda n: st.tuples(*(eval_question(f"q{i}") for i in range(n)))),
       gammas=st.sampled_from([(), (2.0,), (1.0, 5.0)]),
       epsilon=st.sampled_from([0.01, 0.1, 1e-3]),
       equivalence=st.sampled_from([None, {"Rome": "paris"}]))
def test_eval_records_equal_the_object_api(questions, gammas, epsilon, equivalence):
    # every record's SE, MSP, MI and true EU are the object API's values,
    # metrics on the records reproduces eval's metrics CSV byte for byte, and
    # each ablation row is its estimator's concordance over the records that carry it
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_jsonl(tmp / "gt.jsonl", [gt for gt, _ in questions])
        write_jsonl(tmp / "preds.jsonl", [pred for _, pred in questions])
        args = ["eval", "--ground-truth", tmp / "gt.jsonl", "--predictions", tmp / "preds.jsonl",
                "--records-out", tmp / "records.jsonl", "--metrics-out", tmp / "eval.csv",
                "--epsilon", repr(epsilon)]
        if gammas:
            args += ["--dirichlet-gamma", ",".join(map(str, gammas))]
        if equivalence:
            (tmp / "eq.json").write_text(json.dumps(equivalence))
            args += ["--equivalence", tmp / "eq.json"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in args])
        if code == 3:  # no metric is defined on these records; nothing is written
            assert not (tmp / "records.jsonl").exists()
            return
        assert code == 0
        assert main(["metrics", "--records", str(tmp / "records.jsonl"),
                     "--metrics-out", str(tmp / "metrics.csv")]) == 0
        assert (tmp / "metrics.csv").read_bytes() == (tmp / "eval.csv").read_bytes()
        records = read_jsonl(tmp / "records.jsonl")
        if len(gammas) > 1:
            with open(tmp / "eval.csv.ablation.csv", newline="") as fh:
                ablation = list(csv.reader(fh))[1:]

    eq = EquivalenceMap(equivalence)
    record_truths = []  # per record, [(label, truth)] of ablation_truths
    assert [r["question_id"] for r in records] == [gt["question_id"] for gt, _ in questions]
    for record, (gt_row, pred_row) in zip(records, questions):  # q0, q1, ... sort as drawn
        gt, pred = formats.parse_ground_truth(gt_row), formats.parse_prediction(pred_row)
        p_model = cluster(pred, eq)
        star, model = align(gt.p_star, p_model, eq, epsilon=epsilon)
        merged = canonical_merge(gt.answers, gt.counts, eq.canonical)
        counts = np.array([merged.get(c, 0.0) for c in star.classes])
        scores = {"SE": entropy(p_model)}
        if pred.best_answer_prob is not None:
            scores["MSP"] = msp(pred.best_answer_prob)
        if pred.ensemble is not None:
            scores["MI"] = mutual_information(align_ensemble(pred.ensemble, eq, epsilon=epsilon))
        assert record["scores"] == scores
        truths = simlab.ablation_truths([([0], counts[None], model.probs[None])], 1, gammas)
        assert record["true_eu"] == truths[0 if len(gammas) == 1 else -1][1][0]
        if len(gammas) != 1:  # the point truth
            point = decompose(normalize(counts, star.classes), model).epistemic
            assert abs(record["true_eu"] - point) <= 1e-15
        record_truths.append(truths)

    if len(gammas) > 1:
        expected, degenerate = [], set()
        for name in sorted({name for r in records for name in r["scores"]}):
            carriers = [i for i, r in enumerate(records) if name in r["scores"]]
            score = [records[i]["scores"][name] for i in carriers]
            truths = [[record_truths[i][j][1][0] for i in carriers]
                      for j in range(len(gammas) + 1)]
            try:
                expected += [[str(label), name, f"{concordance(truth, score):.6f}"]
                             for label, truth in zip([*gammas, "point"], truths)]
            except DegenerateInputError:
                degenerate.add(name)
        labels = [str(label) for label in [*gammas, "point"]]
        assert ablation == sorted(expected, key=lambda row: (labels.index(row[0]), row[1]))
        assert {name for name in ("MI", "MSP", "SE")
                if f"gamma ablation[{name}]" in err.getvalue()} == degenerate


class TestBounds:
    def test_report_fields(self, tmp_path, capsys):
        code = main(["bounds", "--k", "3", "--delta", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_delta"] == pytest.approx(0.8607978842, abs=1e-6)
        assert report["eu_lower_bound"] == pytest.approx(
            -math.log(report["alpha_delta"]), abs=1e-12
        )
        assert report["gamma_delta"] == pytest.approx(0.8002900974, abs=1e-6)
        assert report["thm2"] is None
        assert len(report["bound_line"]) == 33
        line = report["bound_line"]
        assert line[0]["delta"] == 0.0
        assert line[-1]["delta"] == pytest.approx(math.log(3))

    def test_thm2_block(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["bounds", "--k", "3", "--delta", str(LN2), "--avg-loss", "0.2",
             "--p-low-entropy", "0.8", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["thm2"]["prob_lower_bound"] == pytest.approx(0.6393, abs=1e-4)

    def test_domain_error_exit_code(self, capsys):
        assert main(["bounds", "--k", "3", "--delta", "5.0"]) == 2
        assert "--delta" in capsys.readouterr().err

    def test_degenerate_delta_zero_thm2(self, capsys):
        code = main(
            ["bounds", "--k", "3", "--delta", "0.0", "--avg-loss", "0.1",
             "--p-low-entropy", "0.5"]
        )
        assert code == 3

    @pytest.mark.parametrize("delta, loss, mass, code", [
        ("0.5", "nan", "0.5", 2),
        ("0.5", "inf", "0.5", 2),
        ("0.5", "0.1", "1e-320", 3),
        ("1e-300", "0.1", "0.5", 3),
    ], ids=["nan_loss", "inf_loss", "bound_overflows", "gamma_delta_rounds_to_1"])
    def test_non_finite_thm2_rejected(self, tmp_path, capsys, delta, loss, mass, code):
        out = tmp_path / "report.json"
        assert main(["bounds", "--k", "3", "--delta", delta, "--avg-loss", loss,
                     "--p-low-entropy", mass, "--out", str(out)]) == code
        assert "--avg-loss" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_delta_is_the_bounds_value(self, capsys):
        # the float just above ln 2 lies inside gamma_delta's endpoint slack
        delta = "0.6931471805600453"
        assert float(delta) > LN2
        assert main(["bounds", "--k", "3", "--delta", delta, "--avg-loss", "0.1",
                     "--p-low-entropy", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma_delta"] == report["thm2"]["gamma_delta"] == 0.5
        assert report["gamma_delta"] == bounds.gamma_delta(float(delta))

    @pytest.mark.parametrize("delta, gamma", [("0", 1.0), ("1.0", None)])
    def test_gamma_delta_at_the_domain_edges(self, capsys, delta, gamma):
        assert main(["bounds", "--k", "3", "--delta", delta]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_delta"] == gamma

    def test_thm2_below_delta_0_within_the_slack_is_exit_3(self, capsys):
        # the report's gamma_delta and the Theorem 2 bound accept one delta domain
        assert main(["bounds", "--k", "3", "--delta=-1e-13"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma_delta"] == 1.0
        assert main(["bounds", "--k", "3", "--delta=-1e-13", "--avg-loss", "0.1",
                     "--p-low-entropy", "0.5"]) == 3
        err = capsys.readouterr().err
        assert "--delta/--avg-loss/--p-low-entropy: delta=-1e-13 makes gamma_delta 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra, message", [
        (["--delta", "0.5", "--avg-loss", "0.1"],
         "--avg-loss and --p-low-entropy must be given together"),
        (["--delta", "nan"], "--delta/--k: delta must be finite, got nan"),
    ], ids=["avg-loss-alone", "delta-nan"])
    def test_flag_errors_exit_2(self, capsys, extra, message):
        assert main(["bounds", "--k", "3", *extra]) == 2
        assert message in capsys.readouterr().err

    def test_huge_k_rejected(self, capsys):
        assert main(["bounds", "--k", "9" * 401, "--delta", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--k" in err and "Traceback" not in err

    def test_out_replaces_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("old\n")
        assert main(["bounds", "--k", "3", "--delta", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == 3
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_negative_bound_line_points_rejected(self, capsys):
        code = main(["bounds", "--k", "3", "--delta", "0.5", "--bound-line-points", "-1"])
        assert code == 2
        assert "--bound-line-points must be >= 0" in capsys.readouterr().err

    def test_zero_bound_line_points_gives_empty_line(self, capsys):
        assert main(["bounds", "--k", "3", "--delta", "0.5", "--bound-line-points", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["bound_line"] == []


class TestSimulate:
    def run_sim(self, tmp_path, config, *extra):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "records.jsonl"
        report = tmp_path / "report.json"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--report", str(report), *extra]
        )
        return code, out, report

    def test_simulation_outputs(self, tmp_path):
        config = {"k": 3, "n": 500, "seed": 0, "regime": "zero-AU", "noise": 5.0,
                  "deltas": [0.25, 0.5]}
        code, out, report_path = self.run_sim(tmp_path, config)
        assert code == 0
        records = read_jsonl(out)
        assert len(records) == 500
        report = json.loads(report_path.read_text())
        assert all(entry["violations"] == 0 for entry in report["theorem_1"])

    def test_theorem_entries_are_the_bounds_functions(self, tmp_path):
        deltas = [0.0, 0.25, 0.5, LN2, 1.0]
        config = {"k": 3, "n": 2_000, "seed": 2, "regime": "zero-AU", "noise": 3.0,
                  "deltas": deltas}
        code, _, report_path = self.run_sim(tmp_path, config)
        assert code == 0
        report = json.loads(report_path.read_text())
        # repr tells -0.0 from 0.0
        thm1 = [repr(e["eu_lower_bound"]) for e in report["theorem_1"]]
        assert thm1 == [repr(bounds.eu_lower_bound_high_entropy(bounds.BoundQuery(3, d)))
                        for d in deltas]
        assert thm1[0] == "0.0"
        applicable = [e for e in report["theorem_2"] if e["applicable"]]
        assert [e["delta"] for e in applicable] == [0.25, 0.5, LN2]
        for e in applicable:
            want = bounds.thm2_probability_bound(e["delta"], e["measured_avg_loss"],
                                                 e["p_low_entropy"])
            got = {name: e[name] for name in ("gamma_delta", "eu_cap", "prob_lower_bound")}
            assert repr(got) == repr(dataclasses.asdict(want))

    def test_thm2_not_applicable_where_gamma_delta_rounds_to_1(self, tmp_path):
        # near-certain predictions: some have SE <= 1e-16, where gamma_delta is 1
        config = {"k": 2, "n": 2000, "noise": 1e6, "deltas": [1e-16, 0.5, 0.0], "seed": 3}
        code, _, report_path = self.run_sim(tmp_path, config)
        assert code == 0
        tiny, half, zero = json.loads(report_path.read_text())["theorem_2"]
        assert bounds.gamma_delta(1e-16) == 1.0
        undefined = {"applicable": False,
                     "note": "gamma_delta rounds to 1 at this delta; the bound is undefined"}
        assert tiny == {"delta": 1e-16, **undefined}
        assert zero == {"delta": 0.0, **undefined}
        assert half["applicable"] is True

    def test_delta_within_the_slack_below_0_is_accepted(self, tmp_path):
        # the Theorem 1 domain of bounds --delta=-1e-13
        code, _, report = self.run_sim(tmp_path, {"k": 3, "n": 50, "deltas": [-1e-13]})
        assert code == 0
        thm1 = json.loads(report.read_text())["theorem_1"]
        assert [(e["delta"], e["eu_lower_bound"]) for e in thm1] == [(-1e-13, 0.0)]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        code, out, report = self.run_sim(tmp_path, [1])
        assert code == 2
        assert "--config must contain a JSON object" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_rerun_byte_identical(self, tmp_path):
        config = {"k": 3, "n": 300, "seed": 5, "regime": "free-AU"}
        _, out, report = self.run_sim(tmp_path, config)
        first = out.read_bytes(), report.read_bytes()
        _, out, report = self.run_sim(tmp_path, config)
        assert (out.read_bytes(), report.read_bytes()) == first

    def test_seed_flag_overrides_config(self, tmp_path):
        config = {"k": 3, "n": 300, "seed": 5, "regime": "free-AU"}
        _, out, _ = self.run_sim(tmp_path, config)
        baseline = out.read_bytes()
        _, out, _ = self.run_sim(tmp_path, config, "--seed", "6")
        assert out.read_bytes() != baseline

    def test_csv_emitters(self, tmp_path):
        config = {"k": 3, "n": 400, "seed": 1, "regime": "free-AU",
                  "counts_total": 50}
        scatter = tmp_path / "scatter.csv"
        hist = tmp_path / "hist.csv"
        ablation = tmp_path / "ablation.csv"
        code, _, _ = self.run_sim(
            tmp_path, config,
            "--scatter-csv", str(scatter), "--hist-csv", str(hist),
            "--ablation-csv", str(ablation), "--gammas", "1,2,5,10,100",
        )
        assert code == 0
        srows = read_csv(scatter)
        assert len(srows) == 400
        assert set(srows[0]) == {"question_id", "predictive_entropy", "true_eu"}
        hrows = read_csv(hist)
        assert sum(int(r["count"]) for r in hrows) == 400
        arows = read_csv(ablation)
        assert [r["gamma"] for r in arows if r["estimator"] == "SE"] == [
            "1.0", "2.0", "5.0", "10.0", "100.0", "point",
        ]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_scatter_csv_equals_the_list_built_rows(self, tmp_path, blocks, extra):
        config = {"k": 3, "n": blocks * formats.ROWS_PER_BLOCK + extra, "seed": 4,
                  "regime": "zero-AU"}
        scatter = tmp_path / "scatter.csv"
        code, _, _ = self.run_sim(tmp_path, config, "--scatter-csv", str(scatter))
        assert code == 0
        res = simlab.run_experiment(formats.parse_sim_config(config))
        formats.write_csv(
            tmp_path / "want.csv", ["question_id", "predictive_entropy", "true_eu"],
            zip(res.question_ids, *([f"{v:.9g}" for v in col.tolist()]
                                    for col in (res.scores["SE"], res.true_eu))))
        assert scatter.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_ablation_rows_are_gamma_first_then_scores_order(self, tmp_path):
        ablation = tmp_path / "ablation.csv"
        code, _, _ = self.run_sim(
            tmp_path, {"k": 3, "n": 200, "seed": 1, "ensemble_size": 2, "counts_total": 20},
            "--ablation-csv", str(ablation), "--gammas", "1,5",
        )
        assert code == 0
        assert [(r["gamma"], r["estimator"]) for r in read_csv(ablation)] == [
            ("1.0", "SE"), ("1.0", "MI"), ("5.0", "SE"), ("5.0", "MI"),
            ("point", "SE"), ("point", "MI"),
        ]

    def test_invalid_config_exit_code(self, tmp_path):
        code, _, _ = self.run_sim(tmp_path, {"k": 1, "n": 10})
        assert code == 2

    def test_zero_hist_bins_rejected(self, tmp_path, capsys):
        code, _, _ = self.run_sim(
            tmp_path, {"k": 3, "n": 50}, "--hist-csv", str(tmp_path / "h.csv"),
            "--hist-bins", "0",
        )
        assert code == 2
        assert "--hist-bins must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, tmp_path, noise):
        code, out, _ = self.run_sim(tmp_path, {"k": 3, "n": 50, "noise": noise})
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["nan,2", "0.5,2"])
    def test_bad_gammas_rejected_before_writing(self, tmp_path, gammas, capsys):
        code, out, report = self.run_sim(
            tmp_path, {"k": 3, "n": 50, "counts_total": 20},
            "--ablation-csv", str(tmp_path / "a.csv"), "--gammas", gammas,
        )
        assert code == 2
        assert "--gammas values must be in [1, inf)" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_ablation_without_counts_rejected_before_writing(self, tmp_path, capsys):
        code, out, report = self.run_sim(
            tmp_path, {"k": 3, "n": 50}, "--ablation-csv", str(tmp_path / "a.csv")
        )
        assert code == 3
        assert "counts_total > 0" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_undefined_ablation_rejected_before_writing(self, tmp_path, capsys):
        # one record: the ablation's concordance is undefined
        scatter, hist, ablation = (tmp_path / f"{n}.csv" for n in ("s", "h", "a"))
        code, out, report = self.run_sim(
            tmp_path, {"n": 1, "counts_total": 5}, "--ablation-csv", str(ablation),
            "--scatter-csv", str(scatter), "--hist-csv", str(hist),
        )
        assert code == 3
        assert "concordance undefined" in capsys.readouterr().err
        assert not any(p.exists() for p in (out, report, scatter, hist, ablation))

    @pytest.mark.parametrize("config, extra, message", [
        ({"n": 1e400}, [], "simulation config n: expected a count"),
        ({"seed": -1}, [], "simulation config seed: expected a count"),
        ({}, ["--seed", "-1"], "simulation config seed: expected a count"),
        ({"k": 2.7}, [], "simulation config k: expected a count"),
        ({"noise": True}, [], "simulation config noise: expected a number, got true"),
        ({"deltas": "1"}, [], "simulation config: deltas must be a list"),
        ({"deltas": [0.5, None]}, [], "simulation config deltas:"),
    ])
    def test_config_values_are_typed(self, tmp_path, capsys, config, extra, message):
        code, out, report = self.run_sim(tmp_path, {"n": 20, **config}, *extra)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_report_config_lists_every_field(self, tmp_path):
        config = {"k": 4, "n": 30, "seed": 2, "regime": "free-AU", "noise": 3,
                  "deltas": [0.5, 1.0], "ensemble_size": 2, "counts_total": 7}
        code, _, report = self.run_sim(tmp_path, config)
        assert code == 0
        assert json.loads(report.read_text())["config"] == {**config, "noise": 3.0}

    def test_high_au_failure_is_config_error(self, tmp_path):
        code, _, _ = self.run_sim(
            tmp_path, {"k": 30, "n": 500, "regime": "high-AU", "deltas": [0.25]}
        )
        assert code == 2


# the warnings of _metric_rows for an estimator on one record (MI) and a delta
# above every true EU (5), in the order of the CSV's cells
class TestCrossCommand:
    """simulate's report against what metrics and bounds compute from the
    same population and the same (k, delta)."""

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 6), n=st.integers(20, 300), m=st.integers(1, 6),
           regime=st.sampled_from(simlab.REGIMES), seed=st.integers(0, 2**32 - 1),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_metrics_and_bounds_reproduce_the_report(self, tmp_path_factory, k, n, m, regime,
                                                     seed, fractions):
        tmp = tmp_path_factory.mktemp("cross")
        deltas = [f * math.log(k) for f in fractions]
        config = tmp / "sim.json"
        config.write_text(json.dumps({"k": k, "n": n, "seed": seed, "regime": regime,
                                      "ensemble_size": m, "deltas": deltas}))
        records, report_path, metrics = tmp / "records.jsonl", tmp / "report.json", tmp / "m.csv"
        assert main(["simulate", "--config", str(config), "--out", str(records),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())

        want = {name: "" if c is None else f"{c:.6f}"
                for name, c in report["concordance"].items()}
        if main(["metrics", "--records", str(records), "--metrics-out", str(metrics)]) == 0:
            assert {r["estimator"]: r["concordance"] for r in read_csv(metrics)} == want
        else:  # exit 3: no metric is defined on these records
            assert set(want.values()) == {""}

        if regime == simlab.ZERO_AU:
            for entry in report["theorem_1"]:
                out = tmp / "bounds.json"
                assert main(["bounds", "--k", str(k), "--delta", repr(entry["delta"]),
                             "--out", str(out)]) == 0
                bound = json.loads(out.read_text())["eu_lower_bound"]
                assert repr(entry["eu_lower_bound"]) == repr(bound)


WORDS = ("fire", "heat", "fuel", "oxygen", "water", "steam")
SECTION = st.lists(st.sampled_from(WORDS), min_size=3, max_size=8).map(
    lambda words: " ".join(words).capitalize() + ".")


@st.composite
def corpus_question(draw, qid):
    """(spec row, prediction row) of one build-gt question."""
    answers = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True))
    spec = {"question_id": qid, "question": f"{qid}?", "answers": answers,
            "keywords": draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=2))}
    samples = [{"text": text, "seq_prob": draw(st.floats(0.01, 1.0))}
               for text in draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))]
    pred = {"question_id": qid, "samples": samples}
    if draw(st.booleans()):
        pred["best_answer_prob"] = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        members = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3,
                                         unique=True), min_size=1, max_size=4))
        pred["ensemble"] = [{"classes": classes, "probs": _probs(draw, len(classes))}
                            for classes in members]
    return spec, pred


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(st.lists(SECTION, min_size=1, max_size=4), min_size=1, max_size=8),
       questions=st.integers(1, 6).flatmap(
           lambda n: st.tuples(*(corpus_question(f"q{i}") for i in range(n)))),
       cap=st.integers(1, 6))
def test_build_gt_eval_metrics_agree(docs, questions, cap):
    # on drawn corpora and specs: eval takes every row build-gt kept, metrics on
    # eval's records writes eval's metrics CSV, and the ablation's point row is
    # that CSV's concordance
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_jsonl(tmp / "corpus.jsonl", [{"doc_id": f"d{i}", "sections": sections}
                                           for i, sections in enumerate(docs)])
        write_jsonl(tmp / "specs.jsonl", [spec for spec, _ in questions])
        write_jsonl(tmp / "preds.jsonl", [pred for _, pred in questions])
        deltas = ["--deltas", "0.3,0.7"]
        assert main(["build-gt", "--corpus", str(tmp / "corpus.jsonl"), "--specs",
                     str(tmp / "specs.jsonl"), "--out", str(tmp / "gt.jsonl"),
                     "--cap", str(cap)]) == 0
        kept = read_jsonl(tmp / "gt.jsonl")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["eval", "--ground-truth", str(tmp / "gt.jsonl"), "--predictions",
                         str(tmp / "preds.jsonl"), "--records-out", str(tmp / "records.jsonl"),
                         "--metrics-out", str(tmp / "eval.csv"), "--ablation-out",
                         str(tmp / "ablation.csv"), "--dirichlet-gamma", "1,5", *deltas])
        assert "p_star differs" not in stderr.getvalue()
        if not kept:
            assert code == 2
            return
        if code == 3:  # no metric is defined on these records; nothing is written
            assert not (tmp / "records.jsonl").exists()
            return
        assert code == 0
        assert len(read_jsonl(tmp / "records.jsonl")) == len(kept)
        assert main(["metrics", "--records", str(tmp / "records.jsonl"),
                     "--metrics-out", str(tmp / "metrics.csv"), *deltas]) == 0
        assert (tmp / "metrics.csv").read_bytes() == (tmp / "eval.csv").read_bytes()
        point = {r["estimator"]: r["concordance"]
                 for r in read_csv(tmp / "ablation.csv") if r["gamma"] == "point"}
        assert point == {r["estimator"]: r["concordance"]
                         for r in read_csv(tmp / "metrics.csv") if r["concordance"]}


EXPECTED_WARNINGS = [
    "ambiuq: concordance[MI]: concordance undefined: no pairs with distinct true_eu",
    "ambiuq: aucroc[MI, delta=0.25]: aucroc undefined at delta=0.25: binarization left a "
    "single class",
    "ambiuq: aucroc[MI, delta=5]: aucroc undefined at delta=5.0: binarization left a single class",
    "ambiuq: aucroc[SE, delta=5]: aucroc undefined at delta=5.0: binarization left a single class",
]


class TestMetricsCommand:
    def test_round_trip(self, tmp_path):
        records = tmp_path / "records.jsonl"
        rng = np.random.default_rng(0)
        eus = rng.uniform(0, 1.5, size=50)
        write_jsonl(
            records,
            [
                {
                    "question_id": f"q{i}",
                    "true_eu": float(eu),
                    "scores": {"SE": float(eu + rng.normal(0, 0.2))},
                }
                for i, eu in enumerate(eus)
            ],
        )
        metrics = tmp_path / "metrics.csv"
        hist = tmp_path / "hist.csv"
        code = main(
            ["metrics", "--records", str(records), "--metrics-out", str(metrics),
             "--hist-out", str(hist), "--hist-bins", "10"]
        )
        assert code == 0
        (row,) = read_csv(metrics)
        assert row["estimator"] == "SE"
        assert 0.5 < float(row["concordance"]) <= 1.0
        assert len(read_csv(hist)) == 10

    def test_undefined_metric_warnings_in_cell_order(self, tmp_path, capsys):
        # MI is on one record only; no true EU reaches delta 5
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [{"question_id": f"q{i}", "true_eu": 0.1 * (i + 1),
                               "scores": {"SE": 0.2 * i, **({"MI": 0.5} if i == 0 else {})}}
                              for i in range(4)])
        metrics = tmp_path / "metrics.csv"
        assert main(["metrics", "--records", str(records), "--metrics-out", str(metrics),
                     "--deltas", "0.25,5"]) == 0
        assert capsys.readouterr().err.splitlines() == EXPECTED_WARNINGS
        assert metrics.read_text().splitlines() == [
            "estimator,concordance,aucroc@0.25,aucroc@5", "MI,,,", "SE,1.000000,1.000000,"]

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(
            ["metrics", "--records", str(tmp_path / "nope.jsonl"),
             "--metrics-out", str(tmp_path / "m.csv")]
        )
        assert code == 1

    def test_zero_hist_bins_rejected(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [{"question_id": f"q{i}", "true_eu": 0.1 * i,
                               "scores": {"SE": 0.2 * i}} for i in range(5)])
        code = main(
            ["metrics", "--records", str(records), "--metrics-out", str(tmp_path / "m.csv"),
             "--hist-out", str(tmp_path / "h.csv"), "--hist-bins", "0"]
        )
        assert code == 2
        assert "--hist-bins must be >= 1" in capsys.readouterr().err

    def test_non_finite_records_skipped(self, tmp_path, capsys):
        # lines 2 and 3 carry NaN; the one valid record left defines no metric
        records = tmp_path / "nan.jsonl"
        records.write_text(
            '{"question_id": "q0", "true_eu": 0.1, "scores": {"SE": 0.3}}\n'
            '{"question_id": "q1", "true_eu": NaN, "scores": {"SE": 0.1}}\n'
            '{"question_id": "q2", "true_eu": 0.3, "scores": {"SE": NaN}}\n'
        )
        metrics = tmp_path / "metrics.csv"
        code = main(["metrics", "--records", str(records), "--metrics-out", str(metrics)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{records}:2: skipped" in err and f"{records}:3: skipped" in err
        assert not metrics.exists() or "nan" not in metrics.read_text().casefold()

    @pytest.mark.parametrize("deltas", ["nan", "inf", "-1", "0", "0.5,nan"])
    def test_bad_deltas_rejected_before_writing(self, tmp_path, deltas, capsys):
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [{"question_id": f"q{i}", "true_eu": 0.1 * i,
                               "scores": {"SE": 0.2 * i}} for i in range(5)])
        metrics, hist = tmp_path / "m.csv", tmp_path / "h.csv"
        code = main(["metrics", "--records", str(records), "--metrics-out", str(metrics),
                     "--hist-out", str(hist), "--deltas", deltas])
        assert code == 2
        assert "--deltas values must be finite and > 0" in capsys.readouterr().err
        assert not metrics.exists() and not hist.exists()

    def test_non_numeric_deltas_rejected(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [{"question_id": "q0", "true_eu": 0.1, "scores": {"SE": 0.2}}])
        metrics = tmp_path / "m.csv"
        code = main(["metrics", "--records", str(records), "--metrics-out", str(metrics),
                     "--deltas", "0.5,abc"])
        assert code == 2
        assert "--deltas: expected comma-separated numbers" in capsys.readouterr().err
        assert not metrics.exists()


# names the tracer replaces: every module-level ambiuq binding that install() rebinds
_TRACER_PROBE = """
import json, sys
import tracer
modules = {name[len("ambiuq."):]: vars(module) for name, module in sys.modules.items()
           if name.startswith("ambiuq.")}
before = {(stem, name): value for stem, names in modules.items() for name, value in names.items()}
tracer.install(tracer.Tracer(0))
print(json.dumps(sorted(key for key, value in before.items()
                        if modules[key[0]][key[1]] is not value)))
"""


@pytest.fixture(scope="module")
def tracer_install():
    """(returncode, stderr, {(module, name)} replaced) of tracer.install in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "bench"]),
           "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ as it is
    proc = subprocess.run([sys.executable, "-c", _TRACER_PROBE],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    replaced = {tuple(key) for key in json.loads(proc.stdout)} if proc.returncode == 0 else set()
    return proc.returncode, proc.stderr, replaced


def test_bench_tracer_finds_every_name_it_wraps(tracer_install):
    # bench/tracer.py wraps names that cli, simlab, formats and corpus bind;
    # a refactor that unbinds one breaks every traced benchmark run
    returncode, stderr, _ = tracer_install
    assert returncode == 0, stderr


def test_bench_tracer_runs_every_subcommand(tmp_path, fixture_corpus, fixture_specs,
                                            fixture_predictions):
    # the wrappers read the arguments and results of the calls they wrap
    # (after_align reads result[1].classes), so a change to a wrapped
    # function's signature or return shape breaks every traced run
    root = Path(__file__).resolve().parents[1]
    accept_all = tmp_path / "accept_all.py"
    accept_all.write_text("import sys\nfor line in sys.stdin:\n    print('yes', flush=True)\n")
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"k": 3, "n": 300, "seed": 1, "deltas": [0.25, 0.5],
                                  "ensemble_size": 2, "counts_total": 20}))
    gt, records = tmp_path / "gt.jsonl", tmp_path / "sim.jsonl"
    commands = {
        "build-gt": ["build-gt", "--corpus", fixture_corpus, "--specs", fixture_specs,
                     "--out", gt, "--filter-cmd", f"{sys.executable} {accept_all}"],
        "eval": ["eval", "--ground-truth", gt, "--predictions", fixture_predictions,
                 "--records-out", tmp_path / "eval.jsonl",
                 "--metrics-out", tmp_path / "eval.csv", "--dirichlet-gamma", "1,2,5"],
        "simulate": ["simulate", "--config", config, "--out", records,
                     "--report", tmp_path / "report.json",
                     "--ablation-csv", tmp_path / "ablation.csv", "--gammas", "1,2"],
        "metrics": ["metrics", "--records", records, "--metrics-out", tmp_path / "m.csv"],
        "bounds": ["bounds", "--k", "3", "--delta", "0.5", "--avg-loss", "0.1",
                   "--p-low-entropy", "0.5", "--out", tmp_path / "bounds.json"],
    }
    plan, out = tmp_path / "plan.json", tmp_path / "trace.json"
    plan.write_text(json.dumps({"commands": [
        {"name": name, "args": [str(a) for a in args]} for name, args in commands.items()]}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "bench"]),
           "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ as it is
    proc = subprocess.run(
        [sys.executable, "bench/tracer.py", str(plan), str(out), str(tmp_path / "spans.jsonl"),
         "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["rc"] == {name: 0 for name in commands}
    # simlab.ablation_s times simlab.gamma_ablation, so eval must call it there
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    roots = [i for i, span in enumerate(spans) if span[3] == -1]  # one cli.main per command
    assert [spans[i][0] for i in roots] == ["cli.main"] * len(commands)

    def root(i):
        while spans[i][3] != -1:
            i = spans[i][3]
        return i

    eval_root = roots[list(commands).index("eval")]
    assert any(root(i) == eval_root for i, span in enumerate(spans)
               if span[0] == "simlab.gamma_ablation")


class TestOutputsOnFailure:
    """A run whose last output cannot be written exits 1 and leaves every
    output path as it was: an existing file keeps its bytes, a new one is
    not created, no temporary stays behind and no ``wrote`` line is printed."""

    @pytest.fixture
    def out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "first").write_text("old\n")
        return out

    def check(self, out, code, capsys):
        assert code == 1
        captured = capsys.readouterr()
        assert "I/O error" in captured.err and "wrote" not in captured.out
        assert [p.name for p in out.iterdir()] == ["first"]
        assert (out / "first").read_text() == "old\n"

    def test_build_gt(self, out, fixture_corpus, fixture_specs, capsys):
        code = main(["build-gt", "--corpus", str(fixture_corpus), "--specs", str(fixture_specs),
                     "--out", str(out / "first"), "--discard-log", str(out / "no" / "d.jsonl")])
        self.check(out, code, capsys)

    def test_eval(self, tmp_path, out, fixture_corpus, fixture_specs, fixture_predictions,
                  capsys):
        gt, _ = build_gt(tmp_path, fixture_corpus, fixture_specs)
        capsys.readouterr()
        code = main(["eval", "--ground-truth", str(gt), "--predictions", str(fixture_predictions),
                     "--dirichlet-gamma", "1,2", "--records-out", str(out / "first"),
                     "--ablation-out", str(out / "a.csv"),
                     "--metrics-out", str(out / "no" / "m.csv")])
        self.check(out, code, capsys)

    def test_simulate(self, tmp_path, out, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"k": 3, "n": 200, "counts_total": 20}))
        code = main(["simulate", "--config", str(config), "--out", str(out / "first"),
                     "--report", str(out / "r.json"), "--scatter-csv", str(out / "s.csv"),
                     "--hist-csv", str(out / "h.csv"),
                     "--ablation-csv", str(out / "no" / "a.csv")])
        self.check(out, code, capsys)

    def test_bounds(self, out, capsys):
        code = main(["bounds", "--k", "3", "--delta", "0.5", "--out", str(out / "no" / "b.json")])
        self.check(out, code, capsys)

    def test_metrics(self, tmp_path, out, capsys):
        records = tmp_path / "records.jsonl"
        write_jsonl(records, [{"question_id": f"q{i}", "true_eu": 0.1 * i,
                               "scores": {"SE": 0.2 * i}} for i in range(5)])
        code = main(["metrics", "--records", str(records), "--metrics-out", str(out / "first"),
                     "--hist-out", str(out / "no" / "h.csv"), "--deltas", "0.25"])
        self.check(out, code, capsys)


@pytest.mark.parametrize("command", ["build-gt", "eval", "simulate", "metrics"])
def test_two_outputs_naming_one_file_exit_2(tmp_path, fixture_corpus, fixture_specs,
                                            fixture_predictions, command, capsys):
    # the second output would overwrite the first: "o" and "./o" are one file
    out = tmp_path / "out"
    out.mkdir()
    first, second = str(out / "o"), os.path.join(str(out), ".", "o")
    if command == "eval":
        build_gt(tmp_path, fixture_corpus, fixture_specs)  # tmp_path / "gt.jsonl"
        capsys.readouterr()
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"k": 3, "n": 200}))
    records = tmp_path / "records.jsonl"
    write_jsonl(records, [{"question_id": f"q{i}", "true_eu": 0.1 * i,
                           "scores": {"SE": 0.2 * i}} for i in range(5)])
    argv = {
        "build-gt": ["--corpus", str(fixture_corpus), "--specs", str(fixture_specs),
                     "--out", first, "--discard-log", second],
        "eval": ["--ground-truth", str(tmp_path / "gt.jsonl"),
                 "--predictions", str(fixture_predictions),
                 "--records-out", first, "--metrics-out", second],
        "simulate": ["--config", str(config), "--out", first, "--report", second],
        "metrics": ["--records", str(records), "--metrics-out", first, "--hist-out", second],
    }[command]
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert f"{second} is named for two outputs" in captured.err
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


def test_two_outputs_may_both_be_a_device(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"k": 3, "n": 200}))
    assert main(["simulate", "--config", str(config), "--out", os.devnull,
                 "--report", os.devnull]) == 0


# Names that bench/tracer.py wraps in these modules although src/ calls them
# nowhere. Each one leaves this list once the benchmark stops wrapping it.
TRACER_ONLY_IMPORTS = {("cli", "decompose"), ("cli", "expected_epistemic"),
                       ("cli", "posterior"), ("simlab", "alpha_delta"),
                       # eval scores on arrays; the tracer still wraps the object API here
                       ("cli", "align"), ("cli", "align_ensemble"), ("cli", "cluster"),
                       ("cli", "mutual_information"), ("cli", "semantic_entropy")}


def test_every_import_is_used(tracer_install):
    # __init__ imports only to re-export the public names
    src = Path(ambiuq.__file__).resolve().parent
    unused = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == TRACER_ONLY_IMPORTS
    # an allowlisted name must be one tracer.install replaces, so no entry outlives its use
    assert TRACER_ONLY_IMPORTS <= tracer_install[2]


def test_every_module_level_name_is_used():
    # a def, class or constant of src or of a tests/*_reference.py oracle that
    # nothing outside its own statement names (in src, tests or bench) is left
    # over from a deletion
    root = Path(ambiuq.__file__).resolve().parents[2]
    statements = []  # (path, index, names it defines, names it refers to)
    for path in sorted([*root.glob("src/ambiuq/*.py"), *root.glob("tests/*.py"),
                        *root.glob("bench/*.py")]):
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            defined = set()
            if path.parent.name == "ambiuq" or path.stem.endswith("_reference"):
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined = {stmt.name}
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    defined = {n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name) and not n.id.startswith("__")}
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)  # bench/tracer.py patches names given as strings
            statements.append((path, i, defined, used))
    unused = {(path.stem, name) for path, i, defined, _ in statements for name in defined
              if not any(name in used for p, j, _, used in statements if (p, j) != (path, i))}
    assert unused == set()


def test_every_module_level_name_is_reached_from_the_program():
    # a def, class or constant of src that neither cli.main nor a name the
    # package exports reaches, through the names each reached statement refers
    # to, is kept only for tests
    src = Path(ambiuq.__file__).resolve().parent
    defined = {}  # (module, name) -> the statement that defines it
    imported = {}  # (module, local name) -> (module, name) it is bound to
    modules = {}  # (module, local name) -> module: `from . import formats`
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level:
                for alias in stmt.names:
                    local = (module, alias.asname or alias.name)
                    if stmt.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = (stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[module, stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for node in (n for t in targets for n in ast.walk(t)):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        defined[module, node.id] = stmt

    def resolve(key):
        while key in imported:  # a re-export names the module that defines it
            key = imported[key]
        return key

    todo = [("cli", "main"), *(resolve(key) for key in imported if key[0] == "__init__")]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defined:
            continue
        reached.add(key)
        module = key[0]
        for node in ast.walk(defined[key]):
            if isinstance(node, ast.Name):
                todo.append(resolve((module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and (module, node.value.id) in modules):
                todo.append(resolve((modules[module, node.value.id], node.attr)))
    assert set(defined) - reached == set()


def test_no_module_uses_another_modules_private_names():
    # a _name is its module's own; another module that needs it needs a public name
    src = Path(ambiuq.__file__).resolve().parent
    private = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to ambiuq modules: `from . import formats`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "__future__":
                names = {alias.name for alias in node.names}
                if node.module is None:
                    modules |= {alias.asname or alias.name for alias in node.names}
                private |= {(path.stem, f"{node.module}.{name}") for name in names
                            if name.startswith("_")}
        private |= {(path.stem, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")}
    assert private == set()
