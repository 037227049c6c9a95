"""One traced job: the workload's commands through ``ambiuq.cli.main`` in
this process, with timing wrappers around the calls into each layer.

    python3 bench/tracer.py PLAN.json OUT.json SPANS.jsonl JOB_ID

Each wrapper replaces the name a consumer module imported (``cli.decompose``,
``simlab.expected_epistemic``, ...) or a module attribute the consumer looks
up at call time (``formats.read_jsonl``, ``corpus.stem``). A span records
name, start, end, parent and job id; spans stay in memory and go to
SPANS.jsonl at the end. A span's self time is its duration minus the time
its child spans cover, and a layer's self time is the sum over its spans.
``porter.stem`` is only counted: timing every token would distort the run.
OUT.json holds per-name calls/total/self, per-layer self times, counters and
the traced wall time, which the layer self times plus ``other`` add up to.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from collections import Counter, defaultdict

from ambiuq import bounds, cli, corpus, formats, simlab

clock = time.perf_counter


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.spans = []  # (name, start, end, parent index, job)
        self.stack = []  # open span indices
        self.child_time = []  # time covered by children, per open span
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer = {}
        self.counts = Counter()
        self.words = set()  # distinct words passed to porter.stem

    def wrap(self, layer: str, fn, name=None, after=None, on_error=None):
        """Timed stand-in for ``fn``; ``after(result, args, kwargs)`` and
        ``on_error()`` update counters once the span is closed."""
        name = f"{layer}.{name or fn.__name__}"
        self.layer[name] = layer
        spans, stack, child_time = self.spans, self.stack, self.child_time

        def close(index, start):
            end = clock()
            stack.pop()
            duration = end - start
            spans[index] = (name, start, end, stack[-1] if stack else -1, self.job)
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child_time.pop()
            if child_time:
                child_time[-1] += duration

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                close(index, start)
                if on_error:
                    on_error()
                raise
            close(index, start)
            if after:
                after(result, args, kwargs)
            return result

        return traced

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[self.layer[name]] += seconds
        return out


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def patch(module, attr, layer, **kw):
        setattr(module, attr, tracer.wrap(layer, getattr(module, attr), **kw))

    stem, words = corpus.stem, tracer.words

    def counted_stem(word):
        counts["porter.stem_calls"] += 1
        words.add(word)
        return stem(word)

    corpus.stem = counted_stem

    chunk_corpus = corpus.chunk_corpus

    def chunk_all(documents):
        before = counts["porter.stem_calls"]
        chunks = list(chunk_corpus(documents))
        counts["corpus.tokens"] += counts["porter.stem_calls"] - before
        return chunks

    def after_chunks(chunks, args, kwargs):
        counts["corpus.chunks"] += len(chunks)
        counts["corpus.postings"] += sum(len(c.stemmed_terms) for c in chunks)

    corpus.chunk_corpus = tracer.wrap("corpus", chunk_all, name="chunk_corpus",
                                      after=after_chunks)

    def after_records(records, args, kwargs):
        cap = kwargs.get("cap", corpus.DEFAULT_CAP)
        raw = [r for rec in records for r in rec.raw_matches]
        counts["corpus.matches_raw"] += sum(raw)
        counts["corpus.matches_kept"] += sum(min(r, cap) for r in raw)
        counts["corpus.discarded"] += sum(rec.discarded for rec in records)

    patch(corpus, "build_index", "corpus")
    patch(corpus, "build_ground_truth", "corpus", after=after_records)

    def after_filter(accepted, args, kwargs):
        counts["cli.filter_accepted"] += bool(accepted)

    cli.CommandFilter.__call__ = tracer.wrap(
        "cli", cli.CommandFilter.__call__, name="filter", after=after_filter)

    def after_read(result, args, kwargs):
        counts["formats.bytes_read"] += os.path.getsize(args[0])
        counts["formats.lines_skipped"] += len(result[1])

    def after_write(result, args, kwargs):
        counts["formats.bytes_written"] += os.path.getsize(args[0])

    patch(formats, "read_jsonl", "formats", after=after_read)
    for attr in ("write_jsonl", "write_csv"):
        patch(formats, attr, "formats", after=after_write)
    for attr in ("parse_corpus_doc", "parse_question_spec", "parse_ground_truth",
                 "parse_prediction", "parse_eval_record"):
        patch(formats, attr, "formats")

    # cli passes the EquivalenceMap positionally to both align functions
    def after_align(result, args, kwargs):
        eq = args[2]
        model = {eq.canonical(c) for c in args[1].classes}
        counts["estimators.imputed_classes"] += sum(c not in model for c in result[1].classes)

    def after_align_ensemble(result, args, kwargs):
        eq = args[1]
        joint = len(result.classes)
        counts["estimators.imputed_classes"] += sum(
            joint - len({eq.canonical(c) for c in m.classes}) for m in args[0])

    def msp_disabled():
        counts["estimators.msp_disabled"] += 1

    patch(cli, "cluster", "estimators")
    patch(cli, "align", "estimators", after=after_align)
    patch(cli, "align_ensemble", "estimators", after=after_align_ensemble)
    patch(cli, "semantic_entropy", "estimators")
    patch(cli, "msp", "estimators", on_error=msp_disabled)
    patch(cli, "mutual_information", "estimators")

    patch(cli, "decompose", "dist")
    patch(cli, "row_entropy", "dist")
    for attr in ("row_kl", "row_entropy", "row_cross_entropy"):
        patch(simlab, attr, "dist")

    for module in (cli, simlab):
        patch(module, "expected_epistemic", "dirichlet")
        patch(module, "posterior", "dirichlet")

    def after_experiment(result, args, kwargs):
        counts["simlab.records"] += len(result.records)

    patch(simlab, "run_experiment", "simlab", after=after_experiment)
    patch(simlab, "gamma_ablation", "simlab")

    for attr in ("concordance", "aucroc", "summarize"):
        patch(cli, attr, "metrics")
    patch(simlab, "concordance", "metrics")

    for attr in ("alpha_delta", "gamma_delta", "eu_lower_bound_high_entropy",
                 "thm2_probability_bound"):
        patch(bounds, attr, "bounds")
    for attr in ("alpha_delta", "gamma_delta"):
        patch(simlab, attr, "bounds")


def main() -> int:
    plan_path, out_path, spans_path, job = sys.argv[1:5]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer(int(job))
    install(tracer)
    main_span = tracer.wrap("cli", cli.main)

    rc, stderr_lines = {}, 0
    start = clock()
    for cmd in plan["commands"]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc[cmd["name"]] = main_span(cmd["args"])
        text = err.getvalue()
        stderr_lines += text.count("\n")
        tracer.counts["estimators.mi_disabled"] += text.count(": MI disabled:")
    wall = clock() - start

    counts = tracer.counts
    counts["porter.distinct_words"] = len(tracer.words)
    counts["cli.stderr_lines"] = stderr_lines
    for counter, name in (("cli.filter_calls", "cli.filter"),
                          ("dirichlet.expected_calls", "dirichlet.expected_epistemic"),
                          ("metrics.concordance_calls", "metrics.concordance")):
        counts[counter] = tracer.calls[name]
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, s, e, parent, job_id in tracer.spans:
            fh.write(json.dumps([name, round(s - start, 9), round(e - start, 9),
                                 parent, job_id]) + "\n")
    names = {n: {"calls": tracer.calls[n], "total": tracer.total[n],
                 "self": tracer.self_time[n]} for n in tracer.calls}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "rc": rc, "names": names, "layers": tracer.layer_self(),
                   "counts": dict(counts)}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
