"""A fixed reference computation, timed next to every job.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over minutes as other tenants come and go. A job's wall time
carries that drift, so medians of runs made minutes apart spread by more than
any change worth detecting. The reference computation runs in the benchmark
process right before each job and does not touch ``ambiuq``; the job's wall
time divided by the reference's (``wall_rel``) cancels most of the drift
while staying proportional to the program's own speed.

Its instruction mix follows the workloads: regex tokenizing, suffix
stripping and dict counting (``corpus``, ``porter``), JSON encoding and
decoding (``formats``), and numpy sorting and reductions (``metrics``,
``dirichlet``, ``simlab``). It is deterministic and takes about 0.25 s on a
2-core Xeon VM.
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

_TOKEN_RE = re.compile(r"[a-z]+")
_ROOTS = ("bak", "dor", "fen", "lum", "tiv", "rasp", "mol", "zen", "kor", "pil")
_SUFFIXES = ("ing", "ation", "ness", "ed", "ly", "er", "ive", "ous", "ment", "")
_WORDS = [r + v + s for r in _ROOTS for v in "aeiou" for s in _SUFFIXES]
_TEXT = " ".join(_WORDS[(i * 7919) % len(_WORDS)] for i in range(20_000))


def _strip(word: str) -> str:
    for suffix in ("ation", "ness", "ment", "ing", "ous", "ive", "ed", "ly", "er"):
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            return word[: -len(suffix)]
    return word


def work() -> int:
    counts: dict = {}
    for _ in range(3):
        for word in _TOKEN_RE.findall(_TEXT):
            stem = _strip(word)
            counts[stem] = counts.get(stem, 0) + 1
    rows = [{"id": i, "stem": s, "n": n} for i, (s, n) in enumerate(sorted(counts.items()))]
    decoded = [json.loads(json.dumps(row, sort_keys=True)) for row in rows * 200]
    values = np.random.default_rng(0).random(300_000)
    order = np.argsort(values, kind="mergesort")
    ranks = np.cumsum(values[order]) / np.arange(1, values.size + 1)
    return len(decoded) + int(ranks.argmax())


def timed() -> float:
    """Wall seconds of one run of ``work``."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
