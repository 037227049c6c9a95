"""Desk-scale ground-truth construction from corpus co-occurrence counts.

Pipeline: chunk documents into their lowest-level text units, stem every
token, build an inverted index over stemmed terms, count chunks in which all
keyword terms and all answer terms co-occur (capped, optionally passed
through an entailment filter, one streamed call per run), and normalize the
per-answer counts into a ground-truth answer distribution. Questions where
any candidate answer has zero counts are discarded but retained in a
discard log.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .dist import Categorical, canonical_merge, normalize, row_js
from .errors import DegenerateInputError, ValidationError
from .porter import stem

import numpy as np

CHUNK_CHAR_LIMIT = 2000
DEFAULT_CAP = 1000

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

# accept(batches): each batch is (chunks, question, answer), the chunks as
# IndexedChunk records; yields one list of accept/reject decisions per batch,
# one per chunk, in batch order
EntailmentFilter = Callable[[Iterable[tuple]], Iterator[list]]


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    chunk_id: str
    text: str
    stemmed_terms: frozenset


@dataclass(frozen=True)
class QuestionSpec:
    question_id: str
    question: str
    keywords: tuple
    answers: tuple

    def __post_init__(self):
        if not self.keywords:
            raise ValidationError(f"{self.question_id}: keywords must be non-empty")
        if not self.answers:
            raise ValidationError(f"{self.question_id}: answers must be non-empty")


@dataclass(frozen=True)
class GroundTruthRecord:
    question_id: str
    answers: tuple
    counts: tuple
    p_star: Optional[Categorical]
    discarded: bool
    reason: Optional[str]
    raw_matches: tuple  # pre-cap, pre-filter match totals, for the log
    # answers that require the same stemmed terms as another, so count the same chunks
    same_terms: tuple = ()


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.casefold())


def stem_terms(text: str) -> frozenset:
    return frozenset(map(stem, tokenize(text)))


def _split_oversized(text: str) -> list:
    """Split a unit > CHUNK_CHAR_LIMIT at sentence boundaries, greedily
    packing sentences; a single oversized sentence is hard-split."""
    pieces = []
    current = ""
    for sentence in _SENTENCE_RE.split(text):
        while len(sentence) > CHUNK_CHAR_LIMIT:
            if current:
                pieces.append(current)
                current = ""
            pieces.append(sentence[:CHUNK_CHAR_LIMIT])
            sentence = sentence[CHUNK_CHAR_LIMIT:]
        if not current:
            current = sentence
        elif len(current) + 1 + len(sentence) <= CHUNK_CHAR_LIMIT:
            current = f"{current} {sentence}"
        else:
            pieces.append(current)
            current = sentence
    if current:
        pieces.append(current)
    return pieces


def chunk_corpus(documents: Iterable) -> Iterator[Chunk]:
    """Yield one chunk per lowest-level unit of each (doc_id, units) pair.

    Units longer than CHUNK_CHAR_LIMIT characters are split at sentence
    boundaries. Chunk order is deterministic for a given input order.
    """
    for doc_id, units in documents:
        for unit_idx, unit in enumerate(units):
            unit = str(unit).strip()
            if not unit:
                continue
            if len(unit) <= CHUNK_CHAR_LIMIT:
                pieces = [unit]
            else:
                pieces = _split_oversized(unit)
            for piece_idx, piece in enumerate(pieces):
                chunk_id = (
                    f"{doc_id}:{unit_idx}"
                    if len(pieces) == 1
                    else f"{doc_id}:{unit_idx}.{piece_idx}"
                )
                yield Chunk(
                    doc_id=str(doc_id),
                    chunk_id=chunk_id,
                    text=piece,
                    stemmed_terms=stem_terms(piece),
                )


class IndexedChunk(NamedTuple):
    """What the filter and the records read of a chunk at an index position."""

    chunk_id: str
    text: str


class InvertedIndex:
    """Stemmed term -> sorted chunk positions. Reads its chunks once and keeps
    each one's chunk_id and text, so no chunk's term set outlives indexing."""

    def __init__(self, chunks: Iterable[Chunk]):
        self.chunks: list = []
        self._postings: dict = {}
        for pos, chunk in enumerate(chunks):
            self.chunks.append(IndexedChunk(chunk.chunk_id, chunk.text))
            for term in chunk.stemmed_terms:
                self._postings.setdefault(term, []).append(pos)

    def postings(self, term: str) -> list:
        return self._postings.get(term, [])

    def matching(self, terms) -> list:
        """Positions of chunks containing every term, in corpus order."""
        terms = list(terms)
        if not terms:
            return []
        lists = sorted((self.postings(t) for t in terms), key=len)
        if not lists[0]:
            return []
        result = set(lists[0])
        for postings in lists[1:]:
            result &= set(postings)
            if not result:
                return []
        return sorted(result)


def build_index(chunks: Iterable) -> InvertedIndex:
    return InvertedIndex(chunks)


def cooccurrence_count(
    index: InvertedIndex,
    keywords,
    answer: str,
    cap: int = DEFAULT_CAP,
    accept: Optional[EntailmentFilter] = None,
    question: str = "",
) -> int:
    """Number of chunks containing all stemmed keyword and answer terms: the
    count that :func:`build_ground_truth` gives a spec with this one answer.

    Matches are truncated at ``cap`` (>= 1) in corpus order before the optional
    entailment filter is applied to them as one batch; zero is a valid count.
    """
    if not answer or not keywords:
        raise ValidationError("keywords and answer must be non-empty")
    spec = QuestionSpec("", question, tuple(keywords), (answer,))
    return build_ground_truth(index, [spec], cap, accept)[0].counts[0]


def _spec_matches(index, specs, cap) -> Iterator[tuple]:
    """(spec, required terms per answer, (kept positions, raw total) per answer)
    for each spec in order; (spec, None, None) for a spec with duplicate answers."""
    for spec in specs:
        if len(set(spec.answers)) != len(spec.answers):
            yield spec, None, None
            continue
        required = [stem_terms(" ".join([*map(str, spec.keywords), answer]))
                    for answer in spec.answers]
        yield spec, required, [(m[:cap], len(m)) for m in map(index.matching, required)]


def _accepted(decisions, kept) -> int:
    """How many of one batch's kept chunks the filter's next decision list accepts."""
    batch = next(decisions, None)
    if batch is None or len(batch) != len(kept):
        got = "no decision list" if batch is None else f"{len(batch)} decision(s)"
        raise ValidationError(f"entailment filter returned {got} for {len(kept)} chunks")
    return sum(batch)


def _spec_record(spec: QuestionSpec, required, found, decisions) -> GroundTruthRecord:
    if required is None:
        return GroundTruthRecord(
            spec.question_id, spec.answers, (), None, True, "duplicate answers", ()
        )
    counts = tuple(len(kept) if decisions is None or not kept else _accepted(decisions, kept)
                   for kept, _ in found)
    raws = tuple(raw for _, raw in found)
    same = tuple(a for a, terms in zip(spec.answers, required) if required.count(terms) > 1)
    if min(counts) == 0:
        zeros = [a for a, c in zip(spec.answers, counts) if c == 0]
        return GroundTruthRecord(
            spec.question_id, spec.answers, counts, None, True,
            f"zero counts for answers: {zeros}", raws, same,
        )
    p_star = normalize(counts, classes=spec.answers)
    return GroundTruthRecord(
        spec.question_id, spec.answers, counts, p_star, False, None, raws, same
    )


def build_ground_truth(
    index: InvertedIndex,
    specs: Sequence[QuestionSpec],
    cap: int = DEFAULT_CAP,
    accept: Optional[EntailmentFilter] = None,
) -> list:
    """One GroundTruthRecord per spec, sorted by question_id.

    Specs are matched once, in order. ``accept`` is called once, on a lazy
    stream of the (chunks, question, answer) batches that keep a chunk, with
    the chunks in corpus order, and its decisions are read in that order.
    """
    if not cap >= 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    matched = _spec_matches(index, specs, cap)
    decisions = None
    if accept is not None:  # one pass of matching feeds the filter and the records
        matched, for_filter = itertools.tee(matched)
        decisions = iter(accept(
            ([index.chunks[pos] for pos in kept], spec.question, answer)
            for spec, _, found in for_filter if found
            for answer, (kept, _) in zip(spec.answers, found) if kept))
    records = [_spec_record(*item, decisions) for item in matched]
    if decisions is not None and next(decisions, None) is not None:
        raise ValidationError("entailment filter returned more decision lists than batches")
    return sorted(records, key=lambda r: r.question_id)


def cross_validate(a: Sequence[GroundTruthRecord], b: Sequence[GroundTruthRecord]):
    """Per-question JS divergence between two ground-truth estimates.

    Records are joined on question_id (non-discarded only); answers are
    matched by stem_terms, the term set that counting matches on, with
    probability 0 on the side missing an answer.
    """
    by_id_a = {r.question_id: r for r in a if not r.discarded}
    by_id_b = {r.question_id: r for r in b if not r.discarded}
    shared = sorted(set(by_id_a) & set(by_id_b))
    if not shared:
        raise DegenerateInputError("no shared non-discarded question_ids")
    results = []
    for qid in shared:
        pa, pb = (canonical_merge(r.answers, r.p_star.probs, stem_terms)
                  for r in (by_id_a[qid], by_id_b[qid]))
        keys = list(dict.fromkeys([*pa, *pb]))
        va = np.array([pa.get(k, 0.0) for k in keys])
        vb = np.array([pb.get(k, 0.0) for k in keys])
        results.append((qid, float(row_js(va, vb))))
    return results
