import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_reference import brute_force_count

from ambiuq.corpus import (
    CHUNK_CHAR_LIMIT,
    Chunk,
    QuestionSpec,
    build_ground_truth,
    build_index,
    chunk_corpus,
    cooccurrence_count,
    cross_validate,
    stem_terms,
    tokenize,
)
from ambiuq.errors import DegenerateInputError, ValidationError


def make_chunks(texts):
    return list(chunk_corpus([("doc", texts)]))


def words(rng, vocab, n):
    return " ".join(rng.choice(vocab, size=n))


class TestChunking:
    def test_small_paragraph_is_one_chunk(self):
        text = " ".join(["word"] * 100)
        chunks = make_chunks([text])
        assert len(chunks) == 1
        assert chunks[0].text == text
        assert chunks[0].chunk_id == "doc:0"

    def test_oversized_paragraph_splits_at_sentences(self):
        sentences = [f"Sentence number {i} contains filler text padding." for i in range(60)]
        text = " ".join(sentences)
        assert len(text) > 2500
        chunks = make_chunks([text])
        assert len(chunks) >= 2
        for c in chunks:
            assert len(c.text) <= CHUNK_CHAR_LIMIT
        # pieces are whole sentences: joining them reconstructs the input
        assert " ".join(c.text for c in chunks) == text

    def test_oversized_sentence_is_hard_split(self):
        long = "a" * 4500 + " end."
        chunks = make_chunks(["Intro sentence. " + long])
        assert [c.text for c in chunks] == [
            "Intro sentence.", long[:2000], long[2000:4000], long[4000:],
        ]
        assert [c.chunk_id for c in chunks] == [f"doc:0.{i}" for i in range(4)]

    def test_empty_document_yields_nothing(self):
        assert list(chunk_corpus([("doc", [])])) == []
        assert list(chunk_corpus([("doc", ["   "])])) == []

    def test_multiple_units_get_distinct_ids(self):
        chunks = make_chunks(["first unit.", "second unit."])
        assert [c.chunk_id for c in chunks] == ["doc:0", "doc:1"]

    def test_deterministic_order(self):
        docs = [("a", ["one.", "two."]), ("b", ["three."])]
        assert [c.chunk_id for c in chunk_corpus(docs)] == [
            c.chunk_id for c in chunk_corpus(docs)
        ]


class TestIndex:
    def test_shared_term_posting(self):
        index = build_index(make_chunks(["apples grow", "apples fall", "pears"]))
        assert len(index.postings("appl")) == 2
        assert index.postings("absent") == []

    def test_postings_match_brute_scan_on_random_corpus(self):
        rng = np.random.default_rng(0)
        vocab = np.array([f"w{i}" for i in range(60)])
        texts = [words(rng, vocab, 25) for _ in range(1000)]
        chunks = make_chunks(texts)
        index = build_index(chunks)
        for term in ["w0", "w17", "w59"]:
            stemmed = next(iter(stem_terms(term)))
            expected = [i for i, c in enumerate(chunks) if stemmed in c.stemmed_terms]
            assert index.postings(stemmed) == expected

    def test_matching_is_conjunctive(self):
        chunks = make_chunks(["alpha beta", "alpha", "beta", "alpha beta gamma"])
        index = build_index(chunks)
        assert index.matching(stem_terms("alpha beta")) == [0, 3]

    def test_index_keeps_no_chunk(self):
        texts = ["apples grow", "apples fall", "pears ripen", "", "apples and pears"]
        refs, seen = [], []

        def one_shot():
            for chunk in chunk_corpus([("doc", texts)]):
                refs.append(weakref.ref(chunk))
                seen.append((chunk.chunk_id, chunk.text))
                yield chunk

        index = build_index(one_shot())
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        assert [(c.chunk_id, c.text) for c in index.chunks] == seen
        assert index.matching(stem_terms("apples")) == [0, 1, 3]

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(
        ["apple", "apples", "pear", "grows", "growing", "fall", "the", "a1"]), max_size=6)
        .map(" ".join), max_size=12),
        queries=st.lists(st.lists(st.sampled_from(["appl", "pear", "grow", "fall", "the",
                                                   "a1", "absent"]), max_size=3), max_size=6))
    def test_postings_and_matching_equal_a_scan_of_the_chunk_list(self, texts, queries):
        # the reference scans a kept chunk list for each term and query
        chunks = make_chunks(texts)
        index = build_index(iter(chunks))
        terms = set().union(*(c.stemmed_terms for c in chunks), {"absent"})
        for term in terms:
            assert index.postings(term) == [
                i for i, c in enumerate(chunks) if term in c.stemmed_terms]
        for query in queries:
            assert index.matching(query) == ([] if not query else [
                i for i, c in enumerate(chunks) if set(query) <= c.stemmed_terms])
        assert [(c.chunk_id, c.text) for c in index.chunks] == [
            (c.chunk_id, c.text) for c in chunks]


class TestCooccurrence:
    def test_planted_occurrences(self):
        rng = np.random.default_rng(1)
        vocab = np.array([f"w{i}" for i in range(50)])
        texts = [words(rng, vocab, 20) for _ in range(200)]
        for i in (3, 77, 140):
            texts[i] = texts[i] + " fire triangle oxygen"
        chunks = make_chunks(texts)
        index = build_index(chunks)
        got = cooccurrence_count(index, ["fire triangle"], "oxygen")
        assert got == brute_force_count(chunks, ["fire triangle"], "oxygen") == 3

    def test_absent_answer_counts_zero(self):
        index = build_index(make_chunks(["nothing relevant here"]))
        assert cooccurrence_count(index, ["nothing"], "zebra") == 0

    def test_cap_truncates(self):
        texts = ["machu picchu llama"] * 1500 + ["filler text"] * 50
        index = build_index(make_chunks(texts))
        assert cooccurrence_count(index, ["machu picchu"], "llama", cap=1000) == 1000
        assert cooccurrence_count(index, ["machu picchu"], "llama", cap=2000) == 1500

    def test_cap_monotone(self):
        texts = ["king cobra venom"] * 40
        index = build_index(make_chunks(texts))
        counts = [
            cooccurrence_count(index, ["king cobra"], "venom", cap=c)
            for c in (1, 10, 40, 100)
        ]
        assert counts == sorted(counts)
        assert all(c <= cap for c, cap in zip(counts, (1, 10, 40, 100)))

    def test_stemming_bridges_surface_forms(self):
        # corpus says "apricots and grapes"; the answer "grape" must match
        index = build_index(make_chunks(["the valley produces apricots and grapes"]))
        assert cooccurrence_count(index, ["valley"], "grape") == 1
        assert cooccurrence_count(index, ["valley"], "grapes") == 1

    def test_multi_keyword_conjunction(self):
        chunks = make_chunks(
            ["song writer studio", "song studio", "writer studio color"]
        )
        index = build_index(chunks)
        assert cooccurrence_count(index, ["song", "writer"], "studio") == 1

    def test_non_str_keyword_is_coerced(self):
        # a library caller's keyword is matched as its str(): 2024 as "2024"
        index = build_index(make_chunks(["released in 2024 by x", "x only"]))
        assert cooccurrence_count(index, [2024], "x") == 1

    def test_filter_reduces_counts(self):
        texts = ["comet dust tail"] * 4
        index = build_index(make_chunks(texts))
        odd_only = lambda batches: ([c.chunk_id.endswith(("1", "3")) for c in chunks]
                                    for chunks, q, a in batches)
        assert cooccurrence_count(index, ["comet"], "tail", accept=odd_only) == 2

    def test_filter_applied_after_cap(self):
        texts = ["star cluster map"] * 30
        index = build_index(make_chunks(texts))
        accept_all = lambda batches: ([True] * len(chunks) for chunks, q, a in batches)
        assert cooccurrence_count(index, ["star"], "map", cap=10, accept=accept_all) == 10

    def test_empty_inputs_rejected(self):
        index = build_index([])
        with pytest.raises(ValidationError):
            cooccurrence_count(index, [], "x")
        with pytest.raises(ValidationError):
            cooccurrence_count(index, ["x"], "")

    def test_bare_string_keywords_rejected(self):
        # tuple("fire") would require the terms f, i, r and e, which the last chunk has
        index = build_index(make_chunks(["Fire needs heat and fuel.", "Heat of the fire.",
                                         "f i r e heat"]))
        assert cooccurrence_count(index, ["fire"], "heat") == 2
        with pytest.raises(ValidationError,
                           match="keywords must be a sequence of strings, got the string 'fire'"):
            cooccurrence_count(index, "fire", "heat")


def fixture_index():
    """Corpus with planted counts: fire triangle 31/32/25, frozen 188/91."""
    texts = []
    texts += ["the fire triangle needs heat to start"] * 31
    texts += ["the fire triangle needs fuel to burn"] * 32
    texts += ["the fire triangle needs oxygen to breathe"] * 25
    texts += ["princess elsa rules arendelle in frozen"] * 188
    texts += ["princess anna of arendelle stars in frozen"] * 91
    texts += ["unrelated filler about volcanoes"] * 40
    return build_index(make_chunks(texts))


FIRE_SPEC = QuestionSpec("q-fire", "fire triangle component?", ("fire triangle",),
                         ("heat", "fuel", "oxygen"))
FROZEN_SPEC = QuestionSpec("q-frozen", "princess in frozen?", ("frozen", "princess"),
                           ("Elsa", "Anna"))
DEAD_SPEC = QuestionSpec("q-dead", "unmatchable?", ("fire triangle",),
                         ("heat", "plutonium"))


class TestGroundTruth:
    def test_planted_fire_triangle_counts(self):
        records = build_ground_truth(fixture_index(), [FIRE_SPEC])
        (record,) = records
        assert record.counts == (31, 32, 25)
        np.testing.assert_allclose(record.p_star.probs, [0.3523, 0.3636, 0.2841],
                                   atol=1e-4)

    def test_planted_frozen_counts(self):
        (record,) = build_ground_truth(fixture_index(), [FROZEN_SPEC])
        assert record.counts == (188, 91)
        np.testing.assert_allclose(record.p_star.probs, [0.6738, 0.3262], atol=1e-4)

    def test_zero_count_discard(self):
        (record,) = build_ground_truth(fixture_index(), [DEAD_SPEC])
        assert record.discarded
        assert "plutonium" in record.reason
        assert record.p_star is None

    def test_spec_with_no_term_is_discarded_with_zero_counts(self):
        spec = QuestionSpec("q-punct", "?", ("!!!",), ("?",))
        (record,) = build_ground_truth(fixture_index(), [spec])
        assert record.discarded and record.p_star is None
        assert record.counts == (0,) and record.raw_matches == (0,)
        assert record.reason == "zero counts for answers: ['?']"

    @pytest.mark.parametrize("keywords, answers, field", [
        ("fire", ("heat",), "keywords"), (("fire",), "heat", "answers")])
    def test_spec_rejects_a_bare_string(self, keywords, answers, field):
        # a str is iterable, so it would pass as the terms of its letters
        with pytest.raises(ValidationError,
                           match=f"^q: {field} must be a sequence of strings, got the string"):
            QuestionSpec("q", "", keywords, answers)

    def test_answers_requiring_the_same_terms_are_recorded(self):
        index = build_index(make_chunks(["new york city", "a new york day", "boston city"]))
        spec = QuestionSpec("q", "?", ("city",), ("new york", "Boston", "York New"))
        (record,) = build_ground_truth(index, [spec])
        assert record.same_terms == ("new york", "York New")
        assert record.counts == (1, 1, 1) and not record.discarded
        (plain,) = build_ground_truth(index, [QuestionSpec("q", "?", ("city",),
                                                            ("new york", "Boston"))])
        assert plain.same_terms == ()
        # each answer's terms lie within the keywords' terms
        (inside,) = build_ground_truth(index, [QuestionSpec("q", "?", ("new york",),
                                                             ("new", "york", "day"))])
        assert inside.same_terms == ("new", "york") and inside.counts == (2, 2, 1)

    def test_dataset_membership_rule(self):
        records = build_ground_truth(fixture_index(), [FIRE_SPEC, FROZEN_SPEC, DEAD_SPEC])
        kept = {r.question_id for r in records if not r.discarded}
        assert kept == {"q-fire", "q-frozen"}
        for r in records:
            assert r.discarded == (not r.counts or min(r.counts) == 0)

    def test_sorted_by_question_id(self):
        records = build_ground_truth(fixture_index(), [FROZEN_SPEC, FIRE_SPEC])
        assert [r.question_id for r in records] == ["q-fire", "q-frozen"]

    def test_accept_all_filter_matches_unfiltered(self):
        index = fixture_index()
        plain = build_ground_truth(index, [FIRE_SPEC])
        filtered = build_ground_truth(index, [FIRE_SPEC],
                                      accept=lambda bs: ([True] * len(cs) for cs, q, a in bs))
        assert plain == filtered

    def test_reject_all_filter_discards_everything(self):
        records = build_ground_truth(
            fixture_index(), [FIRE_SPEC, FROZEN_SPEC],
            accept=lambda bs: ([False] * len(cs) for cs, q, a in bs)
        )
        assert all(r.discarded for r in records)

    @pytest.mark.parametrize("accept, message", [
        # one decision for the 31 heat chunks
        (lambda bs: ([True] for _ in bs), r"returned 1 decision\(s\) for 31 chunks"),
        # a list for the first (spec, answer) only
        (lambda bs: ([True] * len(cs) for cs, _, _ in itertools.islice(bs, 1)),
         "returned no decision list for 32 chunks"),
        (lambda bs: iter(()), "returned no decision list for 31 chunks"),
        # a list after the last batch's
        (lambda bs: itertools.chain(([True] * len(cs) for cs, _, _ in bs), [[True]]),
         "more decision lists than batches"),
    ])
    def test_decision_lists_must_match_the_batches(self, accept, message):
        index = fixture_index()
        with pytest.raises(ValidationError, match=message):
            build_ground_truth(index, [FIRE_SPEC], accept=accept)
        if "32" not in message:  # the heat batch alone
            with pytest.raises(ValidationError, match=message):
                cooccurrence_count(index, ["fire triangle"], "heat", accept=accept)


class TestCrossValidate:
    def test_identical_sets_have_zero_js(self):
        records = build_ground_truth(fixture_index(), [FIRE_SPEC, FROZEN_SPEC])
        for _, js in cross_validate(records, records):
            assert js == pytest.approx(0.0, abs=1e-12)

    def test_direct_js_value(self):
        from ambiuq.corpus import GroundTruthRecord
        from ambiuq.dist import Categorical

        def rec(probs):
            return GroundTruthRecord(
                "q", ("a", "b"), (7, 3), Categorical(("a", "b"), probs), False, None, (7, 3)
            )

        (pair,) = cross_validate([rec([0.7, 0.3])], [rec([0.3, 0.7])])
        assert pair[1] == pytest.approx(0.0822829, abs=1e-4)

    def test_extra_zero_mass_answer_allowed(self):
        # a third answer present on only one side with zero effective mass
        from ambiuq.corpus import GroundTruthRecord
        from ambiuq.dist import Categorical

        left = GroundTruthRecord(
            "q", ("a", "b"), (1, 1), Categorical(("a", "b"), [0.5, 0.5]),
            False, None, (1, 1),
        )
        right = GroundTruthRecord(
            "q", ("a", "b", "c"), (1, 1, 1),
            Categorical(("a", "b", "c"), [0.5, 0.5, 0.0]), False, None, (1, 1, 1),
        )
        (pair,) = cross_validate([left], [right])
        assert pair[1] == pytest.approx(0.0, abs=1e-12)

    def test_surface_forms_matched_by_stems(self):
        from ambiuq.corpus import GroundTruthRecord
        from ambiuq.dist import Categorical

        left = GroundTruthRecord(
            "q", ("grapes", "apricots"), (3, 1),
            Categorical(("grapes", "apricots"), [0.75, 0.25]), False, None, (3, 1),
        )
        right = GroundTruthRecord(
            "q", ("grape", "apricot"), (3, 1),
            Categorical(("grape", "apricot"), [0.75, 0.25]), False, None, (3, 1),
        )
        (pair,) = cross_validate([left], [right])
        assert pair[1] == pytest.approx(0.0, abs=1e-12)

    def test_answers_matched_by_term_set(self):
        # counting matches a term set, so token order and repeats do not part two answers
        from ambiuq.corpus import GroundTruthRecord
        from ambiuq.dist import Categorical

        def rec(answers):
            return GroundTruthRecord("q", answers, (3, 1), Categorical(answers, [0.75, 0.25]),
                                     False, None, (3, 1))

        (pair,) = cross_validate([rec(("new york", "boston"))], [rec(("york new", "boston"))])
        assert pair == ("q", 0.0)
        (pair,) = cross_validate([rec(("new york", "boston"))],
                                 [rec(("new new york", "boston"))])
        assert pair == ("q", 0.0)

    def test_empty_intersection_rejected(self):
        records = build_ground_truth(fixture_index(), [FIRE_SPEC])
        others = build_ground_truth(fixture_index(), [FROZEN_SPEC])
        with pytest.raises(DegenerateInputError):
            cross_validate(records, others)


class TestTokenize:
    def test_case_and_punctuation(self):
        assert tokenize("It's Heat, right?") == ["it", "s", "heat", "right"]

    def test_digits_kept(self):
        assert tokenize("in 1954 the award") == ["in", "1954", "the", "award"]
