import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porter_reference as reference

from ambiuq.porter import (
    _apply,
    _measure,
    _STEP2,
    _STEP3,
    _STEP4,
    _step1a,
    _step1b,
    _step1c,
    _step5a,
    _step5b,
    stem,
)

# per-step behavior, from the algorithm's published example pairs
STEP1A = [("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
          ("caress", "caress"), ("cats", "cat")]
STEP1B = [("feed", "feed"), ("agreed", "agree"), ("plastered", "plaster"),
          ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
          ("conflated", "conflate"), ("troubled", "trouble"), ("sized", "size"),
          ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
          ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
          ("filing", "file")]
STEP1C = [("happy", "happi"), ("sky", "sky")]
STEP2 = [("relational", "relate"), ("conditional", "condition"),
         ("rational", "rational"), ("valenci", "valence"),
         ("hesitanci", "hesitance"), ("digitizer", "digitize"),
         ("radicalli", "radical"), ("differentli", "different"),
         ("vileli", "vile"), ("analogousli", "analogous"),
         ("vietnamization", "vietnamize"), ("predication", "predicate"),
         ("operator", "operate"), ("feudalism", "feudal"),
         ("decisiveness", "decisive"), ("hopefulness", "hopeful"),
         ("callousness", "callous"), ("formaliti", "formal"),
         ("sensitiviti", "sensitive"), ("sensibiliti", "sensible")]
STEP3 = [("triplicate", "triplic"), ("formative", "form"),
         ("formalize", "formal"), ("electriciti", "electric"),
         ("electrical", "electric"), ("hopeful", "hope"), ("goodness", "good")]
STEP4 = [("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
         ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
         ("adjustable", "adjust"), ("defensible", "defens"),
         ("irritant", "irrit"), ("replacement", "replac"),
         ("adjustment", "adjust"), ("dependent", "depend"),
         ("adoption", "adopt"), ("homologou", "homolog"),
         ("communism", "commun"), ("activate", "activ"),
         ("homologous", "homolog"), ("effective", "effect"),
         ("bowdlerize", "bowdler"), ("angulariti", "angular"),
         # (m>1 and (*S or *T)) ION: the stem must end in s or t
         ("division", "divis"), ("opinion", "opinion"), ("communion", "communion"),
         ("champion", "champion")]
STEP5A = [("probate", "probat"), ("rate", "rate"), ("cease", "ceas")]
STEP5B = [("controll", "control"), ("roll", "roll")]

# the same words through the whole pipeline (later steps keep shortening)
FULL = [
    ("caresses", "caress"), ("ponies", "poni"), ("cats", "cat"),
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("motoring", "motor"), ("conflated", "conflat"), ("troubled", "troubl"),
    ("sized", "size"), ("hopping", "hop"), ("falling", "fall"),
    ("filing", "file"), ("happy", "happi"), ("sky", "sky"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("valenci", "valenc"), ("hesitanci", "hesit"), ("digitizer", "digit"),
    ("operator", "oper"), ("feudalism", "feudal"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"),
    ("sensibiliti", "sensibl"), ("triplicate", "triplic"),
    ("electriciti", "electr"), ("electrical", "electr"),
    ("revival", "reviv"), ("allowance", "allow"), ("inference", "infer"),
    ("adoption", "adopt"), ("activate", "activ"), ("probate", "probat"),
    ("rate", "rate"), ("controll", "control"), ("roll", "roll"),
    ("grapes", "grape"), ("running", "run"), ("Oxygen", "oxygen"),
]


@pytest.mark.parametrize("word,expected", STEP1A)
def test_step1a(word, expected):
    assert _step1a(word) == expected


@pytest.mark.parametrize("word,expected", STEP1B)
def test_step1b(word, expected):
    assert _step1b(word) == expected


@pytest.mark.parametrize("word,expected", STEP1C)
def test_step1c(word, expected):
    assert _step1c(word) == expected


@pytest.mark.parametrize("word,expected", STEP2)
def test_step2(word, expected):
    assert _apply(word, _STEP2, 0) == expected


@pytest.mark.parametrize("word,expected", STEP3)
def test_step3(word, expected):
    assert _apply(word, _STEP3, 0) == expected


@pytest.mark.parametrize("word,expected", STEP4)
def test_step4(word, expected):
    assert _apply(word, _STEP4, 1) == expected


@pytest.mark.parametrize("word,expected", STEP5A)
def test_step5a(word, expected):
    assert _step5a(word) == expected


@pytest.mark.parametrize("word,expected", STEP5B)
def test_step5b(word, expected):
    assert _step5b(word) == expected


@pytest.mark.parametrize("word,expected", FULL)
def test_full_pipeline(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    assert stem("as") == "as"
    assert stem("I") == "i"


def test_measure():
    assert _measure("tr") == 0
    assert _measure("ee") == 0
    assert _measure("tree") == 0
    assert _measure("trouble") == 1
    assert _measure("oats") == 1
    assert _measure("private") == 2
    assert _measure("orrery") == 2


def test_idempotent_on_common_words():
    for word, _ in FULL:
        once = stem(word)
        assert stem(once) == stem(once)


# --- reference: the longest-match rule selection by scanning every rule ------

def reference_step(word: str, rules: dict, m_above: int) -> str:
    """Steps 2-4 as first written: test every rule's suffix, keep the longest
    match, then check its condition."""
    match = None
    for suffix in rules:
        if word.endswith(suffix) and (match is None or len(suffix) > len(match)):
            match = suffix
    if match is None:
        return word
    base = word[: len(word) - len(match)]
    if _measure(base) <= m_above:
        return word
    if match == "ion" and not base.endswith(("s", "t")):
        return word
    return base + rules[match]


def reference_stem(word: str) -> str:
    word = word.casefold()
    if len(word) <= 2:
        return word
    word = _step1c(_step1b(_step1a(word)))
    for rules, m_above in ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1)):
        word = reference_step(word, rules, m_above)
    return _step5b(_step5a(word))


SUFFIXES = sorted({*_STEP2, *_STEP3, *_STEP4, "s", "ies", "sses", "eed", "ed", "ing", "y"})
WORDS = st.lists(st.one_of(st.sampled_from(string.ascii_lowercase), st.sampled_from(SUFFIXES)),
                 min_size=1, max_size=6).map("".join)


@settings(max_examples=500, deadline=None)
@given(word=WORDS)
def test_stem_matches_the_scanning_reference(word):
    assert stem(word) == reference_stem(word)
    for rules, m_above in ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1)):
        assert _apply(word, rules, m_above) == reference_step(word, rules, m_above)


# --- reference: the replaced implementation, an independent oracle -----------

# pieces of drawn words: letters, every rule suffix, runs of y (a vowel or a
# consonant by position), ll and e (steps 5a/5b), uppercase letters (casefold),
# a line end (which `$` would match before) and non-ASCII letters
PIECES = [*string.ascii_lowercase, *SUFFIXES, "y", "yy", "yyy", "ll", "e",
          *string.ascii_uppercase, "\n", "é", "ß", "ﬁ"]
EDGE_WORDS = st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
REFERENCE_STEPS = ((_STEP2, reference._STEP2, 0), (_STEP3, reference._STEP3, 0),
                   (_STEP4, reference._STEP4, 1))


@pytest.mark.parametrize("word,expected", [
    ("national\n", "national\n"), ("Yyyyes", "yyyy"), ("naïvely", "naïv"), ("ﬁtness", "fit")])
def test_edge_inputs(word, expected):
    assert stem(word) == expected == reference.stem(word)


@settings(max_examples=600, deadline=None)
@given(word=EDGE_WORDS)
def test_stem_and_each_step_match_the_reference(word):
    assert stem(word) == reference.stem(word)
    assert _measure(word) == reference._measure(word)
    for step, expected_step in ((_step1a, reference._step1a), (_step1b, reference._step1b),
                                (_step1c, reference._step1c), (_step5a, reference._step5a),
                                (_step5b, reference._step5b)):
        assert step(word) == expected_step(word)
    for rules, reference_rules, m_above in REFERENCE_STEPS:
        assert _apply(word, rules, m_above) == reference._apply(word, reference_rules, m_above)


def test_stem_matches_the_reference_on_50000_seeded_words():
    rng = random.Random(22)
    words = ["".join(rng.choices(PIECES, k=rng.randint(1, 6))) for _ in range(50_000)]
    assert [w for w in words if stem(w) != reference.stem.__wrapped__(w)][:10] == []
