"""Porter stemmer (the classic 1980 rule set), self-contained.

Reduces English words to base forms so that surface variants like
"grapes"/"grape" or "running"/"run" collide during co-occurrence search.
Within each step the longest matching suffix selects the rule; if that
rule's condition fails, no rule in the step fires.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions, the m of [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_cons(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_cons(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_cons(word, len(word) - 3)
        and not _is_cons(word, len(word) - 2)
        and _is_cons(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _longest_rule(word: str, rules):
    match = None
    for suffix, replacement, min_measure in rules:
        if word.endswith(suffix) and (match is None or len(suffix) > len(match[0])):
            match = (suffix, replacement, min_measure)
    return match


def _apply(word: str, rules) -> str:
    match = _longest_rule(word, rules)
    if match is None:
        return word
    suffix, replacement, min_measure = match
    stem = word[: len(word) - len(suffix)]
    if min_measure is not None and _measure(stem) <= min_measure:
        return word
    return stem + replacement


# (suffix, replacement, measure threshold m > t; None = unconditional)
_STEP2 = [
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
]
_STEP3 = [
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
]
_STEP4 = [
    ("al", "", 1), ("ance", "", 1), ("ence", "", 1), ("er", "", 1),
    ("ic", "", 1), ("able", "", 1), ("ible", "", 1), ("ant", "", 1),
    ("ement", "", 1), ("ment", "", 1), ("ent", "", 1), ("ion", "", 1),
    ("ou", "", 1), ("ism", "", 1), ("ate", "", 1), ("iti", "", 1),
    ("ous", "", 1), ("ive", "", 1), ("ize", "", 1),
]


def _step1a(word: str) -> str:
    for suffix, replacement in (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")):
        if word.endswith(suffix):
            return word[: len(word) - len(suffix)] + replacement
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_cons(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    match = _longest_rule(word, _STEP4)
    if match is None:
        return word
    suffix, _, _ = match
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


# pure and called once per token; text repeats words, so memoize per word
@functools.lru_cache(maxsize=None)
def stem(word: str) -> str:
    """Stem one lowercased-on-entry English word; length <= 2 is left alone."""
    word = word.casefold()
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply(word, _STEP2)
    word = _apply(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
