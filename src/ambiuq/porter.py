"""Porter stemmer (the classic 1980 rule set), self-contained.

Reduces English words to base forms so that surface variants like
"grapes"/"grape" or "running"/"run" collide during co-occurrence search.
Within each step the longest matching suffix selects the rule; if that
rule's condition fails, no rule in the step fires.
"""

from __future__ import annotations

import functools
import re

_VOWELS = "aeiou"
_Y_AFTER_CONS = re.compile("([^aeiou])y").sub
_VOWEL = re.compile("[aeiou]").search
_VOWEL_CONS = re.compile("[aeiou][^aeiou]").findall
_CVC = re.compile("[^aeiou][aeiou][^aeiouwxy]").fullmatch  # the last consonant is not w, x or y


def _resolve_y(word: str) -> str:
    """``word`` with each vowel y, a y after a consonant, as a. Each match takes that
    consonant too, so a y right after it reads as a consonant; most words skip the sub."""
    return _Y_AFTER_CONS(lambda pair: pair[1] + "a", word) if "y" in word else word


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions, the m of [C](VC)^m[V]."""
    return len(_VOWEL_CONS(_resolve_y(stem)))


def _has_vowel(stem: str) -> bool:
    return _VOWEL(_resolve_y(stem)) is not None


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _resolve_y(word)[-1] not in _VOWELS


def _ends_cvc(word: str) -> bool:
    return _CVC(_resolve_y(word)[-3:]) is not None


class _Rules(dict):
    """suffix -> replacement, and ``search``: the longest suffix in the table
    at the end of a string (``\\Z``, since ``$`` also matches before a final
    newline)."""

    def __init__(self, rules):
        super().__init__(rules)
        self.search = re.compile(f"(?:{'|'.join(sorted(self, key=len, reverse=True))})\\Z").search


# steps 2-4: suffix -> replacement; the rule fires when the stem's measure m
# is above the step's threshold (0 in steps 2 and 3, 1 in step 4)
_STEP2 = _Rules({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance", "izer": "ize",
    "abli": "able", "alli": "al", "entli": "ent", "eli": "e", "ousli": "ous",
    "ization": "ize", "ation": "ate", "ator": "ate", "alism": "al", "iveness": "ive",
    "fulness": "ful", "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
})
_STEP3 = _Rules({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic", "ful": "",
    "ness": "",
})
_STEP4 = _Rules(dict.fromkeys(
    ("al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent",
     "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize"), ""))
_LONGEST_SUFFIX = max(len(s) for rules in (_STEP2, _STEP3, _STEP4) for s in rules)


def _apply(word: str, rules: dict, m_above: int) -> str:
    """One of steps 2-4: the longest suffix of ``word`` in ``rules`` selects
    the rule, which fires if the stem's measure is above ``m_above`` (and,
    for step 4's ION, the stem ends in s or t)."""
    match = rules.search(word[-_LONGEST_SUFFIX:])
    if match is None:
        return word
    suffix = match.group()
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= m_above or suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem + rules[suffix]


def _step1a(word: str) -> str:
    if not word.endswith("s"):  # every rule's suffix
        return word
    for suffix, replacement in (("sses", "ss"), ("ies", "i"), ("ss", "ss")):
        if word.endswith(suffix):
            return word[: len(word) - len(suffix)] + replacement
    return word[:-1]  # the last rule: s -> ""


def _step1b(word: str) -> str:
    if not word.endswith(("ed", "ing")):  # eed ends in ed
        return word
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stem = word[:-2] if word.endswith("ed") else word[:-3]  # the guard leaves ed or ing
    if not _has_vowel(stem):
        return word
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_cons(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
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
    word = _apply(word, _STEP2, 0)
    word = _apply(word, _STEP3, 0)
    word = _apply(word, _STEP4, 1)
    word = _step5a(word)
    word = _step5b(word)
    return word
