"""Linear-scan oracle for tests of ambiuq.corpus: co-occurrence counts taken
over every chunk, independent of the inverted index."""

from ambiuq.corpus import stem_terms


def brute_force_count(chunks, keywords, answer):
    """Chunks whose stemmed terms hold every stemmed term of the keywords and
    the answer."""
    required = set()
    for keyword in keywords:
        required |= stem_terms(keyword)
    required |= stem_terms(answer)
    return sum(1 for c in chunks if required <= c.stemmed_terms)
