"""Pure-Python oracles for tests of ambiuq.metrics: concordance and AUCROC by
enumerating every pair, independent of the sort-based implementations."""


def brute_concordance(true_eus, scores):
    """Share of pairs with distinct truths that the scores order the same way,
    a score tie counting half; None when every truth is tied."""
    credit = 0.0
    comparable = 0
    n = len(true_eus)
    for i in range(n):
        for j in range(i + 1, n):
            if true_eus[i] == true_eus[j]:
                continue
            comparable += 1
            direction = (true_eus[i] - true_eus[j]) * (scores[i] - scores[j])
            if direction > 0:
                credit += 1.0
            elif scores[i] == scores[j]:
                credit += 0.5
    return credit / comparable if comparable else None


def brute_aucroc(true_eus, scores, delta):
    """Share of (truth >= delta, truth < delta) pairs whose scores rank the
    first above, a score tie counting half; None when either side is empty."""
    pos = [s for t, s in zip(true_eus, scores) if t >= delta]
    neg = [s for t, s in zip(true_eus, scores) if t < delta]
    if not pos or not neg:
        return None
    credit = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn:
                credit += 0.5
    return credit / (len(pos) * len(neg))
