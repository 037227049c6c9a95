"""Rank metrics over (true EU, estimator score) collections.

Concordance follows the survival-analysis convention: pairs with tied true
EU are excluded, pairs with tied scores get half credit, so a perfect
estimator scores exactly 1.0 and a constant one exactly 0.5. AUC-ROC is
computed from midrank statistics (Mann-Whitney), which handles ties exactly
without curve interpolation.

``concordance(truth, score)`` and ``aucroc(truth, score, delta)`` count on
NumPy arrays. :func:`score_columns` turns :class:`EvalRecord` lists into
those arrays in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError


@dataclass(frozen=True)
class EvalRecord:
    """Per-question true epistemic uncertainty and estimator scores."""

    question_id: str
    true_eu: float
    scores: dict

    def __post_init__(self):
        if not (math.isfinite(self.true_eu) and self.true_eu >= 0):
            raise ValidationError(
                f"{self.question_id}: true_eu must be finite and >= 0, got {self.true_eu!r}"
            )
        bad = sorted(name for name, v in self.scores.items() if not math.isfinite(v))
        if bad:
            raise ValidationError(f"{self.question_id}: non-finite scores for {bad}")


def score_columns(records) -> dict:
    """{estimator: (truth, score)} arrays in one pass: names sorted, rows in record order."""
    columns: dict = {}
    for r in records:
        for name, value in r.scores.items():
            columns.setdefault(name, []).append((r.true_eu, value))
    return {name: tuple(np.asarray(columns[name], dtype=float).T) for name in sorted(columns)}


def _as_arrays(truth, score):
    truth, score = np.asarray(truth, dtype=float), np.asarray(score, dtype=float)
    if truth.ndim != 1 or truth.shape != score.shape:
        raise ValidationError(
            f"truth {truth.shape} and score {score.shape} must be 1-D of equal length"
        )
    if not (np.isfinite(truth).all() and np.isfinite(score).all()):
        raise ValidationError("truth and score must be finite")
    return truth, score


def _tie_pairs(values: np.ndarray) -> int:
    counts = np.unique(values, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j], for non-negative integer seq.

    Stable sorts by ever longer high-bit prefixes of the values form a radix
    sort. The pass for bit b moves each element past exactly the elements it
    forms such a pair with whose values first differ at bit b, so half the
    total displacement over all passes is the pair count.

    Each pass sorts its prefix ``seq >> b`` as the narrowest unsigned type
    that holds ``max(seq) >> b``: 8 bits on the highest passes, then 16, then
    32 or 64. NumPy's stable sort is a radix sort on 8- and 16-bit keys, and
    any stable sort gives the same permutation, so the count is unchanged.
    """
    n = seq.shape[0]
    top = int(seq.max())
    idx = np.arange(n)
    pos = idx.copy()
    moved = 0
    for b in reversed(range(top.bit_length())):
        order = np.argsort((seq >> b).astype(np.min_scalar_type(top >> b)), kind="stable")
        moved += int(np.abs(pos[order] - idx).sum())
        pos[order] = idx
    return moved // 2


def concordance(truth, score) -> float:
    """P(score ranks the higher-truth item higher), with 0.5 credit for score
    ties and truth ties excluded; 0.5 is chance, 1.0 is perfect."""
    truth, score = _as_arrays(truth, score)
    n = truth.shape[0]
    t_rank = np.unique(truth, return_inverse=True)[1]
    s_rank = np.unique(score, return_inverse=True)[1]
    comparable = n * (n - 1) // 2 - _tie_pairs(t_rank)
    if comparable == 0:
        raise DegenerateInputError("concordance undefined: no pairs with distinct true_eu")
    # in (truth, score) order, discordant pairs are exactly the strict
    # inversions of the score ranks
    discordant = _inversions(s_rank[np.lexsort((s_rank, t_rank))])
    score_tied = _tie_pairs(s_rank) - _tie_pairs(t_rank * n + s_rank)
    concordant = comparable - discordant - score_tied
    return (concordant + 0.5 * score_tied) / comparable


def aucroc(truth, score, delta: float) -> float:
    """Rank-based AUC separating uncertain (truth >= delta) from certain
    items by score; score ties credit 0.5."""
    truth, score = _as_arrays(truth, score)
    positive = truth >= delta
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError(
            f"aucroc undefined at delta={delta}: binarization left a single class"
        )
    _, inverse, counts = np.unique(score, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based, ties averaged
    rank_sum = float(midranks[inverse][positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class Summary:
    mean: float
    std: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray

    def histogram_rows(self):
        """(bin_left, bin_right, count) rows for CSV emission."""
        return [
            (float(self.bin_edges[i]), float(self.bin_edges[i + 1]), int(c))
            for i, c in enumerate(self.bin_counts)
        ]


def summarize(values, bins: int = 30) -> Summary:
    """Mean, population standard deviation, and a fixed-bin histogram."""
    as_is = isinstance(values, (np.ndarray, list, tuple))
    arr = np.asarray(values if as_is else list(values), dtype=float)
    if arr.size == 0:
        raise DegenerateInputError("cannot summarize an empty collection")
    try:
        counts, edges = np.histogram(arr, bins=bins)
    except ValueError as exc:  # a range too narrow for `bins` distinct edges
        raise DegenerateInputError(f"histogram: {exc}") from exc
    return Summary(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        bin_edges=edges,
        bin_counts=counts,
    )
