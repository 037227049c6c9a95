"""Semantic predictive distributions from sampled answers, and the
prediction-side uncertainty estimators.

``cluster`` aggregates the sequence probabilities of sampled answers within
semantic classes and normalizes. ``align`` puts an estimated ground truth
and a model distribution onto one joint support, imputing 0 on the
ground-truth side and a small epsilon on the model side (the model assigns
some probability to any sequence, so its support is treated as universal).
Estimators: semantic entropy, maximum sentence probability, and ensemble
mutual information.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dist import Categorical, canonical_merge, row_entropy, row_kl
from .errors import EstimatorUnavailableError, ValidationError

DEFAULT_EPSILON = 0.01

_PUNCT_RE = re.compile(r"[^\w\s]")


def _normalize_text(s: str) -> str:
    return " ".join(_PUNCT_RE.sub("", s.casefold()).split())


class EquivalenceMap:
    """Canonicalizes answer/class strings into semantic class identifiers.

    The default is case-folding plus whitespace/punctuation normalization
    with exact matching. An explicit mapping (for example pre-computed by an
    external entailment tool) can be layered on top. Chains are resolved to
    their end, and a chain that runs into a cycle to the cycle's least member,
    so canonical() is idempotent whatever the mapping's order.
    """

    def __init__(self, mapping: Optional[dict] = None):
        self._mapping = {}
        for key, value in (mapping or {}).items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise ValidationError(f"equivalence mapping needs strings, got {key!r}: {value!r}")
            self._mapping[_normalize_text(key)] = _normalize_text(value)

    def canonical(self, s: str) -> str:
        out = _normalize_text(s)
        seen = []
        while out in self._mapping and out not in seen:
            seen.append(out)
            out = self._mapping[out]
        return min(seen[seen.index(out):]) if out in seen else out


@dataclass(frozen=True)
class AnswerSample:
    """One sampled answer with its full-sequence probability."""

    text: str
    seq_prob: float
    cluster: Optional[str] = None

    def __post_init__(self):
        if not (0.0 < self.seq_prob <= 1.0):
            raise ValidationError(
                f"seq_prob must be in (0, 1], got {self.seq_prob!r} for {self.text!r}"
            )


@dataclass(frozen=True)
class AnswerSampleSet:
    """All sampled answers for one question, plus optional extras that
    enable additional estimators (beam-search max prob, ensemble members)."""

    question_id: str
    samples: tuple
    best_answer_prob: Optional[float] = None
    ensemble: Optional[tuple] = None

    def __post_init__(self):
        if not self.samples:
            raise ValidationError(f"{self.question_id}: samples must be non-empty")
        if self.best_answer_prob is not None and not (0.0 < self.best_answer_prob <= 1.0):
            raise ValidationError(
                f"{self.question_id}: best_answer_prob must be in (0, 1]"
            )


@dataclass(frozen=True)
class EnsemblePrediction:
    """Member distributions over one shared, ordered class list."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValidationError("ensemble must have at least one member")
        classes = self.members[0].classes
        for member in self.members[1:]:
            if member.classes != classes:
                raise ValidationError(
                    "ensemble members are not aligned to one ordered class list"
                )

    @property
    def classes(self):
        return self.members[0].classes


def cluster_probs(samples, canonical) -> dict:
    """The {class: probability} of :func:`cluster`, from the samples alone."""
    sums = canonical_merge((s.text if s.cluster is None else s.cluster for s in samples),
                           (s.seq_prob for s in samples), canonical)
    total = sum(sums.values())
    return {c: v / total for c, v in sums.items()}


def cluster(sample_set: AnswerSampleSet, eq: Optional[EquivalenceMap] = None) -> Categorical:
    """Semantic distribution: per-class sums of sequence probabilities,
    normalized. Duplicate answer texts count once per occurrence; classes
    appear in order of first occurrence."""
    probs = cluster_probs(sample_set.samples, (eq or EquivalenceMap()).canonical)
    return Categorical(tuple(probs), list(probs.values()))


def impute_rows(rows, epsilon: float) -> np.ndarray:
    """(n, k) probabilities from n rows of length k, each a model on its
    joint support with None for every class the model lacks: epsilon there,
    and each row that had a None renormalized."""
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    imputed = [None in row for row in rows]
    out = np.array([[epsilon if p is None else p for p in row] for row in rows])
    if any(imputed):
        out[imputed] /= out[imputed].sum(axis=-1, keepdims=True)
    return out


def align(
    p_star: Categorical,
    p_model: Categorical,
    eq: Optional[EquivalenceMap] = None,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple:
    """Put (p*, p) onto the joint canonical support.

    Classes missing from p* get probability 0; classes missing from the
    model get epsilon, after which the model side is renormalized. The
    result always satisfies the KL support precondition.
    """
    eq = eq or EquivalenceMap()
    star = canonical_merge(p_star.classes, p_star.probs.tolist(), eq.canonical)
    model = canonical_merge(p_model.classes, p_model.probs.tolist(), eq.canonical)
    joint = tuple(dict.fromkeys([*star, *model]))
    return (Categorical(joint, [star.get(c, 0.0) for c in joint]),
            Categorical(joint, impute_rows([[model.get(c) for c in joint]], epsilon)[0]))


def align_ensemble(
    members, eq: Optional[EquivalenceMap] = None, epsilon: float = DEFAULT_EPSILON
) -> EnsemblePrediction:
    """Align ensemble members onto their joint canonical support, imputing
    epsilon (then renormalizing) wherever a member lacks a class."""
    eq = eq or EquivalenceMap()
    merged = [canonical_merge(m.classes, m.probs.tolist(), eq.canonical) for m in members]
    joint = tuple(dict.fromkeys([c for m in merged for c in m]))
    rows = impute_rows([[m.get(c) for c in joint] for m in merged], epsilon)
    return EnsemblePrediction(tuple(Categorical(joint, row) for row in rows))


def msp(best_answer_prob: Optional[float]) -> float:
    """1 - (beam-search max answer probability); higher = more uncertain.

    The beam-search probability is required input; the clustered maximum is
    deliberately not substituted for it.
    """
    if best_answer_prob is None:
        raise EstimatorUnavailableError(
            "MSP needs best_answer_prob (beam-search max); none was provided"
        )
    if not (0.0 < best_answer_prob <= 1.0):
        raise ValidationError(
            f"best_answer_prob must be in (0, 1], got {best_answer_prob!r}"
        )
    return 1.0 - best_answer_prob


def ensemble_mean_mi(members) -> tuple:
    """(p_bar, MI) of m member arrays, each (k,) or (n, k): the member mean, and
    mean_i KL(p_i || p_bar) per row, in nats. The members are added one by one into
    a float p_bar and get one KL call each, so (n, k) members need no (n, m, k)
    array and may be views of one."""
    p_bar = members[0].astype(float)
    for member in members[1:]:
        p_bar += member
    p_bar /= len(members)
    return p_bar, np.stack([row_kl(member, p_bar) for member in members], axis=-1).mean(axis=-1)


def mutual_information(e: EnsemblePrediction) -> float:
    """Ensemble mutual information: mean_i KL(p_i || p_bar), in nats.

    Equals H(p_bar) - mean_i H(p_i); bounded by the entropy of the mean.
    """
    return float(ensemble_mean_mi([m.probs for m in e.members])[1])


def score_questions(questions, canonical, epsilon: float) -> tuple:
    """``eval`` on arrays: (support groups, scores) of (ground truth, prediction)
    pairs, scores one {"SE": ..., "MI": ...} dict per pair, MI only where there is an
    ensemble, each value the object API's. One pass does each pair's string work
    (canonical merges, joint supports) and files its rows by support shape, keeping no
    pair; then each shape is scored by one call per quantity. A group is (row indices,
    counts (g, k), imputed model (g, k))."""
    supports, clusters, ensembles, scores = {}, {}, {}, []
    for i, (gt, pred) in enumerate(questions):
        model = cluster_probs(pred.samples, canonical)
        counts = canonical_merge(gt.answers, gt.counts, canonical)
        joint = tuple(dict.fromkeys([*counts, *model]))
        supports.setdefault(len(joint), []).append(
            (i, [counts.get(c, 0.0) for c in joint], [model.get(c) for c in joint]))
        clusters.setdefault(len(model), []).append((i, list(model.values())))
        if pred.ensemble is not None:
            merged = [canonical_merge(m.classes, m.probs.tolist(), canonical)
                      for m in pred.ensemble]
            joint = tuple(dict.fromkeys([c for m in merged for c in m]))
            ensembles.setdefault((len(merged), len(joint)), []).append(
                (i, [[m.get(c) for c in joint] for m in merged]))
        scores.append({})
    for group in clusters.values():
        rows, probs = zip(*group)
        for i, se in zip(rows, row_entropy(np.array(probs)).tolist()):
            scores[i]["SE"] = se
    for group in ensembles.values():
        rows, members = zip(*group)
        stacked = impute_rows([row for m in members for row in m], epsilon)
        mi = ensemble_mean_mi(list(
            stacked.reshape(len(members), len(members[0]), -1).transpose(1, 0, 2)))[1]
        for i, value in zip(rows, mi.tolist()):
            scores[i]["MI"] = value
    groups = [(np.array(idx), np.array(counts, dtype=float), impute_rows(models, epsilon))
              for idx, counts, models in (zip(*rows) for rows in supports.values())]
    return groups, scores
