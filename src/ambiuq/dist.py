"""Exact arithmetic on discrete distributions over named semantic classes.

All information quantities are in nats. The conventions 0*ln(0) = 0 and
0*ln(0/q) = 0 apply throughout, so indicator distributions and partially
overlapping supports need no special-casing by callers.

Two layers are provided: an object API on :class:`Categorical` (validated,
one distribution at a time) and row-wise array functions (``row_entropy``
etc.) that operate on 1-D vectors or 2-D batches and perform no validation.
The object API delegates to the array layer, so both compute identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, SupportError, ValidationError

# |sum(probs) - 1| <= SUM_TOL passes as-is; up to RENORM_TOL gets silently
# renormalized (file-format rounding); beyond that the input is rejected.
SUM_TOL = 1e-9
RENORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability distribution over an ordered list of named classes.

    Attributes:
        classes: unique, ordered class identifiers (opaque strings).
        probs: non-negative probabilities, one per class, summing to 1.
    """

    classes: tuple[str, ...]
    probs: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.classes == other.classes and np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash((self.classes, self.probs.tobytes()))

    def __post_init__(self):
        classes = tuple(str(c) for c in self.classes)
        # a copy, so that no later write to the caller's array reaches it
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ValidationError("probs must be a 1-D vector")
        if len(classes) != probs.shape[0]:
            raise ValidationError(
                f"{len(classes)} classes but {probs.shape[0]} probabilities"
            )
        if probs.shape[0] == 0:
            raise ValidationError("empty distribution")
        if len(set(classes)) != len(classes):
            raise ValidationError("class identifiers must be unique")
        # one pass over Python floats on the passing path; NumPy words the error
        if not all(0.0 <= v < math.inf for v in probs.tolist()):
            if not np.isfinite(probs).all():
                raise ValidationError("probabilities must be finite")
            raise ValidationError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            if abs(total - 1.0) <= RENORM_TOL:
                probs = probs / total
            else:
                raise ValidationError(f"probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Decomposition:
    """Total uncertainty split into its aleatoric and epistemic parts (nats)."""

    total: float
    aleatoric: float
    epistemic: float


def row_entropy(p: np.ndarray) -> np.ndarray | float:
    """Shannon entropy -sum(p*ln p) = CE(p, p) along the last axis, with 0*ln(0) = 0."""
    return row_cross_entropy(p, p)


def _log_support(p_star: np.ndarray, p: np.ndarray) -> tuple:
    """(p* > 0, ln p), ln p in a new array laid out as NumPy lays out p* op p:
    -inf where p* > 0 >= p, 0.0 where p* <= 0 or p is NaN."""
    mask = p_star > 0
    logged = mask & (p > 0)
    log_p = np.log(p, out=np.zeros_like(logged, dtype=float), where=logged)
    np.copyto(log_p, -np.inf, where=mask & (p <= 0))
    return mask, log_p


def row_kl(p_star: np.ndarray, p: np.ndarray) -> np.ndarray | float:
    """KL(p*||p) along the last axis; +inf where p lacks support that p* has.

    Computed as sum(p* * (ln p* - ln p)) over p* > 0, which makes
    KL(p||p) exactly 0.0 and KL(indicator||p) exactly -ln p[y*].
    """
    p_star = np.asarray(p_star, dtype=float)
    p = np.asarray(p, dtype=float)
    mask, terms = _log_support(p_star, p)
    log_ps = np.log(p_star, out=np.empty_like(p_star), where=mask)
    np.subtract(log_ps, terms, out=terms, where=mask)
    np.multiply(p_star, terms, out=terms, where=mask)
    return terms.sum(axis=-1)


def row_cross_entropy(p_star: np.ndarray, p: np.ndarray):
    """-sum(p* ln p) along the last axis; +inf where p lacks support that p* has."""
    p_star = np.asarray(p_star, dtype=float)
    p = np.asarray(p, dtype=float)
    mask, terms = _log_support(p_star, p)
    np.multiply(p_star, terms, out=terms, where=mask)
    return -terms.sum(axis=-1)


def row_js(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """Jensen-Shannon divergence along the last axis; symmetric, in [0, ln 2]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)
    js = 0.5 * row_kl(p, m) + 0.5 * row_kl(q, m)
    return np.clip(js, 0.0, np.log(2.0))  # rounding can overshoot ln 2 at disjoint supports


def canonical_merge(names, values, key) -> dict:
    """{key(name): summed value} in order of first key: names that share a
    key pool their values."""
    out: dict = {}
    for name, value in zip(names, values):
        k = key(name)
        out[k] = out.get(k, 0.0) + float(value)
    return out


def _require_same_classes(a: Categorical, b: Categorical) -> None:
    if a.classes != b.classes:
        raise ValidationError(
            "distributions are over different ordered class lists: "
            f"{a.classes} vs {b.classes}"
        )


def _require_support(p_star: Categorical, p: Categorical) -> None:
    _require_same_classes(p_star, p)
    bad = (p_star.probs > 0) & (p.probs == 0)
    if bad.any():
        missing = [c for c, b in zip(p_star.classes, bad) if b]
        raise SupportError(
            f"p assigns zero probability to {missing} where p* is positive; "
            "align the distributions first (see estimators.align)"
        )


def entropy(p: Categorical) -> float:
    """H(p) = -sum(p_i ln p_i) in nats; lies in [0, ln K]."""
    return float(row_entropy(p.probs))


def kl(p_star: Categorical, p: Categorical) -> float:
    """KL(p*||p) in nats; requires aligned classes and dominated support."""
    _require_support(p_star, p)
    return float(row_kl(p_star.probs, p.probs))


def cross_entropy(p_star: Categorical, p: Categorical) -> float:
    """CE(p*, p) = -sum(p*_i ln p_i) = H(p*) + KL(p*||p), in nats."""
    _require_support(p_star, p)
    return float(row_cross_entropy(p_star.probs, p.probs))


def decompose(p_star: Categorical, p: Categorical) -> Decomposition:
    """Split total uncertainty CE(p*, p) into aleatoric H(p*) plus epistemic KL(p*||p)."""
    _require_support(p_star, p)
    return Decomposition(
        total=float(row_cross_entropy(p_star.probs, p.probs)),
        aleatoric=float(row_entropy(p_star.probs)),
        epistemic=float(row_kl(p_star.probs, p.probs)),
    )


def js_divergence(p: Categorical, q: Categorical) -> float:
    """Jensen-Shannon divergence in nats; symmetric, bounded by ln 2."""
    _require_same_classes(p, q)
    return float(row_js(p.probs, q.probs))


def normalize(counts, classes=None) -> Categorical:
    """Turn non-negative counts into their relative-frequency distribution.

    Args:
        counts: non-negative reals with a positive sum.
        classes: optional class names; defaults to "c0", "c1", ...
    """
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValidationError("counts must be a non-empty 1-D vector")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ValidationError("counts must be finite and non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise DegenerateInputError("cannot normalize all-zero counts")
    if classes is None:
        classes = tuple(f"c{i}" for i in range(arr.shape[0]))
    # a list, so that Categorical's copy of its input is the only array made
    return Categorical(tuple(classes), [c / total for c in arr.tolist()])
