"""Dirichlet posterior over the estimated ground truth distribution.

Starting from a uniform prior (all concentrations 1), observed co-occurrence
counts n_i update the posterior to alpha_i = 1 + gamma*n_i, where the scaling
factor gamma >= 1 controls how literally the counts are taken. Expected
aleatoric uncertainty E[H(p*)] and expected epistemic uncertainty
E[KL(p*||p)] under this posterior have closed forms in the digamma function.
They take the alpha that ``posterior`` returns: a k-vector, giving a float, or
an (n, k) batch with an (n, k) prediction matrix, giving n values row-wise.
"""

from __future__ import annotations

import numpy as np

from .dist import Categorical
from .errors import DomainError, SupportError, ValidationError

# Asymptotic expansion of psi(x): ln x - 1/(2x) - sum(c_j / x^(2j)).
# Coefficients are B_{2j}/(2j) for Bernoulli numbers B_2..B_16.
_PSI_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)
_PSI_SHIFT = 10.0


def digamma(x):
    """Digamma function psi(x) for x > 0; scalar or elementwise on arrays.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to shift arguments up to
    >= 10, then the asymptotic series, which is accurate to well below
    1e-10 relative error there.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.isfinite(arr).all() or (arr <= 0).any()):
        raise DomainError("digamma requires x > 0")
    xs = np.atleast_1d(arr).copy()
    acc = np.zeros_like(xs)
    for _ in range(int(_PSI_SHIFT)):
        mask = xs < _PSI_SHIFT
        if not mask.any():
            break
        acc[mask] += 1.0 / xs[mask]
        xs[mask] += 1.0
    inv2 = 1.0 / (xs * xs)
    tail = np.zeros_like(xs)
    for c in reversed(_PSI_COEFFS):
        tail = (tail + c) * inv2
    result = np.log(xs) - 0.5 / xs - tail - acc
    if arr.ndim == 0:
        return float(result[0])
    return result.reshape(arr.shape)


def posterior(counts, gamma: float = 1.0) -> np.ndarray:
    """Read-only concentrations alpha_i = 1 + gamma*n_i of the posterior from a
    uniform prior after observing the given counts: a k-vector, or an (n, k)
    matrix with one count vector per row, giving alpha of the same shape.

    Counts may be fractional (e.g. soft evidence); gamma must be in [1, inf).
    """
    if not 1.0 <= gamma < np.inf:
        raise DomainError(f"gamma={gamma!r} must be in [1, inf)")
    arr = np.asarray(counts, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValidationError("counts must be a non-empty k-vector or (n, k) matrix")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ValidationError("counts must be finite and non-negative")
    alpha = 1.0 + gamma * arr
    alpha.setflags(write=False)
    return alpha


def _weighted_sum(alpha: np.ndarray, terms) -> float | np.ndarray:
    """sum (a_i/a_0) * terms_i over the last axis: a float for one
    posterior, an array of n values for a batch."""
    out = ((alpha / alpha.sum(axis=-1, keepdims=True)) * terms).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _psi_gap(alpha: np.ndarray) -> np.ndarray:
    return digamma(alpha + 1.0) - digamma(alpha.sum(axis=-1, keepdims=True) + 1.0)


def expected_aleatoric(alpha: np.ndarray) -> float | np.ndarray:
    """E[H(p*)] under the posterior: -sum (a_i/a_0)(psi(a_i+1) - psi(a_0+1))."""
    return -_weighted_sum(alpha, _psi_gap(alpha))


def _probs_array(p, alpha: np.ndarray) -> np.ndarray:
    probs = p.probs if isinstance(p, Categorical) else np.asarray(p, dtype=float)
    if probs.shape != alpha.shape:
        raise ValidationError(
            f"prediction has shape {probs.shape}, posterior has {alpha.shape}"
        )
    if (probs <= 0).any():
        raise SupportError(
            "expected epistemic uncertainty requires a strictly positive "
            "prediction; impute first (see estimators.align)"
        )
    return probs


def expected_epistemic(alpha: np.ndarray, p) -> float | np.ndarray:
    """E[KL(p*||p)] under the posterior for a strictly positive prediction p
    of the posterior's shape.

    Equals sum (a_i/a_0)[psi(a_i+1) - psi(a_0+1) - ln p_i], which is the
    expected cross-entropy minus the expected aleatoric part.
    """
    return _weighted_sum(alpha, _psi_gap(alpha) - np.log(_probs_array(p, alpha)))


def expected_cross_entropy(alpha: np.ndarray, p) -> float | np.ndarray:
    """E[CE(p*, p)] = -sum (a_i/a_0) ln p_i under the posterior."""
    return -_weighted_sum(alpha, np.log(_probs_array(p, alpha)))
