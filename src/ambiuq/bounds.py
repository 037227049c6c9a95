"""Entropy-threshold bounds on epistemic uncertainty, and counterexamples.

The two central functions invert the maximum-entropy curve ``h_max`` (for
the high-entropy lower bound on EU) and the binary entropy curve (for the
low-entropy probabilistic cap). Both inversions use plain bisection on a
monotone-decreasing bracket. The witness constructors make the
non-identifiability of EU from a prediction, and the failure mode of
ensemble mutual information, concrete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Categorical, kl
from .errors import DegenerateInputError, DomainError, SupportError
from .estimators import EnsemblePrediction, ensemble_mean_mi

BISECT_MAX_ITER = 200
# slack for floating-point endpoints like delta == ln(k)
EDGE = 1e-12


def _check_k(k) -> None:
    try:
        finite = math.isfinite(float(k))
    except OverflowError:
        finite = False
    if not finite or int(k) != k or k < 2:
        raise DomainError(f"k must be an integer >= 2 that converts to a finite float, got {k!r}")


@dataclass(frozen=True)
class BoundQuery:
    """Class count and entropy threshold (nats) for the bound evaluations."""

    k: int
    delta: float

    def __post_init__(self):
        _check_k(self.k)
        if not math.isfinite(self.delta):
            raise DomainError(f"delta must be finite, got {self.delta!r}")
        if not -EDGE <= self.delta <= math.log(self.k) + EDGE:
            raise DomainError(f"delta={self.delta!r} outside [0, ln k] for k={self.k}")


@dataclass(frozen=True)
class Thm2Bound:
    """Low-entropy bound report: the confidence level gamma_delta, the EU cap
    -ln(gamma_delta), and the (possibly vacuous) probability lower bound."""

    gamma_delta: float
    eu_cap: float
    prob_lower_bound: float


def h_max(alpha: float, k: int) -> float:
    """Maximum entropy of a k-class distribution whose largest mass is alpha.

    Equals -a*ln(a) - (1-a)*ln((1-a)/(k-1)); strictly decreasing on
    [1/k, 1], with h_max(1/k) = ln k and h_max(1) = 0.
    """
    _check_k(k)
    if not (1.0 / k - EDGE <= alpha <= 1.0 + EDGE):
        raise DomainError(f"alpha={alpha!r} outside [1/k, 1] for k={k}")
    return _h_max(min(max(alpha, 1.0 / k), 1.0), k)


def _h_max(alpha: float, k: int) -> float:
    """h_max without the checks, for alpha already in [1/k, 1]."""
    rest = 1.0 - alpha
    if rest == 0.0:
        return 0.0
    return float(-alpha * math.log(alpha) - rest * math.log(rest / (k - 1)))


def binary_entropy(gamma: float) -> float:
    """H_B(g) = -g*ln(g) - (1-g)*ln(1-g); symmetric with max ln 2 at 1/2."""
    if not (0.0 <= gamma <= 1.0):
        raise DomainError(f"gamma={gamma!r} outside [0, 1]")
    if gamma in (0.0, 1.0):
        return 0.0
    return float(-gamma * math.log(gamma) - (1.0 - gamma) * math.log1p(-gamma))


def _bisect_decreasing(fn, lo: float, hi: float, target: float) -> float:
    """Solve fn(x) = target for fn monotone decreasing on [lo, hi].

    Runs the bracket to collapse rather than to a tolerance on the value,
    so the root is machine-accurate even where the curve is flat.
    """
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_delta(query: BoundQuery) -> float:
    """Largest possible max-class probability among distributions with
    entropy >= delta; the unique root of h_max(a, k) = delta on [1/k, 1]."""
    k = query.k
    delta = min(max(query.delta, 0.0), math.log(k))
    # mid stays strictly inside (1/k, 1), where h_max's checks and clamp
    # never act, so the root equals bisecting h_max itself
    return _bisect_decreasing(lambda a: _h_max(a, k), 1.0 / k, 1.0, delta)


def gamma_delta(delta: float) -> float:
    """Smallest possible max-class probability among distributions with
    entropy <= delta; the root of H_B(g) = delta on [1/2, 1]."""
    if not (-EDGE <= delta <= math.log(2.0) + EDGE):
        raise DomainError(f"delta={delta!r} outside [0, ln 2]")
    delta = min(max(delta, 0.0), math.log(2.0))
    return _bisect_decreasing(binary_entropy, 0.5, 1.0, delta)


def eu_lower_bound_high_entropy(query: BoundQuery) -> float:
    """With zero aleatoric uncertainty, any prediction with H(p) >= delta has
    epistemic uncertainty at least -ln(alpha_delta)."""
    return float(-math.log(alpha_delta(query))) + 0.0


def thm2_probability_bound(
    delta: float, avg_loss: float, p_low_entropy: float
) -> Thm2Bound:
    """Probability bound that low-entropy predictions have low EU.

    Returns gamma_delta, the EU cap -ln(gamma_delta), and
    1 - avg_loss / (-ln(1-gamma_delta) * p_low_entropy). The lower bound is
    reported as-is even when negative (vacuous).
    """
    g = gamma_delta(delta)
    if not (math.isfinite(avg_loss) and avg_loss >= 0):
        raise DomainError(f"avg_loss={avg_loss!r} must be finite and >= 0")
    if p_low_entropy == 0.0:
        raise DegenerateInputError("p_low_entropy=0: no low-entropy mass to condition on")
    if not (0.0 < p_low_entropy <= 1.0):
        raise DomainError(f"p_low_entropy={p_low_entropy!r} outside (0, 1]")
    # at delta <= 0 (gamma_delta takes down to -EDGE), and below about 4e-15 in floating point
    if g == 1.0:
        raise DegenerateInputError(
            f"delta={delta!r} makes gamma_delta 1 and -ln(1-gamma_delta) infinite;"
            " the bound is undefined"
        )
    bound = float(1.0 - avg_loss / (-math.log1p(-g) * p_low_entropy))
    if not math.isfinite(bound):
        raise DegenerateInputError(
            f"avg_loss={avg_loss!r} over p_low_entropy={p_low_entropy!r} overflows the bound"
        )
    return Thm2Bound(gamma_delta=g, eu_cap=float(-math.log(g)), prob_lower_bound=bound)


def nonidentifiability_witnesses(
    p: Categorical,
) -> tuple[Categorical, Categorical, float, float]:
    """Two ground truths consistent with the same prediction p: one with zero
    epistemic uncertainty, one with EU = -ln(min_i p_i) >= ln K.

    Argmin ties break toward the lowest class index.
    """
    if (p.probs == 0).any():
        raise SupportError("witness construction requires strictly positive p")
    p_star_1 = p
    kl_1 = kl(p_star_1, p)
    j = int(np.argmin(p.probs))
    indicator = np.zeros(len(p))
    indicator[j] = 1.0
    p_star_2 = Categorical(p.classes, indicator)
    kl_2 = kl(p_star_2, p)
    return p_star_1, p_star_2, kl_1, kl_2


def mi_counterexample(ensemble: list[Categorical]) -> tuple[Categorical, float]:
    """The ground truth p* = mean member, for which true EU is exactly zero
    no matter how large the ensemble's mutual information is."""
    e = EnsemblePrediction(tuple(ensemble))
    p_bar, _ = ensemble_mean_mi([m.probs for m in e.members])
    p_star = Categorical(e.classes, p_bar)
    return p_star, kl(p_star, p_star)
