"""Monte Carlo experiment harness over the probability simplex.

Generates (ground truth, prediction) populations under controlled aleatoric
regimes, scores the prediction-side estimators against the true epistemic
uncertainty, and verifies the entropy-threshold bounds empirically:

- zero-AU: ground truths are simplex vertices, so EU = -ln p[y*];
- free-AU: ground truths are symmetric-Dirichlet(1) draws;
- high-AU: Dirichlet(1) draws rejected until H(p*) >= ln(k) - 0.1.

Predictions are Dirichlet draws centered on the ground truth with a
concentration ("noise") knob; larger noise means predictions closer to the
truth. All randomness flows from the config seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# bench/tracer.py wraps alpha_delta here; nothing calls it
from .bounds import (BoundQuery, alpha_delta, eu_lower_bound_high_entropy, gamma_delta,
                     thm2_probability_bound)
from .dirichlet import expected_epistemic, posterior
from .dist import row_cross_entropy, row_entropy, row_kl
from .errors import ConfigurationError, DegenerateInputError, DomainError, ValidationError
from .estimators import ensemble_mean_mi
from .metrics import EvalRecord, concordance

ZERO_AU = "zero-AU"
FREE_AU = "free-AU"
HIGH_AU = "high-AU"
REGIMES = (ZERO_AU, FREE_AU, HIGH_AU)

REJECTION_CAP = 1_000_000
# array cells one population may draw: 40x the bench's and 8x the largest
# test's; time and the draws grow linearly up to it (README, "Size limits")
MAX_CELLS = 50_000_000
BLOCK_CELLS = 2**15  # per row block of the scoring kernels, whose scratch it bounds
CONCENTRATION_FLOOR = 0.1  # keeps Dirichlet parameters positive at vertices
HIGH_AU_GAP = 0.1
BOUND_SLACK = 1e-9

DEFAULT_DELTAS = (math.log(1.5), math.log(2.0), math.log(3.0))
DEFAULT_GAMMAS = (1.0, 2.0, 5.0, 10.0, 100.0)


@dataclass(frozen=True)
class SimConfig:
    k: int = 3
    n: int = 10_000
    seed: int = 0
    regime: str = ZERO_AU
    noise: float = 10.0
    deltas: tuple = DEFAULT_DELTAS
    ensemble_size: int = 1
    counts_total: int = 0  # > 0 draws per-record multinomial counts

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError(f"k must be >= 2, got {self.k}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.regime not in REGIMES:
            raise ValidationError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not 0 < self.noise < math.inf:
            raise ValidationError(f"noise must be finite and > 0, got {self.noise}")
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")
        if self.counts_total < 0:
            raise ValidationError("counts_total must be >= 0")
        if self.counts_total > 2**63 - 1:  # numpy draws counts as C longs
            raise ValidationError(f"counts_total must be <= 2**63 - 1, got {self.counts_total}")
        # m ensemble members, or one truth and one prediction, of (n, k) each;
        # the high-AU sampler may draw up to REJECTION_CAP truths
        rows, what = self.n * max(self.ensemble_size, 2), "n*max(ensemble_size, 2)"
        if self.regime == HIGH_AU and rows < REJECTION_CAP:
            rows, what = REJECTION_CAP, f"{REJECTION_CAP} high-AU draws"
        if self.k * rows > MAX_CELLS:
            raise ValidationError(
                f"k*{what} is over the budget of {MAX_CELLS} array cells "
                f"(k={self.k}, n={self.n}, ensemble_size={self.ensemble_size})")
        for d in self.deltas:
            try:
                BoundQuery(self.k, d)
            except DomainError as exc:
                raise ValidationError(str(exc)) from exc


def _sample_truths(config: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    k = config.k
    if config.regime == ZERO_AU:
        out = np.zeros((n, k))
        out[np.arange(n), rng.integers(k, size=n)] = 1.0
        return out
    if config.regime == FREE_AU:
        return rng.dirichlet(np.ones(k), size=n)
    # high-AU: rejection from Dirichlet(1) on near-maximal entropy
    threshold = math.log(k) - HIGH_AU_GAP
    kept = []
    accepted = 0
    attempts = 0
    while accepted < n:
        batch = min(max(4096, 2 * (n - accepted)), REJECTION_CAP - attempts)
        if batch <= 0:
            raise ConfigurationError(
                f"high-AU rejection failed: fewer than {n} draws with "
                f"H >= ln({k}) - {HIGH_AU_GAP} in {REJECTION_CAP} attempts"
            )
        draws = rng.dirichlet(np.ones(k), size=batch)
        attempts += batch
        good = draws[row_entropy(draws) >= threshold]
        kept.append(good)
        accepted += good.shape[0]
    return np.concatenate(kept, axis=0)[:n]


def _sample_models(p_star: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    conc = noise * p_star
    conc += CONCENTRATION_FLOOR
    gammas = rng.gamma(conc)
    gammas /= gammas.sum(axis=-1, keepdims=True)
    return gammas


def _row_blocks(n: int, k: int) -> list:
    """Slices over n rows of k cells, BLOCK_CELLS // k rows (at least one) each."""
    step = max(1, BLOCK_CELLS // k)
    return [slice(i, i + step) for i in range(0, n, step)]


class QuestionIds(Sequence):
    """The row ids q000000, q000001, ... of n rows, formatted when read, so a
    writer that takes a block of rows at a time holds no n-long list."""

    def __init__(self, n: int):
        self._rows = range(n)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        rows = self._rows[i]
        return [f"q{j:06d}" for j in rows] if isinstance(rows, range) else f"q{rows:06d}"


@dataclass(frozen=True)
class ExperimentResult:
    config: SimConfig
    true_eu: np.ndarray
    report: dict
    p_star: np.ndarray
    p_model: np.ndarray
    scores: dict
    counts: Optional[np.ndarray] = None

    @property
    def question_ids(self) -> QuestionIds:
        return QuestionIds(self.config.n)

    @property
    def records(self) -> list:
        """One EvalRecord per row, built from the arrays on each access."""
        rows = zip(*(vals.tolist() for vals in self.scores.values()))
        scores = [dict(zip(self.scores, row)) for row in rows]
        return list(map(EvalRecord, self.question_ids, self.true_eu.tolist(), scores))


def _verify_thm1(delta: float, k: int, se: np.ndarray, eu: np.ndarray) -> dict:
    bound = eu_lower_bound_high_entropy(BoundQuery(k=k, delta=delta))
    high = se >= delta
    violations = int((eu[high] < bound - BOUND_SLACK).sum())
    return {
        "delta": delta,
        "eu_lower_bound": bound,
        "n_high_entropy": int(high.sum()),
        "violations": violations,
        "tolerance": BOUND_SLACK,
        "holds": violations == 0,
    }


def _verify_thm2(delta: float, se: np.ndarray, eu: np.ndarray) -> dict:
    out = {"delta": delta}
    try:
        gamma = gamma_delta(delta)
    except DomainError:
        gamma = None
    if gamma is None or gamma == 1.0:  # 1.0 at delta = 0, and below about 4e-15
        out["applicable"] = False
        out["note"] = ("delta outside (0, ln 2]" if gamma is None
                       else "gamma_delta rounds to 1 at this delta; the bound is undefined")
        return out
    low = se <= delta
    p_low = float(low.mean())
    if p_low == 0.0:
        out["applicable"] = False
        out["note"] = "no low-entropy predictions in this population"
        return out
    avg_loss = float(eu.mean())
    bound = thm2_probability_bound(delta, avg_loss, p_low)
    observed = float((eu[low] <= bound.eu_cap).mean())
    out.update(applicable=True, **asdict(bound), measured_avg_loss=avg_loss,
               p_low_entropy=p_low, observed_conditional_freq=observed,
               holds=observed >= bound.prob_lower_bound)
    return out


def run_experiment(config: SimConfig) -> ExperimentResult:
    """Draw a population, score estimators, and verify the bounds.

    Returns the true EU and estimator scores of each draw as arrays, plus a report with
    per-threshold verification results and concordances. With ensemble_size >= 2 the
    prediction is the mean of that many independent model draws, and the MI estimator is
    scored against EU = KL(p*||p_mean). The scores are taken one row block at a time.
    """
    rng = np.random.default_rng(config.seed)
    n, m = config.n, config.ensemble_size
    p_star = _sample_truths(config, rng, n)
    members = [_sample_models(p_star, config.noise, rng) for _ in range(m)]
    eu, au, tu, se = (np.empty(n) for _ in range(4))
    mi = np.empty(n) if m >= 2 else None
    for rows in _row_blocks(n, config.k):
        if mi is not None:
            # the block's mean replaces member 0's rows only once its MI is taken
            members[0][rows], mi[rows] = ensemble_mean_mi([x[rows] for x in members])
        truth, p = p_star[rows], members[0][rows]
        eu[rows], au[rows] = row_kl(truth, p), row_entropy(truth)
        tu[rows], se[rows] = row_cross_entropy(truth, p), row_entropy(p)
    p_model = members[0]
    del members  # members 1..m-1 go before the report is scored
    # KL >= 0 mathematically; clamp away float rounding at the zero boundary
    np.maximum(eu, 0.0, out=eu)
    scores = {"SE": se} if mi is None else {"SE": se, "MI": mi}

    counts = None
    if config.counts_total > 0:
        counts = rng.multinomial(config.counts_total, p_star)

    report: dict = {
        "config": {**asdict(config), "deltas": list(config.deltas)},
        "mean_aleatoric": float(au.mean()),
        "mean_epistemic": float(eu.mean()),
        "mean_total": float(tu.mean()),
    }
    if config.regime == ZERO_AU:
        report["theorem_1"] = [_verify_thm1(d, config.k, se, eu) for d in config.deltas]
        report["theorem_2"] = [_verify_thm2(d, se, eu) for d in config.deltas]
    else:
        report["theorem_1"] = report["theorem_2"] = (
            "not applicable: bounds assume the zero-AU regime"
        )
    conc = {}
    for name, vals in scores.items():
        try:
            conc[name] = concordance(eu, vals)
        except DegenerateInputError as exc:
            conc[name] = None
            report.setdefault("notes", []).append(f"concordance[{name}]: {exc}")
    report["concordance"] = conc

    return ExperimentResult(
        config=config,
        true_eu=eu,
        report=report,
        p_star=p_star,
        p_model=p_model,
        scores=scores,
        counts=counts,
    )


def ablation_truths(groups, n: int, gammas):
    """[(label, truth)] of n rows: the Dirichlet expected EU per gamma, then "point",
    KL(normalize(counts)||p) of float counts, one batched call per (gamma, group, row
    block). Each group is (row indices, counts (g, k), p_model (g, k)) of one support
    size k, not zero padded: a padded class would still get alpha = 1 and change E[KL]."""
    out = []
    for label in [*gammas, "point"]:
        truth = np.empty(n)
        for idx, c, p in groups:
            part = np.empty(len(c))
            for rows in _row_blocks(*c.shape):
                block = np.asarray(c[rows], dtype=float)
                if label == "point":
                    part[rows] = row_kl(block / block.sum(axis=-1, keepdims=True), p[rows])
                else:
                    part[rows] = expected_epistemic(posterior(block, label), p[rows])
            truth[idx] = part
        # KL >= 0 mathematically; clamp away float rounding at the zero boundary
        out.append((label, np.maximum(truth, 0.0)))
    return out


def gamma_ablation(truths, scores: dict):
    """Rows {"gamma", "estimator", "concordance"}: each estimator of ``scores``
    against each (label, truth) of :func:`ablation_truths`, label first."""
    return [
        {"gamma": label, "estimator": name, "concordance": concordance(truth, vals)}
        for label, truth in truths
        for name, vals in scores.items()
    ]
