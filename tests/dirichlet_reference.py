"""Monte Carlo reference for tests/test_dirichlet.py and test_acceptance.py:
independent estimates of E[H(p*)] and E[KL(p*||p)] under a Dirichlet
posterior, against which ambiuq.dirichlet's closed forms are checked.

Draws are generated in fixed-size blocks, each from its own child seed of the
caller's seed, so a longer run at one seed starts with a shorter run's draws.
"""

from __future__ import annotations

import numpy as np

from ambiuq.dist import row_entropy, row_kl

_MC_BLOCK = 1 << 14


def _mc_draws(d, draws: int, seed) -> np.ndarray:
    blocks = []
    n_blocks = (draws + _MC_BLOCK - 1) // _MC_BLOCK
    remaining = draws
    for child in np.random.SeedSequence(seed).spawn(n_blocks):
        size = min(_MC_BLOCK, remaining)
        blocks.append(np.random.default_rng(child).dirichlet(d.alpha, size=size))
        remaining -= size
    return np.concatenate(blocks, axis=0)


def mc_expected_aleatoric(d, draws: int, seed) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of H(p*) over posterior draws."""
    hs = row_entropy(_mc_draws(d, draws, seed))
    return float(hs.mean()), float(hs.std(ddof=1) / np.sqrt(draws))


def mc_expected_epistemic(d, p, draws: int, seed) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of KL(p*||p) over posterior draws,
    for a prediction array p of the posterior's shape."""
    kls = row_kl(_mc_draws(d, draws, seed), np.asarray(p, dtype=float))
    return float(kls.mean()), float(kls.std(ddof=1) / np.sqrt(draws))
