"""Small numerical helpers shared across the samplers."""

from __future__ import annotations

import math

__all__ = ["gumbel_argmax", "log_gamma11_pdf", "crp_partition_log_mass"]

NEG_INF = float("-inf")


def gumbel_argmax(log_weights, rng) -> int:
    """Sample an index proportional to exp(log_weights).

    Gumbel-max with the chain's generator; numpy argmax breaks exact ties by
    the smallest index, which keeps runs reproducible.
    """
    noise = rng.gumbel(size=len(log_weights))
    best = 0
    best_val = NEG_INF
    for i, lw in enumerate(log_weights):
        val = lw + noise[i]
        if val > best_val:
            best_val = val
            best = i
    return best


def log_gamma11_pdf(x: float) -> float:
    """Log density of Gamma(1, 1) (the exponential prior on concentrations)."""
    if x <= 0:
        return NEG_INF
    return -x


def crp_partition_log_mass(block_sizes, alpha: float) -> float:
    """Log CRP mass of a partition with the given block sizes.

    Label-invariant closed form: alpha^K * prod (n_k - 1)! / prod_{i<n} (alpha + i).
    """
    n = 0
    total = 0.0
    for size in block_sizes:
        total += math.log(alpha) + math.lgamma(size)
        n += size
    total -= math.lgamma(alpha + n) - math.lgamma(alpha)
    return total
