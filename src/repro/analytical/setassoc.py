"""Set-associative miss prediction from stack-distance profiles.

Smith's classic model (A. J. Smith, "Cache Memories", Computing Surveys
1982 -- the paper's reference [12]) predicts the miss ratio of an A-way,
S-set cache from the *fully-associative* LRU stack-distance profile: under
the assumption that blocks map to sets uniformly at random, a reuse at
stack distance ``d`` misses exactly when at least ``A`` of the ``d - 1``
intervening distinct blocks land in the referenced block's set -- a
binomial tail::

    P(miss | d) = P[ Binomial(d - 1, 1/S) >= A ]

This lets a single profiling pass answer miss-ratio questions for *every*
(sets, associativity) geometry at once -- the measurement-side complement
of the paper's Equation 3 analysis (which needs the global miss ratio
improvement of each associativity step).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.stats import StackDistanceProfile
from repro.units import check_power_of_two


def miss_probability_by_distance(
    distances: np.ndarray, sets: int, associativity: int
) -> np.ndarray:
    """``P(miss | stack distance)`` for each distance under Smith's model."""
    # Imported here, not at module top: ``scipy.stats`` takes about a
    # second to import, and only this model needs it.
    from scipy.stats import binom

    if sets < 1 or associativity < 1:
        raise ValueError("sets and associativity must be at least 1")
    distances = np.asarray(distances, dtype=np.int64)
    if np.any(distances < 1):
        raise ValueError("stack distances are 1-based (1 = immediate reuse)")
    if sets == 1:
        # Fully associative: miss iff more than A-1 intervening blocks,
        # i.e. distance > associativity (exact, no approximation).
        return (distances > associativity).astype(np.float64)
    # P[X >= A] with X ~ Binomial(d - 1, 1/S).
    return binom.sf(associativity - 1, distances - 1, 1.0 / sets)


def predicted_miss_ratio(
    profile: StackDistanceProfile, sets: int, associativity: int
) -> float:
    """Predicted miss ratio of an (S, A) cache from a profile.

    Cold references always miss; reuse references miss with the binomial
    probability of their stack distance.
    """
    if profile.total_references == 0:
        return 0.0
    reuse_misses = float(
        miss_probability_by_distance(
            profile.distances, sets, associativity
        ).sum()
    )
    return (reuse_misses + profile.cold_references) / profile.total_references


def associativity_curve(
    profile: StackDistanceProfile,
    capacity_blocks: int,
    set_sizes: Sequence[int] = (1, 2, 4, 8),
) -> dict:
    """Predicted miss ratio at fixed capacity for each set size.

    ``capacity_blocks`` is held constant, so doubling the associativity
    halves the set count -- the paper's section 5 sweep, answered
    analytically from one profile.
    """
    check_power_of_two(capacity_blocks, "capacity_blocks")
    curve = {}
    for ways in set_sizes:
        check_power_of_two(ways, "set size")
        if ways > capacity_blocks:
            raise ValueError(
                f"{ways}-way does not fit in {capacity_blocks} blocks"
            )
        curve[ways] = predicted_miss_ratio(
            profile, capacity_blocks // ways, ways
        )
    return curve


def miss_ratio_spread(
    profile: StackDistanceProfile, capacity_blocks: int
) -> float:
    """Direct-mapped minus fully-associative predicted miss ratio: the
    conflict-miss headroom associativity can reclaim at this capacity."""
    direct = predicted_miss_ratio(profile, capacity_blocks, 1)
    full = predicted_miss_ratio(profile, 1, capacity_blocks)
    return direct - full
