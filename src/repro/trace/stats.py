"""Trace statistics and locality profiling.

Two kinds of measurement live here:

* :class:`TraceStatistics` -- cheap whole-trace counts (read/write mix,
  footprints) used to sanity-check generated workloads against the paper's
  section 2 characterisation.
* :func:`stack_distance_profile` -- an exact LRU stack-distance profile
  computed as a vectorised offline dominance count.  The survival function
  of the profile *is* the fully-associative LRU miss-ratio-versus-size
  curve, which is how the generator calibration (0.69 per doubling) is
  validated empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.trace.record import IFETCH, READ, WRITE, Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace."""

    records: int
    ifetches: int
    loads: int
    stores: int
    unique_blocks: int
    block_bytes: int

    @property
    def reads(self) -> int:
        """Reads in the paper's sense: loads plus instruction fetches."""
        return self.ifetches + self.loads

    @property
    def data_references(self) -> int:
        return self.loads + self.stores

    @property
    def data_read_fraction(self) -> float:
        """Fraction of data references that are loads."""
        if self.data_references == 0:
            return 0.0
        return self.loads / self.data_references

    @property
    def data_ref_per_ifetch(self) -> float:
        """Data references per instruction fetch (~0.5 for the base CPU)."""
        if self.ifetches == 0:
            return 0.0
        return self.data_references / self.ifetches

    @property
    def footprint_bytes(self) -> int:
        return self.unique_blocks * self.block_bytes

    @classmethod
    def measure(cls, trace: Trace, block_bytes: int = 16) -> "TraceStatistics":
        """Compute statistics for ``trace`` at ``block_bytes`` granularity."""
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        kinds = trace.kinds
        blocks = trace.addresses // np.uint64(block_bytes)
        return cls(
            records=len(trace),
            ifetches=int(np.count_nonzero(kinds == IFETCH)),
            loads=int(np.count_nonzero(kinds == READ)),
            stores=int(np.count_nonzero(kinds == WRITE)),
            unique_blocks=int(np.unique(blocks).size),
            block_bytes=block_bytes,
        )


@dataclass
class StackDistanceProfile:
    """Result of :func:`stack_distance_profile`.

    ``distances`` holds one entry per *reuse* (references to never-seen
    blocks are counted separately in ``cold_references``).
    """

    distances: np.ndarray
    cold_references: int
    block_bytes: int

    @property
    def reuse_references(self) -> int:
        return int(self.distances.size)

    @property
    def total_references(self) -> int:
        return self.reuse_references + self.cold_references

    def miss_ratio_at(self, capacity_blocks: int) -> float:
        """Fully-associative LRU miss ratio for a ``capacity_blocks`` cache.

        A reuse reference misses when its stack distance exceeds the
        capacity; cold references always miss.
        """
        if self.total_references == 0:
            return 0.0
        misses = int(np.count_nonzero(self.distances > capacity_blocks))
        return (misses + self.cold_references) / self.total_references

    def survival(self, depths: np.ndarray) -> np.ndarray:
        """``P(distance > depth)`` over reuse references, per depth."""
        if self.reuse_references == 0:
            return np.zeros(len(depths))
        sorted_distances = np.sort(self.distances)
        counts = len(sorted_distances) - np.searchsorted(
            sorted_distances, depths, side="right"
        )
        return counts / len(sorted_distances)


def stack_distance_profile(
    trace: Trace,
    block_bytes: int = 16,
    max_references: Optional[int] = None,
) -> StackDistanceProfile:
    """Exact LRU stack distances for every reference in ``trace``.

    The stack distance of a reuse at time ``t`` of a block last used at
    ``prev(t)`` is one plus the number of distinct blocks touched in
    between -- the positions ``u`` in ``(prev(t), t)`` whose block is not
    touched again before ``t``, i.e. with ``next(u) > t``.  That is an
    offline dominance count, answered without a per-record loop: each
    window ``(prev(t), t)`` splits into at most ``2 log2 n`` aligned
    dyadic blocks, two per level at most; at level ``L`` the keys
    ``(u >> L) * (n + 1) + next(u)`` are sorted once, so every block's
    count is its end minus one :func:`numpy.searchsorted` for
    ``next(u) <= t``.  One level's sorted keys are alive at a time.
    Cost: ``O(n log^2 n)`` in vectorised sorts and searches, ``O(n)``
    memory.

    ``max_references`` truncates the analysis to the first references.
    """
    blocks = trace.addresses // np.uint64(block_bytes)
    if max_references is not None:
        blocks = blocks[:max_references]
    n = len(blocks)
    # prev/next use of each position's block (next is n when none).
    order = np.argsort(blocks, kind="stable")
    same = blocks[order[1:]] == blocks[order[:-1]]
    successors = np.full(n, n, dtype=np.int64)
    successors[order[:-1][same]] = order[1:][same]
    predecessors = np.full(n, -1, dtype=np.int64)
    predecessors[order[1:][same]] = order[:-1][same]
    reuses = np.flatnonzero(predecessors >= 0)
    # Every reuse at t counts the positions with next > t in its window
    # ``[lo, hi)``, walked up the dyadic levels: an odd edge at level L
    # is a whole level-L block inside the window.
    lo = predecessors[reuses] + 1
    hi = reuses.copy()
    distances = np.ones(len(reuses), dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    level = 0
    while True:
        open_ = lo < hi
        if not open_.any():
            break
        left = np.flatnonzero(open_ & (lo & 1 == 1))
        right = np.flatnonzero(open_ & (hi & 1 == 1))
        if len(left) or len(right):
            keys = (positions >> level) * (n + 1) + successors
            keys.sort()
            for queries, block in ((left, lo[left]), (right, hi[right] - 1)):
                # Block k's keys fill sorted slots [k << L, (k + 1) << L).
                later = ((block + 1) << level) - np.searchsorted(
                    keys, block * (n + 1) + reuses[queries] + 1
                )
                distances[queries] += later
            del keys
        lo += lo & 1
        hi -= hi & 1
        lo >>= 1
        hi >>= 1
        level += 1
    return StackDistanceProfile(
        distances=distances,
        cold_references=n - len(reuses),
        block_bytes=block_bytes,
    )
