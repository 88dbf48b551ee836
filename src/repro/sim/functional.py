"""Functional (miss-ratio) simulation.

Runs a trace through a :class:`~repro.sim.hierarchy.CacheHierarchy` counting
hits, misses and traffic, with no notion of time.  This is the engine behind
the section 3 miss-ratio results and behind every sweep that only needs
event counts (execution time is affine in the cycle times given the counts
-- the paper's Equation 1 -- so most of the design-space exploration never
needs the slower timing simulator).

Cold start follows the paper's method: the caches are warmed on the trace's
warmup prefix with statistics collection disabled, so measured ratios
reflect steady-state behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.audit import maybe_audit_functional
from repro.cache.stats import CacheStats
from repro.sim.config import SystemConfig
from repro.sim.hierarchy import CacheHierarchy
from repro.trace.record import IFETCH, WRITE, Trace


@dataclass
class FunctionalResult:
    """Event counts from one functional simulation.

    All counts are post-warmup.  ``level_stats[i]`` aggregates the caches of
    level ``i+1`` (split halves merged).
    """

    trace_name: str
    config: SystemConfig
    #: CPU-issued reads (loads + instruction fetches) measured.
    cpu_reads: int
    #: CPU-issued writes (stores) measured.
    cpu_writes: int
    #: Instruction fetches measured (the base cycle count).
    cpu_ifetches: int
    level_stats: List[CacheStats]
    memory_reads: int
    memory_writes: int

    @property
    def depth(self) -> int:
        return len(self.level_stats)

    def _check_level(self, level: int) -> None:
        # Python's negative indexing would otherwise make level=0 silently
        # report the deepest level's statistics.
        if not 1 <= level <= len(self.level_stats):
            raise ValueError(
                f"level must be in 1..{len(self.level_stats)}, got {level}"
            )

    def local_read_miss_ratio(self, level: int) -> float:
        """Misses over reads *arriving at* ``level`` (1-based)."""
        self._check_level(level)
        return self.level_stats[level - 1].read_miss_ratio

    def global_read_miss_ratio(self, level: int) -> float:
        """Misses at ``level`` (1-based) over CPU reads (paper, section 2)."""
        self._check_level(level)
        if self.cpu_reads == 0:
            return 0.0
        return self.level_stats[level - 1].read_misses / self.cpu_reads

    def traffic_ratio(self, level: int) -> float:
        """Reads reaching ``level`` as a fraction of CPU reads: how strongly
        the upstream caches filter the reference stream."""
        self._check_level(level)
        if self.cpu_reads == 0:
            return 0.0
        return self.level_stats[level - 1].reads / self.cpu_reads


def measured_cpu_counts(trace: Trace) -> Tuple[int, int, int]:
    """CPU reads, writes and instruction fetches after ``trace``'s warmup."""
    kinds = trace.kinds[trace.warmup:]
    writes = int(np.count_nonzero(kinds == WRITE))
    return int(kinds.size) - writes, writes, int(np.count_nonzero(kinds == IFETCH))


def functional_result(
    trace: Trace,
    config: SystemConfig,
    level_stats: List[CacheStats],
    memory_reads: int,
    memory_writes: int,
    source: str,
) -> FunctionalResult:
    """An engine's counts as a result, with the CPU counts of ``trace``."""
    cpu_reads, cpu_writes, cpu_ifetches = measured_cpu_counts(trace)
    result = FunctionalResult(
        trace_name=trace.name,
        config=config,
        cpu_reads=cpu_reads,
        cpu_writes=cpu_writes,
        cpu_ifetches=cpu_ifetches,
        level_stats=level_stats,
        memory_reads=memory_reads,
        memory_writes=memory_writes,
    )
    # Audit gates on an env flag but only validates-and-raises; it never
    # alters the result, so memo keys need not include it.
    return maybe_audit_functional(trace, result, source=source)  # repro: noqa RPR008


class FunctionalSimulator:
    """Runs traces against a machine configuration, counting events."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def run(self, trace: Trace) -> FunctionalResult:
        """Simulate ``trace`` and return post-warmup counts."""
        hierarchy = CacheHierarchy(self.config)
        access = hierarchy.access
        for kind, address in hierarchy.warm(trace):
            access(kind, address)
        return functional_result(
            trace,
            self.config,
            hierarchy.level_stats(),
            hierarchy.memory_traffic.reads,
            hierarchy.memory_traffic.writes,
            source="reference",
        )


def simulate_miss_ratios(trace: Trace, config: SystemConfig) -> FunctionalResult:
    """One-shot convenience wrapper around :class:`FunctionalSimulator`."""
    return FunctionalSimulator(config).run(trace)
