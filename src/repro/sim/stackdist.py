"""Single-pass stack-distance simulation of the associativity axis.

The paper's dense grids (Figures 3-5, Equations 1-3) sweep cache size and
set size together, and even the vectorised fast path pays one full trace
replay per grid cell.  Mattson's inclusion property makes most of that
redundant for LRU: at a fixed (set count, block size), the content of an
A-way set-associative cache is exactly the top ``A`` entries of the
per-set LRU stack, for *every* ``A`` at once.  One replay that records
each access's **stack distance** -- the depth at which its block sits --
therefore yields exact hit and miss counts for every associativity
simultaneously: an A-way cache hits precisely the accesses with distance
``<= A``, so per-associativity miss counts are suffix sums of one
histogram.

Writebacks need one more invariant.  Per resident block the kernel
tracks ``reach``: the deepest stack position the block has occupied
since it was last written (``_CLEAN`` when it has not been written
since it entered the stack).  The A-way cache's copy is dirty iff
``reach <= A`` -- a deeper excursion means that cache already evicted
(and wrote back) the block after that write and re-fetched it clean.
When an access pushes an entry from depth ``A`` to ``A + 1``, the A-way
cache evicts it at exactly that access; a dirty crossing is therefore
one writeback at associativity ``A``, stamped with the pushing access's
order key (the fast path's victim-key rule, which decides whether the
writeback lands before or after the warmup boundary).

The pass is the fast path's LRU stack kernel
(:func:`repro.sim.fast._stack_pass`) at width 16 -- the same kernel runs
every set-associative level of the fast path at its own width -- fed by
the fast path's replay driver (:class:`repro.sim.fast._Front`), whole or
chunked.  Scope: the deepest level of a
:func:`repro.sim.fast.fast_eligible` configuration when it is write-back
and its replacement is genuinely LRU (a direct-mapped deepest level
qualifies under any stated policy -- one way leaves nothing to choose);
write-through levels above it only change the stream it is fed.
Upstream levels are identical across the derived grid.  A whole-trace
pass takes their output streams from the fast path's front cache
(:func:`repro.sim.fast._cached_front`), the same cache the fast path's
whole-trace runs of deeper hierarchies read, so a sweep's groups and the
lone direct-mapped cells it runs per cell replay them once per trace,
not once per cell.  Count-identity with the reference simulator is
enforced by ``tests/sim/test_replay_oracle.py`` and
``tests/sim/test_stackdist.py``; the sweep planner that fans grid groups
out over the worker pool lives in :mod:`repro.core.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro import telemetry
from repro.cache.policy import WritePolicy
from repro.cache.stats import CacheStats
from repro.sim import memo
from repro.sim.config import SystemConfig
from repro.sim.fast import (
    MAX_FAST_ASSOCIATIVITY,
    _BUCKET_WRITE,
    _cached_front,
    _Front,
    _stack_pass,
    fast_eligible,
)
from repro.sim.functional import FunctionalResult, functional_result
from repro.trace.record import Trace
from repro.trace.store import replay_chunk_records
from repro.units import log2_int

#: The associativities one stack pass derives: every power of two the
#: fast path accepts (:class:`~repro.sim.config.LevelConfig` rejects
#: non-powers-of-two, so this is the whole eligible axis).
STACK_ASSOCIATIVITIES = (1, 2, 4, 8, 16)

#: Stack width -- one column per way of the widest derived cache.
_WIDTH = MAX_FAST_ASSOCIATIVITY


def stackdist_eligible(config: SystemConfig) -> bool:
    """True when one stack pass reproduces the fast path for every
    member associativity.

    Requires a fast-eligible configuration whose deepest level is
    write-back -- the writeback invariant above assumes dirty blocks --
    and really replaces LRU; a direct-mapped deepest level is eligible
    under any stated replacement policy, replacement being irrelevant at
    one way.  Write-through levels above it change only the stream the
    pass replays.
    """
    if not fast_eligible(config):
        return False
    deepest = config.levels[-1]
    if deepest.write_policy is not WritePolicy.WRITE_BACK:
        return False
    return deepest.replacement == "lru" or deepest.associativity == 1


def grid_projection(config: SystemConfig) -> Tuple:
    """The identity of a configuration's single-pass group.

    Two eligible configurations with equal grid projections differ at
    most in the deepest level's associativity (and the total size that
    scales with it), so one stack-distance pass serves both.
    """
    deepest = config.levels[-1]
    return (
        config.enforce_inclusion,
        tuple(memo.level_projection(level) for level in config.levels[:-1]),
        (
            deepest.geometry().sets,
            deepest.block_bytes,
            deepest.split,
            deepest.write_policy,
            deepest.fetch_blocks,
            deepest.write_allocate,
            deepest.prefetch,
        ),
    )


def member_config(config: SystemConfig, associativity: int) -> SystemConfig:
    """The group member with ``associativity`` ways at the deepest level.

    Holds the set count fixed, so the size scales with the way count;
    the replacement policy is pinned to LRU where it matters (the stack
    pass *is* LRU).
    """
    index = len(config.levels) - 1
    deepest = config.levels[index]
    size = deepest.geometry().sets * deepest.block_bytes * associativity
    if deepest.split:
        size *= 2
    changes = {"associativity": associativity, "size_bytes": size}
    if associativity > 1:
        changes["replacement"] = "lru"
    return config.with_level(index, **changes)


@dataclass(frozen=True)
class StackdistGridResult:
    """Every member result of one single-pass grid group.

    ``results`` pairs each derived associativity (in
    :data:`STACK_ASSOCIATIVITIES` order) with a full
    :class:`~repro.sim.functional.FunctionalResult` whose configuration
    differs from the group's only in the deepest level's way count and
    size.
    """

    results: Tuple[Tuple[int, FunctionalResult], ...]

    def result_for(self, associativity: int) -> FunctionalResult:
        for ways, result in self.results:
            if ways == associativity:
                return result
        raise KeyError(
            f"associativity {associativity} is not derived by the stack "
            f"pass (members: {STACK_ASSOCIATIVITIES})"
        )


def _grid_histograms(
    trace: Trace, front: _Front
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[CacheStats]]:
    """The width-16 stack pass over the streams ``front`` feeds the
    deepest level.

    Returns ``(read_hist, write_hist, writebacks, upstream)``:

    * ``read_hist[d-1]`` / ``write_hist[d-1]`` count post-warmup
      accesses of each statistics bucket with stack distance ``d``
      (1..16); index 16 counts distances beyond the stack, a miss at
      every member associativity.
    * ``writebacks[A-1]`` counts post-warmup dirty evictions from the
      A-way member cache.
    * ``upstream`` holds the statistics of the levels above.

    A whole-trace pass takes its upstream streams from the fast path's
    front cache (:func:`repro.sim.fast._cached_front`); a chunked pass
    bypasses it -- entries hold whole-trace streams, exactly what chunked
    replay exists to avoid.
    """
    deepest = front.config.levels[-1]
    sets = deepest.geometry().sets
    shift = log2_int(deepest.block_bytes) - front.bits
    warmup_key = trace.warmup * 4**front.levels
    if front.chunked or front.levels == 0:
        upstream = front.level_stats
        chunks = front.streams(span="stackdist.chunk")
    else:
        upstream, sides = _cached_front(trace, front.config)
        chunks = [sides]
    # A split first level is two member caches: one stack per side.
    states = [front.new_state(sets, _WIDTH) for _ in range(front.sides)]
    read_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    write_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    writebacks = np.zeros(_WIDTH, dtype=np.int64)
    for sides in chunks:
        for (blocks, is_write, bucket, keys), state in zip(sides, states):
            dist, _, _, part_wb = _stack_pass(
                blocks >> shift, is_write, keys, sets, _WIDTH, state, warmup_key
            )
            counted = keys >= warmup_key
            stores = bucket == _BUCKET_WRITE
            read_hist += np.bincount(dist[counted & ~stores], minlength=_WIDTH + 1)
            write_hist += np.bincount(dist[counted & stores], minlength=_WIDTH + 1)
            writebacks += part_wb
    return read_hist, write_hist, writebacks, upstream


def run_stackdist_grid(trace: Trace, config: SystemConfig) -> StackdistGridResult:
    """Replay ``trace`` once against ``config``'s grid group.

    Returns the exact functional result of every member associativity
    (counts identical to :func:`repro.sim.fast.run_functional` on each
    member configuration).  With ``REPRO_TRACE_CHUNK`` set (and smaller
    than the trace), the replay streams in chunks through persistent
    state -- same histograms, bounded residency.
    """
    if not stackdist_eligible(config):
        raise ValueError(
            "configuration outside the stack-distance path (the deepest "
            "level must be fast-eligible LRU); use run_functional"
        )
    # Chunked histogram accumulation is count-identical to the one-chunk
    # pass (parity tests); REPRO_TRACE_CHUNK tunes residency only.
    front = _Front(trace, config, config.depth - 1, replay_chunk_records())  # repro: noqa RPR008
    with telemetry.span(
        "stackdist.pass",
        sets=config.levels[-1].geometry().sets,
        records=len(trace),
        chunked=front.chunked,
    ):
        read_hist, write_hist, writebacks, upstream = _grid_histograms(trace, front)

    reads = int(read_hist.sum())
    writes = int(write_hist.sum())
    members = []
    for ways in STACK_ASSOCIATIVITIES:
        read_misses = int(read_hist[ways:].sum())
        write_misses = int(write_hist[ways:].sum())
        stats = CacheStats(
            reads=reads,
            read_misses=read_misses,
            writes=writes,
            write_misses=write_misses,
            writebacks=int(writebacks[ways - 1]),
            blocks_fetched=read_misses + write_misses,
        )
        # Memory traffic is whatever leaves the deepest level: the
        # demand fetches and the dirty victims.  The key-threshold
        # algebra makes the post-warmup cuts coincide (an event with
        # level key k is counted iff k >= warmup_key, and its memory
        # key 4k+1 or 4k+2 is counted iff it exceeds 4*warmup_key).
        result = functional_result(
            trace,
            member_config(config, ways),
            [replace(stats) for stats in upstream] + [stats],
            memory_reads=stats.blocks_fetched,
            memory_writes=stats.writebacks,
            source="stackdist",
        )
        members.append((ways, result))
    return StackdistGridResult(results=tuple(members))
