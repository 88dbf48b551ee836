"""Single-pass simulation of the deepest level's sets x ways plane.

The paper's dense grids (Figures 3-5, Equations 1-3) sweep cache size and
set size together, and even the vectorised fast path pays one full trace
replay per grid cell.  Inclusion makes most of that redundant, along
both axes of the deepest level: its associativity and its set count.
One pass serves a **group** of cells that differ only in those two --
the whole (set count x associativity) plane of one front.

**The associativities.**  Mattson's inclusion property for LRU: at a fixed
(set count, block size), the content of an A-way set-associative cache
is exactly the top ``A`` entries of the per-set LRU stack, for *every*
``A`` at once.  One replay that records each access's **stack
distance** -- the depth at which its block sits -- therefore yields
exact hit and miss counts for every associativity simultaneously: an
A-way cache hits precisely the accesses with distance ``<= A``, so
per-associativity miss counts are suffix sums of one histogram.

Writebacks follow from the same distances.  Per block, each access
leaves a **reach**: the smallest associativity whose cache holds the
block dirty -- 1 after a write, none after a read that missed the whole
stack, and after a read hit at distance ``d`` the larger of its old reach
and ``d`` (a deeper excursion means that cache already evicted, and
wrote back, the block after its last write, then re-fetched it clean).
Until its next access finds it at distance ``d'``, the block sinks from
depth 1, and each crossing from depth ``A`` to ``A + 1`` (``A < d'``) is
the A-way cache evicting it -- dirty iff the reach is at most ``A``.  So
each interval between two accesses to a block adds one writeback to
every associativity ``A`` from its reach up to ``d' - 1``; an interval
still open at the end of the pass closes at the block's final depth
(beyond the stack if it fell off).  The warmup boundary is a cut inside
the pass: crossings count from it on, so an interval that straddles it
counts only the crossings below the depth the block held at the cut
(:func:`repro.sim.fast._stack_dirt`).  Nothing of this is
tracked per step: the kernel's loop moves tags only, and one vectorised
pass over the distances, grouped by block, derives every writeback.

The pass is the fast path's LRU stack replay
(:func:`repro.sim.fast._stack_replay`) at width 16 -- the same kernel and
the same derivation run every set-associative level of the fast path at
its own width; a chunk boundary carries the stack's tags and each
entry's derived reach.

**The set counts.**  Set refinement by bit selection (Hill & Smith,
1989): caches of ``S`` and ``2S`` sets index by the low bits of the
block number, so each set of the smaller splits into two of the larger,
and at any associativity the smaller LRU cache's content is a subset of
the larger's.  So a pass takes a member list of set counts: one
width-16 stack per set count, in one pass.  An access whose set's
previous access was to the same block sits at distance 1 and moves
nothing, so each member's stack replays only its direct-mapped misses --
the accesses that open a residency episode, each carrying its episode's
writes -- and counts the rest as distance-1 hits; the warmup cut is
remapped into each member's input.  An episode of a larger member is a
run of a smaller member's, so one stable sort by the smallest member's
set and one stable partition per further index bit find every member's
episodes, each member refining only the previous member's.
On the F5-1 plane of one front the members' inputs shrink from 18k to
5.5k of the stream's 28.5k run heads, and ten set counts cost about
two fifths of ten full passes.  A chunk boundary carries one ``(tags,
reach)`` per member; every set's first access in a chunk opens an
episode, so an episode opened in an earlier chunk keeps its writes.

**The pass follows its widest member.**  A pass whose configuration is
set-associative at the deepest level is the width-16 stack pass above,
every :data:`STACK_ASSOCIATIVITIES` member at each set count.  A
direct-mapped one wants no stack: the same refinement gives every
member set count its own set order from one pass, and in each an access
hits iff the previous access in its set order is the same block.  That
pass is the fast path's direct-mapped kernel
(:func:`repro.sim.fast._simulate_dm_level`) with one member per set
count -- the one-member call is every direct-mapped level of the fast
path -- at about a fifth of a width-16 pass; a chunk boundary carries
each member's resident blocks.  Its miss mask is the distance (0 a hit,
1 beyond a one-way stack) and its post-warmup dirty victims are the
one-way member's writebacks, so both kernels feed one histogram.  It
serves the paper's direct-mapped L2 size axis, and its solo twin over
the CPU stream.

Every pass is fed by the fast path's replay driver
(:class:`repro.sim.fast._Front`), whole or chunked.  Consecutive
accesses to one block are collapsed into the first before either kernel
runs: the rest are distance-1 hits at every width and set count.  Scope:
the deepest level of a :func:`repro.sim.fast.fast_eligible`
configuration when it is write-back and its replacement is genuinely
LRU (a direct-mapped deepest level qualifies under any stated policy --
one way leaves nothing to choose); write-through levels above it only
change the stream it is fed.  Upstream levels are identical across a
group.  A whole-trace pass takes their output streams from the fast
path's front cache (:func:`repro.sim.fast._cached_front`), the same
cache the fast path's whole-trace runs of deeper hierarchies read, so a
sweep's groups and the lone cells it runs per cell replay them once per
trace, not once per cell.  Count-identity with the reference simulator
is enforced by ``tests/sim/test_replay_oracle.py`` and
``tests/sim/test_stackdist.py``; the sweep planner that fans grid groups
out over the worker pool lives in :mod:`repro.core.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.cache.policy import WritePolicy
from repro.cache.stats import CacheStats
from repro.sim import memo
from repro.sim.config import SystemConfig, format_config
from repro.sim.fast import (
    MAX_FAST_ASSOCIATIVITY,
    _BUCKET_WRITE,
    Stream,
    _cached_front,
    _dm_replay,
    _Front,
    _new_state,
    _stack_replay,
    fast_eligible,
    front_projection,
    memory_traffic,
)
from repro.sim.functional import FunctionalResult, functional_result
from repro.trace.record import Trace
from repro.trace.store import replay_chunk_records
from repro.units import log2_int

#: The associativities one stack pass derives: every power of two the
#: fast path accepts (:class:`~repro.sim.config.LevelConfig` rejects
#: non-powers-of-two, so this is the whole eligible axis).
STACK_ASSOCIATIVITIES = (1, 2, 4, 8, 16)

#: Stack width of a set-associative pass -- one column per way of the
#: widest derived cache.  A direct-mapped pass has width 1.
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
    """The identity of a configuration's sets x ways plane: its front
    (:func:`repro.sim.fast.front_projection`) and the deepest level's
    block size and policies.

    Two eligible configurations with equal grid projections differ at
    most in the deepest level's set and way counts, and the total size
    that scales with them, so one pass serves both.
    """
    deepest = config.levels[-1]
    return (
        *front_projection(config),
        (
            deepest.block_bytes,
            deepest.split,
            deepest.write_policy,
            deepest.fetch_blocks,
            deepest.write_allocate,
            deepest.prefetch,
        ),
    )


def member_config(
    config: SystemConfig, associativity: int, sets: Optional[int] = None
) -> SystemConfig:
    """The group member with ``associativity`` ways and ``sets`` sets
    (by default ``config``'s) at the deepest level.

    The size scales with the way and set counts; the replacement policy
    is pinned to LRU where it matters (the stack pass *is* LRU).
    """
    index = len(config.levels) - 1
    deepest = config.levels[index]
    if sets is None:
        sets = deepest.geometry().sets
    size = sets * deepest.block_bytes * associativity
    if deepest.split:
        size *= 2
    changes = {"associativity": associativity, "size_bytes": size}
    if associativity > 1:
        changes["replacement"] = "lru"
    return config.with_level(index, **changes)


@dataclass(frozen=True)
class StackdistGridResult:
    """Every member result of one single-pass grid group.

    ``results`` holds one :class:`~repro.sim.functional.FunctionalResult`
    per member, keyed by its configuration, which differs from the
    group's only in the deepest level's way and set counts, and the size
    that scales with them: per member set count, ascending, every
    associativity in :data:`STACK_ASSOCIATIVITIES` order up to the
    pass's width (1 for a direct-mapped pass).
    """

    results: Tuple[FunctionalResult, ...]

    def result_for(self, config: SystemConfig) -> FunctionalResult:
        """The member whose configuration is functionally ``config``."""
        key = memo.functional_projection(config)
        for result in self.results:
            if memo.functional_projection(result.config) == key:
                return result
        raise KeyError(f"{format_config(config)} is not a member of this pass")


def _deepest_input(
    trace: Trace, front: _Front
) -> Tuple[List[CacheStats], Iterable[List[Stream]]]:
    """The statistics of the levels above the deepest, and per chunk the
    streams they feed it.

    A whole-trace pass takes the upstream streams from the fast path's
    front cache (:func:`repro.sim.fast._cached_front`); a chunked pass
    bypasses it -- entries hold whole-trace streams, exactly what
    chunked replay exists to avoid -- and so does a deepest level with
    nothing above it, which reads the CPU streams.  The statistics fill
    in as the chunks are replayed.
    """
    if front.chunked or front.levels == 0:
        return front.level_stats, front.streams(span="stackdist.chunk")
    upstream, sides = _cached_front(trace, front.config)
    return upstream, [sides]


def _one_way_histogram(
    miss: np.ndarray,
    at_top: np.ndarray,
    counted: Sequence[Tuple[int, np.ndarray]],
) -> np.ndarray:
    """A direct-mapped member's distance histogram.  Its miss mask is the
    distance -- 0 a hit, 1 beyond the one-way stack -- so from
    ``at_top``, every access at distance 1, each counted band's misses
    move from the band's first bin to its second: two counts, where a
    bincount over the whole stream costs several times as much."""
    hist = at_top.copy()
    for start, in_band in counted:
        misses = np.count_nonzero(miss & in_band)
        hist[start] -= misses
        hist[start + 1] += misses
    return hist


def _plane_pass(
    trace: Trace, front: _Front, set_counts: Tuple[int, ...], width: int
) -> Tuple[List[Tuple[SystemConfig, CacheStats]], List[CacheStats]]:
    """One pass over the streams ``front`` feeds the deepest level, one
    member per set count of ``set_counts`` and associativity up to
    ``width``: each member's configuration and deepest-level statistics,
    and the upstream statistics.

    Width 16 is the stack pass (:func:`repro.sim.fast._stack_replay`,
    each set count's stack replaying only its direct-mapped misses);
    width 1 is the direct-mapped kernel
    (:func:`repro.sim.fast._dm_replay`), whose miss mask is the distance
    and whose post-warmup dirty victims are the one-way writebacks.
    Post-warmup accesses are histogrammed by stack distance per
    statistics bucket (``hist[d-1]`` for distance ``d`` in 1..width,
    index ``width`` beyond the stack, a miss at every member
    associativity); the A-way member misses the suffix from ``A`` on,
    and its writebacks are the pass's ``writebacks[A-1]``.  A chunked
    pass carries one state per member set count and side (a split first
    level is two member caches).
    """
    shift = log2_int(front.config.levels[-1].block_bytes) - front.bits
    warmup_key = trace.warmup * 4**front.levels
    upstream, chunks = _deepest_input(trace, front)
    states = [
        [_new_state(sets, width) for sets in set_counts] if front.chunked else None
        for _ in range(front.sides)
    ]
    bins = width + 1
    read_hist = np.zeros((len(set_counts), bins), dtype=np.int64)
    write_hist = np.zeros((len(set_counts), bins), dtype=np.int64)
    writebacks = np.zeros((len(set_counts), width), dtype=np.int64)
    for sides in chunks:
        for (blocks, is_write, bucket, keys), side_states in zip(sides, states):
            # Each access's histogram band: counted reads, counted
            # writes, then the warmup, so one histogram per member fills
            # both.
            band = (bucket == _BUCKET_WRITE).view(np.int8) * np.int8(bins)
            band[keys < warmup_key] = 2 * bins
            if width == 1:
                at_top = np.bincount(band, minlength=3 * bins)
                counted = [(start, band == start) for start in (0, bins)]
                outcomes = (
                    (
                        _one_way_histogram(miss, at_top, counted),
                        np.count_nonzero(victim_keys >= warmup_key),
                    )
                    for miss, _, victim_keys in _dm_replay(
                        blocks >> shift, is_write, keys, set_counts, side_states
                    )
                )
            else:
                outcomes = (
                    (np.bincount(dist + band, minlength=3 * bins), part_wb)
                    for dist, _, part_wb in _stack_replay(
                        blocks >> shift, is_write, set_counts, width, side_states,
                        cut=int(np.searchsorted(keys, warmup_key)),
                    )
                )
            for member, (hist, part_wb) in enumerate(outcomes):
                read_hist[member] += hist[:bins]
                write_hist[member] += hist[bins : 2 * bins]
                writebacks[member] += part_wb

    members = []
    for member, sets in enumerate(set_counts):
        reads = int(read_hist[member].sum())
        writes = int(write_hist[member].sum())
        for ways in STACK_ASSOCIATIVITIES:
            if ways > width:
                break
            read_misses = int(read_hist[member, ways:].sum())
            write_misses = int(write_hist[member, ways:].sum())
            stats = CacheStats(
                reads=reads,
                read_misses=read_misses,
                writes=writes,
                write_misses=write_misses,
                writebacks=int(writebacks[member, ways - 1]),
                blocks_fetched=read_misses + write_misses,
            )
            members.append((member_config(front.config, ways, sets), stats))
    return members, upstream


def run_stackdist_grid(
    trace: Trace, config: SystemConfig, set_counts: Sequence[int] = ()
) -> StackdistGridResult:
    """Replay ``trace`` once against the grid group ``config`` heads: a
    member per set count of ``set_counts`` (ascending powers of two; by
    default ``config``'s deepest set count alone) and per associativity
    its kernel derives.

    The kernel follows ``config``'s deepest associativity.  A
    set-associative head gets the width-16 stack pass, every
    :data:`STACK_ASSOCIATIVITIES` member at each set count; a
    direct-mapped head gets the direct-mapped kernel, one direct-mapped
    member per set count.  Returns the exact functional result of every
    member (counts identical to :func:`repro.sim.fast.run_functional` on
    each member configuration).  With ``REPRO_TRACE_CHUNK`` set (and
    smaller than the trace), the replay streams in chunks through
    persistent state -- same counts, bounded residency.
    """
    if not stackdist_eligible(config):
        raise ValueError(
            "configuration outside the stack-distance path (the deepest "
            "level must be fast-eligible LRU); use run_functional"
        )
    set_counts = tuple(set_counts)
    if set_counts and (
        list(set_counts) != sorted(set(set_counts))
        or any(sets < 1 or sets & (sets - 1) for sets in set_counts)
    ):
        raise ValueError(
            "a grid group's member set counts are ascending distinct "
            f"powers of two; got {set_counts}"
        )
    if not set_counts:
        set_counts = (config.levels[-1].geometry().sets,)
    width = _WIDTH if config.levels[-1].associativity > 1 else 1
    # Chunked accumulation is count-identical to the one-chunk pass
    # (parity tests); REPRO_TRACE_CHUNK tunes residency only.
    front = _Front(trace, config, config.depth - 1, replay_chunk_records())  # repro: noqa RPR008
    with telemetry.span(
        "stackdist.pass",
        width=width,
        sets=set_counts[-1],
        set_counts=list(set_counts),
        records=len(trace),
        chunked=front.chunked,
    ):
        members, upstream = _plane_pass(trace, front, set_counts, width)

    results = []
    for member, stats in members:
        # Memory traffic is whatever leaves the deepest level, counted
        # by the fast path's one rule.
        memory_reads, memory_writes = memory_traffic(stats)
        results.append(functional_result(
            trace,
            member,
            [replace(stats) for stats in upstream] + [stats],
            memory_reads=memory_reads,
            memory_writes=memory_writes,
            source="stackdist",
        ))
    return StackdistGridResult(results=tuple(results))
