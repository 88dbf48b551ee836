"""Single-pass simulation of the deepest level's sets x ways plane.

The paper's dense grids (Figures 3-5, Equations 1-3) sweep cache size and
set size together, and even the vectorised fast path pays one full trace
replay per grid cell.  Inclusion makes most of that redundant, along
both axes of the deepest level: its associativity and its set count.
One pass serves a **group** of cells that differ only in those two --
the whole (set count x associativity) plane of one front.

**The ways axis.**  Mattson's inclusion property for LRU: at a fixed
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

**The sets axis.**  Set refinement by bit selection (Hill & Smith,
1989): caches of ``S`` and ``2S`` sets index by the low bits of the
block number, so each set of the smaller splits into two of the larger,
and at any associativity the smaller LRU cache's content is a subset of
the larger's.  So the ways axis takes a member list of set counts: one
width-16 stack per set count, in one pass.  An access whose set's
previous access was to the same block sits at distance 1 and moves
nothing, so each member's stack replays only its direct-mapped misses --
the accesses that open a residency episode, each carrying its episode's
writes -- and counts the rest as distance-1 hits; the warmup cut is
remapped into each member's input.  An episode of a larger member is a
run of a smaller member's, so one stable sort by the smallest member's
set and one stable partition per further index bit find every member's
episodes, each member refining only the previous member's (the
direct-mapped kernel below reads its misses off the same refinement).
On the F5-1 plane of one front the members' inputs shrink from 18k to
5.5k of the stream's 28.5k run heads, and ten set counts cost about
two fifths of ten full passes.  A chunk boundary carries one ``(tags,
reach)`` per member; every set's first access in a chunk opens an
episode, so an episode opened in an earlier chunk keeps its writes.

A direct-mapped deepest level left alone on its ways axis has a kernel
of its own along the sets axis.  Sorting the stream stably by the
smallest member's set index and then partitioning stably on each
further index bit gives every member its own set order from one pass,
and in each an access hits iff the previous access in its set order is
the same block.  The pass is
the fast path's direct-mapped kernel
(:func:`repro.sim.fast._simulate_dm_level`) with one member per
requested set count -- the one-member call is every direct-mapped level
of the fast path -- and each member is counted by the fast path's own
rule (:func:`repro.sim.fast._accumulate_level`); a chunk boundary
carries each member's resident blocks.  It serves the direct-mapped
cells a sweep leaves alone on the ways axis: the paper's L2 size axis,
and its solo twin over the CPU stream.

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
    _accumulate_level,
    _cached_front,
    _dm_replay,
    _Front,
    _new_state,
    _stack_replay,
    fast_eligible,
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

#: Stack width -- one column per way of the widest derived cache.
_WIDTH = MAX_FAST_ASSOCIATIVITY

#: The two axes a pass names: every associativity at each of its member
#: set counts (the width-16 stack pass, a stack per set count), or every
#: member set count of a direct-mapped deepest level (the direct-mapped
#: kernel's members).
WAYS, SETS = "ways", "sets"


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


def grid_projection(config: SystemConfig, axis: Optional[str] = WAYS) -> Tuple:
    """The identity of a configuration's single-pass group on ``axis``.

    Two eligible configurations with equal grid projections differ at
    most in the deepest level's associativity (:data:`WAYS`) or set
    count (:data:`SETS`), and the total size that scales with it, so one
    pass serves both.  With ``axis`` ``None`` they may differ in both:
    the sets x ways plane one pass with a stack per set count serves.
    """
    deepest = config.levels[-1]
    if axis == WAYS:
        along: Tuple = (deepest.geometry().sets,)
    elif axis == SETS:
        along = (deepest.associativity,)
    else:
        along = ()
    return (
        config.enforce_inclusion,
        tuple(memo.level_projection(level) for level in config.levels[:-1]),
        (
            *along,
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
    group's only in the deepest level's way and set counts (the ways
    axis: per member set count, ascending, every associativity in
    :data:`STACK_ASSOCIATIVITIES` order) or set count alone (the sets
    axis, ascending), and the size that scales with them.
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


def _ways_axis(
    trace: Trace, front: _Front, set_counts: Tuple[int, ...]
) -> Tuple[List[Tuple[SystemConfig, CacheStats]], List[CacheStats]]:
    """The width-16 stack pass over the streams ``front`` feeds the
    deepest level, one stack per member set count of ``set_counts``
    (:func:`repro.sim.fast._stack_replay`, each member replaying only
    its direct-mapped misses): every
    :data:`STACK_ASSOCIATIVITIES` member's configuration and
    deepest-level statistics at each set count, and the upstream
    statistics.

    Post-warmup accesses are histogrammed by stack distance per
    statistics bucket (``hist[d-1]`` for distance ``d`` in 1..16, index
    16 beyond the stack, a miss at every member associativity); the
    A-way member misses the suffix from ``A`` on, and its writebacks are
    the pass's ``writebacks[A-1]``.
    """
    shift = log2_int(front.config.levels[-1].block_bytes) - front.bits
    warmup_key = trace.warmup * 4**front.levels
    upstream, chunks = _deepest_input(trace, front)
    # A split first level is two member caches: one stack per side and
    # member set count.
    states = [
        [_new_state(sets, _WIDTH) for sets in set_counts] if front.chunked else None
        for _ in range(front.sides)
    ]
    read_hist = np.zeros((len(set_counts), _WIDTH + 1), dtype=np.int64)
    write_hist = np.zeros((len(set_counts), _WIDTH + 1), dtype=np.int64)
    writebacks = np.zeros((len(set_counts), _WIDTH), dtype=np.int64)
    for sides in chunks:
        for (blocks, is_write, bucket, keys), side_states in zip(sides, states):
            # Each access's histogram band: counted reads, counted
            # writes, then the warmup, so one bincount per member fills
            # both histograms.
            band = (bucket == _BUCKET_WRITE).view(np.int8) * np.int8(_WIDTH + 1)
            band[keys < warmup_key] = 2 * (_WIDTH + 1)
            outcomes = _stack_replay(
                blocks >> shift, is_write, set_counts, _WIDTH, side_states,
                cut=int(np.searchsorted(keys, warmup_key)),
            )
            for member, (dist, _, part_wb) in enumerate(outcomes):
                hist = np.bincount(dist + band, minlength=3 * (_WIDTH + 1))
                read_hist[member] += hist[: _WIDTH + 1]
                write_hist[member] += hist[_WIDTH + 1 : 2 * (_WIDTH + 1)]
                writebacks[member] += part_wb

    members = []
    for member, sets in enumerate(set_counts):
        reads = int(read_hist[member].sum())
        writes = int(write_hist[member].sum())
        for ways in STACK_ASSOCIATIVITIES:
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


def _sets_axis(
    trace: Trace, front: _Front, set_counts: Tuple[int, ...]
) -> Tuple[List[Tuple[SystemConfig, CacheStats]], List[CacheStats]]:
    """One pass of the direct-mapped kernel over the streams ``front``
    feeds the deepest level, every set count of ``set_counts`` a member:
    each member's configuration and deepest-level statistics, counted by
    the fast path's own rule (:func:`repro.sim.fast._accumulate_level`),
    and the upstream statistics.  A chunked pass carries one width-1
    state per member and side."""
    config = front.config
    shift = log2_int(config.levels[-1].block_bytes) - front.bits
    warmup_key = trace.warmup * 4**front.levels
    upstream, chunks = _deepest_input(trace, front)
    states = [
        [_new_state(sets, 1) for sets in set_counts] if front.chunked else None
        for _ in range(front.sides)
    ]
    member_stats = [CacheStats() for _ in set_counts]
    for sides in chunks:
        for (blocks, is_write, bucket, keys), side_states in zip(sides, states):
            outcomes = _dm_replay(blocks >> shift, is_write, keys, set_counts, side_states)
            for stats, (miss, _, victim_keys) in zip(member_stats, outcomes):
                _accumulate_level(
                    stats, is_write, bucket, miss, keys, victim_keys, warmup_key,
                    through=False,
                )
    members = [
        (member_config(config, 1, sets), stats)
        for sets, stats in zip(set_counts, member_stats)
    ]
    return members, upstream


def run_stackdist_grid(
    trace: Trace,
    config: SystemConfig,
    set_counts: Sequence[int] = (),
    axis: Optional[str] = None,
) -> StackdistGridResult:
    """Replay ``trace`` once against one of ``config``'s grid groups.

    On the :data:`WAYS` axis the group is every
    :data:`STACK_ASSOCIATIVITIES` member at each of ``set_counts``
    (ascending powers of two; by default ``config``'s deepest set count
    alone), from one width-16 stack pass with a stack per set count.  On
    the :data:`SETS` axis it is a direct-mapped member per set count,
    from one pass of the direct-mapped kernel.  ``axis`` defaults to
    :data:`SETS` with ``set_counts`` and to :data:`WAYS` without.
    Returns the exact functional result of every member (counts
    identical to :func:`repro.sim.fast.run_functional` on each member
    configuration).  With ``REPRO_TRACE_CHUNK`` set (and smaller than
    the trace), the replay streams in chunks through persistent state --
    same counts, bounded residency.
    """
    if not stackdist_eligible(config):
        raise ValueError(
            "configuration outside the stack-distance path (the deepest "
            "level must be fast-eligible LRU); use run_functional"
        )
    set_counts = tuple(set_counts)
    if axis is None:
        axis = SETS if set_counts else WAYS
    if axis not in (WAYS, SETS):
        raise ValueError(f"unknown grid axis {axis!r}; expected {WAYS!r} or {SETS!r}")
    if set_counts and (
        list(set_counts) != sorted(set(set_counts))
        or any(sets < 1 or sets & (sets - 1) for sets in set_counts)
    ):
        raise ValueError(
            "a set-count group's member set counts are ascending distinct "
            f"powers of two; got {set_counts}"
        )
    if axis == SETS and (not set_counts or config.levels[-1].associativity != 1):
        raise ValueError(
            "a set-count group is direct-mapped, with its member set counts; "
            f"got {config.levels[-1].associativity} ways and {set_counts}"
        )
    if not set_counts:
        set_counts = (config.levels[-1].geometry().sets,)
    # Chunked accumulation is count-identical to the one-chunk pass
    # (parity tests); REPRO_TRACE_CHUNK tunes residency only.
    front = _Front(trace, config, config.depth - 1, replay_chunk_records())  # repro: noqa RPR008
    with telemetry.span(
        "stackdist.pass",
        axis=axis,
        sets=set_counts[-1],
        set_counts=list(set_counts),
        records=len(trace),
        chunked=front.chunked,
    ):
        if axis == SETS:
            members, upstream = _sets_axis(trace, front, set_counts)
        else:
            members, upstream = _ways_axis(trace, front, set_counts)

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
