"""Vectorised functional simulation for write-back LRU hierarchies.

Two NumPy kernels cover the paper's sweep axes:

* **Direct-mapped** (:func:`_simulate_dm_level`): a direct-mapped cache
  has a delightfully vectorisable property -- an access hits exactly when
  the *previous access to the same set* carried the same tag.  Sorting the
  reference stream stably by set index turns hit detection, dirty tracking
  and eviction detection into array operations.

* **Set-associative LRU** (:func:`_simulate_lru_level`): a Mattson-style
  per-set stack kernel.  Accesses are bucketed by set and replayed in
  per-set time order; every set's *t*-th access is processed in one
  vectorised step over a ``(sets_touched, associativity)`` LRU state, so
  the Python-level loop length is the deepest per-set access count rather
  than the trace length.  This puts the Figure 5 / Equation 3 associativity
  sweeps on the fast path.

Together they make this simulator one to two orders of magnitude faster
than the reference per-record loop -- fast enough for the paper's full
4 KB - 4 MB axis at million-reference trace lengths.

Scope: write-back LRU levels of associativity 1-16 with write-allocate,
single-block fetch, no prefetching, no enforced inclusion -- the base
machine and every Figure 3/4/5 variation of it.  Anything else falls
outside :func:`fast_eligible` and uses the reference
:class:`~repro.sim.functional.FunctionalSimulator`; the two are validated
to produce *identical* counts on eligible configurations
(``tests/sim/test_fast.py``).  The eligibility matrix is documented in
``docs/performance.md``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.audit import maybe_audit_functional
from repro.cache.policy import PrefetchKind, WritePolicy
from repro.cache.stats import CacheStats
from repro.sim.config import SystemConfig
from repro.sim.functional import FunctionalResult
from repro.trace.record import IFETCH, WRITE, Trace
from repro.trace.store import replay_chunk_records
from repro.units import log2_int

#: Event-bucket codes inside the vectorised pipeline.
_BUCKET_READ = 0
_BUCKET_WRITE = 1

#: Largest set size the vectorised LRU kernel accepts.  The kernel is
#: exact for any associativity, but beyond this the per-step state
#: matrices stop paying for themselves against the reference loop.
MAX_FAST_ASSOCIATIVITY = 16


def fast_eligible(config: SystemConfig) -> bool:
    """True when the vectorised path reproduces the reference simulator."""
    if config.enforce_inclusion:
        return False
    for level in config.levels:
        if not 1 <= level.associativity <= MAX_FAST_ASSOCIATIVITY:
            return False
        if level.associativity > 1 and level.replacement != "lru":
            return False
        if level.write_policy is not WritePolicy.WRITE_BACK:
            return False
        if not level.write_allocate or level.fetch_blocks != 1:
            return False
        if level.prefetch is not PrefetchKind.NONE:
            return False
    return True


def _simulate_dm_level(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One direct-mapped write-back level, fully vectorised.

    ``blocks`` are block identifiers (byte address >> offset bits);
    ``is_write`` marks accesses that dirty the block; ``order_keys`` is a
    strictly increasing key per access (original record index scaled to
    make room for same-record ordering).

    Returns ``(miss_mask, victim_blocks, victim_keys)`` where the victims
    are dirty evictions, each stamped with the order key of the evicting
    miss (so downstream streams interleave correctly).
    """
    n = len(blocks)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), empty, empty
    set_index = blocks & (sets - 1)
    # Stable sort by set: within a set, accesses stay in time order.
    order = np.argsort(set_index, kind="stable")
    sorted_sets = set_index[order]
    sorted_blocks = blocks[order]
    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    np.equal(sorted_sets[1:], sorted_sets[:-1], out=same_set[1:])
    same_block = np.empty(n, dtype=bool)
    same_block[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same_block[1:])
    hit_sorted = same_set & same_block
    miss_sorted = ~hit_sorted

    # Residency episodes: one per miss; an episode covers the accesses from
    # its miss up to (not including) the next miss in the same set.
    episode = np.cumsum(miss_sorted) - 1
    n_episodes = int(episode[-1]) + 1
    dirty = np.zeros(n_episodes, dtype=bool)
    writes_sorted = is_write[order]
    np.logical_or.at(dirty, episode, writes_sorted)

    miss_positions = np.flatnonzero(miss_sorted)
    # Episode e is evicted by the next miss iff that miss lands in the same
    # set (episodes are contiguous per set: a set change always misses).
    evicted = np.zeros(n_episodes, dtype=bool)
    if n_episodes > 1:
        evicted[:-1] = (
            sorted_sets[miss_positions[1:]] == sorted_sets[miss_positions[:-1]]
        )
    victims = dirty & evicted
    victim_blocks = sorted_blocks[miss_positions[np.flatnonzero(victims)]]
    # The writeback happens when the *next* episode's miss occurs.
    evictor_positions = miss_positions[np.flatnonzero(victims) + 1]
    victim_keys = order_keys[order][evictor_positions]

    miss_mask = np.zeros(n, dtype=bool)
    miss_mask[order] = miss_sorted
    return miss_mask, victim_blocks.astype(np.int64), victim_keys


def _simulate_lru_level(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    associativity: int,
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One set-associative write-back LRU level, vectorised across sets.

    A Mattson-style per-set stack kernel: accesses are bucketed by set and
    replayed in per-set time order.  Step ``t`` processes the ``t``-th
    access of *every* touched set in one vectorised operation over a
    ``(sets_touched, associativity)`` LRU state (way 0 = most recently
    used, ``-1`` = invalid), so the Python loop runs for the deepest
    per-set access count, not the stream length.

    ``state`` supports chunked streaming replay: pass a persistent
    ``(tags, dirty)`` pair of shape ``(sets, associativity)`` (see
    :func:`_new_level_state`) and the kernel starts from it and updates
    it in place, so feeding a stream in pieces produces the same counts
    as feeding it whole.  Without ``state`` the level starts cold on a
    compact touched-sets-only matrix.

    Same contract as :func:`_simulate_dm_level`: returns
    ``(miss_mask, victim_blocks, victim_keys)`` with dirty victims stamped
    with the order key of the evicting miss.
    """
    n = len(blocks)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), empty, empty
    set_index = blocks & (sets - 1)
    # Stable sort by set: within a set, accesses stay in time order.
    set_order = np.argsort(set_index, kind="stable")
    sorted_sets = set_index[set_order]
    # Compact set ranks and each access's per-set sequence number.
    new_set = np.empty(n, dtype=bool)
    new_set[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_set[1:])
    set_rank = np.cumsum(new_set) - 1
    starts = np.flatnonzero(new_set)
    seq = np.arange(n, dtype=np.int64)
    seq -= np.repeat(starts, np.diff(np.append(starts, n)))
    # Re-sort by (sequence number, set rank): step t's accesses form one
    # contiguous slice, one access per set, ordered by set rank.
    step_order = np.argsort(seq, kind="stable")
    blocks_s = blocks[set_order][step_order]
    write_s = is_write[set_order][step_order]
    keys_s = order_keys[set_order][step_order]
    step_starts = np.append(0, np.cumsum(np.bincount(seq)))

    ways = np.arange(associativity)
    if state is None:
        # Compact state: rows are touched-set ranks.
        touched = int(set_rank[-1]) + 1
        tags = np.full((touched, associativity), -1, dtype=np.int64)
        dirty = np.zeros((touched, associativity), dtype=bool)
        rank_s = set_rank[step_order]
    else:
        # Persistent state: rows are actual set indices, carried between
        # calls.
        tags, dirty = state
        rank_s = sorted_sets[step_order]
    miss_s = np.empty(n, dtype=bool)
    victim_parts: List[np.ndarray] = []
    victim_key_parts: List[np.ndarray] = []
    for t in range(len(step_starts) - 1):
        lo, hi = int(step_starts[t]), int(step_starts[t + 1])
        rows = rank_s[lo:hi]
        block = blocks_s[lo:hi]
        write = write_s[lo:hi]
        row_tags = tags[rows]
        row_dirty = dirty[rows]
        match = row_tags == block[:, None]
        hit = match.any(axis=1)
        hit_way = np.argmax(match, axis=1)
        miss_s[lo:hi] = ~hit
        # A miss evicts the LRU way; a dirty valid victim is written back,
        # stamped with the evicting access's key.
        victim_tag = row_tags[:, -1]
        writeback = ~hit & (victim_tag >= 0) & row_dirty[:, -1]
        if writeback.any():
            victim_parts.append(victim_tag[writeback])
            victim_key_parts.append(keys_s[lo:hi][writeback])
        # Promote the block to way 0, shifting ways [0, pos) right by one
        # (pos = hit way, or the LRU way on a miss).  Fetches enter clean
        # and are dirtied in place by a store (write-allocate).
        pos = np.where(hit, hit_way, associativity - 1)
        head_dirty = write | (hit & row_dirty[np.arange(len(rows)), hit_way])
        rolled_tags = np.concatenate([block[:, None], row_tags[:, :-1]], axis=1)
        rolled_dirty = np.concatenate(
            [head_dirty[:, None], row_dirty[:, :-1]], axis=1
        )
        shifted = ways[None, :] <= pos[:, None]
        tags[rows] = np.where(shifted, rolled_tags, row_tags)
        dirty[rows] = np.where(shifted, rolled_dirty, row_dirty)

    miss_mask = np.empty(n, dtype=bool)
    miss_mask[set_order[step_order]] = miss_s
    if victim_parts:
        victim_blocks = np.concatenate(victim_parts)
        victim_keys = np.concatenate(victim_key_parts)
    else:
        victim_blocks = np.empty(0, dtype=np.int64)
        victim_keys = np.empty(0, dtype=np.int64)
    return miss_mask, victim_blocks.astype(np.int64), victim_keys


def _simulate_level(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    associativity: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch one level to the cheapest exact kernel."""
    if associativity == 1:
        return _simulate_dm_level(blocks, is_write, order_keys, sets)
    return _simulate_lru_level(blocks, is_write, order_keys, sets, associativity)


def _merge_parts(parts) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate event fragments and sort them into time order."""
    blocks = np.concatenate([p[0] for p in parts])
    writes = np.concatenate([p[1] for p in parts])
    buckets = np.concatenate([p[2] for p in parts])
    keys = np.concatenate([p[3] for p in parts])
    order = np.argsort(keys, kind="stable")
    return blocks[order], writes[order], buckets[order], keys[order]


def _accumulate_level(
    stats: CacheStats,
    is_write: np.ndarray,
    bucket: np.ndarray,
    miss: np.ndarray,
    keys: np.ndarray,
    victim_keys: np.ndarray,
    warmup_key: int,
) -> None:
    """Fold one level's kernel outputs into its post-warmup counters."""
    counted = keys >= warmup_key
    read_bucket = bucket == _BUCKET_READ
    stats.reads += int(np.count_nonzero(counted & read_bucket))
    stats.read_misses += int(np.count_nonzero(counted & read_bucket & miss))
    stats.writes += int(np.count_nonzero(counted & ~read_bucket))
    stats.write_misses += int(np.count_nonzero(counted & ~read_bucket & miss))
    stats.blocks_fetched += int(np.count_nonzero(counted & miss))
    stats.writebacks += int(np.count_nonzero(victim_keys >= warmup_key))


def _level_zero_streams(
    trace: Trace, config: SystemConfig, key_offset: int = 0
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Bucket the CPU reference stream into the first level's inputs.

    Each stream is ``(blocks, is_write, bucket, keys)`` with blocks at
    the first level's granularity; a split level gets its I-side and
    D-side streams separately.  Order keys: level-0 events carry the
    record index; each level's outputs use ``key*4 + {1: victim
    writeback, 2: demand fetch}``, so a stream entering level ``i`` has
    keys scaled by ``4**i`` and the original record index is
    ``key // 4**i``.  ``key_offset`` shifts the record indices -- chunked
    replay passes each chunk's start so keys stay global (and strictly
    increasing across chunks).
    """
    kinds = trace.kinds
    keys = np.arange(key_offset, key_offset + len(trace), dtype=np.int64)
    addresses = trace.addresses.astype(np.int64)
    is_write = kinds == WRITE
    bucket = np.where(is_write, _BUCKET_WRITE, _BUCKET_READ).astype(np.int8)
    first = config.levels[0]
    blocks = addresses >> log2_int(first.block_bytes)
    if first.split:
        is_ifetch = kinds == IFETCH
        return [
            (blocks[is_ifetch], is_write[is_ifetch], bucket[is_ifetch],
             keys[is_ifetch]),
            (blocks[~is_ifetch], is_write[~is_ifetch], bucket[~is_ifetch],
             keys[~is_ifetch]),
        ]
    return [(blocks, is_write, bucket, keys)]


def _simulate_front(
    trace: Trace,
    config: SystemConfig,
    levels: int,
    trail: Optional[List[Tuple]] = None,
) -> Tuple[List[CacheStats], Tuple, int]:
    """Simulate the first ``levels`` cache levels (``1 <= levels <= depth``).

    Returns ``(level_stats, stream, offset_bits)``: the per-level
    post-warmup counters, the merged event stream leaving level
    ``levels - 1`` (blocks at that level's granularity, keys scaled by
    ``4**levels``) and that level's block-offset bit count.  The stream
    is what enters level ``levels`` -- or memory, when ``levels`` is the
    full depth.

    ``trail``, when given, receives one ``(keys, miss, victims,
    victim_keys)`` tuple per simulated level: the order keys of the
    level's input events, their miss mask, and the level's dirty victims
    (blocks at its granularity) stamped with the evicting access's key.
    A split first level contributes its two halves concatenated.  The
    timing simulator's event engine replays these outcomes.
    """
    warmup = trace.warmup
    first = config.levels[0]
    first_geometry = first.geometry()
    level_stats: List[CacheStats] = []
    stats = CacheStats()
    parts = []
    sides = []
    for s_blocks, s_write, s_bucket, s_keys in _level_zero_streams(trace, config):
        miss, victims, victim_keys = _simulate_level(
            s_blocks, s_write, s_keys,
            first_geometry.sets, first.associativity,
        )
        if trail is not None:
            sides.append((s_keys, miss, victims, victim_keys))
        _accumulate_level(
            stats, s_write, s_bucket, miss, s_keys, victim_keys, warmup
        )
        parts.append(
            (
                victims,
                np.ones(len(victims), dtype=bool),
                np.full(len(victims), _BUCKET_WRITE, dtype=np.int8),
                victim_keys * 4 + 1,
            )
        )
        parts.append(
            (
                s_blocks[miss],
                np.zeros(int(miss.sum()), dtype=bool),
                s_bucket[miss],
                s_keys[miss] * 4 + 2,
            )
        )
    level_stats.append(stats)
    stream = _merge_parts(parts)
    if trail is not None:
        trail.append(
            tuple(np.concatenate([side[i] for side in sides]) for i in range(4))
        )

    prev_offset = log2_int(first.block_bytes)
    for depth_index in range(1, levels):
        level = config.levels[depth_index]
        offset_bits = log2_int(level.block_bytes)
        if offset_bits < prev_offset:
            raise ValueError(
                "deeper levels must have blocks at least as large as "
                "their predecessor's"
            )
        stream_blocks, stream_write, stream_bucket, stream_keys = stream
        blocks_here = stream_blocks >> (offset_bits - prev_offset)
        warmup_key = warmup * 4**depth_index
        miss, victims, victim_keys = _simulate_level(
            blocks_here, stream_write, stream_keys,
            level.geometry().sets, level.associativity,
        )
        stats = CacheStats()
        _accumulate_level(
            stats, stream_write, stream_bucket, miss, stream_keys,
            victim_keys, warmup_key,
        )
        level_stats.append(stats)
        if trail is not None:
            trail.append((stream_keys, miss, victims, victim_keys))
        # Demand fetches always enter the next level as *reads*: the
        # fetched block arrives clean (write-allocate dirties it in the
        # receiving cache, not downstream), so the fetch never carries
        # the missing access's write flag.  The statistics bucket still
        # tracks the originating access so store-induced traffic stays
        # out of the read miss ratios.
        clean_fetch = np.zeros(int(miss.sum()), dtype=bool)
        parts = [
            (
                victims,
                np.ones(len(victims), dtype=bool),
                np.full(len(victims), _BUCKET_WRITE, dtype=np.int8),
                victim_keys * 4 + 1,
            ),
            (
                blocks_here[miss],
                clean_fetch,
                stream_bucket[miss],
                stream_keys[miss] * 4 + 2,
            ),
        ]
        stream = _merge_parts(parts)
        prev_offset = offset_bits
    return level_stats, stream, prev_offset


def memory_traffic(stream: Tuple, warmup_key: int) -> Tuple[int, int]:
    """Post-warmup ``(reads, writes)`` reaching memory in a deepest-level
    output stream: writes are the deepest victims, reads the demand
    fetches.  ``warmup_key`` is the warmup boundary in the stream's key
    scale (``warmup * 4**depth``)."""
    _, stream_write, _, stream_keys = stream
    counted = stream_keys >= warmup_key
    writes = int(np.count_nonzero(counted & stream_write))
    return int(np.count_nonzero(counted)) - writes, writes


def _new_level_state(
    sets: int, associativity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A cold persistent ``(tags, dirty)`` state for one cache level."""
    return (
        np.full((sets, associativity), -1, dtype=np.int64),
        np.zeros((sets, associativity), dtype=bool),
    )


class _ChunkedFront:
    """Stream a trace through the first ``levels`` cache levels in chunks.

    The chunked counterpart of :func:`_simulate_front`: each level keeps a
    persistent ``(sets, associativity)`` state between chunks (a
    direct-mapped level runs as 1-way LRU, which is the same cache), so
    counts are identical to whole-array replay while peak residency is
    bounded by one chunk's event arrays plus the level states.  Iterating
    :meth:`streams` drives the replay; per-level counters accumulate into
    ``level_stats`` and each iteration yields the merged event stream
    leaving the deepest simulated level for that chunk (keys global,
    scaled by ``4**levels``).
    """

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig,
        levels: int,
        chunk_records: int,
    ) -> None:
        if chunk_records <= 0:
            raise ValueError(
                f"chunk size must be positive, got {chunk_records}"
            )
        self.trace = trace
        self.config = config
        self.levels = levels
        self.chunk_records = chunk_records
        first = config.levels[0]
        first_geometry = first.geometry()
        self._zero_states = [
            _new_level_state(first_geometry.sets, first.associativity)
            for _ in range(2 if first.split else 1)
        ]
        self._deep_states = [
            _new_level_state(
                config.levels[i].geometry().sets,
                config.levels[i].associativity,
            )
            for i in range(1, levels)
        ]
        self.level_stats = [CacheStats() for _ in range(levels)]

    def streams(self) -> Iterator[Tuple]:
        config = self.config
        warmup = self.trace.warmup
        first = config.levels[0]
        first_geometry = first.geometry()
        for index, chunk in enumerate(self.trace.chunks(self.chunk_records)):
            # The span closes before the yield: it times this chunk's
            # level simulation, not whatever the consumer does with the
            # stream (the deepest-level pass times itself).
            with telemetry.span("fast.chunk", index=index, records=len(chunk)):
                base = index * self.chunk_records
                parts = []
                zero_streams = _level_zero_streams(
                    chunk, config, key_offset=base
                )
                for side, (s_blocks, s_write, s_bucket, s_keys) in enumerate(
                    zero_streams
                ):
                    miss, victims, victim_keys = _simulate_lru_level(
                        s_blocks, s_write, s_keys,
                        first_geometry.sets, first.associativity,
                        state=self._zero_states[side],
                    )
                    _accumulate_level(
                        self.level_stats[0], s_write, s_bucket, miss, s_keys,
                        victim_keys, warmup,
                    )
                    parts.append(
                        (
                            victims,
                            np.ones(len(victims), dtype=bool),
                            np.full(len(victims), _BUCKET_WRITE, dtype=np.int8),
                            victim_keys * 4 + 1,
                        )
                    )
                    parts.append(
                        (
                            s_blocks[miss],
                            np.zeros(int(miss.sum()), dtype=bool),
                            s_bucket[miss],
                            s_keys[miss] * 4 + 2,
                        )
                    )
                stream = _merge_parts(parts)

                prev_offset = log2_int(first.block_bytes)
                for depth_index in range(1, self.levels):
                    level = config.levels[depth_index]
                    offset_bits = log2_int(level.block_bytes)
                    if offset_bits < prev_offset:
                        raise ValueError(
                            "deeper levels must have blocks at least as large "
                            "as their predecessor's"
                        )
                    stream_blocks, stream_write, stream_bucket, stream_keys = (
                        stream
                    )
                    blocks_here = stream_blocks >> (offset_bits - prev_offset)
                    warmup_key = warmup * 4**depth_index
                    miss, victims, victim_keys = _simulate_lru_level(
                        blocks_here, stream_write, stream_keys,
                        level.geometry().sets, level.associativity,
                        state=self._deep_states[depth_index - 1],
                    )
                    _accumulate_level(
                        self.level_stats[depth_index], stream_write,
                        stream_bucket, miss, stream_keys, victim_keys,
                        warmup_key,
                    )
                    # Demand fetches enter the next level as clean reads
                    # (see _simulate_front).
                    parts = [
                        (
                            victims,
                            np.ones(len(victims), dtype=bool),
                            np.full(len(victims), _BUCKET_WRITE, dtype=np.int8),
                            victim_keys * 4 + 1,
                        ),
                        (
                            blocks_here[miss],
                            np.zeros(int(miss.sum()), dtype=bool),
                            stream_bucket[miss],
                            stream_keys[miss] * 4 + 2,
                        ),
                    ]
                    stream = _merge_parts(parts)
                    prev_offset = offset_bits
            yield stream


def run_functional_chunked(
    trace: Trace, config: SystemConfig, chunk_records: int
) -> FunctionalResult:
    """Chunked streaming counterpart of :class:`FastFunctionalSimulator`.

    Replays the trace ``chunk_records`` records at a time through
    persistent per-level cache state.  Counts are identical to
    whole-array replay (``tests/sim/test_chunked_replay.py`` holds the
    differential contract); peak residency is bounded per chunk, which
    is what lets memmap-backed store traces run without ever
    materialising in full.
    """
    if not fast_eligible(config):
        raise ValueError(
            "configuration outside the vectorised path; chunked replay "
            "requires fast eligibility"
        )
    if not trace_eligible(trace):
        raise ValueError("trace outside the vectorised path (addresses >= 2**63)")
    front = _ChunkedFront(trace, config, config.depth, chunk_records)
    threshold = trace.warmup * 4**config.depth
    memory_reads = 0
    memory_writes = 0
    with telemetry.span("fast.run", records=len(trace), chunked=True):
        for stream in front.streams():
            reads, writes = memory_traffic(stream, threshold)
            memory_reads += reads
            memory_writes += writes

    measured_kinds = trace.kinds[trace.warmup:]
    cpu_writes = int(np.count_nonzero(measured_kinds == WRITE))
    cpu_reads = int(measured_kinds.size) - cpu_writes
    cpu_ifetches = int(np.count_nonzero(measured_kinds == IFETCH))
    result = FunctionalResult(
        trace_name=trace.name,
        config=config,
        cpu_reads=cpu_reads,
        cpu_writes=cpu_writes,
        cpu_ifetches=cpu_ifetches,
        level_stats=front.level_stats,
        memory_reads=memory_reads,
        memory_writes=memory_writes,
    )
    # Audit gates on an env flag but only validates-and-raises; it never
    # alters the result, so memo keys need not include it.
    return maybe_audit_functional(trace, result, source="fast-chunked")  # repro: noqa RPR008


class FastFunctionalSimulator:
    """Drop-in counterpart of the reference functional simulator.

    Produces a :class:`~repro.sim.functional.FunctionalResult` with counts
    identical to the reference implementation on eligible configurations.
    """

    def __init__(self, config: SystemConfig) -> None:
        if not fast_eligible(config):
            raise ValueError(
                "configuration outside the vectorised path "
                "(write-back LRU, associativity <= "
                f"{MAX_FAST_ASSOCIATIVITY}, no prefetch/inclusion); use "
                "FunctionalSimulator"
            )
        self.config = config

    def run(self, trace: Trace) -> FunctionalResult:
        config = self.config
        warmup = trace.warmup
        kinds = trace.kinds
        with telemetry.span("fast.run", records=len(trace)):
            level_stats, stream, _ = _simulate_front(trace, config, config.depth)
        memory_reads, memory_writes = memory_traffic(
            stream, warmup * 4**config.depth
        )

        measured_kinds = kinds[warmup:]
        cpu_writes = int(np.count_nonzero(measured_kinds == WRITE))
        cpu_reads = int(measured_kinds.size) - cpu_writes
        cpu_ifetches = int(np.count_nonzero(measured_kinds == IFETCH))
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
        # Validate-and-raise only; results are unchanged (see above).
        return maybe_audit_functional(trace, result, source="fast-path")  # repro: noqa RPR008


def trace_eligible(trace: Trace) -> bool:
    """The vectorised path works in signed 64-bit block arithmetic, so
    addresses must stay below 2**63 (every realistic trace does)."""
    return len(trace) == 0 or int(trace.addresses.max()) < 2**63


def run_functional(trace: Trace, config: SystemConfig) -> FunctionalResult:
    """Run a functional simulation on the fastest correct engine.

    Dispatches to the vectorised simulator when the configuration and the
    trace are eligible, otherwise to the reference implementation.  With
    ``REPRO_TRACE_CHUNK`` set (and smaller than the trace), the eligible
    path streams the trace in chunks instead -- same counts, bounded
    residency.
    """
    if fast_eligible(config) and trace_eligible(trace):
        # Chunked replay is count-identical to the one-shot run (parity
        # tests); REPRO_TRACE_CHUNK tunes residency, never the results.
        chunk = replay_chunk_records()  # repro: noqa RPR008
        if chunk is not None and chunk < len(trace):
            return run_functional_chunked(trace, config, chunk)
        return FastFunctionalSimulator(config).run(trace)
    from repro.sim.functional import FunctionalSimulator

    return FunctionalSimulator(config).run(trace)
