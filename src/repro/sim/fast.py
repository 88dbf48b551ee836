"""Vectorised functional simulation for LRU cache hierarchies.

Two NumPy kernels replay one cache level each:

* **Direct-mapped** (:func:`_simulate_dm_level`): a direct-mapped cache
  has a delightfully vectorisable property -- an access hits exactly when
  the *previous access to the same set* carried the same tag.  Sorting the
  reference stream stably by set index turns hit detection, dirty tracking
  and eviction detection into array operations.

* **LRU stack** (:func:`_stack_pass`): a Mattson-style per-set stack
  kernel of a given ``width``.  Accesses are bucketed by set and replayed
  in per-set time order; every set's *t*-th access is processed in one
  vectorised step over a ``(sets_touched, width)`` stack of tags, so the
  Python-level loop length is the deepest per-set access count rather
  than the trace length.  The loop tracks nothing but tags: which copies
  are dirty -- the writebacks of every associativity, the dirty victims
  of the ``width``-way cache, and the reach a chunk carries -- is derived
  afterwards from the stack distances alone, per block in time order
  (:func:`_stack_dirt`).  At width ``A`` the stack *is* an A-way level
  (a miss is stack distance ``A``), which puts the Figure 5 / Equation 3
  associativity sweeps on the fast path; at width 16 it is the
  single-pass grid of :mod:`repro.sim.stackdist`, every member
  associativity at once.

Either kernel sees only the head of each run of consecutive accesses to
one block (:func:`_run_heads`), its write flag OR-ed over the run: the
rest of a run are hits at the top of the stack at every set count and
width, so the outputs expand back exactly.  The hierarchy's deepest
level builds no output stream: what reaches memory is counted from its
statistics (:func:`memory_traffic`).

Both kernels, and the driver's merge of each level's output, order
their events with :func:`_stable_argsort`, a radix sort on 16-bit
digits: NumPy sorts a ``uint16`` digit in linear time but wider keys by
merge sort, and a stable sort is one permutation either way.

One driver, :class:`_Front`, replays the first levels of a hierarchy
over a trace -- whole, or in chunks with every level's state carried
between them -- and the fast path, the stack-distance grid and the
event-sparse timing engine all run through it.  The streams a
hierarchy's upstream levels send its deepest level over a whole trace
are kept in a small cache (:func:`_cached_front`), so the grid's passes
and the fast path's runs of configurations that share those levels
replay them once per trace and only the deepest level per cell.
Together the kernels make this simulator one to two orders of magnitude
faster than the reference per-record loop -- fast enough for the
paper's full 4 KB - 4 MB axis at million-reference trace lengths.

Scope: the vectorised front reproduces LRU levels of associativity
1-16 with write-allocate, single-block fetch and no prefetching, whose
blocks never shrink with depth -- the base machine and every Figure
3/4/5 variation of it.  A level may be write-back or write-through: a
write-allocate write-through level's tags evolve exactly as a write-back
level's do, so the same kernels replay it with its writes masked off,
and only its output stream changes -- demand fetches plus every write
it receives, forwarded, and no dirty victims (the filtered-stream
decomposition of Hardy & Puaut, arXiv 0807.0993).  :func:`front_depth`
counts the leading levels of a configuration that qualify.  In a
hierarchy without enforced inclusion nothing below a level changes what
it sends down, so when only deeper levels fall outside that scope (L2
prefetching, no-allocate, multi-block fetch, FIFO/random, wider sets,
smaller blocks) the front still replays the leading levels, and the
stream they send down walks the rest event by event through
:meth:`~repro.sim.hierarchy.CacheHierarchy.replay_stream` -- the
reference's own cache rules, over a small share of the records.
:func:`fast_eligible` means the front covers every level.  Enforced
inclusion, or a first level the front cannot replay, takes the sparse
walk (:class:`_SparseWalk`): every record through
:meth:`~repro.sim.hierarchy.CacheHierarchy.access` except the reads that
re-touch their level-1 set's last block, and the stores to it once its
same-block run has dirtied it, which change no state; a set is walked
again after a back-invalidation drops a block from it.  Only
a first level with a prefetcher or multi-block fetch
(:func:`sparse_eligible`) uses the reference
:class:`~repro.sim.functional.FunctionalSimulator`; the two are validated
to produce *identical* counts wherever the fast path runs
(``tests/sim/test_fast.py``, ``tests/sim/test_replay_oracle.py``).  The
eligibility matrix is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import bisect
import heapq
from collections import OrderedDict
from dataclasses import replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.cache.policy import PrefetchKind, WritePolicy
from repro.cache.stats import CacheStats
from repro.sim.config import SystemConfig
from repro.sim.functional import FunctionalResult, functional_result
from repro.sim.hierarchy import BUCKET_NAMES, CacheHierarchy
from repro.trace.record import IFETCH, WRITE, Trace
from repro.trace.store import replay_chunk_records
from repro.units import log2_int

#: Event-bucket codes inside the vectorised pipeline, indexing the
#: statistics bucket names a per-event tail maps them back to.
_BUCKET_READ = BUCKET_NAMES.index("read")
_BUCKET_WRITE = BUCKET_NAMES.index("write")

#: Largest set size the vectorised LRU kernel accepts.  The kernel is
#: exact for any associativity, but beyond this the per-step state
#: matrices stop paying for themselves against the reference loop.
MAX_FAST_ASSOCIATIVITY = 16

#: ``reach`` sentinel for a stack entry with no write since it entered
#: the stack (and for an empty way): no cache of any width holds a dirty
#: copy of it.
_CLEAN = MAX_FAST_ASSOCIATIVITY + 1

#: One event stream: ``(blocks, is_write, bucket, keys)``.
Stream = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: A level's carried state: ``(tags, reach)``, see :func:`_new_state`.
State = Tuple[np.ndarray, np.ndarray]

#: Bits per radix digit of :func:`_stable_argsort`: NumPy's stable sort
#: is a radix sort on 16-bit keys and a merge sort on wider ones.
_DIGIT_BITS = 16

#: Bound on cached upstream streams (a few streams of the active trace
#: suite; entries are a modest multiple of the post-L1 miss stream, far
#: smaller than the traces themselves).
_FRONT_CACHE_ENTRIES = 8

#: Cache of ``(upstream stats, deepest-level input streams)`` keyed by
#: (trace fingerprint, inclusion, upstream projection).  Every group of
#: a size x associativity sweep, and every fast-path run of its
#: direct-mapped leftovers, shares its upstream levels; replaying them
#: once per *cell* rather than once per trace would cost more than the
#: deepest level itself.  Entries are pure functions of their key, so
#: reuse can never change a result.
_front_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()


def front_depth(config: SystemConfig) -> int:
    """How many leading levels the vectorised front reproduces exactly.

    A level qualifies when it is LRU of associativity 1-16, write-back
    or write-through, with write-allocate, single-block fetch and no
    prefetching, and its blocks are no smaller than the level above's (a
    deeper level must hold whole blocks of the level above it).  Enforced
    inclusion feeds lower evictions back into the first level, so it
    allows none.
    """
    if config.enforce_inclusion:
        return 0
    block_bytes = 0
    for depth, level in enumerate(config.levels):
        if (
            level.block_bytes < block_bytes
            or not 1 <= level.associativity <= MAX_FAST_ASSOCIATIVITY
            or (level.associativity > 1 and level.replacement != "lru")
            or not level.write_allocate
            or level.fetch_blocks != 1
            or level.prefetch is not PrefetchKind.NONE
        ):
            return depth
        block_bytes = level.block_bytes
    return config.depth


def fast_eligible(config: SystemConfig) -> bool:
    """True when the vectorised front reproduces every level."""
    return front_depth(config) == config.depth


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    A least-significant-digit radix sort: one stable sort per 16-bit
    digit, lowest first, each on a ``uint16`` array NumPy radix-sorts in
    linear time (one pass when ``bound <= 2**16``).  A stable sort is a
    unique permutation, so the result is identical to the comparison
    sort's.  Precondition: every key is non-negative and below
    ``bound``; a key outside that range raises ``ValueError`` rather
    than sorting by its truncated digits.
    """
    if len(keys) and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError(f"sort keys must lie in [0, {bound})")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while bound > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return order


def _new_state(sets: int, width: int) -> State:
    """A cold carried ``(tags, reach)`` state for one level's sets.

    Row ``s`` is set ``s``'s stack, way 0 most recently used, ``-1`` an
    empty way; an entry is dirty in the ``width``-way cache iff its reach
    is at most ``width`` (:func:`_stack_dirt`).  The kernels advance the
    tags; the reach is derived from them after each chunk.
    """
    return (
        np.full((sets, width), -1, dtype=np.int64),
        np.full((sets, width), _CLEAN, dtype=np.int64),
    )


def _simulate_dm_level(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    state: Optional[State] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One direct-mapped write-back level, fully vectorised.

    ``blocks`` are block identifiers (byte address >> offset bits);
    ``is_write`` marks accesses that dirty the block; ``order_keys`` is a
    strictly increasing key per access (original record index scaled to
    make room for same-record ordering).

    ``state`` carries the level between chunks of a streamed replay: a
    width-1 :func:`_new_state` holding each set's resident block and
    whether it is dirty.  Every touched set's resident block is replayed
    as a pseudo-access ahead of the chunk, so its residency continues
    into the chunk, and the touched sets' final blocks are stored back.

    Returns ``(miss_mask, victim_blocks, victim_keys)`` where the victims
    are dirty evictions, each stamped with the order key of the evicting
    miss (so downstream streams interleave correctly).
    """
    n = len(blocks)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), empty, empty
    carried = 0
    if state is not None:
        tags, reach = state
        resident = np.flatnonzero(np.bincount(blocks & (sets - 1), minlength=sets))
        resident = resident[tags[resident, 0] >= 0]
        carried = len(resident)
        blocks = np.concatenate([tags[resident, 0], blocks])
        is_write = np.concatenate([reach[resident, 0] <= 1, is_write])
        order_keys = np.concatenate(
            [np.full(carried, -1, dtype=np.int64), order_keys]
        )
        n += carried
    # Stable sort by set: within a set, accesses stay in time order.
    order = _stable_argsort(blocks & (sets - 1), sets)
    sorted_blocks = blocks[order]
    # An access hits iff the previous access in set order was to the same
    # block (equal blocks share a set, so that access was in this set).
    same = np.empty(n, dtype=bool)
    same[0] = False
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=same[1:])
    miss_positions = np.flatnonzero(~same)
    miss_order = order[miss_positions]
    miss_blocks = sorted_blocks[miss_positions]
    miss_sets = miss_blocks & (sets - 1)

    # Residency episodes: one per miss; an episode covers the accesses from
    # its miss up to (not including) the next miss in the same set.  A set
    # change always misses, so episodes are contiguous runs in set order
    # and one segmented reduction gives each one's dirty bit.
    dirty = np.logical_or.reduceat(is_write[order], miss_positions)
    # Episode e is evicted by the next miss iff that miss lands in the
    # same set; otherwise it is its set's final episode.
    evicted = np.zeros(len(miss_positions), dtype=bool)
    np.equal(miss_sets[1:], miss_sets[:-1], out=evicted[:-1])
    victims = np.flatnonzero(dirty & evicted)
    # The writeback happens when the *next* episode's miss occurs.
    victim_keys = order_keys[miss_order[victims + 1]]

    if state is not None:
        # Each touched set's final episode stays resident.
        final = np.flatnonzero(~evicted)
        tags[miss_sets[final], 0] = miss_blocks[final]
        reach[miss_sets[final], 0] = np.where(dirty[final], 1, _CLEAN)
    miss_mask = np.zeros(n, dtype=bool)
    miss_mask[miss_order] = True
    return miss_mask[carried:], miss_blocks[victims], victim_keys


def _stack_pass(
    blocks: np.ndarray,
    sets: int,
    width: int,
    tags: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The LRU stack kernel: one width-``width`` replay of a block stream.

    Accesses are bucketed by set and replayed in per-set time order: step
    ``t`` processes the ``t``-th access of *every* touched set in one
    vectorised operation over a ``(sets_touched, width)`` stack of tags
    (way 0 = most recently used, ``-1`` = empty), so the Python loop runs
    for the deepest per-set access count, not the stream length.  The
    top ``A`` ways are exactly the content of an A-way LRU cache, for
    every ``A <= width`` at once.  A step only matches, shifts and stores
    tags: which copies are dirty, and which blocks each cache evicts,
    follow from the distances alone (:func:`_stack_dirt`).

    ``tags`` is the carried ``(sets, width)`` tag matrix of a streamed
    replay (see :func:`_new_state`): the touched rows are gathered into
    the pass's working array and scattered back afterwards, so replaying
    a stream piecewise gives the same outputs as one call.  Without it
    the pass starts cold on touched-set rows only.

    Returns ``(dist, start)``: ``dist[i]`` is access ``i``'s stack
    distance minus one -- it hits every cache of more than ``dist[i]``
    ways -- and ``width`` when the block is not on the stack (a miss at
    every width); ``start`` is ``(set_ids, rows)``, the touched sets'
    carried tags before the pass (``None`` without ``tags``).
    """
    n = len(blocks)
    set_index = blocks & (sets - 1)
    # Rank the touched sets by descending access count (stable, so
    # equal-count sets keep a deterministic order).  Step t touches
    # exactly the sets with more than t accesses -- ranks [0, k) -- so
    # the per-step state is a contiguous *prefix* of the rank-ordered
    # arrays: plain views, updated in place, instead of per-step
    # gather/scatter copies.
    counts = np.bincount(set_index, minlength=sets)
    touched_ids = np.flatnonzero(counts)
    peak = int(counts.max())
    ids_by_rank = touched_ids[_stable_argsort(peak - counts[touched_ids], peak)]
    touched = len(ids_by_rank)
    counts_by_rank = counts[ids_by_rank]
    rank_of_set = np.empty(sets, dtype=np.int64)
    rank_of_set[ids_by_rank] = np.arange(touched)
    # Stable sort by rank keeps each set's accesses in time order; then
    # the per-set sequence number re-sorts them so that step t's accesses
    # form one contiguous slice, one access per set, rank order == row
    # order.
    set_order = _stable_argsort(rank_of_set[set_index], touched)
    starts = np.cumsum(counts_by_rank) - counts_by_rank
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, counts_by_rank)
    order = set_order[_stable_argsort(seq, peak)]
    blocks_s = blocks[order]
    step_starts = np.append(0, np.cumsum(np.bincount(seq))).tolist()

    if tags is None:
        rows = np.full((touched, width), -1, dtype=np.int64)
        start = None
    else:
        rows = tags[ids_by_rank]
        start = (ids_by_rank, rows.copy())
    dist_s = np.empty(n, dtype=np.int8)
    # Preallocated per-step scratch (the loop body runs tens of
    # thousands of times; allocation is pure dispatch overhead at this
    # size).  ``match``'s extra always-true column turns argmax into a
    # combined hit test + hit way + evict position: first True index is
    # the hit way, or ``width`` on a miss.
    ways = np.arange(width - 1)
    match = np.empty((touched, width + 1), dtype=bool)
    match[:, width] = True
    shifted_buf = np.empty((touched, width - 1), dtype=bool)
    for t in range(len(step_starts) - 1):
        lo, hi = step_starts[t], step_starts[t + 1]
        k = hi - lo
        row_tags = rows[:k]
        step_blocks = blocks_s[lo:hi]
        m = match[:k]
        np.equal(row_tags, step_blocks[:, None], out=m[:, :width])
        pos = m.argmax(axis=1)
        dist_s[lo:hi] = pos
        # Promote the accessed block to way 0, pushing the entries at
        # ways [0, pos) one way deeper (a miss pushes the bottom way's
        # block off the stack).  ``copyto`` buffers overlapping views,
        # so reading ``[:, :-1]`` while writing ``[:, 1:]`` is safe.
        shifted = np.less(ways, pos[:, None], out=shifted_buf[:k])
        np.copyto(row_tags[:, 1:], row_tags[:, :-1], where=shifted)
        row_tags[:, 0] = step_blocks

    if tags is not None:
        tags[ids_by_rank] = rows
    dist = np.empty(n, dtype=np.int8)
    dist[order] = dist_s
    return dist, start


def _rank_in_runs(keys: np.ndarray) -> np.ndarray:
    """Each element's position within its run of equal ``keys``."""
    rank = np.arange(len(keys), dtype=np.int64)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return rank - np.maximum.accumulate(np.where(first, rank, 0))


def _stack_depths(
    chosen: np.ndarray, sets_of: np.ndarray, times: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The stack depth of each ``chosen`` event's block at one instant.

    ``chosen`` marks, per block, its last event before the instant; a
    block's depth there is one plus the number of chosen events of its
    set that are more recent (a larger ``times``; ``span`` exceeds every
    ``times`` range).  Returns ``(positions, depths)``, a depth beyond
    the stack's width meaning the block had fallen off it.
    """
    picked = np.flatnonzero(chosen)
    picked_sets = sets_of[picked]
    order = np.argsort(picked_sets * span - times[picked])
    depths = np.empty(len(picked), dtype=np.int64)
    depths[order] = _rank_in_runs(picked_sets[order]) + 1
    return picked, depths


def _stack_dirt(
    blocks: np.ndarray,
    is_write: np.ndarray,
    dist: np.ndarray,
    sets: int,
    width: int,
    state: Optional[State] = None,
    start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    cut: Optional[int] = None,
    victims: bool = False,
) -> Tuple[Optional[Tuple[np.ndarray, np.ndarray]], Optional[np.ndarray]]:
    """Every dirty fact of one :func:`_stack_pass`, from its distances.

    Per block, in time order, each access leaves a **reach** ``R``: the
    smallest associativity whose cache holds the block dirty.  A write
    sets it to 1, a read that missed the width-``width`` stack to
    :data:`_CLEAN`, and a read hit at distance ``d`` to ``max(R, d + 1)``
    -- a deeper excursion means that cache already evicted (and wrote
    back) the block after its last write, and re-fetched it clean.
    Between one access and the block's next, whose distance is ``d'``,
    the block sinks from depth 1 and crosses depth ``A`` to ``A + 1``
    for every ``A <= d'``, each crossing an eviction from the A-way
    cache, dirty iff ``R <= A``: the interval adds one writeback to
    every ``A`` in ``[R, d']``.  At the end of the pass ``d'`` is the
    block's final depth minus one, or ``width`` when it fell off.

    A carried stack (``state`` with the kernel's ``start`` rows) opens
    one interval per resident block, at its depth and carried reach.  A
    ``cut`` (an access index) is the same boundary inside the pass:
    crossings count only from it on, so an interval wholly before it
    counts nothing and one that straddles it counts only ``A`` at or
    beyond the block's depth at the cut.

    Returns ``(dirty_victims, writebacks)``:

    * with ``victims``, ``(blocks, at)``: the dirty blocks the
      ``width``-way cache evicts and the indices of the accesses that
      evict them.  A miss that finds its set full evicts the set's least
      recently used block, so within a set the intervals that end off
      the stack pair, in the order they opened, with those misses in
      time order;
    * with ``cut``, ``writebacks[A-1]``: the A-way cache's dirty
      evictions by accesses at or after index ``cut``.

    With ``state`` the touched sets' carried reach is rewritten to match
    the kernel's tags: ``max(R, depth)`` per resident block, and
    :data:`_CLEAN` for an empty way.
    """
    n = len(blocks)
    writebacks = None if cut is None else np.zeros(width, dtype=np.int64)
    miss = dist == width
    value = dist.astype(np.int64) + 1
    value[miss] = _CLEAN
    value[is_write] = 1
    reset = is_write | miss
    times = np.arange(n, dtype=np.int64)
    events = blocks
    if start is not None:
        # Each carried block opens an interval: its "time" is minus its
        # depth, so deeper entries are older and all precede the pass.
        assert state is not None
        set_ids, rows = start
        row, way = np.nonzero(rows >= 0)
        events = np.concatenate([rows[row, way], blocks])
        times = np.concatenate([-1 - way, times])
        value = np.concatenate([state[1][set_ids[row], way], value])
        reset = np.concatenate([np.ones(len(row), dtype=bool), reset])

    # Group events by block, each group in time order.  The first event
    # of a block is a write, a miss or a carried entry, so every group
    # starts a new segment of the running maximum.
    distinct, dense = np.unique(events, return_inverse=True)
    order = _stable_argsort(dense, len(distinct))
    group = dense[order]
    times = times[order]
    segment = np.cumsum(reset[order])
    stride = _CLEAN + 1
    reach = np.maximum.accumulate(value[order] + segment * stride) - segment * stride
    last = np.ones(len(order), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=last[:-1])

    sets_of = distinct[group] & (sets - 1)
    span = n + width + 1
    final, depth = _stack_depths(last, sets_of, times, span)
    if state is not None:
        assert start is not None
        resident = depth <= width
        final_depth = depth[resident]
        state[1][start[0]] = _CLEAN
        state[1][sets_of[final[resident]], final_depth - 1] = np.maximum(
            reach[final[resident]], final_depth
        )
    counting = cut is not None and cut < n
    if not counting and not victims:
        return None, writebacks

    # Each interval's closing distance d', and when it closes.
    following = np.flatnonzero(~last)
    after = np.full(len(order), n, dtype=np.int64)
    after[following] = times[following + 1]
    closing = np.empty(len(order), dtype=np.int64)
    closing[following] = dist[after[following]]
    closing[final] = np.minimum(depth - 1, width)
    dirty_victims = None
    if victims:
        off = np.flatnonzero(closing == width)
        off = off[np.argsort(sets_of[off] * span + times[off])]
        evicting = np.flatnonzero(miss)
        miss_sets = blocks[evicting] & (sets - 1)
        by_set = _stable_argsort(miss_sets, sets)
        evicting, miss_sets = evicting[by_set], miss_sets[by_set]
        held = np.zeros(sets, dtype=np.int64)
        if start is not None:
            held[start[0]] = np.count_nonzero(start[1] >= 0, axis=1)
        evicting = evicting[held[miss_sets] + _rank_in_runs(miss_sets) >= width]
        dirty = reach[off] <= width
        dirty_victims = (distinct[group[off[dirty]]], evicting[dirty])
    if counting:
        floor = np.ones(len(order), dtype=np.int64)
        straddle, cut_depth = _stack_depths(
            (times < cut) & (after >= cut), sets_of, times, span
        )
        floor[straddle] = cut_depth
        lowest = np.maximum(reach, floor)
        counted = (after >= cut) & (lowest <= closing)
        bounds = np.bincount(lowest[counted] - 1, minlength=width + 1)
        bounds -= np.bincount(closing[counted], minlength=width + 1)
        writebacks = np.cumsum(bounds)[:width]
    return dirty_victims, writebacks


def _run_heads(blocks: np.ndarray, is_write: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse each run of consecutive accesses to one block into its
    head: ``(heads, writes)``, the heads' indices and, per head, whether
    any access of its run writes.  The rest of a run are distance-0 hits
    in every cache the stream can meet -- nothing else touched any set
    in between -- so a kernel's outputs over the heads expand back
    exactly."""
    n = len(blocks)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    return heads, np.logical_or.reduceat(is_write, heads)


def _stack_replay(
    blocks: np.ndarray,
    is_write: np.ndarray,
    sets: int,
    width: int,
    state: Optional[State] = None,
    cut: Optional[int] = None,
    victims: bool = False,
) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]], Optional[np.ndarray]]:
    """One width-``width`` LRU stack replay: :func:`_stack_pass` over the
    heads of the stream's same-block runs (:func:`_run_heads`), then
    :func:`_stack_dirt`, expanded back to every access.

    Returns ``(dist, dirty_victims, writebacks)`` as those two define
    them, with indices -- the victims' evicting accesses and ``cut`` --
    into ``blocks``; the rest of a run has distance 0.
    """
    heads, head_writes = _run_heads(blocks, is_write)
    head_blocks = blocks[heads]
    head_dist, start = _stack_pass(
        head_blocks, sets, width, None if state is None else state[0]
    )
    dirty, writebacks = _stack_dirt(
        head_blocks, head_writes, head_dist, sets, width, state, start,
        None if cut is None else int(np.searchsorted(heads, cut)), victims,
    )
    dist = np.zeros(len(blocks), dtype=np.int8)
    dist[heads] = head_dist
    if dirty is not None:
        dirty = (dirty[0], heads[dirty[1]])
    return dist, dirty, writebacks


def _simulate_level(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    associativity: int,
    state: Optional[State] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level on its kernel, chosen by associativity alone; either
    kernel sees only the heads of the stream's same-block runs.

    Returns ``(miss_mask, victim_blocks, victim_keys)``, see
    :func:`_simulate_dm_level`.
    """
    if associativity > 1:
        dist, dirty, _ = _stack_replay(
            blocks, is_write, sets, associativity, state, victims=True
        )
        assert dirty is not None
        return dist == associativity, dirty[0], order_keys[dirty[1]]
    heads, head_writes = _run_heads(blocks, is_write)
    head_miss, victims, victim_keys = _simulate_dm_level(
        blocks[heads], head_writes, order_keys[heads], sets, state
    )
    miss = np.zeros(len(blocks), dtype=bool)
    miss[heads] = head_miss
    return miss, victims, victim_keys


def _merge_parts(parts: List[Stream], bound: int) -> Stream:
    """Concatenate event fragments and sort them into time order;
    every order key is below ``bound``."""
    blocks = np.concatenate([p[0] for p in parts])
    writes = np.concatenate([p[1] for p in parts])
    buckets = np.concatenate([p[2] for p in parts])
    keys = np.concatenate([p[3] for p in parts])
    order = _stable_argsort(keys, bound)
    return blocks[order], writes[order], buckets[order], keys[order]


def _accumulate_level(
    stats: CacheStats,
    is_write: np.ndarray,
    bucket: np.ndarray,
    miss: np.ndarray,
    keys: np.ndarray,
    victim_keys: np.ndarray,
    warmup_key: int,
    through: bool,
) -> None:
    """Fold one level's kernel outputs into its post-warmup counters;
    ``through`` marks a write-through level, which forwards every write
    ``is_write`` brings in."""
    counted = keys >= warmup_key
    read_bucket = bucket == _BUCKET_READ
    stats.reads += int(np.count_nonzero(counted & read_bucket))
    stats.read_misses += int(np.count_nonzero(counted & read_bucket & miss))
    stats.writes += int(np.count_nonzero(counted & ~read_bucket))
    stats.write_misses += int(np.count_nonzero(counted & ~read_bucket & miss))
    stats.blocks_fetched += int(np.count_nonzero(counted & miss))
    stats.writebacks += int(np.count_nonzero(victim_keys >= warmup_key))
    if through:
        stats.writes_forwarded += int(np.count_nonzero(counted & is_write))


def _cpu_streams(trace: Trace, split: bool, key_offset: int) -> List[Stream]:
    """The CPU reference stream, as the first level's input.

    Blocks are byte addresses (zero offset bits); a split first level
    gets its I-side and D-side streams separately.  Order keys: CPU
    events carry the record index; each level's outputs use ``key*4 +
    {1: victim writeback, 2: demand fetch, 3: forwarded write}`` -- the
    order in which :meth:`~repro.sim.hierarchy.CacheHierarchy.write`
    sends one access's traffic down -- so a stream entering level
    ``i`` has keys scaled by ``4**i`` and the original record index is
    ``key // 4**i``.  ``key_offset`` is the index of the trace's first
    record, so a chunk's keys stay global (and strictly increasing
    across chunks).
    """
    kinds = trace.kinds
    is_write = kinds == WRITE
    addresses = trace.addresses.astype(np.int64)
    if not split:
        return [
            (
                addresses,
                is_write,
                np.where(is_write, _BUCKET_WRITE, _BUCKET_READ).astype(np.int8),
                np.arange(key_offset, key_offset + len(trace), dtype=np.int64),
            )
        ]
    # Index gathers: a boolean-mask gather costs several times a
    # flatnonzero plus a take over the same array.  The I-side carries
    # no writes; a record's key is its index.
    is_ifetch = kinds == IFETCH
    ifetch = np.flatnonzero(is_ifetch)
    data = np.flatnonzero(~is_ifetch)
    data_write = is_write[data]
    return [
        (
            addresses[ifetch],
            np.zeros(len(ifetch), dtype=bool),
            np.full(len(ifetch), _BUCKET_READ, dtype=np.int8),
            ifetch + key_offset,
        ),
        (
            addresses[data],
            data_write,
            np.where(data_write, _BUCKET_WRITE, _BUCKET_READ).astype(np.int8),
            data + key_offset,
        ),
    ]


def memory_traffic(stats: CacheStats) -> Tuple[int, int]:
    """Post-warmup ``(reads, writes)`` reaching memory, from the deepest
    level's statistics: its demand fetches are the reads, its dirty
    victims and forwarded writes the writes.  These are exactly the
    events its output stream would carry, counted under the same key
    threshold (an input key ``k`` leaves as ``4k + 1..3``, past the
    next level's boundary ``4 * warmup_key`` iff ``k >= warmup_key``),
    so the deepest level builds no stream at all."""
    return stats.blocks_fetched, stats.writebacks + stats.writes_forwarded


class _Front:
    """The replay driver: the first ``levels`` cache levels over a trace.

    Replays the trace ``chunk_records`` records at a time, every level
    (each side of a split first level) carrying its state between chunks
    so that counts are identical to replaying it whole.  Whole-trace
    replay is the same driver with one chunk (``chunk_records`` ``None``
    or at least the trace length); the kernels then start cold on
    touched-set rows only and carry nothing.  Per-level post-warmup
    counters accumulate into ``level_stats``.

    :meth:`streams` drives the replay, yielding per chunk the event
    streams that enter level ``levels``: one merged stream, or the CPU
    streams of :func:`_cpu_streams` when ``levels`` is 0.  Their blocks
    have ``bits`` offset bits; their keys are global and scaled by
    ``4**levels``.  At full depth an empty list is yielded unless
    ``memory_stream`` asks for the stream: what reaches memory is counted
    from the deepest level's statistics (:func:`memory_traffic`), not
    from a merged stream nobody reads.
    """

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig,
        levels: int,
        chunk_records: Optional[int] = None,
        memory_stream: bool = False,
    ) -> None:
        self.trace = trace
        self.config = config
        self.levels = levels
        #: Whether the hierarchy's deepest level builds the stream it
        #: sends memory; otherwise that traffic is only counted.
        self.memory_stream = memory_stream
        self.chunk_records = chunk_records or len(trace)
        self.chunked = self.chunk_records < len(trace)
        self.level_stats = [CacheStats() for _ in range(levels)]
        self.bits = log2_int(config.levels[levels - 1].block_bytes) if levels else 0
        #: Streams yielded per chunk: two only for a split, unreplayed L1.
        self.sides = 2 if levels == 0 and config.levels[0].split else 1
        self._states = [
            [
                self.new_state(level.geometry().sets, level.associativity)
                for _ in range(2 if level.split and index == 0 else 1)
            ]
            for index, level in enumerate(config.levels[:levels])
        ]

    def new_state(self, sets: int, width: int) -> Optional[State]:
        """A cold carried level state, or ``None`` for a one-chunk replay."""
        return _new_state(sets, width) if self.chunked else None

    def streams(
        self, trail: Optional[List[Tuple]] = None, span: str = "fast.chunk"
    ) -> Iterator[List[Stream]]:
        """Replay the trace, yielding each chunk's output streams.

        ``trail``, when given, receives one ``(keys, miss, victims,
        victim_keys)`` tuple per level and chunk: the order keys of the
        level's input events, their miss mask, and the level's dirty
        victims (blocks at its granularity) stamped with the evicting
        access's key.  A split first level contributes its two halves
        concatenated.  The timing simulator's event engine replays these
        outcomes.  A chunked replay times each chunk as a ``span``.
        """
        if not self.chunked:
            yield self._replay(self.trace, 0, trail)
            return
        for index, chunk in enumerate(self.trace.chunks(self.chunk_records)):
            # The span closes before the yield: it times this chunk's
            # level simulation, not whatever the consumer does with it.
            with telemetry.span(span, index=index, records=len(chunk)):
                sides = self._replay(chunk, index * self.chunk_records, trail)
            yield sides

    def _replay(
        self,
        chunk: Trace,
        key_offset: int,
        trail: Optional[List[Tuple]],
        start: int = 0,
        sides: Optional[List[Stream]] = None,
    ) -> List[Stream]:
        """Replay levels ``start`` onwards over one chunk.

        ``sides`` are the streams entering level ``start``: the chunk's
        CPU streams when it is 0 (the default), otherwise the output of
        level ``start - 1`` -- a cached upstream replay, say
        (:func:`_cached_front`).  Returns the streams leaving the last
        replayed level, or ``[]`` when that is the hierarchy's deepest.
        """
        if sides is None:
            sides = _cpu_streams(chunk, self.config.levels[0].split, key_offset)
        bits = log2_int(self.config.levels[start - 1].block_bytes) if start else 0
        for index in range(start, self.levels):
            states = self._states[index]
            level = self.config.levels[index]
            here = log2_int(level.block_bytes)
            # A write-through level never holds a dirty block: its tags
            # evolve as a write-back level's do, but its kernel sees no
            # writes, and every write entering it goes down as a
            # forwarded write instead of a later victim.
            through = level.write_policy is WritePolicy.WRITE_THROUGH
            deepest = index == self.config.depth - 1 and not self.memory_stream
            parts: List[Stream] = []
            outcomes = []
            for (s_blocks, s_write, s_bucket, s_keys), state in zip(sides, states):
                blocks = s_blocks >> (here - bits)
                miss, victims, victim_keys = _simulate_level(
                    blocks, np.zeros_like(s_write) if through else s_write,
                    s_keys, level.geometry().sets, level.associativity, state,
                )
                _accumulate_level(
                    self.level_stats[index], s_write, s_bucket, miss, s_keys,
                    victim_keys, self.trace.warmup * 4**index, through,
                )
                outcomes.append((s_keys, miss, victims, victim_keys))
                if deepest:
                    continue
                # Dirty victims go down as writes.  Demand fetches always
                # enter the next level as *reads*: the fetched block
                # arrives clean (write-allocate dirties it in the
                # receiving cache, not downstream), so the fetch never
                # carries the missing access's write flag.  The
                # statistics bucket still tracks the originating access
                # so store-induced traffic stays out of the read miss
                # ratios.
                parts.append(
                    (
                        victims,
                        np.ones(len(victims), dtype=bool),
                        np.full(len(victims), _BUCKET_WRITE, dtype=np.int8),
                        victim_keys * 4 + 1,
                    )
                )
                fetched = np.flatnonzero(miss)
                parts.append(
                    (
                        blocks[fetched],
                        np.zeros(len(fetched), dtype=bool),
                        s_bucket[fetched],
                        s_keys[fetched] * 4 + 2,
                    )
                )
                if through:
                    forwarded = np.flatnonzero(s_write)
                    parts.append(
                        (
                            blocks[forwarded],
                            np.ones(len(forwarded), dtype=bool),
                            np.full(len(forwarded), _BUCKET_WRITE, dtype=np.int8),
                            s_keys[forwarded] * 4 + 3,
                        )
                    )
            if trail is not None:
                trail.append(tuple(np.concatenate(c) for c in zip(*outcomes)))
            if deepest:
                return []
            # Keys entering level ``index`` are below ``len * 4**index``,
            # so this level's outputs are below four times that.
            sides = [_merge_parts(parts, len(self.trace) * 4 ** (index + 1))]
            bits = here
        return sides


def front_projection(config: SystemConfig) -> Tuple:
    """What ``config``'s cached front depends on besides the trace: its
    inclusion policy and its upstream levels' functional projections.
    Cells of a sweep that share a trace and this projection share one
    front replay."""
    from repro.sim import memo  # memo dispatches through this module

    return (
        config.enforce_inclusion,
        tuple(memo.level_projection(level) for level in config.levels[:-1]),
    )


def _front_key(trace: Trace, config: SystemConfig) -> Tuple:
    from repro.sim import memo

    return (memo.trace_fingerprint(trace), *front_projection(config))


def _cached_front(
    trace: Trace, config: SystemConfig
) -> Tuple[List[CacheStats], List[Stream]]:
    """The statistics of ``config``'s upstream levels (all but the
    deepest) over the whole ``trace``, and the streams they send the
    deepest level, cached.

    The returned statistics are fresh copies (callers own them); the
    stream arrays are shared and treated as read-only by the kernels.
    """
    key = _front_key(trace, config)
    hit = _front_cache.get(key)
    if hit is None:
        telemetry.counter_add("front.misses")
        front = _Front(trace, config, config.depth - 1)
        with telemetry.span("fast.front", records=len(trace), depth=front.levels):
            sides = next(front.streams())
        hit = (tuple(front.level_stats), sides)
        _front_cache[key] = hit
        while len(_front_cache) > _FRONT_CACHE_ENTRIES:
            _front_cache.popitem(last=False)
    else:
        telemetry.counter_add("front.hits")
        _front_cache.move_to_end(key)
    upstream, sides = hit
    return [replace(stats) for stats in upstream], sides


def clear_front_cache() -> None:
    """Drop the cached upstream streams (tests and benchmarks)."""
    _front_cache.clear()


def sparse_eligible(config: SystemConfig) -> bool:
    """True when :class:`_SparseWalk` reproduces ``config``: its first
    level has no prefetcher and fetches single blocks, so only an access
    to a level-1 set (or a back-invalidation) changes that set."""
    first = config.levels[0]
    return first.prefetch is PrefetchKind.NONE and first.fetch_blocks == 1


class _SparseWalk:
    """The whole hierarchy walked through :class:`CacheHierarchy`, minus
    the reads and stores that provably change nothing.

    A CPU read whose previous access to the same level-1 set (of the same
    cache, I or D) was to the same block -- and, when the first level
    does not write-allocate, was not a store -- hits the set's most
    recently touched block: LRU already holds it at way 0, FIFO and
    random never reorder, and with no first-level prefetcher no fresh bit
    or hit-triggered prefetch is involved.  Such a read only adds one to
    its cache's ``reads``.  In a write-back, write-allocate first level,
    a store to that block changes nothing but ``writes`` once an earlier
    store of the same-block run -- the set's consecutive accesses to the
    block -- has dirtied it.  Both are skipped and counted in bulk.

    The one thing that removes that block without an access to its set is
    a back-invalidation under enforced inclusion, which
    :meth:`CacheHierarchy.back_invalidate` reports through
    ``hierarchy.dropped``; the next access to every set it touched is then
    walked after all.  The refill is clean, so the set's next store is
    walked too, even when a skipped read comes first.

    Chunks of a streamed replay carry each set's last block, whether it
    was a store, whether its same-block run has dirtied it, and whether a
    block was dropped from it since, so counts are identical to a
    whole-trace walk.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.hierarchy = CacheHierarchy(config)
        first = config.levels[0]
        geometry = first.geometry()
        self.sets = geometry.sets
        self.bits = geometry.offset_bits
        self.allocate = first.write_allocate
        #: Whether the store rule applies: only there does a store to a
        #: block its run has dirtied change nothing but ``writes``.
        self.store_runs = (
            first.write_allocate and first.write_policy is WritePolicy.WRITE_BACK
        )
        #: Level-1 caches by side: 0 data (or unified), 1 instructions.
        self.caches = [self.hierarchy.dcache]
        if self.hierarchy.icache is not None:
            self.caches.append(self.hierarchy.icache)
        groups = len(self.caches) * self.sets
        #: Per (side, set), carried between chunks: the block of its last
        #: access (``-1``: none yet), whether that access was a store,
        #: whether the same-block run it ends holds a store, and whether a
        #: back-invalidation has dropped a block from the set since its
        #: last access (``stale``) or since its last store (``stale_store``).
        self.last = np.full(groups, -1, dtype=np.int64)
        self.last_store = np.zeros(groups, dtype=bool)
        self.dirty = np.zeros(groups, dtype=bool)
        self.stale = np.zeros(groups, dtype=bool)
        self.stale_store = np.zeros(groups, dtype=bool)
        self.walked = self.forced = 0

    def run(self, trace: Trace, chunk_records: Optional[int]) -> None:
        """Walk ``trace`` (in ``chunk_records``-record chunks when given)."""
        self.hierarchy.dropped = []
        for chunk in trace.chunks(chunk_records or max(len(trace), 1)):
            self._chunk(chunk)
        self.hierarchy.dropped = None
        telemetry.counter_add("fast.sparse.walked", self.walked)
        telemetry.counter_add("fast.sparse.forced", self.forced)

    def _chunk(self, chunk: Trace) -> None:
        """Walk one chunk; its residual warmup counts nothing."""
        n = len(chunk)
        kinds = chunk.kinds
        order, skip, bounds, next_store = self._plan(chunk)

        hierarchy = self.hierarchy
        access = hierarchy.access
        dropped = hierarchy.dropped
        forced: List[int] = []
        cut = chunk.warmup

        def force(j: int) -> None:
            t = int(order[j])
            if skip[t]:
                skip[t] = False
                heapq.heappush(forced, t)

        def redirect(t: int) -> None:
            # Force the next access after ``t`` to every set a
            # back-invalidation touched, and its next store, which
            # dirties the clean refill again; with none left in this
            # chunk, the set's first access (or store) in the next chunk.
            # ``bisect`` reads a few elements of ``order`` in place, far
            # cheaper per dropped block than a NumPy search call.
            for cache, address in dropped:
                g = ((address >> self.bits) & (self.sets - 1)) + self.sets * (
                    cache is not self.caches[0]
                )
                hi = int(bounds[g + 1])
                j = bisect.bisect_right(order, t, int(bounds[g]), hi)
                if j == hi:
                    self.stale[g] = self.stale_store[g] = True
                    continue
                force(j)
                if self.store_runs:
                    k = int(next_store[j])
                    if k < hi:
                        force(k)
                    else:
                        self.stale_store[g] = True
            dropped.clear()

        def force_until(stop: int) -> None:
            while forced and forced[0] < stop:
                t = heapq.heappop(forced)
                self.walked += 1
                self.forced += 1
                access(int(kinds[t]), int(chunk.addresses[t]))
                if dropped:
                    redirect(t)

        # The static walk list is fixed up front: forced records join it
        # through the heap only.
        walks = np.flatnonzero(~skip).astype(np.int32)
        split = int(np.searchsorted(walks, cut))
        for lo, hi, walk in ((0, cut, walks[:split]), (cut, n, walks[split:])):
            if lo == hi:
                continue
            hierarchy.set_counting(lo >= cut)
            self.walked += len(walk)
            for t, kind, address in zip(
                walk.tolist(), kinds[walk].tolist(), chunk.addresses[walk].tolist()
            ):
                if forced and forced[0] < t:
                    force_until(t)
                access(kind, address)
                if dropped:
                    redirect(t)
            force_until(hi)
        # Skipped records in the measured region are hits, counted here.
        measured = skip[cut:]
        skipped = int(np.count_nonzero(measured))
        if len(self.caches) == 2:
            ifetches = int(np.count_nonzero(measured & (kinds[cut:] == IFETCH)))
            self.caches[1].stats.reads += ifetches
            skipped -= ifetches
        stores = int(np.count_nonzero(measured & (kinds[cut:] == WRITE)))
        self.caches[0].stats.reads += skipped - stores
        self.caches[0].stats.writes += stores

    def _plan(
        self, chunk: Trace
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """One chunk's static plan, and the carried per-set state advanced
        past it: the record order by (side, set), each record's skip flag
        in trace order, each (side, set)'s bounds in that order, and (with
        the store rule) each sorted access's next store in it.  The
        temporaries die here, before the walk."""
        n = len(chunk)
        kinds = chunk.kinds
        blocks = (chunk.addresses >> np.uint64(self.bits)).astype(np.int64)
        group = blocks & (self.sets - 1)
        if len(self.caches) == 2:
            group += self.sets * (kinds == IFETCH)
        order = _stable_argsort(group, len(self.last)).astype(np.int32)
        group_s = group[order]
        blocks_s = blocks[order]
        del blocks, group  # only their sorted copies are needed below
        store_s = kinds[order] == WRITE
        # Whether each access's predecessor in its set -- the previous one
        # in the sorted order, or the carried last access for a set's
        # first -- was to the same block.
        head = np.ones(n, dtype=bool)
        np.not_equal(group_s[1:], group_s[:-1], out=head[1:])
        same = np.empty(n, dtype=bool)
        np.equal(blocks_s[1:], blocks_s[:-1], out=same[1:])
        same[head] = blocks_s[head] == self.last[group_s[head]]
        skip_s = same & ~store_s
        next_store = None
        if not self.allocate:
            prev_store = np.empty(n, dtype=bool)
            prev_store[1:] = store_s[:-1]
            prev_store[head] = self.last_store[group_s[head]]
            skip_s &= ~prev_store
        if self.store_runs:
            dirty = self._dirty_before(same, head, store_s, group_s)
            skip_s |= same & store_s & dirty
        # A set dropped from since its last access walks its next one.
        stale = head & self.stale[group_s]
        self.forced += int(np.count_nonzero(skip_s & stale))
        skip_s &= ~stale
        self.stale[group_s[head]] = False
        if self.store_runs:
            # One dropped from since its last store walks its next store.
            stores = np.flatnonzero(store_s)
            first = np.ones(len(stores), dtype=bool)
            np.not_equal(group_s[stores[1:]], group_s[stores[:-1]], out=first[1:])
            first = stores[first]
            pending = first[self.stale_store[group_s[first]]]
            pending = pending[skip_s[pending]]
            self.forced += len(pending)
            skip_s[pending] = False
            self.stale_store[group_s[first]] = False
            # Each access's next store in sorted order (``n``: none).
            next_store = np.where(store_s, np.arange(n, dtype=np.int32), n)[::-1]
            next_store = np.minimum.accumulate(next_store)[::-1]
        skip = np.empty(n, dtype=bool)
        skip[order] = skip_s
        tail = np.flatnonzero(np.append(head[1:], True))
        self.last[group_s[tail]] = blocks_s[tail]
        self.last_store[group_s[tail]] = store_s[tail]
        if self.store_runs:
            self.dirty[group_s[tail]] = dirty[tail] | store_s[tail]
        bounds = np.searchsorted(group_s, np.arange(len(self.last) + 1))
        return order, skip, bounds, next_store

    def _dirty_before(
        self,
        same: np.ndarray,
        head: np.ndarray,
        store_s: np.ndarray,
        group_s: np.ndarray,
    ) -> np.ndarray:
        """Per access in (side, set) order: whether an earlier store of
        its same-block run -- or, for a run carried in from the previous
        chunk, the carried flag -- has dirtied the block."""
        n = len(same)
        positions = np.arange(n, dtype=np.int32)
        run_start = np.where(head | ~same, positions, 0)
        np.maximum.accumulate(run_start, out=run_start)
        last_store = np.full(n, -1, dtype=np.int32)
        np.copyto(last_store[1:], positions[:-1], where=store_s[:-1])
        np.maximum.accumulate(last_store, out=last_store)
        carried = head & same & self.dirty[group_s]
        return (last_store >= run_start) | carried[run_start]


class FastFunctionalSimulator:
    """Drop-in counterpart of the reference functional simulator.

    Produces a :class:`~repro.sim.functional.FunctionalResult` with counts
    identical to the reference implementation on every
    :func:`sparse_eligible` configuration.  The first ``front_depth``
    levels replay on the vectorised front; any deeper levels walk the
    stream the front sends down through one
    :class:`~repro.sim.hierarchy.CacheHierarchy`, which then also counts
    memory traffic.  With a ``front_depth`` of 0 the whole run takes the
    sparse walk (:class:`_SparseWalk`).  With ``REPRO_TRACE_CHUNK`` set
    (and smaller than the trace), the trace streams through in chunks --
    same counts, bounded residency, which is what lets memmap-backed
    store traces run without ever materialising in full.
    """

    def __init__(self, config: SystemConfig) -> None:
        if not sparse_eligible(config):
            raise ValueError(
                "first level outside the fast path (a prefetcher or "
                "multi-block fetch); use FunctionalSimulator"
            )
        self.front_depth = front_depth(config)
        self.config = config

    def run(self, trace: Trace) -> FunctionalResult:
        config, depth = self.config, self.front_depth
        if depth == 0:
            return self._run_sparse(trace)
        # Chunked replay is count-identical to the one-chunk run (parity
        # tests); REPRO_TRACE_CHUNK tunes residency, never the results.
        front = _Front(trace, config, depth, replay_chunk_records())  # repro: noqa RPR008
        threshold = trace.warmup * 4**depth
        # Levels below the front: one hierarchy, carried across chunks.
        tail = CacheHierarchy(config) if depth < config.depth else None
        chunked = {"chunked": True} if front.chunked else {}
        with telemetry.span("fast.run", records=len(trace), **chunked):
            if tail is None and depth >= 2 and not front.chunked:
                # A whole-trace replay of a fully vectorised hierarchy
                # takes its upstream levels from the front cache and
                # replays only the deepest level.
                upstream, sides = _cached_front(trace, config)
                front.level_stats[: depth - 1] = upstream
                front._replay(trace, 0, None, depth - 1, sides)
            else:
                for sides in front.streams():
                    if tail is not None:
                        [(blocks, is_write, buckets, keys)] = sides
                        tail.replay_stream(
                            depth, blocks << front.bits, is_write, buckets, keys,
                            threshold,
                        )
        level_stats = front.level_stats
        if tail is None:
            memory_reads, memory_writes = memory_traffic(level_stats[-1])
        else:
            level_stats = level_stats + tail.level_stats()[depth:]
            memory_reads = tail.memory_traffic.reads
            memory_writes = tail.memory_traffic.writes
        return functional_result(
            trace, config, level_stats, memory_reads, memory_writes,
            source="fast-path",
        )

    def _run_sparse(self, trace: Trace) -> FunctionalResult:
        """Every level through :class:`_SparseWalk` (a first level the
        front cannot replay, or enforced inclusion)."""
        walk = _SparseWalk(self.config)
        # Chunked replay is count-identical to the whole-trace walk.
        chunk_records = replay_chunk_records()
        if chunk_records is not None and chunk_records >= len(trace):
            chunk_records = None
        chunked = {"chunked": True} if chunk_records else {}
        with telemetry.span("fast.run", records=len(trace), sparse=True, **chunked):
            walk.run(trace, chunk_records)
        hierarchy = walk.hierarchy
        return functional_result(
            trace, self.config, hierarchy.level_stats(),
            hierarchy.memory_traffic.reads, hierarchy.memory_traffic.writes,
            source="fast-path",
        )


def trace_eligible(trace: Trace) -> bool:
    """The vectorised path works in signed 64-bit block arithmetic, so
    addresses must stay below 2**63 (every realistic trace does)."""
    return len(trace) == 0 or int(trace.addresses.max()) < 2**63


def run_functional(trace: Trace, config: SystemConfig) -> FunctionalResult:
    """Run a functional simulation on the fastest correct engine.

    Dispatches to :class:`FastFunctionalSimulator` when it accepts the
    configuration (:func:`sparse_eligible`) and the trace is eligible,
    otherwise to the reference implementation.
    """
    if sparse_eligible(config) and trace_eligible(trace):
        return FastFunctionalSimulator(config).run(trace)
    from repro.sim.functional import FunctionalSimulator

    return FunctionalSimulator(config).run(trace)
