"""The replay oracle: vectorised replay equals the reference simulator.

The fast path (:func:`~repro.sim.fast.run_functional`) and every member
of a stack-distance grid pass
(:func:`~repro.sim.stackdist.run_stackdist_grid`) share one LRU stack
kernel and one replay driver, so neither can vouch for the other: each
is held to :class:`~repro.sim.functional.FunctionalSimulator` on the
same (member) configuration, replaying whole and in chunks.

Hypothesis draws fast-eligible configurations (1-3 levels, split or
unified first level, 1-16 ways, write-back or write-allocate
write-through at any level, equal or growing blocks, one to eight sets;
the grid's deepest level stays write-back), short adversarial traces
(set-conflict storms deeper than the widest stack, write bursts), a
warmup boundary anywhere -- on a chunk edge included -- and chunk sizes
of 1, awkward sizes, and at least the trace length.

The fast-path oracle first runs two siblings of the drawn
configuration -- one with a larger L1, then one differing only at the
deepest level -- so a whole-trace run of a deeper hierarchy replays
only its deepest level, on the upstream streams the front cache kept
(:func:`~repro.sim.fast._cached_front`).

A second family puts one level the front cannot replay (prefetching,
no-allocate, two-block fetch, FIFO, random, 32 ways, smaller blocks)
below a vectorised prefix of one or two levels, so the fast path hands
the prefix's output stream to the per-event tail; the same traces hold
it to the reference.  :func:`~repro.sim.fast.front_depth`
is checked against the draws that built each configuration.

A third family leaves no level to the front -- a FIFO, random,
non-allocating or write-through first level of one to four ways, or
enforced inclusion -- with one or two plain or tail levels below, and
holds the sparse walk (:class:`~repro.sim.fast._SparseWalk`) to the
reference, whole and chunked, on the adversarial traces and on
store-heavy ones of long same-block runs.  Two hand-built traces pin its
hazards: an L2 eviction back-invalidating the live most-recent block of
an L1 set that is then re-read, and one back-invalidating a dirty block
in the middle of a store run, whose next store must dirty the clean
refill again.

Two metamorphic properties need no oracle at all: L2 misses never rise
with L2 associativity at a fixed set count (8 and 16 ways on the
vectorised front, 32 on the tail), and a write-back L2 never writes
memory more often than a write-allocate write-through one.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.audit.parity import assert_counts_equal
from repro.cache.policy import WritePolicy
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import (
    FastFunctionalSimulator,
    clear_front_cache,
    fast_eligible,
    front_depth,
    run_functional,
    sparse_eligible,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import (
    STACK_ASSOCIATIVITIES,
    member_config,
    run_stackdist_grid,
    stackdist_eligible,
)
from repro.trace.record import IFETCH, READ, WRITE, Trace

WAYS = (1, 2, 4, 8, 16)

#: A multiple of every drawn level's sets x block bytes: addresses this
#: far apart share a set at every level.
STRIDE = 4096


@contextmanager
def chunked(records):
    """Replay in ``records``-record chunks (``None``: the whole trace)."""
    saved = os.environ.pop("REPRO_TRACE_CHUNK", None)
    if records is not None:
        os.environ["REPRO_TRACE_CHUNK"] = str(records)
    try:
        yield
    finally:
        os.environ.pop("REPRO_TRACE_CHUNK", None)
        if saved is not None:
            os.environ["REPRO_TRACE_CHUNK"] = saved


#: Write policies the front replays, both with write-allocate.
POLICIES = (WritePolicy.WRITE_BACK, WritePolicy.WRITE_THROUGH)


def _plain_level(draw, block, split=False, policies=POLICIES):
    """A fast-eligible level with ``block``-byte blocks and few sets."""
    ways = draw(st.sampled_from(WAYS))
    sides = 2 if split else 1
    return LevelConfig(
        size_bytes=block * ways * sides * draw(st.sampled_from((1, 2, 4, 8))),
        block_bytes=block,
        associativity=ways,
        split=split,
        write_policy=draw(st.sampled_from(policies)),
    )


@st.composite
def configs(draw, deepest_write_back=False):
    """Fast-eligible hierarchies with so few sets that every set
    conflicts; any level may be write-through, the deepest only when
    ``deepest_write_back`` is false."""
    split = draw(st.booleans())
    block = draw(st.sampled_from((16, 32)))
    depth = draw(st.integers(1, 3))
    levels = []
    for index in range(depth):
        if index:
            block *= draw(st.sampled_from((1, 2)))
        policies = POLICIES
        if deepest_write_back and index == depth - 1:
            policies = (WritePolicy.WRITE_BACK,)
        levels.append(_plain_level(draw, block, split and index == 0, policies))
    config = SystemConfig(levels=tuple(levels))
    assert fast_eligible(config)
    # The grid's writeback invariant needs a write-back deepest level.
    assert stackdist_eligible(config) == (
        levels[-1].write_policy is WritePolicy.WRITE_BACK
    )
    return config


#: Level changes the front cannot replay, each a full level below a
#: vectorised prefix (sizes are filled in by :func:`tail_configs`).
TAIL_VARIATIONS = (
    {"prefetch": "on-miss"},
    {"prefetch": "tagged"},
    {"prefetch": "always"},
    {"write_policy": "write-through", "write_allocate": False},
    {"write_allocate": False},
    {"fetch_blocks": 2},
    {"associativity": 2, "replacement": "fifo"},
    {"associativity": 4, "replacement": "random"},
    {"associativity": 32},
    {"block_bytes": "smaller"},
)


def _tail_level(draw, above_block, variations=TAIL_VARIATIONS):
    """One level the front cannot replay, below ``above_block``-byte blocks."""
    changes = dict(draw(st.sampled_from(variations)))
    if changes.get("block_bytes") == "smaller":
        changes["block_bytes"] = above_block // 2
    if "prefetch" in changes:
        changes["prefetch_distance"] = draw(st.integers(1, 2))
    block = changes.pop("block_bytes", above_block * draw(st.sampled_from((1, 2))))
    ways = changes.pop("associativity", draw(st.sampled_from((1, 2, 4))))
    sets = draw(st.sampled_from((2, 4, 8)))
    return LevelConfig(
        size_bytes=block * ways * sets, block_bytes=block, associativity=ways,
        **changes,
    )


@st.composite
def tail_configs(draw):
    """A vectorised prefix of one or two levels, one level only the
    per-event tail can walk, and sometimes a plain level below it."""
    split = draw(st.booleans())
    block = draw(st.sampled_from((16, 32)))
    levels = [_plain_level(draw, block, split)]
    if draw(st.booleans()):
        block *= draw(st.sampled_from((1, 2)))
        levels.append(_plain_level(draw, block))
    prefix = len(levels)
    levels.append(_tail_level(draw, block))
    if prefix == 1 and draw(st.booleans()):
        levels.append(_plain_level(draw, max(block, levels[-1].block_bytes)))
    config = SystemConfig(levels=tuple(levels))
    assert front_depth(config) == prefix
    return config


@st.composite
def replays(draw):
    """A short adversarial trace and a chunk size (``None``: whole)."""
    n = draw(st.integers(0, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # More tags than the widest stack, a few sets apart: a storm.
    tags = draw(st.integers(1, 24))
    sets = draw(st.sampled_from((1, 4, 32)))
    addresses = rng.integers(0, tags, n) * STRIDE + rng.integers(0, sets, n) * 16
    write_share = draw(st.sampled_from((0.1, 0.5, 0.9)))
    kinds = np.where(
        rng.random(n) < 0.3,
        IFETCH,
        np.where(rng.random(n) < write_share, WRITE, READ),
    )
    if n and draw(st.booleans()):
        # A write burst walking one conflict chain.
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(4, 40)))
        kinds[start:stop] = WRITE
        addresses[start:stop] = np.arange(stop - start) * STRIDE
    chunk = draw(st.sampled_from((None, 1, 3, 7, 13)) | st.integers(max(n, 1), n + 5))
    edges = [0, n] if chunk is None else list(range(0, n + 1, chunk))
    warmup = draw(st.integers(0, n) | st.sampled_from(edges))
    return Trace(kinds, addresses, warmup=warmup), chunk


@settings(max_examples=150, deadline=None)
@given(config=configs(), replay=replays())
def test_fast_path_equals_reference(config, replay):
    """The sibling shares every upstream level, so a whole-trace run of
    two or more levels is served from the front cache; the decoy's larger
    L1 catches a cache key blind to the upstream levels."""
    trace, chunk = replay
    deepest = config.levels[-1].associativity
    sibling = member_config(config, 2 if deepest == 1 else 1)
    decoy = sibling.with_level(0, size_bytes=config.levels[0].size_bytes * 2)
    served = config.depth >= 2 and (chunk is None or chunk >= len(trace))
    clear_front_cache()
    with chunked(chunk):
        run_functional(trace, decoy)
        run_functional(trace, sibling)
        since = telemetry.mark()
        fast = run_functional(trace, config)
    hits = telemetry.counter_deltas(since).get("front.hits", 0)
    assert hits == int(served)
    assert_counts_equal(fast, FunctionalSimulator(config).run(trace), "fast path")


@settings(max_examples=100, deadline=None)
@given(config=configs(deepest_write_back=True), replay=replays())
def test_every_grid_member_equals_reference(config, replay):
    trace, chunk = replay
    clear_front_cache()
    with chunked(chunk):
        grid = run_stackdist_grid(trace, config)
    # The kernel follows the head: a direct-mapped one derives its own
    # member, a set-associative one every associativity.
    direct = config.levels[-1].associativity == 1
    assert len(grid.results) == (1 if direct else len(STACK_ASSOCIATIVITIES))
    for ways, derived in zip(STACK_ASSOCIATIVITIES, grid.results):
        member = member_config(config, ways)
        assert derived.config == member
        reference = FunctionalSimulator(member).run(trace)
        assert_counts_equal(derived, reference, f"{ways}-way grid member")


@settings(max_examples=150, deadline=None)
@given(config=tail_configs(), replay=replays())
def test_vectorised_prefix_with_event_tail_equals_reference(config, replay):
    trace, chunk = replay
    with chunked(chunk):
        fast = run_functional(trace, config)
    reference = FunctionalSimulator(config).run(trace)
    assert_counts_equal(fast, reference, f"front depth {front_depth(config)}")


@st.composite
def sparse_configs(draw):
    """A first level the vectorised front cannot replay, or any first
    level under enforced inclusion, with one or two levels below it."""
    split = draw(st.booleans())
    block = draw(st.sampled_from((16, 32)))
    ways = draw(st.sampled_from((1, 2, 4)))
    inclusive = draw(st.booleans())
    first = LevelConfig(
        size_bytes=block * ways * (2 if split else 1) * draw(st.sampled_from((1, 2, 4))),
        block_bytes=block,
        associativity=ways,
        split=split,
        replacement=draw(st.sampled_from(("lru", "fifo", "random"))),
        write_policy=draw(st.sampled_from(POLICIES)),
        write_allocate=draw(st.booleans()),
    )
    levels = [first]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            block *= draw(st.sampled_from((1, 2)))
            levels.append(_plain_level(draw, block))
        else:
            levels.append(_tail_level(draw, block))
            block = max(block, levels[-1].block_bytes)
    config = SystemConfig(levels=tuple(levels), enforce_inclusion=inclusive)
    if front_depth(config):
        # Without inclusion, only an ineligible first level leaves the front.
        config = config.with_level(0, write_allocate=False)
    assert front_depth(config) == 0 and sparse_eligible(config)
    return config


@st.composite
def store_runs(draw):
    """A store-heavy trace of same-block runs and a chunk size.

    Each run repeats one block -- stores, with some loads and instruction
    fetches of it mixed in -- so a write-back, write-allocate L1 skips
    most of its stores; few tags over few sets make the runs conflict,
    in the L2 as well, so back-invalidations land inside them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tags = draw(st.integers(1, 12))
    sets = draw(st.sampled_from((1, 2, 4)))
    read_share = draw(st.sampled_from((0.0, 0.2, 0.5)))
    kinds, addresses = [], []
    for _ in range(draw(st.integers(1, 30))):
        base = int(rng.integers(0, tags)) * STRIDE + int(rng.integers(0, sets)) * 16
        length = int(rng.integers(1, 16))
        roll = rng.random(length)
        kinds.append(np.where(roll < read_share, READ, WRITE))
        kinds[-1][roll < read_share / 4] = IFETCH
        addresses.append(base + rng.integers(0, 16, length))
    kinds = np.concatenate(kinds).astype(np.uint8)
    addresses = np.concatenate(addresses).astype(np.uint64)
    n = len(kinds)
    chunk = draw(st.sampled_from((None, 1, 2, 5, 11)))
    edges = [0, n] if chunk is None else list(range(0, n + 1, chunk))
    warmup = draw(st.integers(0, n) | st.sampled_from(edges))
    return Trace(kinds, addresses, warmup=warmup), chunk


@settings(max_examples=300, deadline=None)
@given(config=sparse_configs(), replay=replays() | store_runs())
def test_sparse_walk_equals_reference(config, replay):
    trace, chunk = replay
    with chunked(chunk):
        sparse = FastFunctionalSimulator(config).run(trace)
    reference = FunctionalSimulator(config).run(trace)
    assert_counts_equal(sparse, reference, "sparse walk")


def _back_invalidation_trace():
    """Direct-mapped two-set L1 over a two-way fully associative
    inclusive L2, 16-byte blocks everywhere.  Record 2 re-reads A (skipped:
    set 0 last saw A); record 3's L2 miss evicts A, the L2's LRU block,
    and back-invalidates it from L1 set 0 while it is that set's MRU
    block; record 4's re-read of A must then miss."""
    config = SystemConfig(
        levels=(
            LevelConfig(size_bytes=32, block_bytes=16),
            LevelConfig(size_bytes=32, block_bytes=16, associativity=2),
        ),
        enforce_inclusion=True,
    )
    a, b, c = 0, 16, 48  # L1 sets 0, 1, 1
    trace = Trace(
        np.full(5, READ, dtype=np.uint8),
        np.array([a, b, a, c, a], dtype=np.uint64),
    )
    return config, trace


@pytest.mark.parametrize("chunk", [None, 1, 2, 4])
def test_sparse_walk_rewalks_after_back_invalidation(chunk):
    """Chunks of 2 and 4 end on the evicting record, so the forced
    re-read is carried into the next chunk."""
    config, trace = _back_invalidation_trace()
    since = telemetry.mark()
    with chunked(chunk):
        sparse = FastFunctionalSimulator(config).run(trace)
    counters = telemetry.counter_deltas(since)
    reference = FunctionalSimulator(config).run(trace)
    assert reference.level_stats[0].read_misses == 4
    assert_counts_equal(sparse, reference, "sparse walk")
    # Records 0, 1, 3 and the forced re-read 4 are walked; 2 is skipped.
    assert counters.get("fast.sparse.walked", 0) == 4
    assert counters.get("fast.sparse.forced", 0) == 1


def _store_run_trace():
    """The hierarchy of :func:`_back_invalidation_trace`, with a store run
    on A in L1 set 0.  Record 0 stores A (walked: it fills A dirty) and
    record 1 stores it again (skipped: A is dirty).  Record 3's L2 miss
    evicts A and back-invalidates it, dirty, from the middle of the run;
    record 4's re-read of A is forced and refills it clean, so record 5,
    the next store of the run, must be walked to dirty it again, and
    record 6 is skipped once more.  Record 7 evicts A from L1 set 0, which
    writes it back only because record 5 was walked."""
    config, _ = _back_invalidation_trace()
    a, b, c, d = 0, 16, 48, 32  # L1 sets 0, 1, 1, 0
    kinds = [WRITE, WRITE, READ, READ, READ, WRITE, WRITE, READ]
    trace = Trace(
        np.array(kinds, dtype=np.uint8),
        np.array([a, a + 4, b, c, a, a + 8, a, d], dtype=np.uint64),
    )
    return config, trace


@pytest.mark.parametrize("chunk", [None, 1, 2, 3, 4, 5])
def test_sparse_walk_rewalks_store_after_back_invalidation(chunk):
    """Chunks of 2 and 4 end on the evicting record, so the forced re-read
    and the forced store are carried into the next chunk; a chunk of 5
    ends on the forced re-read, so only the store is carried; chunks of 1
    carry each on its own, and of 3 start a chunk on record 6."""
    config, trace = _store_run_trace()
    since = telemetry.mark()
    with chunked(chunk):
        sparse = FastFunctionalSimulator(config).run(trace)
    counters = telemetry.counter_deltas(since)
    reference = FunctionalSimulator(config).run(trace)
    assert reference.level_stats[0].writebacks == 1
    # Record 3's dirty A, written around the L2.
    assert reference.memory_writes == 1
    assert_counts_equal(sparse, reference, "sparse walk")
    # Records 0, 2, 3, 7 and the forced 4 and 5 are walked; 1 and 6 are
    # skipped.
    assert counters.get("fast.sparse.walked", 0) == 6
    assert counters.get("fast.sparse.forced", 0) == 2


@st.composite
def drawn_depths(draw):
    """A configuration and the front depth its construction implies:
    the number of leading levels drawn plain -- write-back or
    write-allocate write-through -- or 0 under inclusion."""
    split = draw(st.booleans())
    block = 16
    levels = []
    expected = None
    for index in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            block *= draw(st.sampled_from((1, 2)))
            levels.append(_plain_level(draw, block, split and index == 0))
            continue
        if index == 0:
            # Smaller blocks need a level above them to be smaller than.
            level = _tail_level(draw, block, TAIL_VARIATIONS[:-1])
            level = level.with_(split=split, size_bytes=level.size_bytes * 2)
        else:
            level = _tail_level(draw, block)
        levels.append(level)
        block = max(block, level.block_bytes)
        if expected is None:
            expected = index
    inclusive = draw(st.booleans())
    config = SystemConfig(levels=tuple(levels), enforce_inclusion=inclusive)
    if expected is None:
        expected = len(levels)
    return config, 0 if inclusive else expected


@settings(max_examples=200, deadline=None)
@given(drawn=drawn_depths())
def test_front_depth_counts_the_leading_vectorisable_levels(drawn):
    config, expected = drawn
    assert front_depth(config) == expected
    assert fast_eligible(config) == (expected == config.depth)


def _l2_at_ways(ways, sets=8):
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=64, block_bytes=16, split=True),
            LevelConfig(size_bytes=32 * ways * sets, block_bytes=32,
                        associativity=ways),
        )
    )


@settings(max_examples=60, deadline=None)
@given(replay=replays())
def test_l2_misses_never_rise_with_associativity(replay):
    """LRU inclusion: at a fixed set count an A-way set holds a subset of
    a 2A-way one's blocks, and the L1 in front sends both the same
    stream.  8 and 16 ways replay on the front, 32 on the event tail."""
    trace, chunk = replay
    misses = []
    with chunked(chunk):
        for ways in (8, 16, 32):
            l2 = run_functional(trace, _l2_at_ways(ways)).level_stats[1]
            misses.append(l2.read_misses + l2.write_misses)
    assert misses == sorted(misses, reverse=True), misses


@settings(max_examples=60, deadline=None)
@given(replay=replays())
def test_write_back_l2_writes_memory_no_more_than_write_through(replay):
    """Every memory write of a write-back L2 evicts a block some counted
    L2 write dirtied, and a write-through L2 forwards every L2 write:
    from a cold start, write-back never writes memory more often."""
    trace, chunk = replay
    cold = Trace(trace.kinds, trace.addresses, warmup=0)
    back = _l2_at_ways(2)
    through = back.with_level(1, write_policy="write-through")
    with chunked(chunk):
        written_back = run_functional(cold, back).memory_writes
        written_through = run_functional(cold, through).memory_writes
    assert written_back <= written_through
