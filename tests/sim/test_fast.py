"""Cross-validation of the vectorised simulator against the reference.

The fast path must produce *identical* counts -- these tests are the
correctness contract that lets experiments dispatch to it blindly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.audit.parity import assert_counts_equal, assert_timing_equal
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import (
    FastFunctionalSimulator,
    _CLEAN,
    _new_state,
    _simulate_dm_level,
    _stable_argsort,
    _stack_replay,
    clear_front_cache,
    fast_eligible,
    front_depth,
    run_functional,
    sparse_eligible,
)
from repro.sim.functional import FunctionalSimulator
from repro.trace.record import WRITE
from repro.trace.workload import SyntheticWorkload
from repro.units import KB


def two_level(split=True, l1_kb=4, l2_kb=32, l1_ways=1, l2_ways=1):
    return SystemConfig(
        levels=(
            LevelConfig(
                size_bytes=l1_kb * KB,
                block_bytes=16,
                split=split,
                associativity=l1_ways,
            ),
            LevelConfig(
                size_bytes=l2_kb * KB,
                block_bytes=32,
                cycle_cpu_cycles=3,
                associativity=l2_ways,
            ),
        )
    )


def assert_same_counts(trace, config):
    fast = FastFunctionalSimulator(config).run(trace)
    reference = FunctionalSimulator(config).run(trace)
    assert fast.cpu_reads == reference.cpu_reads
    assert fast.cpu_writes == reference.cpu_writes
    assert fast.cpu_ifetches == reference.cpu_ifetches
    for level, (f, r) in enumerate(
        zip(fast.level_stats, reference.level_stats), start=1
    ):
        for field in ("reads", "read_misses", "writes", "write_misses",
                      "writebacks", "blocks_fetched"):
            assert getattr(f, field) == getattr(r, field), (
                f"level {level} {field}: fast={getattr(f, field)} "
                f"reference={getattr(r, field)}"
            )
    assert fast.memory_reads == reference.memory_reads
    assert fast.memory_writes == reference.memory_writes


class TestExactEquivalence:
    def test_split_two_level(self):
        trace = SyntheticWorkload(seed=31).trace(25_000)
        assert_same_counts(trace, two_level())

    def test_unified_two_level(self):
        trace = SyntheticWorkload(seed=32).trace(25_000)
        assert_same_counts(trace, two_level(split=False))

    def test_with_warmup(self):
        trace = SyntheticWorkload(seed=33).trace(25_000, warmup=8_000)
        assert_same_counts(trace, two_level())

    def test_single_level(self):
        trace = SyntheticWorkload(seed=34).trace(15_000)
        config = SystemConfig(
            levels=(LevelConfig(size_bytes=2 * KB, block_bytes=16),)
        )
        assert_same_counts(trace, config)

    def test_three_levels(self):
        trace = SyntheticWorkload(seed=35).trace(25_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True),
                LevelConfig(size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3),
                LevelConfig(size_bytes=64 * KB, block_bytes=64, cycle_cpu_cycles=6),
            )
        )
        assert_same_counts(trace, config)

    def test_tiny_pathological_caches(self):
        trace = SyntheticWorkload(seed=36).trace(8_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=64, block_bytes=16),
                LevelConfig(size_bytes=128, block_bytes=32),
            )
        )
        assert_same_counts(trace, config)

    def test_equal_block_sizes_across_levels(self):
        trace = SyntheticWorkload(seed=37).trace(10_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=1 * KB, block_bytes=32),
                LevelConfig(size_bytes=16 * KB, block_bytes=32),
            )
        )
        assert_same_counts(trace, config)

    def test_multiprogram_trace(self):
        from repro.trace.multiprogram import MultiprogramScheduler, ProcessSpec

        processes = [
            ProcessSpec(
                name=f"p{i}",
                workload=SyntheticWorkload(seed=40 + i, address_base=i << 44),
            )
            for i in range(1, 3)
        ]
        trace = MultiprogramScheduler(processes, switch_interval=2_000, seed=3).trace(
            30_000, warmup=5_000
        )
        assert_same_counts(trace, two_level())


class TestAssociativeEquivalence:
    """The issue's differential contract: associativity 1/2/4/8 x
    split/unified L1 x two trace seeds, counts identical to the reference
    ``FunctionalSimulator``."""

    @pytest.mark.parametrize("seed", [71, 72])
    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_associativity_sweep(self, ways, split, seed):
        trace = SyntheticWorkload(seed=seed).trace(12_000, warmup=2_000)
        config = two_level(
            split=split,
            l1_kb=2,
            l2_kb=8,
            l1_ways=min(ways, 4),
            l2_ways=ways,
        )
        assert_same_counts(trace, config)

    def test_sixteen_way(self):
        trace = SyntheticWorkload(seed=73).trace(12_000)
        assert_same_counts(trace, two_level(l1_kb=2, l2_kb=8, l2_ways=16))

    def test_fully_associative_edge(self):
        # One set per level: sets == 1 exercises the kernel's degenerate
        # bucketing (every access lands in the same per-set stream).
        trace = SyntheticWorkload(seed=74).trace(10_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=256, block_bytes=16, associativity=16),
                LevelConfig(
                    size_bytes=1024,
                    block_bytes=32,
                    cycle_cpu_cycles=3,
                    associativity=8,
                ),
            )
        )
        assert_same_counts(trace, config)

    def test_associative_three_levels(self):
        trace = SyntheticWorkload(seed=75).trace(20_000)
        config = SystemConfig(
            levels=(
                LevelConfig(
                    size_bytes=2 * KB, block_bytes=16, split=True,
                    associativity=2,
                ),
                LevelConfig(
                    size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3,
                    associativity=4,
                ),
                LevelConfig(
                    size_bytes=32 * KB, block_bytes=64, cycle_cpu_cycles=6,
                    associativity=8,
                ),
            )
        )
        assert_same_counts(trace, config)


class TestEligibility:
    def test_base_machine_is_eligible(self):
        from repro.experiments import base_machine

        assert fast_eligible(base_machine())

    @pytest.mark.parametrize("ways", [1, 2, 4, 8, 16])
    def test_lru_associativity_is_eligible(self, ways):
        assert fast_eligible(two_level(l2_ways=ways))

    @pytest.mark.parametrize(
        "changes",
        [
            {"associativity": 32},
            {"associativity": 2, "replacement": "fifo"},
            {"associativity": 4, "replacement": "random"},
            {"write_policy": "write-through", "write_allocate": False},
            {"write_allocate": False},
            {"fetch_blocks": 2},
            {"prefetch": "on-miss"},
        ],
    )
    def test_variations_fall_back(self, changes):
        config = two_level().with_level(1, **changes)
        assert not fast_eligible(config)
        # The L1 in front of the variation stays vectorised.
        assert front_depth(config) == 1

    @pytest.mark.parametrize(
        "levels", [(0,), (1,), (0, 1)], ids=["l1", "l2", "both"]
    )
    def test_write_allocate_write_through_is_eligible(self, levels):
        # A write-allocate write-through level's tags evolve as a
        # write-back level's do; only what it sends down differs.
        config = two_level(l2_kb=8)
        for index in levels:
            config = config.with_level(index, write_policy="write-through")
        assert fast_eligible(config)
        trace = SyntheticWorkload(seed=45).trace(12_000, warmup=2_000)
        fast = FastFunctionalSimulator(config).run(trace)
        assert_counts_equal(fast, FunctionalSimulator(config).run(trace))
        assert fast.level_stats[levels[-1]].writes_forwarded > 0

    def test_inclusion_falls_back(self):
        # Enforced inclusion leaves no level to the vectorised front; the
        # fast simulator falls back to its sparse walk, not the reference.
        config = dataclasses.replace(two_level(l2_kb=8), enforce_inclusion=True)
        assert not fast_eligible(config)
        assert front_depth(config) == 0
        assert sparse_eligible(config)
        trace = SyntheticWorkload(seed=44).trace(12_000, warmup=2_000)
        assert_counts_equal(
            FastFunctionalSimulator(config).run(trace),
            FunctionalSimulator(config).run(trace),
        )

    def test_constructor_rejects_ineligible(self):
        # Only a first level that changes other sets' state on its own is
        # refused: an L1 prefetcher or a multi-block L1 fetch.  Inclusion
        # and a non-allocating write-through L1 take the sparse walk.
        for config in (
            two_level().with_level(0, prefetch="on-miss"),
            two_level().with_level(0, fetch_blocks=2),
        ):
            assert not sparse_eligible(config)
            with pytest.raises(ValueError, match="fast path"):
                FastFunctionalSimulator(config)
        for config in (
            dataclasses.replace(two_level(), enforce_inclusion=True),
            two_level().with_level(
                0, write_policy="write-through", write_allocate=False
            ),
        ):
            assert front_depth(config) == 0
            assert FastFunctionalSimulator(config).front_depth == 0

    def test_wide_l2_runs_behind_the_vectorised_l1(self):
        config = two_level().with_level(1, associativity=32)
        trace = SyntheticWorkload(seed=46).trace(12_000, warmup=2_000)
        assert_counts_equal(
            FastFunctionalSimulator(config).run(trace),
            FunctionalSimulator(config).run(trace),
        )


class TestShrinkingBlocks:
    """A deeper level with smaller blocks than the level above it ends
    the vectorised front: functional runs walk it as a per-event tail
    behind the vectorised L1, timing runs fall back to the reference
    engine, and neither raises."""

    CONFIG = SystemConfig(
        levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=32),
            LevelConfig(size_bytes=16 * KB, block_bytes=16, cycle_cpu_cycles=3),
        )
    )

    def test_not_fast_eligible(self):
        assert not fast_eligible(self.CONFIG)
        assert front_depth(self.CONFIG) == 1

    def test_run_functional_equals_reference(self):
        trace = SyntheticWorkload(seed=61).trace(6_000, warmup=1_000)
        assert_counts_equal(
            run_functional(trace, self.CONFIG),
            FunctionalSimulator(self.CONFIG).run(trace),
        )

    def test_timing_simulator_equals_reference_engine(self):
        from repro.sim.timing import TimingSimulator, _TimingEngine

        trace = SyntheticWorkload(seed=62).trace(4_000, warmup=1_000)
        assert_timing_equal(
            TimingSimulator(self.CONFIG).run(trace),
            _TimingEngine(self.CONFIG).run(trace),
        )


class TestDispatch:
    def test_run_functional_picks_fast_when_possible(self):
        trace = SyntheticWorkload(seed=50).trace(10_000)
        config = two_level()
        result = run_functional(trace, config)
        reference = FunctionalSimulator(config).run(trace)
        assert result.level_stats[1].read_misses == (
            reference.level_stats[1].read_misses
        )

    def test_run_functional_picks_fast_for_associative(self):
        trace = SyntheticWorkload(seed=51).trace(10_000)
        config = two_level().with_level(1, associativity=4)
        result = run_functional(trace, config)
        reference = FunctionalSimulator(config).run(trace)
        assert result.level_stats[1].read_misses == (
            reference.level_stats[1].read_misses
        )

    def test_run_functional_falls_back_beyond_max_ways(self):
        trace = SyntheticWorkload(seed=52).trace(10_000)
        config = two_level().with_level(1, associativity=32)
        result = run_functional(trace, config)
        assert result.level_stats[1].reads > 0


class TestSpeed:
    def test_fast_path_is_meaningfully_faster(self):
        import time

        trace = SyntheticWorkload(seed=60).trace(120_000)
        config = two_level()
        start = time.perf_counter()
        FastFunctionalSimulator(config).run(trace)
        fast_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        FunctionalSimulator(config).run(trace)
        reference_elapsed = time.perf_counter() - start
        assert fast_elapsed < reference_elapsed / 3


class TestTraceEligibility:
    def test_high_addresses_fall_back_to_reference(self):
        import numpy as np

        from repro.sim.fast import trace_eligible
        from repro.trace.record import READ, Trace

        high = Trace(
            np.array([READ], dtype=np.uint8),
            np.array([2**63 + 16], dtype=np.uint64),
        )
        assert not trace_eligible(high)
        # run_functional must still produce correct counts via the
        # reference engine.
        result = run_functional(high, two_level())
        assert result.level_stats[0].read_misses == 1

    def test_normal_addresses_eligible(self):
        from repro.sim.fast import trace_eligible
        from repro.trace.workload import SyntheticWorkload

        assert trace_eligible(SyntheticWorkload(seed=1).trace(100))

    def test_empty_trace_eligible_and_simulates(self):
        import numpy as np

        from repro.sim.fast import trace_eligible
        from repro.trace.record import Trace

        empty = Trace(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint64))
        assert trace_eligible(empty)
        result = FastFunctionalSimulator(two_level()).run(empty)
        assert result.cpu_reads == 0
        assert result.memory_reads == 0


#: Key bounds around the radix sort's 16-bit digit edges: one digit, the
#: largest one-digit bound, the smallest two-digit one, three digits.
SORT_BOUNDS = (1, 2**16, 2**16 + 1, 2**32 + 1)


@st.composite
def sort_keys(draw):
    """A bound and keys below it: spread over every digit, or a few
    distinct values repeated, so stability is exercised too."""
    bound = draw(st.sampled_from(SORT_BOUNDS))
    values = st.integers(0, bound - 1)
    if draw(st.booleans()):
        keys = draw(st.lists(values, max_size=300))
    else:
        pool = draw(st.lists(values, min_size=1, max_size=6))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
        keys = [pool[pick] for pick in picks]
    return np.array(keys, dtype=np.int64), bound


class TestStableArgsort:
    @settings(max_examples=200, deadline=None)
    @given(drawn=sort_keys())
    def test_equals_numpy_stable_argsort(self, drawn):
        keys, bound = drawn
        np.testing.assert_array_equal(
            _stable_argsort(keys, bound), np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize("bound", SORT_BOUNDS)
    def test_empty_and_all_equal(self, bound):
        empty = np.empty(0, dtype=np.int64)
        assert len(_stable_argsort(empty, bound)) == 0
        same = np.full(50, bound - 1, dtype=np.int64)
        np.testing.assert_array_equal(_stable_argsort(same, bound), np.arange(50))

    @pytest.mark.parametrize("bad", (-1, 2**16, 2**40))
    def test_keys_outside_the_bound_raise(self, bad):
        with pytest.raises(ValueError):
            _stable_argsort(np.array([0, bad, 3], dtype=np.int64), 2**16)


def dm_reference(blocks, is_write, keys, sets, state):
    """One direct-mapped write-back level, one access at a time.

    Returns ``(miss, victims)`` -- ``victims`` as ``(evicting key,
    block)`` pairs -- and updates the width-1 carried ``state`` in place,
    touched sets only, as the kernel does.
    """
    tags, reach = state
    resident = {s: int(tags[s, 0]) for s in range(sets) if tags[s, 0] >= 0}
    dirty = {s: bool(reach[s, 0] <= 1) for s in resident}
    miss, victims, touched = [], [], set()
    for block, write, key in zip(blocks.tolist(), is_write.tolist(), keys.tolist()):
        s = block & (sets - 1)
        touched.add(s)
        if resident.get(s) == block:
            miss.append(False)
            dirty[s] = dirty[s] or write
            continue
        miss.append(True)
        if dirty.get(s):
            victims.append((key, resident[s]))
        resident[s], dirty[s] = block, write
    for s in touched:
        tags[s, 0] = resident[s]
        reach[s, 0] = 1 if dirty[s] else _CLEAN
    return np.array(miss, dtype=bool), sorted(victims)


def dm_case(blocks, writes, sets, tags=None, dirty=None):
    """A kernel input: keys strictly increasing with gaps, and a carried
    state (``tags`` per set, ``-1`` empty) or ``None``."""
    blocks = np.array(blocks, dtype=np.int64)
    keys = np.cumsum(np.arange(1, len(blocks) + 1, dtype=np.int64)) * 3
    state = None
    if tags is not None:
        state = (
            np.array(tags, dtype=np.int64).reshape(sets, 1),
            np.where(np.array(dirty, dtype=bool), 1, _CLEAN).reshape(sets, 1),
        )
    return blocks, np.array(writes, dtype=bool), keys, sets, state


@st.composite
def dm_cases(draw):
    """Few sets and few distinct tags, so hits, dirty evictions and
    carried residency all occur; optionally every access a write."""
    sets = draw(st.sampled_from((1, 2, 4, 16)))
    tag_count = draw(st.integers(1, 4))
    blocks = draw(st.lists(st.integers(0, sets * tag_count - 1), max_size=120))
    if draw(st.booleans()):
        writes = [True] * len(blocks)
    else:
        writes = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    if not draw(st.booleans()):
        return dm_case(blocks, writes, sets)
    tags = [
        s + sets * draw(st.integers(0, tag_count - 1)) if draw(st.booleans()) else -1
        for s in range(sets)
    ]
    dirty = [tag >= 0 and draw(st.booleans()) for tag in tags]
    return dm_case(blocks, writes, sets, tags, dirty)


class TestDirectMappedKernel:
    """``_simulate_dm_level`` against a per-set loop: miss mask, dirty
    victims with their evicting keys, and the carried state it leaves."""

    @settings(max_examples=300, deadline=None)
    @given(case=dm_cases())
    @example(case=dm_case([], [], 4))
    @example(case=dm_case([], [], 2, tags=[2, -1], dirty=[True, False]))
    @example(case=dm_case([0, 1, 0, 2, 2, 1], [True, False, False, True, False, True], 1))
    @example(case=dm_case([0, 4, 1, 5, 0, 4, 1], [True] * 7, 4))
    @example(case=dm_case([4, 0, 5, 1, 3], [False, True, False, False, True], 4,
                          tags=[0, 5, -1, 7], dirty=[True, True, False, False]))
    def test_equals_per_set_loop(self, case):
        blocks, writes, keys, sets, state = case
        # A cold start is an all-empty carried state.
        reference_state = (
            _new_state(sets, 1) if state is None else (state[0].copy(), state[1].copy())
        )
        expected_miss, expected_victims = dm_reference(
            blocks, writes, keys, sets, reference_state
        )
        miss, victims, victim_keys = _simulate_dm_level(
            blocks, writes, keys, sets, state
        )
        if state is not None:
            np.testing.assert_array_equal(state[0], reference_state[0])
            np.testing.assert_array_equal(state[1], reference_state[1])
        np.testing.assert_array_equal(miss, expected_miss)
        assert victims.dtype == victim_keys.dtype == np.int64
        assert sorted(zip(victim_keys.tolist(), victims.tolist())) == expected_victims


# The LRU stack kernel as it was when it tracked reach itself: per entry,
# the deepest position occupied since the last write, updated in every
# step, with writebacks counted at each crossing and victims recorded
# off the bottom way.  Kept verbatim as the oracle for the tags-only
# kernel and the distance-derived dirt of ``_stack_replay``.
def reference_stack_pass(
    blocks: np.ndarray,
    is_write: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    width: int,
    state=None,
    warmup_key: int = 0,
):
    """The LRU stack kernel: one width-``width`` replay of a reference stream.

    Accesses are bucketed by set and replayed in per-set time order: step
    ``t`` processes the ``t``-th access of *every* touched set in one
    vectorised operation over a ``(sets_touched, width)`` stack (way 0 =
    most recently used, ``-1`` = empty), so the Python loop runs for the
    deepest per-set access count, not the stream length.  The top ``A``
    ways are exactly the content of an A-way LRU cache, for every
    ``A <= width`` at once.  Per entry the stack also tracks ``reach``:
    the deepest position it has occupied since it was last written
    (:data:`_CLEAN` when it has not been), so the A-way cache holds it
    dirty iff ``reach <= A`` (:mod:`repro.sim.stackdist` explains the
    invariant).

    ``state`` carries the stack between chunks of a streamed replay (see
    :func:`_new_state`): the touched rows are gathered into the pass's
    working arrays and scattered back afterwards, so replaying a stream
    piecewise gives the same outputs as one call.  Without it the pass
    starts cold on touched-set rows only.

    Returns ``(dist, victims, victim_keys, writebacks)``:

    * ``dist[i]`` is access ``i``'s stack distance minus one -- it hits
      every cache of more than ``dist[i]`` ways -- and ``width`` when the
      block is not on the stack (a miss at every width);
    * ``victims`` / ``victim_keys``: the dirty entries pushed off way
      ``width - 1`` -- the ``width``-way cache's writebacks -- stamped with
      the order key of the access that evicted them;
    * ``writebacks[A-1]`` counts the A-way cache's dirty evictions by
      accesses keyed at or after ``warmup_key``.
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
    write_s = is_write[order]
    keys_s = order_keys[order]
    step_starts = np.append(0, np.cumsum(np.bincount(seq)))

    # ``reach`` has one extra, always-clean column so that reading it at
    # the miss position yields the reach of a freshly fetched block.
    reach = np.full((touched, width + 1), _CLEAN, dtype=np.int64)
    if state is None:
        tags = np.full((touched, width), -1, dtype=np.int64)
    else:
        tags = state[0][ids_by_rank]
        reach[:, :width] = state[1][ids_by_rank]
    ways = np.arange(width)
    depths = ways + 1  # way w holds stack depth w + 1
    dist_s = np.empty(n, dtype=np.int8)
    last_tags_s = np.empty(n, dtype=np.int64)
    evicted_s = np.empty(n, dtype=bool)
    counted_s = keys_s >= warmup_key
    all_counted = bool(counted_s.all())
    # Preallocated per-step scratch (the loop body runs tens of
    # thousands of times; allocation is pure dispatch overhead at this
    # size).  ``match``'s extra always-true column turns argmax into a
    # combined hit test + hit way + evict position: first True index is
    # the hit way, or ``width`` on a miss.
    row_idx = np.arange(touched)
    match = np.empty((touched, width + 1), dtype=bool)
    match[:, width] = True
    pushed_buf = np.empty((touched, width), dtype=bool)
    cross_buf = np.empty((touched, width), dtype=bool)
    tmp_tags = np.empty((touched, width - 1), dtype=np.int64)
    tmp_reach = np.empty((touched, width - 1), dtype=np.int64)
    # Writebacks accumulate per row; one reduction at the end replaces a
    # per-step axis-0 sum.
    wb_rows = np.zeros((touched, width), dtype=np.int64)
    for t in range(len(step_starts) - 1):
        lo, hi = int(step_starts[t]), int(step_starts[t + 1])
        k = hi - lo
        row_tags = tags[:k]
        row_reach = reach[:k]
        m = match[:k]
        np.equal(row_tags, blocks_s[lo:hi, None], out=m[:, :width])
        pos = m.argmax(axis=1)
        dist_s[lo:hi] = pos
        # Entries at ways [0, pos) get pushed one position deeper; each
        # crossing from depth w+1 to w+2 evicts the entry from the
        # (w+1)-way cache, writing it back if dirty there.  An entry
        # with ``reach <= w + 1`` is necessarily valid and dirty there
        # (an empty or clean slot's reach is :data:`_CLEAN`).
        pushed = np.less(ways, pos[:, None], out=pushed_buf[:k])
        cross = np.less_equal(row_reach[:, :width], depths, out=cross_buf[:k])
        cross &= pushed
        # Crossings off the bottom way are the width-way cache's victims.
        evicted_s[lo:hi] = cross[:, -1]
        last_tags_s[lo:hi] = row_tags[:, -1]
        if not all_counted:
            cross &= counted_s[lo:hi, None]
        wb_rows[:k] += cross
        # Promote the accessed block to way 0.  A write resets its reach
        # to depth 1 (dirty in every cache); a read hit preserves it; a
        # fetch enters with no dirty copy anywhere.  Shifted entries'
        # reach grows to their new depth.  The shifted columns are
        # staged through scratch copies, so reading ``[:, :-1]`` while
        # writing ``[:, 1:]`` is safe.
        head_reach = np.where(write_s[lo:hi], 1, row_reach[row_idx[:k], pos])
        shifted = pushed[:, :-1]
        np.copyto(tmp_tags[:k], row_tags[:, :-1])
        np.maximum(row_reach[:, : width - 1], depths[1:], out=tmp_reach[:k])
        np.copyto(row_tags[:, 1:], tmp_tags[:k], where=shifted)
        np.copyto(row_reach[:, 1:width], tmp_reach[:k], where=shifted)
        row_tags[:, 0] = blocks_s[lo:hi]
        row_reach[:, 0] = head_reach

    if state is not None:
        state[0][ids_by_rank] = tags
        state[1][ids_by_rank] = reach[:, :width]
    dist = np.empty(n, dtype=np.int8)
    dist[order] = dist_s
    return dist, last_tags_s[evicted_s], keys_s[evicted_s], wb_rows.sum(axis=0)


@st.composite
def stack_cases(draw):
    """A width, a set count and a short stream with hits at every depth,
    evictions, same-block repeats, a warmup key anywhere (before the
    first access and after the last included) and chunk cuts."""
    width = draw(st.integers(1, 16))
    sets = draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64)))
    tag_count = draw(st.integers(1, width + 3))
    base = draw(st.sampled_from((0, 1 << 40)))
    drawn = draw(st.lists(st.integers(0, sets * tag_count - 1), max_size=120))
    repeats = draw(
        st.lists(st.integers(0, 2), min_size=len(drawn), max_size=len(drawn))
    )
    blocks = [base + block for block, extra in zip(drawn, repeats) for _ in range(1 + extra)]
    mode = draw(st.sampled_from(("mixed", "reads", "writes")))
    if mode == "mixed":
        writes = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    else:
        writes = [mode == "writes"] * len(blocks)
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(blocks), max_size=len(blocks)))
    keys = np.cumsum(np.array(gaps, dtype=np.int64))
    last_key = int(keys[-1]) if len(keys) else 0
    warmup_key = draw(st.integers(0, last_key + 2))
    cuts = sorted(draw(st.lists(st.integers(0, len(blocks)), max_size=4)))
    return (
        np.array(blocks, dtype=np.int64), np.array(writes, dtype=bool), keys,
        sets, width, warmup_key, cuts,
    )


class TestStackKernel:
    """``_stack_replay`` -- the tags-only ``_stack_pass`` over run heads
    plus ``_stack_dirt`` -- against the reach-tracking kernel it
    replaced: distances, miss masks, dirty victims with their evicting
    keys, writebacks at every associativity after the warmup key, and
    the carried ``(tags, reach)``, whole and chunked."""

    @staticmethod
    def replay(blocks, writes, keys, sets, width, warmup_key, state):
        cut = int(np.searchsorted(keys, warmup_key))
        dist, dirty, writebacks = _stack_replay(
            blocks, writes, sets, width, state, cut, victims=True
        )
        victims = sorted(zip(keys[dirty[1]].tolist(), dirty[0].tolist()))
        return dist, victims, writebacks

    @staticmethod
    def reference(blocks, writes, keys, sets, width, warmup_key, state):
        dist, victims, victim_keys, writebacks = reference_stack_pass(
            blocks, writes, keys, sets, width, state, warmup_key
        )
        return dist, sorted(zip(victim_keys.tolist(), victims.tolist())), writebacks

    def check(self, case):
        blocks, writes, keys, sets, width, warmup_key, cuts = case
        dist, victims, writebacks = self.replay(
            blocks, writes, keys, sets, width, warmup_key, None
        )
        expected = self.reference(blocks, writes, keys, sets, width, warmup_key, None)
        np.testing.assert_array_equal(dist, expected[0])
        np.testing.assert_array_equal(dist == width, expected[0] == width)
        assert victims == expected[1]
        np.testing.assert_array_equal(writebacks, expected[2])
        # Chunked: every chunk's outputs and the carried state it leaves.
        state, expected_state = _new_state(sets, width), _new_state(sets, width)
        total = np.zeros(width, dtype=np.int64)
        for lo, hi in zip([0] + cuts, cuts + [len(blocks)]):
            part = (blocks[lo:hi], writes[lo:hi], keys[lo:hi], sets, width, warmup_key)
            dist, victims, writebacks = self.replay(*part, state)
            expected = self.reference(*part, expected_state)
            np.testing.assert_array_equal(dist, expected[0])
            assert victims == expected[1]
            np.testing.assert_array_equal(writebacks, expected[2])
            np.testing.assert_array_equal(state[0], expected_state[0])
            np.testing.assert_array_equal(state[1], expected_state[1])
            total += writebacks
        np.testing.assert_array_equal(total, self.replay(
            blocks, writes, keys, sets, width, warmup_key, None
        )[2])

    @settings(max_examples=400, deadline=None)
    @given(case=stack_cases())
    def test_equals_reach_tracking_kernel(self, case):
        self.check(case)

    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    @pytest.mark.parametrize("warmup", [0.0, 0.3, 1.0])
    def test_synthetic_stream(self, width, warmup):
        """A longer, realistic stream: a level-1 miss stream's shape."""
        trace = SyntheticWorkload(seed=41).trace(6_000, warmup=0)
        blocks = (trace.addresses >> np.uint64(5)).astype(np.int64)
        writes = trace.kinds == WRITE
        keys = np.arange(len(blocks), dtype=np.int64) * 4 + 2
        warmup_key = int(keys[-1] * warmup) + 1 if warmup else 0
        cuts = [1_000, 1_001, 3_777]
        self.check((blocks, writes, keys, 16, width, warmup_key, cuts))


class TestFrontCache:
    """Whole-trace fast runs of depth >= 2 take their upstream levels
    from the front cache shared with the stack-distance grid."""

    @pytest.fixture(autouse=True)
    def fresh_front_cache(self):
        clear_front_cache()
        yield
        clear_front_cache()

    @staticmethod
    def front_counts(since):
        moved = telemetry.counter_deltas(since)
        return moved.get("front.misses", 0), moved.get("front.hits", 0)

    def test_sibling_runs_share_one_upstream_replay(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CHUNK", raising=False)
        trace = SyntheticWorkload(seed=70).trace(8_000, warmup=1_000)
        configs = (two_level(l2_ways=1), two_level(l2_ways=4))
        since = telemetry.mark()
        first = FastFunctionalSimulator(configs[0]).run(trace)
        assert self.front_counts(since) == (1, 0)
        second = FastFunctionalSimulator(configs[1]).run(trace)
        assert self.front_counts(since) == (1, 1)
        for config, result in zip(configs, (first, second)):
            assert_counts_equal(result, FunctionalSimulator(config).run(trace))

    def test_chunked_run_bypasses_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CHUNK", "999")
        trace = SyntheticWorkload(seed=71).trace(8_000, warmup=1_000)
        config = two_level(l2_ways=2)
        since = telemetry.mark()
        result = FastFunctionalSimulator(config).run(trace)
        assert self.front_counts(since) == (0, 0)
        assert_counts_equal(result, FunctionalSimulator(config).run(trace))
