"""The single-pass stack-distance engine against both simulators.

The contract: for an eligible configuration, ONE trace replay yields the
exact counts of every member its kernel derives at each member set count
(1, 2, 4, 8, 16 ways at the deepest level behind a set-associative head,
the direct-mapped member behind a direct-mapped one) -- identical to the
vectorised fast path and to the reference ``FunctionalSimulator``.  These tests are what
lets the sweep planner (:mod:`repro.core.sweep`) derive grid cells from
one pass blindly.
"""

import numpy as np
import pytest

from repro.sim import memo
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import (
    FastFunctionalSimulator,
    clear_front_cache,
    fast_eligible,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import (
    STACK_ASSOCIATIVITIES,
    StackdistGridResult,
    grid_projection,
    member_config,
    run_stackdist_grid,
    stackdist_eligible,
)
from repro.trace.record import Trace
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

COUNT_FIELDS = (
    "reads", "read_misses", "writes", "write_misses",
    "writebacks", "blocks_fetched",
)


@pytest.fixture(autouse=True)
def fresh_front_cache():
    clear_front_cache()
    yield
    clear_front_cache()


def two_level(split=True, l1_kb=4, l2_kb=32, l1_ways=1):
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=l1_kb * KB, block_bytes=16, split=split,
                        associativity=l1_ways),
            LevelConfig(size_bytes=l2_kb * KB, block_bytes=32,
                        cycle_cpu_cycles=3),
        )
    )


def assert_member_matches(derived, want, context):
    assert derived.cpu_reads == want.cpu_reads, context
    assert derived.cpu_writes == want.cpu_writes, context
    assert derived.cpu_ifetches == want.cpu_ifetches, context
    for level, (d, w) in enumerate(
        zip(derived.level_stats, want.level_stats), start=1
    ):
        for field in COUNT_FIELDS:
            assert getattr(d, field) == getattr(w, field), (
                f"{context}: level {level} {field}: "
                f"stackdist={getattr(d, field)} expected={getattr(w, field)}"
            )
    assert derived.memory_reads == want.memory_reads, context
    assert derived.memory_writes == want.memory_writes, context


def assert_grid_parity(trace, config, reference_ways=(1, 4, 16)):
    """stackdist == fast for every member of the width-16 pass the
    16-way member heads; == reference on a subset (the reference
    simulator is orders of magnitude slower)."""
    grid = run_stackdist_grid(trace, member_config(config, 16))
    for ways in STACK_ASSOCIATIVITIES:
        member = member_config(config, ways)
        derived = grid.result_for(member)
        assert derived.config == member
        fast = FastFunctionalSimulator(member).run(trace)
        assert_member_matches(derived, fast, f"{ways}-way vs fast")
        if ways in reference_ways:
            reference = FunctionalSimulator(member).run(trace)
            assert_member_matches(derived, reference, f"{ways}-way vs reference")


class TestDifferentialParity:
    """The issue's randomized contract: seeded synthetic traces x the
    eligible configuration grid, counts identical across all three
    engines."""

    @pytest.mark.parametrize("seed", [301, 302, 303])
    @pytest.mark.parametrize("split", [True, False])
    def test_two_level(self, seed, split):
        trace = SyntheticWorkload(seed=seed).trace(10_000, warmup=2_000)
        assert_grid_parity(trace, two_level(split=split))

    @pytest.mark.parametrize("seed", [311, 312])
    def test_single_level(self, seed):
        trace = SyntheticWorkload(seed=seed).trace(8_000, warmup=1_000)
        config = SystemConfig(
            levels=(LevelConfig(size_bytes=2 * KB, block_bytes=16),)
        )
        assert_grid_parity(trace, config)

    def test_single_level_split(self):
        trace = SyntheticWorkload(seed=313).trace(8_000)
        config = SystemConfig(
            levels=(LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True),)
        )
        assert_grid_parity(trace, config)

    def test_associative_upstream(self):
        trace = SyntheticWorkload(seed=314).trace(10_000, warmup=2_000)
        assert_grid_parity(trace, two_level(l1_kb=2, l1_ways=4))

    def test_three_levels(self):
        trace = SyntheticWorkload(seed=315).trace(10_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True),
                LevelConfig(size_bytes=8 * KB, block_bytes=32,
                            cycle_cpu_cycles=3),
                LevelConfig(size_bytes=64 * KB, block_bytes=64,
                            cycle_cpu_cycles=6),
            )
        )
        assert_grid_parity(trace, config, reference_ways=(1, 16))

    def test_one_set_deepest_level(self):
        # sets == 1: the stack pass degenerates to a single global LRU
        # stack; members are fully-associative caches of 1..16 blocks.
        trace = SyntheticWorkload(seed=316).trace(6_000)
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=256, block_bytes=16, associativity=16),
                LevelConfig(size_bytes=32, block_bytes=32, cycle_cpu_cycles=3),
            )
        )
        assert_grid_parity(trace, config, reference_ways=(1, 2, 16))

    def test_multiprogram_trace(self, small_traces=None):
        from repro.trace.multiprogram import MultiprogramScheduler, ProcessSpec

        processes = [
            ProcessSpec(
                name=f"p{i}",
                workload=SyntheticWorkload(seed=320 + i, address_base=i << 44),
            )
            for i in range(1, 3)
        ]
        trace = MultiprogramScheduler(
            processes, switch_interval=2_000, seed=5
        ).trace(12_000, warmup=2_000)
        assert_grid_parity(trace, two_level(), reference_ways=(2,))

    def test_empty_trace(self):
        empty = Trace(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint64))
        grid = run_stackdist_grid(empty, member_config(two_level(), 16))
        for ways in STACK_ASSOCIATIVITIES:
            result = grid.result_for(member_config(two_level(), ways))
            assert result.cpu_reads == 0
            assert result.memory_reads == 0
            assert result.memory_writes == 0


class TestPlane:
    """A sets x ways group behind a set-associative head: one width-16
    pass with a stack per member set count, every (set count,
    associativity) member identical to the one-set-count pass, to the
    fast path and to the reference, whole and chunked."""

    SOLO = SystemConfig(
        levels=(LevelConfig(size_bytes=64 * KB, block_bytes=32, associativity=16),)
    )

    def assert_members(self, trace, config, set_counts, reference=(64, 1024)):
        grid = run_stackdist_grid(trace, config, set_counts)
        assert [
            (r.config.levels[-1].geometry().sets, r.config.levels[-1].associativity)
            for r in grid.results
        ] == [(sets, ways) for sets in set_counts for ways in STACK_ASSOCIATIVITIES]
        for sets in set_counts:
            single = run_stackdist_grid(trace, member_config(config, 16, sets))
            for ways, alone in zip(STACK_ASSOCIATIVITIES, single.results):
                member = member_config(config, ways, sets)
                derived = grid.result_for(member)
                assert derived.config == member == alone.config
                assert_member_matches(derived, alone, f"{sets} sets {ways}-way")
                if ways in (1, 4):
                    fast = FastFunctionalSimulator(member).run(trace)
                    assert_member_matches(derived, fast, f"{sets}x{ways} vs fast")
                if sets in reference and ways in (2, 16):
                    want = FunctionalSimulator(member).run(trace)
                    assert_member_matches(derived, want, f"{sets}x{ways} vs reference")
        return grid

    @pytest.mark.parametrize("split", [True, False])
    def test_two_level_plane(self, split):
        trace = SyntheticWorkload(seed=348).trace(10_000, warmup=2_000)
        self.assert_members(
            trace, member_config(two_level(split=split), 16), (16, 64, 256, 1024, 4096)
        )

    def test_solo_plane_over_the_cpu_streams(self):
        trace = SyntheticWorkload(seed=349).trace(10_000, warmup=2_000)
        self.assert_members(trace, self.SOLO, (8, 64, 1024))

    def test_group_config_set_count_is_not_a_member(self):
        # The config names the group's front and policies, and its
        # associativity the kernel: a 2-way head gets the width-16 pass.
        # Its own set count need not be among the members.
        trace = SyntheticWorkload(seed=350).trace(6_000, warmup=1_000)
        config = two_level(l2_kb=32).with_level(1, associativity=2, size_bytes=64 * KB)
        grid = self.assert_members(trace, config, (128, 2048), reference=())
        assert len(grid.results) == 2 * len(STACK_ASSOCIATIVITIES)

    @pytest.mark.parametrize("chunk", (999, 7919))
    def test_chunked_equals_whole(self, chunk, monkeypatch):
        trace = SyntheticWorkload(seed=351).trace(20_000, warmup=4_000)
        for config in (self.SOLO, member_config(two_level(), 16)):
            whole = run_stackdist_grid(trace, config, (32, 128, 2048))
            monkeypatch.setenv("REPRO_TRACE_CHUNK", str(chunk))
            chunked = run_stackdist_grid(trace, config, (32, 128, 2048))
            monkeypatch.delenv("REPRO_TRACE_CHUNK")
            assert len(chunked.results) == len(whole.results) == 15
            for a, b in zip(chunked.results, whole.results):
                assert a.config == b.config
                assert_member_matches(a, b, f"{a.config.levels[-1].size_bytes} B")

    @pytest.mark.parametrize("set_counts", [(128, 64), (64, 64), (64, 96), (0, 64)])
    def test_malformed_set_counts_rejected(self, set_counts):
        trace = SyntheticWorkload(seed=352).trace(1_000)
        with pytest.raises(ValueError, match="set counts"):
            run_stackdist_grid(trace, member_config(two_level(), 16), set_counts)

    def test_plane_projection_ignores_sets_and_ways(self):
        small = two_level(l2_kb=32)
        wide = small.with_level(1, associativity=4, size_bytes=1024 * KB)
        assert grid_projection(small) == grid_projection(wide)
        assert grid_projection(small) != grid_projection(two_level(l1_kb=8))
        assert grid_projection(small) != grid_projection(
            small.with_level(1, block_bytes=64)
        )


class TestSetAxis:
    """A set-count group behind a direct-mapped head: one direct-mapped
    pass, one member per set count, each identical to the fast path and
    the reference, whole and chunked."""

    SOLO = SystemConfig(levels=(LevelConfig(size_bytes=4 * KB, block_bytes=32),))

    def assert_members(self, trace, config, set_counts, reference=True):
        grid = run_stackdist_grid(trace, config, set_counts)
        assert [r.config.levels[-1].geometry().sets for r in grid.results] == (
            list(set_counts)
        )
        for sets, derived in zip(set_counts, grid.results):
            member = member_config(config, 1, sets)
            assert derived.config == member
            assert grid.result_for(member) is derived
            fast = FastFunctionalSimulator(member).run(trace)
            assert_member_matches(derived, fast, f"{sets} sets vs fast")
            if reference:
                want = FunctionalSimulator(member).run(trace)
                assert_member_matches(derived, want, f"{sets} sets vs reference")
        return grid

    @pytest.mark.parametrize("seed", [341, 342])
    def test_solo_group(self, seed):
        trace = SyntheticWorkload(seed=seed).trace(10_000, warmup=2_000)
        self.assert_members(trace, self.SOLO, (16, 64, 256, 1024))

    @pytest.mark.parametrize("split", [True, False])
    def test_two_level_group(self, split):
        trace = SyntheticWorkload(seed=343).trace(10_000, warmup=2_000)
        self.assert_members(trace, two_level(split=split), (32, 128, 256, 4096))

    def test_single_member_is_the_fast_path(self):
        trace = SyntheticWorkload(seed=344).trace(6_000, warmup=1_000)
        self.assert_members(trace, two_level(), (512,), reference=False)

    @pytest.mark.parametrize("chunk", (999, 7919))
    def test_chunked_equals_whole(self, chunk, monkeypatch):
        trace = SyntheticWorkload(seed=345).trace(20_000, warmup=4_000)
        for config in (self.SOLO, two_level()):
            whole = run_stackdist_grid(trace, config, (64, 128, 2048))
            monkeypatch.setenv("REPRO_TRACE_CHUNK", str(chunk))
            chunked = run_stackdist_grid(trace, config, (64, 128, 2048))
            monkeypatch.delenv("REPRO_TRACE_CHUNK")
            for a, b in zip(chunked.results, whole.results):
                assert a.config == b.config
                assert_member_matches(a, b, f"{a.config.levels[-1].size_bytes} B")

    @pytest.mark.parametrize(
        "set_counts", [(128, 64), (64, 64), (64, 96), (0, 64)]
    )
    def test_malformed_axis_rejected(self, set_counts):
        trace = SyntheticWorkload(seed=346).trace(1_000)
        with pytest.raises(ValueError, match="set counts"):
            run_stackdist_grid(trace, two_level(), set_counts)

    def test_associative_head_takes_the_width_pass(self):
        # The kernel follows the head: at 2 ways the same set counts
        # derive every associativity, not one direct-mapped member each.
        trace = SyntheticWorkload(seed=347).trace(4_000, warmup=500)
        config = two_level().with_level(1, associativity=2, size_bytes=64 * KB)
        grid = run_stackdist_grid(trace, config, (64, 128))
        assert [
            (r.config.levels[-1].geometry().sets, r.config.levels[-1].associativity)
            for r in grid.results
        ] == [(sets, ways) for sets in (64, 128) for ways in STACK_ASSOCIATIVITIES]
        direct = run_stackdist_grid(trace, two_level(), (64, 128))
        for member in direct.results:
            assert_member_matches(
                grid.result_for(member.config), member,
                f"{member.config.levels[-1].geometry().sets} sets",
            )

    def test_projection_ignores_only_the_set_count(self):
        small, large = two_level(l2_kb=32), two_level(l2_kb=512)
        assert grid_projection(small) == grid_projection(large)
        assert grid_projection(small) != grid_projection(two_level(l1_kb=8))


class TestEligibility:
    def test_lru_two_level_is_eligible(self):
        assert stackdist_eligible(two_level())

    def test_direct_mapped_deepest_is_eligible_under_any_policy(self):
        # One way leaves nothing for the stated policy to choose:
        # a "fifo" direct-mapped deepest level is still derivable.
        config = two_level().with_level(1, replacement="fifo")
        assert config.levels[-1].associativity == 1
        assert stackdist_eligible(config)

    def test_fifo_associative_deepest_falls_back(self):
        config = two_level().with_level(1, associativity=2, replacement="fifo")
        assert not stackdist_eligible(config)

    @pytest.mark.parametrize(
        "changes",
        [
            {"associativity": 32},
            {"write_policy": "write-through"},
            {"write_allocate": False},
            {"fetch_blocks": 2},
            {"prefetch": "on-miss"},
        ],
    )
    def test_fast_ineligible_implies_stackdist_ineligible(self, changes):
        assert not stackdist_eligible(two_level().with_level(1, **changes))

    def test_write_through_deepest_is_fast_but_not_grid_eligible(self):
        # The grid's writeback invariant assumes a write-back deepest
        # level; a write-through one still replays on the fast path.
        config = two_level().with_level(1, write_policy="write-through")
        assert fast_eligible(config)
        assert not stackdist_eligible(config)
        assert stackdist_eligible(
            two_level().with_level(0, write_policy="write-through")
        )

    def test_ineligible_config_raises(self):
        trace = SyntheticWorkload(seed=330).trace(1_000)
        config = two_level().with_level(1, associativity=2, replacement="fifo")
        with pytest.raises(ValueError, match="stack-distance"):
            run_stackdist_grid(trace, config)


class TestGrouping:
    def test_members_share_a_projection(self):
        base = two_level()
        members = [
            base.with_level(1, associativity=a, size_bytes=32 * KB * a)
            for a in STACK_ASSOCIATIVITIES
        ]
        projections = {grid_projection(m) for m in members}
        assert len(projections) == 1

    def test_different_set_counts_share_a_plane(self):
        assert grid_projection(two_level(l2_kb=32)) == (
            grid_projection(two_level(l2_kb=64))
        )

    def test_member_config_round_trip(self):
        base = two_level()
        sets = base.levels[-1].geometry().sets
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(base, ways)
            assert member.levels[-1].geometry().sets == sets
            assert member.levels[-1].associativity == ways

    def test_member_memo_key_matches_requested_config(self):
        # The planner fans grid members back into the memo cache keyed
        # by member_config; a sweep's own cell keys must line up even
        # when the cell states a functionally-inert replacement policy.
        trace = SyntheticWorkload(seed=331).trace(1_000)
        base = two_level()
        requested = base.with_level(1, associativity=4, size_bytes=128 * KB)
        assert memo.memo_key(trace, member_config(base, 4)) == (
            memo.memo_key(trace, requested)
        )

    def test_result_for_unknown_associativity(self):
        trace = SyntheticWorkload(seed=332).trace(1_000)
        grid = run_stackdist_grid(trace, two_level())
        assert isinstance(grid, StackdistGridResult)
        with pytest.raises(KeyError):
            grid.result_for(member_config(two_level(), 32))


class TestFrontCache:
    def test_cached_front_is_deterministic(self):
        trace = SyntheticWorkload(seed=333).trace(6_000, warmup=1_000)
        config = member_config(two_level(), 16)
        first = run_stackdist_grid(trace, config)
        # Second grid at a different set count reuses the cached L1
        # replay; counts must be unaffected by the cache.
        run_stackdist_grid(trace, two_level(l2_kb=64))
        clear_front_cache()
        cold = run_stackdist_grid(trace, config)
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(config, ways)
            assert_member_matches(
                first.result_for(member), cold.result_for(member), f"{ways}-way"
            )

    def test_upstream_stats_are_private_copies(self):
        trace = SyntheticWorkload(seed=334).trace(4_000)
        config = two_level()
        first = run_stackdist_grid(trace, config)
        first.result_for(config).level_stats[0].reads += 999
        second = run_stackdist_grid(trace, config)
        assert second.result_for(config).level_stats[0].reads != (
            first.result_for(config).level_stats[0].reads
        )

    def test_block_shrink_across_levels_rejected(self):
        config = SystemConfig(
            levels=(
                LevelConfig(size_bytes=2 * KB, block_bytes=32),
                LevelConfig(size_bytes=16 * KB, block_bytes=16,
                            cycle_cpu_cycles=3),
            )
        )
        assert not stackdist_eligible(config)
