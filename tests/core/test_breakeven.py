"""Tests for the associativity break-even maps (section 5)."""

import numpy as np
import pytest

from repro.analytical.associativity import incremental_breakeven_ns
from repro.audit import manifest
from repro.core.breakeven import breakeven_map
from repro.core.metrics import measure_triad
from repro.sim import memo
from repro.sim.functional import FunctionalSimulator
from repro.units import KB


SIZES = [8 * KB, 32 * KB]
CYCLES = [3.0]


class TestBreakevenMap:
    def test_shape_and_indexing(self, small_traces, base_config):
        result = breakeven_map(
            small_traces, base_config, SIZES, CYCLES, set_size=2
        )
        assert result.nanoseconds.shape == (2, 1)
        assert result.at(8 * KB, 3.0) == result.nanoseconds[0, 0]

    def test_associativity_buys_time_when_it_removes_misses(
        self, small_traces, base_config
    ):
        """Where 2-way removes conflict misses the budget is positive."""
        result = breakeven_map(
            small_traces, base_config, SIZES, CYCLES, set_size=2
        )
        assert result.nanoseconds.max() > 0

    def test_deeper_associativity_buys_cumulatively_more(
        self, small_traces, base_config
    ):
        two = breakeven_map(small_traces, base_config, SIZES, CYCLES, set_size=2)
        eight = breakeven_map(small_traces, base_config, SIZES, CYCLES, set_size=8)
        # Cumulative budgets: 8-way >= 2-way wherever both help.
        assert np.all(eight.nanoseconds >= two.nanoseconds - 1e-9)

    def test_smaller_l1_means_smaller_budget(self, small_traces, base_config):
        """Equation 3's 1/M_L1: a larger (better) L1 multiplies the L2
        break-even budget."""
        small_l1 = base_config.with_level(0, size_bytes=2 * KB)
        large_l1 = base_config.with_level(0, size_bytes=16 * KB)
        budget_small = breakeven_map(
            small_traces, small_l1, SIZES, CYCLES, set_size=8
        ).nanoseconds.mean()
        budget_large = breakeven_map(
            small_traces, large_l1, SIZES, CYCLES, set_size=8
        ).nanoseconds.mean()
        assert budget_large > budget_small

    def test_consistency_with_equation_three(self, small_traces, base_config):
        """The map's budget should approximate Delta-M_global * t_MM / M_L1
        (Equation 3 ignores second-order terms the map includes)."""
        size = 8 * KB
        config_dm = base_config.with_level(1, size_bytes=size, associativity=1)
        config_8w = base_config.with_level(1, size_bytes=size, associativity=8)
        l1_miss = measure_triad(small_traces, config_dm, level=1).global_

        def global_l2(config):
            runs = [FunctionalSimulator(config).run(t) for t in small_traces]
            misses = sum(r.level_stats[1].read_misses for r in runs)
            reads = sum(r.cpu_reads for r in runs)
            return misses / reads

        delta = global_l2(config_dm) - global_l2(config_8w)
        expected = incremental_breakeven_ns(delta, 270.0, l1_miss)
        measured = breakeven_map(
            small_traces, base_config, [size], CYCLES, set_size=8
        ).at(size, 3.0)
        # Equation 3 charges the L2 cycle only to L1 read misses; the full
        # accounting also pays it on store-induced L2 traffic, so the map's
        # budget sits below Equation 3's simplified value but tracks it.
        assert 0.2 * expected <= measured <= 1.2 * expected

    def test_region_mask(self, small_traces, base_config):
        result = breakeven_map(small_traces, base_config, SIZES, CYCLES, set_size=8)
        mask = result.region_at_least(0.0)
        assert mask.shape == result.nanoseconds.shape

    def test_validation(self, small_traces, base_config):
        with pytest.raises(ValueError):
            breakeven_map(small_traces, base_config, SIZES, CYCLES, set_size=1)

    def test_batched_warm_sweep_shares_stack_passes(self, small_traces, base_config):
        """The warm-up sweep presents both associativities at once, so
        the diagonal pair (32 KB 4-way, 8 KB direct-mapped) shares one
        stack, the front's set counts share one stack-distance pass, and
        the per-associativity grids that follow are pure memo hits.
        """
        memo.clear_memo_cache()
        with manifest.recording("breakeven-warm") as run:
            breakeven_map(small_traces, base_config, SIZES, CYCLES, set_size=4)
        warm = run.sweeps[0]
        # Four requested cells per trace over three set counts, all on
        # one plane: the diagonal pair, the lone 8 KB 4-way cell and the
        # lone 32 KB direct-mapped cell ride one sets x ways pass (a
        # stack per set count).
        assert warm.stackdist_groups == len(small_traces)
        assert warm.cells_derived == 4 * len(small_traces)
        assert warm.simulated == 0
        # The per-associativity grids after the warm-up re-simulate
        # nothing.
        assert all(note.simulated == 0 for note in run.sweeps[1:])
        assert all(note.stackdist_groups == 0 for note in run.sweeps[1:])
