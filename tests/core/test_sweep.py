"""The shared sweep executor and the functional-result memoisation layer.

The contract under test: every sweep site can hand ``(traces, configs)``
to the executor and get the same counts it would have produced with a
hand-rolled double loop -- regardless of worker count, pool availability
or cache state -- while timing-only configuration variations cost one
functional simulation per trace, not one per cell.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.core import sweep
from repro.core.sweep import sweep_functional, sweep_timing, sweep_workers
from repro.sim import memo
from repro.sim.fast import clear_front_cache, front_projection, run_functional
from repro.sim.timing import TimingSimulator
from repro.trace.workload import SyntheticWorkload
from repro.units import KB


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty cache."""
    memo.clear_memo_cache()
    yield
    memo.clear_memo_cache()


def timing_variants(base_config):
    """Configurations differing from ``base_config`` only in timing."""
    return [
        base_config,
        base_config.with_level(1, cycle_cpu_cycles=5),
        base_config.with_level(1, cycle_cpu_cycles=9, write_hit_cycles=3),
    ]


def assert_counts_equal(a, b):
    assert a.cpu_reads == b.cpu_reads
    assert a.cpu_writes == b.cpu_writes
    for fa, fb in zip(a.level_stats, b.level_stats):
        assert fa == fb
    assert a.memory_reads == b.memory_reads
    assert a.memory_writes == b.memory_writes


class TestGrid:
    def test_shape_and_values_match_direct_runs(self, small_traces, base_config):
        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
        ]
        grid = sweep_functional(small_traces, configs)
        assert len(grid) == len(configs)
        assert all(len(row) == len(small_traces) for row in grid)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))

    def test_deterministic_across_calls(self, small_traces, base_config):
        configs = timing_variants(base_config)
        first = sweep_functional(small_traces, configs)
        memo.clear_memo_cache()
        second = sweep_functional(small_traces, configs)
        for row_a, row_b in zip(first, second):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)

    def test_empty_arguments_rejected(self, small_traces, base_config):
        with pytest.raises(ValueError):
            sweep_functional([], [base_config])
        with pytest.raises(ValueError):
            sweep_functional(small_traces, [])
        with pytest.raises(ValueError):
            sweep_timing([], [base_config])
        with pytest.raises(ValueError):
            sweep_timing(small_traces, [])


class TestMemoisation:
    def test_timing_only_sweep_simulates_once_per_trace(
        self, small_traces, base_config
    ):
        configs = timing_variants(base_config)
        since = telemetry.mark()
        grid = sweep_functional(small_traces, configs)
        counted = telemetry.counter_deltas(since)
        # One functional simulation per trace; every other cell is a hit.
        assert memo.cache_size() == len(small_traces)
        assert counted["memo.hits"] >= len(small_traces) * (len(configs) - 1)
        # The issue's contract: identical objects-by-value across the
        # timing-only axis.
        for j in range(len(small_traces)):
            baseline = grid[0][j]
            for i in range(1, len(configs)):
                assert_counts_equal(grid[i][j], baseline)
                # The count payload is shared, not recomputed.
                assert grid[i][j].level_stats is baseline.level_stats

    def test_results_carry_the_callers_config(self, small_traces, base_config):
        configs = timing_variants(base_config)
        grid = sweep_functional(small_traces, configs)
        for config, row in zip(configs, grid):
            for result in row:
                assert result.config is config

    def test_cache_survives_across_sweeps(self, small_traces, base_config):
        sweep_functional(small_traces, [base_config])
        since = telemetry.mark()
        sweep_functional(small_traces, [base_config.with_level(1, cycle_cpu_cycles=7)])
        assert "memo.misses" not in telemetry.counter_deltas(since)

    def test_functional_change_misses(self, small_traces, base_config):
        sweep_functional(small_traces, [base_config])
        size_before = memo.cache_size()
        sweep_functional(
            small_traces, [base_config.with_level(1, size_bytes=16 * KB)]
        )
        assert memo.cache_size() == size_before + len(small_traces)

    def test_eviction_respects_the_cap(self, small_traces, base_config, monkeypatch):
        monkeypatch.setattr(memo, "MAX_ENTRIES", 1)
        since = telemetry.mark()
        sweep_functional(
            small_traces[:1],
            [base_config, base_config.with_level(1, size_bytes=16 * KB)],
        )
        assert memo.cache_size() == 1
        assert telemetry.counter_deltas(since)["memo.evictions"] >= 1


class TestProjection:
    def test_timing_fields_excluded(self, base_config):
        variants = timing_variants(base_config)
        projections = {memo.functional_projection(c) for c in variants}
        assert len(projections) == 1

    @pytest.mark.parametrize(
        "changes",
        [
            {"size_bytes": 16 * KB},
            {"block_bytes": 64},
            {"associativity": 2},
            {"write_policy": "write-through", "write_allocate": False},
            {"fetch_blocks": 2},
            {"prefetch": "on-miss"},
        ],
    )
    def test_functional_fields_included(self, base_config, changes):
        changed = base_config.with_level(1, **changes)
        assert memo.functional_projection(changed) != (
            memo.functional_projection(base_config)
        )

    def test_inclusion_included(self, base_config):
        inclusive = dataclasses.replace(base_config, enforce_inclusion=True)
        assert memo.functional_projection(inclusive) != (
            memo.functional_projection(base_config)
        )

    def test_fingerprint_is_cached_and_distinct(self):
        a = SyntheticWorkload(seed=5).trace(2_000)
        b = SyntheticWorkload(seed=6).trace(2_000)
        fp = memo.trace_fingerprint(a)
        assert a.metadata[memo._FINGERPRINT_SLOT] == fp
        assert memo.trace_fingerprint(a) == fp
        assert memo.trace_fingerprint(b) != fp

    def test_warmup_changes_fingerprint(self):
        a = SyntheticWorkload(seed=7).trace(2_000, warmup=0)
        b = SyntheticWorkload(seed=7).trace(2_000, warmup=500)
        assert memo.trace_fingerprint(a) != memo.trace_fingerprint(b)


class TestParallel:
    def test_pool_matches_serial(self, small_traces, base_config):
        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
            base_config.with_level(1, size_bytes=32 * KB),
        ]
        serial = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        pooled = sweep_functional(small_traces, configs, workers=2)
        for row_a, row_b in zip(serial, pooled):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)

    def test_pool_replays_each_front_once(self, base_config, monkeypatch):
        """Cells that share a front -- a trace and the upstream levels --
        are dispatched together, so each front is replayed by one worker
        only, once."""
        from repro.audit import manifest

        monkeypatch.delenv("REPRO_TRACE_CHUNK", raising=False)
        traces = [
            SyntheticWorkload(seed=80 + t, address_base=t << 40).trace(
                12_000, name=f"front{t}", warmup=2_000
            )
            for t in range(3)
        ]
        # Lone direct-mapped L2 cells: each runs on its cached front.
        configs = [
            base_config.with_level(0, size_bytes=l1_kb * KB).with_level(
                1, size_bytes=l2_kb * KB
            )
            for l1_kb in (4, 8)
            for l2_kb in (16, 32, 64)
        ]
        serial = sweep_functional(traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()  # forked workers must not inherit fronts
        since = telemetry.mark()
        with manifest.recording("front-affinity") as run:
            pooled = sweep_functional(traces, configs, workers=2)
        (note,) = run.sweeps
        if not note.pooled:
            pytest.skip("worker processes cannot be created on this host")
        assert note.simulated == len(configs) * len(traces)
        fronts = {
            (j, front_projection(config))
            for config in configs
            for j in range(len(traces))
        }
        moved = telemetry.counter_deltas(since)
        assert moved.get("front.misses", 0) == len(fronts)
        for row_a, row_b in zip(serial, pooled):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)

    def test_env_knob_controls_workers(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV, "3")
        assert sweep_workers() == 3
        monkeypatch.setenv(sweep.WORKERS_ENV, "0")
        assert sweep_workers() == 1
        monkeypatch.setenv(sweep.WORKERS_ENV, "nope")
        with pytest.raises(ValueError, match=sweep.WORKERS_ENV):
            sweep_workers()

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV, "8")
        assert sweep_workers(2) == 2

    def test_graceful_fallback_when_pool_unavailable(
        self, small_traces, base_config, monkeypatch
    ):
        monkeypatch.setattr(sweep, "_pool_map", lambda *a, **k: None)
        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
        ]
        grid = sweep_functional(small_traces, configs, workers=4)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))


class TestTiming:
    def test_matches_direct_timing_runs(self, small_traces, base_config):
        configs = [
            base_config,
            base_config.with_level(1, cycle_cpu_cycles=6),
        ]
        grid = sweep_timing(small_traces, configs)
        assert len(grid) == len(configs)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                direct = TimingSimulator(config).run(trace)
                assert result.total_cycles == direct.total_cycles
                assert result.total_ns == direct.total_ns

    def test_no_memoisation_for_timing(self, small_traces, base_config):
        since = telemetry.mark()
        sweep_timing(small_traces, timing_variants(base_config))
        counted = telemetry.counter_deltas(since)
        assert "memo.hits" not in counted and "memo.misses" not in counted


class TestTimingMemo:
    """Timing cells are memoised by their whole configuration, and an
    event-engine result's counts seed the functional memo."""

    def test_repeated_config_across_two_sweeps_simulates_once(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        slower = base_config.with_level(1, cycle_cpu_cycles=5)
        with manifest.recording("repeat") as run:
            first = sweep_timing(small_traces, [base_config], workers=1)
            second = sweep_timing(
                small_traces, [slower, base_config, slower], workers=1
            )
        one, two = run.sweeps
        assert one.simulated == len(small_traces)
        assert two.simulated == len(small_traces)
        assert two.memoised == 2 * len(small_traces)
        for a, b in zip(first[0], second[1]):
            assert a == b and b.config is base_config
        assert second[0] == second[2]

    def test_second_sweeps_journal_resumes_alone(
        self, tmp_path, small_traces, base_config
    ):
        from repro.audit import manifest
        from repro.resilience.journal import journaling

        configs = timing_variants(base_config)
        with journaling(tmp_path / "first.jsonl"):
            sweep_timing(small_traces, configs, workers=1)
        with journaling(tmp_path / "second.jsonl"):
            served = sweep_timing(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        with manifest.recording("resume") as run:
            with journaling(tmp_path / "second.jsonl", resume=True):
                resumed = sweep_timing(small_traces, configs, workers=1)
        (note,) = run.sweeps
        assert note.simulated == 0
        assert note.resumed == len(configs) * len(small_traces)
        for row_a, row_b in zip(served, resumed):
            for a, b in zip(row_a, row_b):
                assert a.total_ns == b.total_ns
                assert a.write_stall_ns == b.write_stall_ns

    @pytest.mark.parametrize("workers", [1, 2])
    def test_functional_sweep_after_timing_simulates_nothing(
        self, small_traces, base_config, workers
    ):
        from repro.audit import manifest

        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
            base_config.with_level(0, write_policy="write-through"),
        ]
        sweep_timing(small_traces, configs, workers=workers)
        with manifest.recording("after-timing") as run:
            grid = sweep_functional(small_traces, configs, workers=workers)
        (note,) = run.sweeps
        assert note.simulated == 0 and note.cells_derived == 0
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert result == run_functional(trace, config)


class TestWorkerErrors:
    def test_worker_exceptions_propagate(
        self, small_traces, base_config, monkeypatch
    ):
        """Regression: a worker crash used to be swallowed by the pool
        fallback, silently re-running the grid serially.  The poisoned
        simulator below only raises in a forked child (the monkeypatched
        module global is inherited across fork), so the serial path would
        "succeed" -- masking the failure -- while the pooled path must
        surface it.
        """
        import os

        parent_pid = os.getpid()
        real = sweep.run_functional

        def poisoned(trace, config):
            if os.getpid() != parent_pid:
                raise ValueError("worker exploded")
            return real(trace, config)

        monkeypatch.setattr(sweep, "run_functional", poisoned)
        # Keep the cells on the per-cell functional path: with the grid
        # planner on they would ride stack passes and never touch the
        # poisoned run_functional.
        monkeypatch.setenv(sweep.STACKDIST_ENV, "0")
        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
        ]
        # 2 traces x 2 functionally distinct configs = 4 pending cells,
        # enough to engage the pool.
        with pytest.raises(ValueError, match="worker exploded"):
            sweep_functional(small_traces, configs, workers=2)

    def test_pool_creation_failure_still_degrades_serially(
        self, small_traces, base_config, monkeypatch
    ):
        import multiprocessing

        class Unforkable:
            def get_start_method(self):
                return "fork"

            def Pool(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda *a, **k: Unforkable()
        )
        configs = [
            base_config,
            base_config.with_level(1, size_bytes=16 * KB),
        ]
        grid = sweep_functional(small_traces, configs, workers=2)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))


class TestStackdistPlanner:
    """Grid batching: cells differing only in deepest-level associativity
    ride one stack-distance pass; everything else keeps per-cell
    semantics (and the knob can force the old behaviour)."""

    @staticmethod
    def grid_configs(base_config, l2_kb=64, ways=(1, 2, 4, 8)):
        """Same deepest-level set count at every associativity."""
        return [
            base_config.with_level(1, associativity=a, size_bytes=l2_kb * KB * a)
            for a in ways
        ]

    def test_one_pass_per_group_with_exact_counts(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest

        configs = self.grid_configs(base_config)
        monkeypatch.setenv(sweep.STACKDIST_ENV, "0")
        baseline = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()
        monkeypatch.setenv(sweep.STACKDIST_ENV, "1")
        with manifest.recording("planner-on") as run:
            derived = sweep_functional(small_traces, configs, workers=1)
        for row_a, row_b in zip(baseline, derived):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == len(configs) * len(small_traces)
        assert note.simulated == 0
        assert note.memoised == 0

    def test_results_carry_the_callers_config(self, small_traces, base_config):
        configs = self.grid_configs(base_config)
        grid = sweep_functional(small_traces, configs, workers=1)
        for config, row in zip(configs, grid):
            for result in row:
                assert result.config is config

    def test_env_knob_disables_grouping(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest

        monkeypatch.setenv(sweep.STACKDIST_ENV, "0")
        assert not sweep.stackdist_enabled()
        configs = self.grid_configs(base_config)
        with manifest.recording("planner-off") as run:
            sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == 0
        assert note.cells_derived == 0
        assert note.simulated == len(configs) * len(small_traces)

    def test_mixed_eligibility_falls_back_per_cell(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest

        configs = self.grid_configs(base_config) + [
            # FIFO at 2 ways: fast-ineligible, simulated per cell.
            base_config.with_level(
                1, associativity=2, size_bytes=128 * KB, replacement="fifo"
            ),
            # Eligible but alone at its set count, and direct-mapped:
            # the sort kernel on the cached L1 stream is cheaper than a
            # stack pass, so it is simulated per cell too.
            base_config.with_level(1, size_bytes=32 * KB),
        ]
        with manifest.recording("planner-mixed") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == 4 * len(small_traces)
        assert note.simulated == 2 * len(small_traces)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))

    def test_lone_direct_mapped_cell_plans_no_pass(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        lone = base_config.with_level(1, associativity=1, size_bytes=32 * KB)
        with manifest.recording("planner-lone-dm") as run:
            grid = sweep_functional(small_traces, [lone], workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == 0
        assert note.cells_derived == 0
        assert note.simulated == len(small_traces)
        for trace, result in zip(small_traces, grid[0]):
            assert_counts_equal(result, run_functional(trace, lone))

    def test_lone_associative_cell_rides_a_pass(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        # Alone in its sweep, so no other pass shares its L1 replay: it
        # still pays a stack pass on the fast path, and the width-16
        # pass derives its four siblings for the memo.
        lone = base_config.with_level(1, associativity=4, size_bytes=128 * KB)
        with manifest.recording("planner-lone-assoc") as run:
            grid = sweep_functional(small_traces, [lone], workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == len(small_traces)
        assert note.simulated == 0
        for trace, result in zip(small_traces, grid[0]):
            assert_counts_equal(result, run_functional(trace, lone))
        siblings = self.grid_configs(base_config, l2_kb=32, ways=(1, 2, 8, 16))
        with manifest.recording("planner-lone-extras") as run:
            rows = sweep_functional(small_traces, siblings, workers=1)
        note = run.sweeps[0]
        assert note.simulated == 0
        assert note.stackdist_groups == 0
        assert note.memoised == len(siblings) * len(small_traces)
        for config, row in zip(siblings, rows):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))

    def test_derived_extras_memo_hit_later_runs(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        # The pass derives every STACK_ASSOCIATIVITY; a later sweep over
        # a member nobody asked for the first time must hit the memo.
        sweep_functional(
            small_traces, self.grid_configs(base_config), workers=1
        )
        sixteen = base_config.with_level(
            1, associativity=16, size_bytes=64 * KB * 16
        )
        with manifest.recording("planner-extra") as run:
            sweep_functional(small_traces, [sixteen], workers=1)
        note = run.sweeps[0]
        assert note.simulated == 0
        assert note.stackdist_groups == 0
        assert note.memoised == len(small_traces)

    def test_pool_matches_serial_for_groups(
        self, small_traces, base_config, monkeypatch
    ):
        # Two set counts x two traces = four groups, enough to engage
        # the pool for the stackdist batch itself.
        configs = self.grid_configs(base_config, l2_kb=64) + (
            self.grid_configs(base_config, l2_kb=32)
        )
        serial = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()
        pooled = sweep_functional(small_traces, configs, workers=2)
        for row_a, row_b in zip(serial, pooled):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)

    def test_corrupted_grid_result_caught_at_intake(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import AuditError

        # A histogram gone wrong inside the stack pass must not poison
        # the grid: the injected corruption breaks a conservation law on
        # one derived member, and the sweep-intake re-audit rejects the
        # whole group.
        monkeypatch.setenv("REPRO_AUDIT", "1")
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_result:1")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        configs = self.grid_configs(base_config)
        with pytest.raises(AuditError):
            sweep_functional(small_traces, configs, workers=1)


class TestGridDedup:
    def test_inert_replacement_policies_share_one_simulation(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest

        # Direct-mapped levels make the stated replacement policy dead
        # configuration: these two configs are functionally identical
        # and must cost one simulation, returning a shared payload.
        monkeypatch.setenv(sweep.STACKDIST_ENV, "0")
        lru = base_config
        fifo = base_config.with_level(1, replacement="fifo")
        assert memo.functional_projection(lru) == memo.functional_projection(fifo)
        with manifest.recording("dedup") as run:
            grid = sweep_functional(small_traces, [lru, fifo], workers=1)
        note = run.sweeps[0]
        assert note.simulated == len(small_traces)
        assert note.memoised == len(small_traces)
        for j in range(len(small_traces)):
            assert grid[0][j].level_stats is grid[1][j].level_stats
            assert_counts_equal(grid[0][j], grid[1][j])

    def test_dead_prefetch_distance_shares_one_simulation(
        self, small_traces, base_config, monkeypatch
    ):
        monkeypatch.setenv(sweep.STACKDIST_ENV, "0")
        variant = base_config.with_level(1, prefetch_distance=7)
        assert memo.functional_projection(base_config) == (
            memo.functional_projection(variant)
        )
        grid = sweep_functional(small_traces, [base_config, variant], workers=1)
        for j in range(len(small_traces)):
            assert grid[0][j].level_stats is grid[1][j].level_stats
