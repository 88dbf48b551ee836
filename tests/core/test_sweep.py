"""The shared sweep executor and the functional-result memoisation layer.

The contract under test: every sweep site can hand ``(traces, configs)``
to the executor and get the same counts it would have produced with a
hand-rolled double loop -- regardless of worker count, pool availability
or cache state -- while timing-only configuration variations cost one
functional simulation per trace, not one per cell.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import sweep
from repro.core.sweep import sweep_functional, sweep_timing, sweep_workers
from repro.sim import memo
from repro.resilience.executor import Cell
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import clear_front_cache, front_projection, run_functional
from repro.sim.stackdist import grid_projection, stackdist_eligible
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
        only, once: as set-count groups, and as per-cell singles."""
        from repro.audit import manifest

        monkeypatch.delenv("REPRO_TRACE_CHUNK", raising=False)
        traces = [
            SyntheticWorkload(seed=80 + t, address_base=t << 40).trace(
                12_000, name=f"front{t}", warmup=2_000
            )
            for t in range(3)
        ]
        # Direct-mapped L2 cells sharing a front are one set-count pass
        # per front; a lone direct-mapped cell on its own front is a
        # single that runs on its cached front.
        grouped = [
            base_config.with_level(0, size_bytes=l1_kb * KB).with_level(
                1, size_bytes=l2_kb * KB
            )
            for l1_kb in (4, 8)
            for l2_kb in (16, 32, 64)
        ]
        singles = [
            base_config.with_level(0, size_bytes=l1_kb * KB).with_level(
                1, size_bytes=l2_kb * KB
            )
            for l1_kb, l2_kb in ((4, 16), (8, 32), (16, 64))
        ]
        for configs in (grouped, singles):
            fronts = {
                (j, front_projection(config))
                for config in configs
                for j in range(len(traces))
            }
            memo.clear_memo_cache()
            serial = sweep_functional(traces, configs, workers=1)
            memo.clear_memo_cache()
            clear_front_cache()  # forked workers must not inherit fronts
            since = telemetry.mark()
            with manifest.recording("front-affinity") as run:
                pooled = sweep_functional(traces, configs, workers=2)
            (note,) = run.sweeps
            if not note.pooled:
                pytest.skip("worker processes cannot be created on this host")
            cells = len(configs) * len(traces)
            if configs is grouped:
                assert note.stackdist_groups == len(fronts)
                assert (note.simulated, note.cells_derived) == (0, cells)
            else:
                assert len(fronts) == cells
                assert (note.simulated, note.stackdist_groups) == (cells, 0)
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
        monkeypatch.setattr(
            sweep.resilient_executor, "run_pooled", lambda *a, **k: None
        )
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


class TestBothKinds:
    """Behaviour the functional and timing sweeps share through their one
    pipeline."""

    @pytest.mark.parametrize(
        "run_sweep", [sweep_functional, sweep_timing], ids=["functional", "timing"]
    )
    def test_second_sweeps_journal_resumes_alone(
        self, tmp_path, small_traces, base_config, run_sweep
    ):
        """A sweep served wholly from the memo still journals every cell,
        so its journal alone resumes the grid."""
        from repro.audit import manifest
        from repro.resilience.journal import journaling

        configs = [
            base_config.with_level(1, size_bytes=kb * KB) for kb in (16, 32, 64)
        ]
        with journaling(tmp_path / "first.jsonl"):
            run_sweep(small_traces, configs, workers=1)
        with journaling(tmp_path / "second.jsonl"):
            served = run_sweep(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        with manifest.recording("resume") as run:
            with journaling(tmp_path / "second.jsonl", resume=True):
                resumed = run_sweep(small_traces, configs, workers=1)
        (note,) = run.sweeps
        assert note.simulated == 0
        assert note.resumed == len(configs) * len(small_traces)
        assert resumed == served


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
        # Lone direct-mapped cells on distinct fronts stay on the
        # per-cell functional path; cells sharing a front would ride one
        # grid pass and never touch the poisoned run_functional.
        configs = [
            base_config,
            base_config.with_level(0, size_bytes=8 * KB),
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
    semantics."""

    @staticmethod
    def grid_configs(base_config, l2_kb=64, ways=(1, 2, 4, 8)):
        """Same deepest-level set count at every associativity."""
        return [
            base_config.with_level(1, associativity=a, size_bytes=l2_kb * KB * a)
            for a in ways
        ]

    def test_one_pass_per_group_with_exact_counts(self, small_traces, base_config):
        from repro.audit import manifest

        configs = self.grid_configs(base_config)
        baseline = [
            [run_functional(trace, config) for trace in small_traces]
            for config in configs
        ]
        memo.clear_memo_cache()
        clear_front_cache()
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

    def test_mixed_eligibility_falls_back_per_cell(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest

        configs = self.grid_configs(base_config) + [
            # FIFO at 2 ways: fast-ineligible, simulated per cell.
            base_config.with_level(
                1, associativity=2, size_bytes=128 * KB, replacement="fifo"
            ),
            # Eligible, direct-mapped and alone at its set count, but on
            # the associative cells' plane: the width-16 pass derives it
            # at a second set count.
            base_config.with_level(1, size_bytes=32 * KB),
        ]
        with manifest.recording("planner-mixed") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == 5 * len(small_traces)
        assert note.simulated == len(small_traces)
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
        from repro.audit import manifest

        # Two fronts x two traces = four groups, each a sets x ways pass
        # over two set counts: enough to engage the pool for the
        # stackdist batch itself.
        configs = [
            config
            for front in (base_config, base_config.with_level(0, size_bytes=8 * KB))
            for l2_kb in (64, 32)
            for config in self.grid_configs(front, l2_kb=l2_kb)
        ]
        serial = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()
        with manifest.recording("planner-pooled") as run:
            pooled = sweep_functional(small_traces, configs, workers=2)
        (note,) = run.sweeps
        assert note.stackdist_groups == 2 * len(small_traces)
        assert note.pooled
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


class TestSetCountPlanner:
    """Direct-mapped cells that differ only in deepest-level set count
    ride one pass of the direct-mapped kernel; a lone one stays a
    single."""

    @staticmethod
    def dm_configs(base_config, sizes_kb=(16, 32, 64, 128)):
        return [base_config.with_level(1, size_bytes=kb * KB) for kb in sizes_kb]

    @staticmethod
    def plan(traces, configs):
        pending, keys = [], []
        for config in configs:
            for j, trace in enumerate(traces):
                keys.append(memo.memo_key(trace, config))
                pending.append(Cell(len(pending), j, config, f"cell{len(pending)}"))
        return sweep._plan_stackdist(pending, keys)

    def test_lone_cells_sharing_a_front_form_one_group(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        configs = self.dm_configs(base_config)
        jobs, job_keys = self.plan(small_traces, configs)
        assert len(jobs) == len(small_traces)
        for job, keys in zip(jobs, job_keys):
            assert job.config.levels[-1].associativity == 1
            assert job.set_counts == tuple(
                c.levels[-1].geometry().sets for c in configs
            )
            assert len(keys) == len(configs)
        with manifest.recording("planner-sets") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == len(configs) * len(small_traces)
        assert note.simulated == 0
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert result.config is config
                assert_counts_equal(result, run_functional(trace, config))

    def test_single_lone_cell_stays_single(self, small_traces, base_config):
        # One direct-mapped cell per front: nothing to share a pass with.
        configs = [
            self.dm_configs(base_config, (32,))[0],
            self.dm_configs(base_config, (64,))[0].with_level(0, size_bytes=8 * KB),
        ]
        jobs, _ = self.plan(small_traces, configs)
        assert [job.set_counts for job in jobs] == [()] * (
            len(configs) * len(small_traces)
        )

    def test_only_requested_members_are_journaled(
        self, tmp_path, small_traces, base_config
    ):
        from repro.resilience.journal import journaling

        # A width pass derives four extras per trace; the set-count pass
        # derives nothing beyond its members.  Only requested cells land.
        configs = self.dm_configs(base_config, (16, 32)) + [
            base_config.with_level(1, associativity=4, size_bytes=256 * KB)
        ]
        since = telemetry.mark()
        with journaling(tmp_path / "j.jsonl"):
            sweep_functional(small_traces, configs, workers=1)
        moved = telemetry.counter_deltas(since)
        assert moved.get("journal.records", 0) == len(configs) * len(small_traces)

    def test_resumed_sweep_restores_identical_grids(
        self, tmp_path, small_traces, base_config
    ):
        from repro.audit import manifest
        from repro.resilience.chaos import grid_digest
        from repro.resilience.journal import journaling

        configs = self.dm_configs(base_config)
        path = tmp_path / "j.jsonl"
        with journaling(path):
            first = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()
        with manifest.recording("resume-sets") as run:
            with journaling(path, resume=True):
                second = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.resumed == len(configs) * len(small_traces)
        assert note.simulated == note.stackdist_groups == 0
        assert grid_digest(second, []) == grid_digest(first, [])

    def test_injected_fault_is_retried_and_reported(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest
        from repro.resilience.faults import InjectedFault

        configs = self.dm_configs(base_config)
        real = sweep.run_stackdist_grid
        failed_once = set()

        def flaky(trace, config, set_counts=()):
            # The first attempt at every set-count group fails.
            if set_counts and (trace.name, set_counts) not in failed_once:
                failed_once.add((trace.name, set_counts))
                raise InjectedFault(f"injected into {set_counts}")
            return real(trace, config, set_counts)

        monkeypatch.setattr(sweep, "run_stackdist_grid", flaky)
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "1")
        with manifest.recording("sets-retried") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.retries == len(small_traces)
        assert note.failed == 0
        assert note.stackdist_groups == len(small_traces)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))

        # With every attempt failing and no retry left, each group is one
        # failure report, its member cells holes in a partial grid.
        def broken(trace, config, set_counts=()):
            if set_counts:
                raise InjectedFault(f"injected into {set_counts}")
            return real(trace, config, set_counts)

        memo.clear_memo_cache()
        monkeypatch.setattr(sweep, "run_stackdist_grid", broken)
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        failures = []
        partial = sweep_functional(
            small_traces, configs, workers=1, on_failure="partial",
            failures=failures,
        )
        assert len(failures) == len(small_traces)
        assert all(isinstance(f.exception, InjectedFault) for f in failures)
        assert all(cell is None for row in partial for cell in row)
        with pytest.raises(InjectedFault):
            sweep_functional(small_traces, configs, workers=1)


class TestPlanePlanner:
    """Cells on one front that differ only in the deepest level's set and
    way counts are one sets x ways job, headed by the widest: one
    width-16 pass with a stack per set count.  Anything that changes the
    front, the deepest block size or a policy keeps them apart."""

    SIZES_KB = (16, 64, 256)

    @staticmethod
    def plane_configs(base_config, sizes_kb=SIZES_KB, ways=(1, 2)):
        return [
            base_config.with_level(1, associativity=a, size_bytes=kb * KB * a)
            for kb in sizes_kb
            for a in ways
        ]

    def test_ways_groups_on_one_front_merge_into_one_job(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        configs = self.plane_configs(base_config)
        jobs, job_keys = TestSetCountPlanner.plan(small_traces, configs)
        assert len(jobs) == len(small_traces)
        for job, keys in zip(jobs, job_keys):
            assert job.config.levels[-1].associativity == 2
            assert job.set_counts == (512, 2048, 8192)
            assert len(keys) == len(configs)
        clear_front_cache()
        since = telemetry.mark()
        with manifest.recording("planner-plane") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.stackdist_groups == len(small_traces)
        assert note.cells_derived == len(configs) * len(small_traces)
        assert note.simulated == 0
        assert telemetry.counter_deltas(since).get("front.misses", 0) == len(
            small_traces
        )
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert result.config is config
                assert_counts_equal(result, run_functional(trace, config))

    def test_single_bucket_stays_a_one_member_call(self, small_traces, base_config):
        configs = self.plane_configs(base_config, sizes_kb=(64,))
        jobs, _ = TestSetCountPlanner.plan(small_traces[:1], configs)
        assert [(j.config, j.set_counts) for j in jobs] == [(configs[1], (2048,))]

    def test_fronts_block_sizes_and_policies_stay_apart(
        self, small_traces, base_config
    ):
        variants = [
            base_config,
            base_config.with_level(0, size_bytes=8 * KB),
            base_config.with_level(0, write_policy="write-through"),
            base_config.with_level(1, block_bytes=64),
        ]
        configs = [
            config
            for variant in variants
            for config in self.plane_configs(variant, sizes_kb=(32, 128))
        ]
        (trace,) = small_traces[:1]
        jobs, job_keys = TestSetCountPlanner.plan([trace], configs)
        assert len(jobs) == len(variants)
        for index, (job, keys) in enumerate(zip(jobs, job_keys)):
            assert job.config.levels[-1].associativity == 2
            assert len(job.set_counts) == 2
            assert keys == [
                memo.memo_key(trace, c) for c in configs[4 * index: 4 * index + 4]
            ]
        assert len({j.signature for j in jobs}) == len(jobs)
        grid = sweep_functional([trace], configs, workers=1)
        for config, (result,) in zip(configs, grid):
            assert_counts_equal(result, run_functional(trace, config))

    @pytest.mark.parametrize("chunk", (None, 7919))
    def test_mixed_plane_is_one_width_job(
        self, small_traces, base_config, monkeypatch, chunk
    ):
        # A 2-way cell beside its direct-mapped twin at one set count,
        # and lone direct-mapped cells at two others: one plane, so one
        # job headed by the 2-way cell, the width-16 pass at every set
        # count.
        two_way = base_config.with_level(1, associativity=2, size_bytes=128 * KB)
        configs = [
            base_config.with_level(1, size_bytes=kb * KB) for kb in (64, 16)
        ] + [two_way, base_config.with_level(1, size_bytes=8 * KB)]
        jobs, job_keys = TestSetCountPlanner.plan(small_traces[:1], configs)
        (trace,) = small_traces[:1]
        assert [(j.config, j.set_counts) for j in jobs] == [
            (two_way, (256, 512, 2048))
        ]
        assert job_keys == [[memo.memo_key(trace, c) for c in configs]]
        want = [[run_functional(t, c) for t in small_traces] for c in configs]
        if chunk is not None:
            monkeypatch.setenv("REPRO_TRACE_CHUNK", str(chunk))
        memo.clear_memo_cache()
        clear_front_cache()
        grid = sweep_functional(small_traces, configs, workers=1)
        for row, want_row in zip(grid, want):
            for result, expected in zip(row, want_row):
                assert_counts_equal(result, expected)

    def test_only_requested_members_are_journaled(
        self, tmp_path, small_traces, base_config
    ):
        from repro.resilience.journal import journaling

        # The plane derives five associativities at each of three set
        # counts per trace; only the six requested cells land.
        configs = self.plane_configs(base_config)
        since = telemetry.mark()
        with journaling(tmp_path / "j.jsonl"):
            sweep_functional(small_traces, configs, workers=1)
        moved = telemetry.counter_deltas(since)
        assert moved.get("journal.records", 0) == len(configs) * len(small_traces)
        extra = base_config.with_level(1, associativity=16, size_bytes=256 * KB * 16)
        assert memo.peek(memo.memo_key(small_traces[0], extra)) is not None

    def test_resumed_sweep_restores_identical_grids(
        self, tmp_path, small_traces, base_config
    ):
        from repro.audit import manifest
        from repro.resilience.chaos import grid_digest
        from repro.resilience.journal import journaling

        configs = self.plane_configs(base_config)
        path = tmp_path / "j.jsonl"
        with journaling(path):
            first = sweep_functional(small_traces, configs, workers=1)
        memo.clear_memo_cache()
        clear_front_cache()
        with manifest.recording("resume-plane") as run:
            with journaling(path, resume=True):
                second = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.resumed == len(configs) * len(small_traces)
        assert note.simulated == note.stackdist_groups == 0
        assert grid_digest(second, []) == grid_digest(first, [])

    def test_injected_fault_is_retried_and_reported(
        self, small_traces, base_config, monkeypatch
    ):
        from repro.audit import manifest
        from repro.resilience.faults import InjectedFault

        configs = self.plane_configs(base_config)
        real = sweep.run_stackdist_grid
        failed_once = set()

        def flaky(trace, config, set_counts=()):
            # The first attempt at every sets x ways group fails.
            if len(set_counts) > 1 and (trace.name, set_counts) not in failed_once:
                failed_once.add((trace.name, set_counts))
                raise InjectedFault(f"injected into {set_counts}")
            return real(trace, config, set_counts)

        monkeypatch.setattr(sweep, "run_stackdist_grid", flaky)
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "1")
        with manifest.recording("plane-retried") as run:
            grid = sweep_functional(small_traces, configs, workers=1)
        note = run.sweeps[0]
        assert note.retries == len(small_traces)
        assert note.failed == 0
        assert note.stackdist_groups == len(small_traces)
        for config, row in zip(configs, grid):
            for trace, result in zip(small_traces, row):
                assert_counts_equal(result, run_functional(trace, config))

        # With every attempt failing and no retry left, each group is one
        # failure report, its member cells holes in a partial grid.
        def broken(trace, config, set_counts=()):
            if len(set_counts) > 1:
                raise InjectedFault(f"injected into {set_counts}")
            return real(trace, config, set_counts)

        memo.clear_memo_cache()
        monkeypatch.setattr(sweep, "run_stackdist_grid", broken)
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        failures = []
        partial = sweep_functional(
            small_traces, configs, workers=1, on_failure="partial",
            failures=failures,
        )
        assert len(failures) == len(small_traces)
        assert all(isinstance(f.exception, InjectedFault) for f in failures)
        assert all(cell is None for row in partial for cell in row)
        with pytest.raises(InjectedFault):
            sweep_functional(small_traces, configs, workers=1)


#: Two short traces the planner property draws from (hypothesis
#: examples cannot take function-scoped fixtures).
_PARTITION_TRACES = [
    SyntheticWorkload(seed=seed).trace(3_000, warmup=500) for seed in (61, 62)
]


@st.composite
def planner_grids(draw):
    """A random functional grid: L1 size, L2 8 KB - 1 MB at 1-16 ways,
    each level's write policy, over one or two traces."""
    configs = []
    for _ in range(draw(st.integers(1, 6))):
        ways = draw(st.sampled_from((1, 2, 4, 8, 16)))
        configs.append(SystemConfig(levels=(
            LevelConfig(
                size_bytes=draw(st.sampled_from((1, 2, 4))) * KB,
                block_bytes=16,
                split=True,
                write_policy=draw(st.sampled_from(("write-back", "write-through"))),
            ),
            LevelConfig(
                size_bytes=draw(st.sampled_from((8, 32, 128, 1024))) * KB,
                block_bytes=32,
                associativity=ways,
                write_policy=draw(st.sampled_from(("write-back", "write-through"))),
                cycle_cpu_cycles=3,
            ),
        )))
    return _PARTITION_TRACES[: draw(st.integers(1, 2))], configs


class TestPlannerPartition:
    """The planner partitions a sweep's outstanding cells into jobs: one
    grid job per (trace, plane) headed by its widest member, a single
    for everything else -- and the sweep's counts never depend on it."""

    @staticmethod
    def pending(traces, configs):
        """The sweep's outstanding cells: one per distinct memo key."""
        cells, keys = [], []
        for config in configs:
            for j, trace in enumerate(traces):
                key = memo.memo_key(trace, config)
                if key not in keys:
                    cells.append(Cell(len(cells), j, config, f"cell{len(cells)}"))
                    keys.append(key)
        return cells, keys

    @settings(max_examples=40, deadline=None)
    @given(grid=planner_grids())
    def test_jobs_partition_the_pending_cells(self, grid):
        traces, configs = grid
        pending, keys = self.pending(traces, configs)
        jobs, job_keys = sweep._plan_stackdist(pending, keys)
        assert collections.Counter(k for ks in job_keys for k in ks) == (
            collections.Counter(keys)
        )
        cell_of = dict(zip(keys, pending))

        def plane(cell):
            return cell.trace_index, grid_projection(cell.config)

        planes = collections.Counter(
            plane(cell) for cell in pending if stackdist_eligible(cell.config)
        )
        for job, members in zip(jobs, job_keys):
            cells = [cell_of[key] for key in members]
            if not job.set_counts:
                (cell,) = cells
                assert job.config is cell.config
                assert not stackdist_eligible(cell.config) or (
                    planes[plane(cell)] == 1
                    and cell.config.levels[-1].associativity == 1
                )
                continue
            assert all(stackdist_eligible(cell.config) for cell in cells)
            assert {plane(cell) for cell in cells} == {plane(job)}
            assert len(cells) == planes[plane(job)]
            assert job.set_counts == tuple(sorted(
                {cell.config.levels[-1].geometry().sets for cell in cells}
            ))
            widest = max(cell.config.levels[-1].associativity for cell in cells)
            assert job.config.levels[-1].associativity == widest
            assert any(job.config is cell.config for cell in cells)
            assert len(cells) > 1 or widest > 1

        memo.clear_memo_cache()
        clear_front_cache()
        swept = sweep_functional(traces, configs, workers=1)
        for config, row in zip(configs, swept):
            for trace, result in zip(traces, row):
                assert_counts_equal(result, run_functional(trace, config))


class TestGridDedup:
    def test_inert_replacement_policies_share_one_simulation(
        self, small_traces, base_config
    ):
        from repro.audit import manifest

        # Direct-mapped levels make the stated replacement policy dead
        # configuration: these two configs are functionally identical
        # and must cost one simulation, returning a shared payload.
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
        self, small_traces, base_config
    ):
        variant = base_config.with_level(1, prefetch_distance=7)
        assert memo.functional_projection(base_config) == (
            memo.functional_projection(variant)
        )
        grid = sweep_functional(small_traces, [base_config, variant], workers=1)
        for j in range(len(small_traces)):
            assert grid[0][j].level_stats is grid[1][j].level_stats
