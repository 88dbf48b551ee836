"""Zero-copy trace handoff between the sweep executor and its workers.

Workers receive :class:`~repro.trace.store.TraceHandle` references --
store paths and shared-memory segment names -- instead of inheriting the
trace arrays through ``Process`` args.  These tests pin the executor
integration: correct results through every handle kind, respawned
workers re-resolving handles, segment hygiene after the pool closes,
forked workers inheriting heap traces without a segment, and
start-method selection (including a spawn smoke test, where nothing is
inherited).
"""

import os
import signal
from pathlib import Path

import pytest

from repro import telemetry
from repro.resilience import executor
from repro.resilience.executor import Cell, _pool_context
from repro.resilience.faults import cell_signature
from repro.resilience.policy import RetryPolicy
from repro.sim import memo
from repro.sim.fast import run_functional
from repro.trace.store import TraceStore, export_traces, trace_content_digest


def _compute_functional(traces, cell):
    """Module-level compute: picklable, so spawn workers can import it."""
    return run_functional(traces[cell.trace_index], cell.config)


def make_cells(traces, configs):
    cells = []
    for j in range(len(traces)):
        for config in configs:
            key = memo.functional_projection(config)
            cells.append(
                Cell(len(cells), j, config, cell_signature("functional", j, key))
            )
    return cells


def shm_segments():
    """Names of live POSIX shared-memory segments (Linux)."""
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in root.iterdir() if entry.name.startswith("psm_")}


def assert_counts_match(outcome, cells, traces):
    assert not outcome.failures
    assert sorted(outcome.results) == [cell.cell_id for cell in cells]
    for cell in cells:
        expected = run_functional(traces[cell.trace_index], cell.config)
        got = outcome.results[cell.cell_id]
        assert got.cpu_reads == expected.cpu_reads
        assert got.memory_reads == expected.memory_reads
        assert (
            got.level_stats[0].read_misses
            == expected.level_stats[0].read_misses
        )


class TestPooledHandoff:
    def test_heap_traces_roundtrip_through_shared_memory(
        self, tiny_traces, config_grid, monkeypatch
    ):
        # Forked workers inherit heap traces; spawned ones attach a segment.
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "spawn")
        cells = make_cells(tiny_traces, config_grid[:2])
        before = shm_segments()
        outcome = executor.run_pooled(
            "functional", _compute_functional, [cells], tiny_traces,
            workers=2, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        assert_counts_match(outcome, cells, tiny_traces)
        # The lease released its segments when the pool closed.
        assert shm_segments() <= before

    def test_store_backed_traces_ship_as_paths(
        self, tiny_traces, config_grid, tmp_path
    ):
        loaded = []
        for index, trace in enumerate(tiny_traces):
            TraceStore.save(trace, tmp_path / f"t{index}.mlt")
            loaded.append(TraceStore.open(tmp_path / f"t{index}.mlt").as_trace())
        cells = make_cells(loaded, config_grid[:2])
        before = shm_segments()
        outcome = executor.run_pooled(
            "functional", _compute_functional, [cells], loaded,
            workers=2, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        assert_counts_match(outcome, cells, tiny_traces)
        # Store handles need no shared memory at all.
        assert shm_segments() <= before

    def test_respawned_worker_re_resolves_handles(
        self, tiny_traces, config_grid, tmp_path
    ):
        """A worker killed mid-job is replaced; the replacement gets the
        same handles and must produce the same counts."""
        cells = make_cells(tiny_traces, config_grid[:1])

        def compute(traces, cell):
            marker = tmp_path / f"cell{cell.cell_id}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
            except FileExistsError:
                return run_functional(traces[cell.trace_index], cell.config)
            os.kill(os.getpid(), signal.SIGKILL)

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "functional", compute, [[cell] for cell in cells], tiny_traces,
            workers=1, policy=RetryPolicy(max_attempts=3),
        )
        assert outcome is not None
        assert telemetry.counter_deltas(since)["pool.restarts"] >= 1
        assert_counts_match(outcome, cells, tiny_traces)

    def test_spawn_context_smoke(self, tiny_traces, config_grid, monkeypatch):
        """The handle handoff makes the pool start-method-agnostic: the
        same sweep runs under ``spawn``, where nothing is inherited."""
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "spawn")
        cells = make_cells(tiny_traces[:1], config_grid[:2])
        outcome = executor.run_pooled(
            "functional", _compute_functional, [cells], tiny_traces[:1],
            workers=1, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        assert_counts_match(outcome, cells, tiny_traces[:1])


def _trace_digest(traces, cell):
    """Module-level compute: what the worker sees of its trace."""
    return trace_content_digest(traces[cell.trace_index])


class TestForkInheritance:
    """Under ``fork`` heap traces are not copied at all: workers inherit
    the parent's arrays through inline handles, and only spawn and
    forkserver pools export shared-memory segments."""

    @staticmethod
    def spy_exports(monkeypatch):
        exported = []

        def spy(traces, inherited=False):
            handles, lease = export_traces(traces, inherited)
            exported.append((handles, list(lease.segments)))
            return handles, lease

        monkeypatch.setattr(executor, "export_traces", spy)
        return exported

    def test_fork_pool_creates_no_segment(
        self, tiny_traces, config_grid, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "fork")
        exported = self.spy_exports(monkeypatch)
        cells = make_cells(tiny_traces, config_grid[:2])
        before = shm_segments()
        outcome = executor.run_pooled(
            "functional", _compute_functional, [cells], tiny_traces,
            workers=2, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        assert_counts_match(outcome, cells, tiny_traces)
        [(handles, segments)] = exported
        assert [handle.kind for handle in handles] == ["inline"] * len(tiny_traces)
        assert segments == []
        assert shm_segments() <= before

    def test_respawned_fork_worker_sees_identical_traces(
        self, tiny_traces, tiny_config, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "fork")
        cells = [
            Cell(index, index, tiny_config, f"digest-{index}")
            for index in range(len(tiny_traces))
        ]

        def compute(traces, cell):
            # The first attempt at each cell kills its worker, so every
            # digest comes from a respawned one.
            marker = tmp_path / f"cell{cell.cell_id}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return _trace_digest(traces, cell)
            os.kill(os.getpid(), signal.SIGKILL)

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "digest", compute, [[cell] for cell in cells], tiny_traces,
            workers=1, policy=RetryPolicy(max_attempts=3),
        )
        assert outcome is not None and not outcome.failures
        assert telemetry.counter_deltas(since)["pool.restarts"] >= len(cells)
        assert outcome.results == {
            cell.cell_id: trace_content_digest(trace)
            for cell, trace in zip(cells, tiny_traces)
        }

    def test_spawn_pool_still_exports(self, tiny_traces, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "spawn")
        exported = self.spy_exports(monkeypatch)
        cells = [Cell(0, 0, tiny_config, "digest-0")]
        outcome = executor.run_pooled(
            "digest", _trace_digest, [cells], tiny_traces[:1],
            workers=1, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None and not outcome.failures
        assert outcome.results == {0: trace_content_digest(tiny_traces[0])}
        [(handles, segments)] = exported
        assert [handle.kind for handle in handles] == ["shm"]
        assert len(segments) == 1


class TestPoolContext:
    def test_default_prefers_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CONTEXT", raising=False)
        assert _pool_context().get_start_method() == "fork"

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_env_knob_selects_the_method(self, monkeypatch, method):
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", method)
        assert _pool_context().get_start_method() == method

    def test_invalid_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CONTEXT", "teleport")
        with pytest.raises(ValueError, match="REPRO_SWEEP_CONTEXT"):
            _pool_context()
