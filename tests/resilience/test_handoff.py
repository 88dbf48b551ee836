"""Zero-copy trace handoff between the sweep executor and its workers.

Workers receive :class:`~repro.trace.store.TraceHandle` references --
store paths and shared-memory segment names -- instead of inheriting the
trace arrays through ``Process`` args.  These tests pin the executor
integration: correct results through both handle kinds, respawned
workers re-resolving handles, segment hygiene after the pool closes, and
start-method selection (including a spawn smoke test, which the old
inherit-the-arrays handoff could not survive).
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
from repro.trace.store import TraceStore


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
        self, tiny_traces, config_grid
    ):
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
