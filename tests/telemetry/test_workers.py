"""Cross-process telemetry: worker spans and counters over the pool.

Worker processes buffer spans and counters, ship them with each result
message, and the supervisor re-parents them under its live sweep span.
The contract must hold under both ``fork`` (state inherited, then
cleared by ``enter_worker``) and ``spawn`` (nothing inherited; workers
re-resolve REPRO_TELEMETRY from the environment).
"""

import os

import pytest

from repro import telemetry
from repro.core.sweep import sweep_functional


def run_sweep(traces, configs, monkeypatch, method):
    monkeypatch.setenv("REPRO_SWEEP_CONTEXT", method)
    telemetry.reset()
    return sweep_functional(traces, configs, workers=2)


@pytest.mark.parametrize("method", ["fork", "spawn"])
class TestPooledTelemetry:
    def test_worker_spans_reparent_under_the_sweep(
        self, tiny_traces, config_grid, monkeypatch, method
    ):
        run_sweep(tiny_traces, config_grid, monkeypatch, method)
        events = list(telemetry.iter_events())
        worker_events = [
            e for e in events if e["name"].startswith("worker.")
        ]
        assert worker_events, "no worker spans came back over the pipe"
        # Worker spans were recorded in another process ...
        assert all(e["pid"] != os.getpid() for e in worker_events)
        # ... and re-rooted under the supervisor's pool span, so the
        # phase tree attributes their time to the sweep.
        for event in worker_events:
            assert event["path"].startswith("sweep.functional/pool.run/"), (
                event["path"]
            )
        tree = telemetry.phase_tree(events)
        pool_node = tree["sweep.functional"]["children"]["pool.run"]
        assert any(
            name.startswith("worker.") for name in pool_node["children"]
        )

    def test_worker_counters_merge_into_supervisor_totals(
        self, tiny_traces, config_grid, monkeypatch, method
    ):
        grid = run_sweep(tiny_traces, config_grid, monkeypatch, method)
        snap = telemetry.counters_snapshot()
        assert snap["pool.jobs"] >= 1
        # Every cell's memo lookup happened inside a worker; the misses
        # travelled back with each job result.
        cells = sum(1 for row in grid for cell in row if cell is not None)
        assert snap["memo.misses"] >= 1
        assert snap.get("memo.hits", 0) + snap["memo.misses"] >= 1
        assert cells == len(grid) * len(tiny_traces)

    def test_counter_merge_is_additive_across_jobs(
        self, tiny_traces, config_grid, monkeypatch, method
    ):
        """Two pooled sweeps double the job count: per-job payloads add
        instead of overwriting each other."""
        from repro.sim import memo

        run_sweep(tiny_traces, config_grid[:2], monkeypatch, method)
        first = telemetry.counters_snapshot().get("pool.jobs", 0)
        assert first >= 1
        memo.clear_memo_cache()  # or the second sweep is all cache hits
        sweep_functional(tiny_traces, config_grid[:2], workers=2)
        second = telemetry.counters_snapshot().get("pool.jobs", 0)
        assert second > first

    def test_counters_merge_with_telemetry_off(
        self, tiny_traces, config_grid, monkeypatch, method
    ):
        """Counters are the manifests' only channel, so worker counts
        come back even when spans are not being recorded."""
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        run_sweep(tiny_traces, config_grid, monkeypatch, method)
        snap = telemetry.counters_snapshot()
        assert snap["pool.jobs"] >= 1
        assert snap["memo.misses"] >= 1
        assert list(telemetry.iter_events()) == []
