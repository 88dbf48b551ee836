"""Per-cell fault isolation: retry-then-succeed, retry exhaustion into a
partial grid, timeout-then-requeue, and pool re-creation after a worker
death.

Executor-level tests drive :mod:`repro.resilience.executor` directly
with marker-file compute functions (first attempt fails, later attempts
see the marker on disk and succeed -- deterministic across worker
processes).  Sweep-level tests go through ``sweep_functional`` with the
seeded fault-injection harness.
"""

import os
import signal
import time

import pytest

from repro import telemetry
from repro.audit import manifest as run_manifest
from repro.core import sweep
from repro.core.sweep import sweep_functional, sweep_timing
from repro.resilience import executor
from repro.resilience.executor import Cell
from repro.resilience.faults import _uniform_draw, cell_signature
from repro.resilience.policy import FailureReport, RetryPolicy, SweepFailure
from repro.sim import memo
from repro.sim.fast import run_functional
from repro.units import KB


def make_cells(traces, configs):
    cells = []
    for j in range(len(traces)):
        for config in configs:
            key = memo.functional_projection(config)
            cells.append(
                Cell(len(cells), j, config, cell_signature("functional", j, key))
            )
    return cells


def marker_compute(marker_dir, failure):
    """A compute whose first attempt per cell fails via ``failure`` and
    whose later attempts succeed (marker files survive worker deaths)."""

    def compute(traces, cell):
        marker = marker_dir / f"cell{cell.cell_id}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return run_functional(traces[cell.trace_index], cell.config)
        failure()
        return run_functional(traces[cell.trace_index], cell.config)

    return compute


def assert_complete(outcome, cells, traces):
    assert not outcome.failures
    assert sorted(outcome.results) == [cell.cell_id for cell in cells]
    for cell in cells:
        expected = run_functional(traces[cell.trace_index], cell.config)
        assert outcome.results[cell.cell_id].cpu_reads == expected.cpu_reads
        assert (
            outcome.results[cell.cell_id].level_stats[0].read_misses
            == expected.level_stats[0].read_misses
        )


def find_flaky_seed(signatures, rate=0.5, max_attempts=3, chunks=()):
    """A seed where every cell succeeds within the attempt budget and at
    least one cell fails its first attempt (pure draws: no trial runs).

    With ``chunks`` (signature lists in dispatch order), one chunk must
    also complete its first cell and then fail a later one on the first
    attempt, so that job raises after doing real work.
    """

    def fails_first(seed, signature):
        return _uniform_draw(seed, "worker_raise", signature, 0) < rate

    for seed in range(1000):
        first_failures = 0
        for signature in signatures:
            attempts = [
                _uniform_draw(seed, "worker_raise", signature, a) < rate
                for a in range(max_attempts)
            ]
            if all(attempts):
                break  # this cell would exhaust its budget
            if attempts[0]:
                first_failures += 1
        else:
            if first_failures and (not chunks or any(
                not fails_first(seed, chunk[0])
                and any(fails_first(seed, s) for s in chunk[1:])
                for chunk in chunks
            )):
                return seed
    raise AssertionError("no suitable seed in range")


class TestRetryThenSucceed:
    def test_serial(self, tmp_path, tiny_traces, config_grid):
        cells = make_cells(tiny_traces, config_grid[:2])

        def boom():
            raise RuntimeError("flaky once")

        since = telemetry.mark()
        outcome = executor.run_serial(
            "functional",
            marker_compute(tmp_path, boom),
            cells,
            tiny_traces,
            RetryPolicy(max_attempts=3),
        )
        assert_complete(outcome, cells, tiny_traces)
        assert telemetry.counter_deltas(since)["pool.retries"] == len(cells)

    def test_pooled(self, tmp_path, tiny_traces, config_grid):
        cells = make_cells(tiny_traces, config_grid[:2])

        def boom():
            raise RuntimeError("flaky once")

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "functional",
            marker_compute(tmp_path, boom),
            [[cell] for cell in cells],
            tiny_traces,
            workers=2,
            policy=RetryPolicy(max_attempts=3),
        )
        assert outcome is not None
        assert_complete(outcome, cells, tiny_traces)
        assert telemetry.counter_deltas(since)["pool.retries"] == len(cells)

    def test_seeded_faults_through_the_sweep(
        self, monkeypatch, tiny_traces, config_grid
    ):
        signatures = [
            cell_signature("functional", j, memo.functional_projection(config))
            for j in range(len(tiny_traces))
            for config in config_grid
        ]
        seed = find_flaky_seed(signatures)
        monkeypatch.setenv("REPRO_FAULTS", "worker_raise:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", str(seed))
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "2")
        with run_manifest.recording("flaky") as recorder:
            grid = sweep_functional(tiny_traces, config_grid, workers=0)
        (note,) = recorder.sweeps
        assert note.retries > 0
        assert note.failed == 0
        for i, config in enumerate(config_grid):
            for j, trace in enumerate(tiny_traces):
                assert grid[i][j].cpu_reads == run_functional(trace, config).cpu_reads


class TestRetryExhaustion:
    @pytest.mark.parametrize(
        "run_sweep", [sweep_functional, sweep_timing], ids=["functional", "timing"]
    )
    def test_partial_grid_with_failure_reports(
        self, monkeypatch, tiny_traces, config_grid, run_sweep
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_raise:1.0")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "1")
        failures = []
        with run_manifest.recording("exhausted") as recorder:
            grid = run_sweep(
                tiny_traces, config_grid, workers=0,
                on_failure="partial", failures=failures,
            )
        # Every distinct cell failed permanently; the grid is all-None.
        assert all(cell is None for row in grid for cell in row)
        assert failures
        for report in failures:
            assert isinstance(report, FailureReport)
            assert report.reason == "exception"
            assert report.attempts == 2
            assert report.exception_type == "InjectedFault"
            assert report.trace_name in {t.name for t in tiny_traces}
            assert report.config_text
        # The manifest carries the same structured reports.
        (note,) = recorder.sweeps
        assert note.failed == len(failures)
        rendered = recorder.as_dict()["failures"]
        assert len(rendered) == len(failures)
        assert rendered[0]["reason"] == "exception"

    def test_raise_mode_re_raises_the_original_exception(
        self, monkeypatch, tiny_traces, config_grid
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker_raise:1.0")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "0")
        from repro.resilience.faults import InjectedFault

        with pytest.raises(InjectedFault, match="worker_raise injected"):
            sweep_functional(tiny_traces, config_grid, workers=0)

    def test_sweep_failure_lists_every_report(self):
        reports = [
            FailureReport(
                kind="functional", reason="timeout", trace_index=0,
                trace_name="t", config_text="c", attempts=3,
                exception_type="CellTimeout", message="budget exceeded",
            )
        ]
        err = SweepFailure(reports)
        assert err.failures == reports
        assert "timeout" in str(err)
        assert "3 attempt(s)" in str(err)


class TestCorruptionRejection:
    def test_corrupt_results_are_retried_not_returned(
        self, monkeypatch, tiny_traces, config_grid
    ):
        """With the audit on, an injected corruption becomes an
        invalid-result failure (and a retry), never a grid cell."""
        monkeypatch.setenv("REPRO_AUDIT", "1")
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_result:1.0")
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "1")
        failures = []
        grid = sweep_functional(
            tiny_traces, config_grid[:2], workers=0,
            on_failure="partial", failures=failures,
        )
        assert all(cell is None for row in grid for cell in row)
        assert failures
        assert all(report.reason == "invalid-result" for report in failures)
        assert all("cpu-boundary" in report.message for report in failures)


class TestTimeoutThenRequeue:
    def test_hung_cell_is_killed_and_retried(self, tmp_path, tiny_traces, config_grid):
        cells = make_cells(tiny_traces, config_grid[:2])

        def hang():
            time.sleep(30.0)

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "functional",
            marker_compute(tmp_path, hang),
            [[cell] for cell in cells],
            tiny_traces,
            workers=2,
            policy=RetryPolicy(max_attempts=3, cell_timeout_s=0.5),
        )
        assert outcome is not None
        assert_complete(outcome, cells, tiny_traces)
        counted = telemetry.counter_deltas(since)
        assert counted["pool.timeouts"] >= 1
        assert counted["pool.restarts"] >= 1

    def test_timeout_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "2.5")
        policy = RetryPolicy.from_env()
        assert policy.cell_timeout_s == 2.5

    def test_timeout_env_rejects_nonsense(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SWEEP_TIMEOUT"):
            RetryPolicy.from_env()
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="positive"):
            RetryPolicy.from_env()

    def test_permanent_timeout_becomes_a_report(self, tmp_path, tiny_traces, config_grid):
        cells = make_cells(tiny_traces, config_grid[:1])[:1]

        def compute(traces, cell):
            time.sleep(30.0)

        outcome = executor.run_pooled(
            "functional", compute, [[cell] for cell in cells], tiny_traces,
            workers=1, policy=RetryPolicy(max_attempts=2, cell_timeout_s=0.4),
        )
        assert outcome is not None
        assert not outcome.results
        (report,) = outcome.failures
        assert report.reason == "timeout"
        assert report.attempts == 2
        assert "wall-clock budget" in report.message


class TestPoolDeathRestart:
    def test_killed_worker_is_replaced_and_the_cell_retried(
        self, tmp_path, tiny_traces, config_grid
    ):
        cells = make_cells(tiny_traces, config_grid[:2])

        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "functional",
            marker_compute(tmp_path, die),
            [[cell] for cell in cells],
            tiny_traces,
            workers=2,
            policy=RetryPolicy(max_attempts=3),
        )
        assert outcome is not None
        assert_complete(outcome, cells, tiny_traces)
        assert telemetry.counter_deltas(since)["pool.restarts"] >= 1

    def test_chunk_neighbours_keep_their_retry_budget(
        self, tmp_path, tiny_traces, config_grid
    ):
        """A dead multi-cell chunk is split and re-run cell by cell at the
        same attempt: only the poisoned cell pays for the retry."""
        cells = make_cells(tiny_traces, config_grid[:2])
        poisoned = cells[0].cell_id

        def compute(traces, cell):
            marker = tmp_path / f"cell{cell.cell_id}"
            if cell.cell_id == poisoned and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return run_functional(traces[cell.trace_index], cell.config)

        outcome = executor.run_pooled(
            "functional", compute, [cells], tiny_traces,
            workers=1, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        assert_complete(outcome, cells, tiny_traces)

    def test_worker_death_report_when_budget_exhausted(
        self, tiny_traces, config_grid
    ):
        cells = make_cells(tiny_traces, config_grid[:1])[:1]

        def compute(traces, cell):
            os.kill(os.getpid(), signal.SIGKILL)

        since = telemetry.mark()
        outcome = executor.run_pooled(
            "functional", compute, [[cell] for cell in cells], tiny_traces,
            workers=1, policy=RetryPolicy(max_attempts=2),
        )
        assert outcome is not None
        (report,) = outcome.failures
        assert report.reason == "worker-death"
        assert report.exception_type == "WorkerDied"
        assert telemetry.counter_deltas(since)["pool.restarts"] >= 2


class TestWorkerMemoFold:
    def test_pooled_sweep_folds_worker_counters(
        self, monkeypatch, tiny_traces, config_grid
    ):
        """Misses counted inside worker processes must surface in the
        manifest's hit ratio."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        since = telemetry.mark()
        with run_manifest.recording("pooled") as recorder:
            sweep_functional(tiny_traces, config_grid, workers=2)
        (note,) = recorder.sweeps
        rendered = recorder.as_dict()["memo"]
        distinct = 3 * len(tiny_traces)  # three sizes, timing variants dedup
        cells = len(config_grid) * len(tiny_traces)
        if note.pooled:
            assert telemetry.counter_deltas(since)["pool.jobs"] > 0
        # Either way the totals balance: every simulation was a miss,
        # every grid cell a hit.
        assert rendered["misses"] == distinct
        assert rendered["hits"] == cells
        assert rendered["hit_ratio"] == pytest.approx(
            cells / (cells + distinct)
        )


class TestOneChannel:
    def test_raising_chunk_counts_its_completed_lookups(
        self, monkeypatch, tmp_path, tiny_traces, tiny_config
    ):
        """Regression: a pooled job that completed a cell and then raised
        shipped that cell's memo lookup as a telemetry counter but dropped
        it from the manifest's ``memo`` section, so the two disagreed."""
        configs = [
            tiny_config.with_level(0, size_bytes=size * KB)
            for size in (1, 2, 4, 8, 16, 32, 64, 128)
        ]
        # The cells in config-major order, as the sweep plans them, cut
        # into chunks as the pool does; 16 cells on 16 distinct fronts
        # over 2 workers x 4 chunks each is 8 chunks of 2.
        cells = [
            Cell(i, j, config, cell_signature(
                "functional", j, memo.functional_projection(config)
            ))
            for i, (config, j) in enumerate(
                (config, j) for config in configs for j in range(len(tiny_traces))
            )
        ]
        signatures = [cell.signature for cell in cells]
        chunks = [
            [cell.signature for cell in chunk]
            for chunk in sweep._group_chunks(
                cells, 2 * sweep._CHUNKS_PER_WORKER, sweep._front_group
            )
        ]
        assert min(len(chunk) for chunk in chunks) >= 2
        seed = find_flaky_seed(signatures, chunks=chunks)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_PATH", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_FAULTS", "worker_raise:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", str(seed))
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "2")
        telemetry.reset()
        try:
            with run_manifest.recording("one-channel") as recorder:
                sweep_functional(tiny_traces, configs, workers=2)
            data = recorder.as_dict()
        finally:
            telemetry.reset()
        (note,) = recorder.sweeps
        if not note.pooled:
            pytest.skip("worker processes cannot be created on this host")
        assert note.retries > 0 and note.failed == 0
        counters = data["telemetry"]["counters"]
        assert data["memo"]["hits"] == counters["memo.hits"]
        assert data["memo"]["misses"] == counters["memo.misses"]
