"""The checkpoint journal: durable, torn-write-tolerant, and resumable
to a grid identical to an uninterrupted run."""

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.audit import manifest as run_manifest
from repro.core import sweep as sweep_module
from repro.core.sweep import sweep_functional, sweep_timing
from repro.resilience import journal as journal_module
from repro.resilience.journal import (
    SweepJournal,
    current_journal,
    decode_functional,
    decode_timing,
    encode_functional,
    encode_timing,
    journal_digest,
    journaling,
)
from repro.sim import memo
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import clear_front_cache, run_functional
from repro.sim.timing import TimingSimulator
from repro.units import KB


def assert_counts_equal(a, b):
    assert a.cpu_reads == b.cpu_reads
    assert a.cpu_writes == b.cpu_writes
    for sa, sb in zip(a.level_stats, b.level_stats):
        assert sa == sb
    assert a.memory_reads == b.memory_reads
    assert a.memory_writes == b.memory_writes


class TestRoundTrip:
    def test_functional_payload(self, tiny_traces, tiny_config):
        result = run_functional(tiny_traces[0], tiny_config)
        payload = json.loads(json.dumps(encode_functional(result)))
        restored = decode_functional(payload, tiny_config)
        assert_counts_equal(restored, result)
        assert restored.config is tiny_config
        assert restored.trace_name == result.trace_name

    def test_timing_payload_is_nanosecond_identical(self, tiny_traces, tiny_config):
        result = TimingSimulator(tiny_config).run(tiny_traces[0])
        payload = json.loads(json.dumps(encode_timing(result)))
        restored = decode_timing(payload, tiny_config)
        # Bit-exact floats: JSON round-trips IEEE doubles exactly.
        assert restored.total_ns == result.total_ns
        assert restored.base_ns == result.base_ns
        assert restored.read_stall_ns == result.read_stall_ns
        assert restored.write_stall_ns == result.write_stall_ns
        assert restored.buffer_full_stalls == list(result.buffer_full_stalls)
        assert_counts_equal(restored, result)


class TestJournalFile:
    def test_record_and_restore(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        result = run_functional(tiny_traces[0], tiny_config)
        key = memo.memo_key(tiny_traces[0], tiny_config)
        journal = SweepJournal(path)
        journal.record_cell("functional", key, result)
        journal.close()

        reopened = SweepJournal(path, resume=True)
        assert reopened.restorable_cells == 1
        restored = reopened.restore("functional", key, tiny_config)
        assert_counts_equal(restored, result)
        # A different kind under the same key is a different cell.
        assert reopened.restore("timing", key, tiny_config) is None
        reopened.close()

    def test_torn_trailing_line_is_skipped(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        key = memo.memo_key(tiny_traces[0], tiny_config)
        journal = SweepJournal(path)
        journal.record_cell(
            "functional", key, run_functional(tiny_traces[0], tiny_config)
        )
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": "cell", "kind": "functional", "key": "abc')

        reopened = SweepJournal(path, resume=True)
        assert reopened.restorable_cells == 1
        assert reopened.restore("functional", key, tiny_config) is not None
        reopened.close()

    def test_checksum_mismatch_is_skipped(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        key = memo.memo_key(tiny_traces[0], tiny_config)
        journal = SweepJournal(path)
        journal.record_cell(
            "functional", key, run_functional(tiny_traces[0], tiny_config)
        )
        journal.close()
        lines = path.read_text().splitlines()
        tampered = lines[-1].replace('"cpu_reads": ', '"cpu_reads": 9')
        assert tampered != lines[-1]
        path.write_text("\n".join(lines[:-1] + [tampered]) + "\n")

        reopened = SweepJournal(path, resume=True)
        assert reopened.restorable_cells == 0
        reopened.close()

    def test_last_complete_record_wins(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        trace = tiny_traces[0]
        key = memo.memo_key(trace, tiny_config)
        first = run_functional(trace, tiny_config)
        journal = SweepJournal(path)
        journal.record_cell("functional", key, first)
        journal.record_cell("functional", key, first)
        journal.close()
        reopened = SweepJournal(path, resume=True)
        assert reopened.restorable_cells == 1
        reopened.close()

    def test_fresh_open_truncates(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        key = memo.memo_key(tiny_traces[0], tiny_config)
        journal = SweepJournal(path)
        journal.record_cell(
            "functional", key, run_functional(tiny_traces[0], tiny_config)
        )
        journal.close()

        fresh = SweepJournal(path, resume=False)
        assert fresh.restorable_cells == 0
        fresh.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["t"] for r in records] == ["header"]

    def test_activation_stack(self, tmp_path):
        assert current_journal() is None
        with journaling(tmp_path / "a.jsonl") as outer:
            assert current_journal() is outer
            with journaling(tmp_path / "b.jsonl") as inner:
                assert current_journal() is inner
            assert current_journal() is outer
        assert current_journal() is None


class TestSweepResume:
    def test_resumed_sweep_simulates_nothing(
        self, tmp_path, tiny_traces, config_grid
    ):
        path = tmp_path / "j.jsonl"
        with journaling(path):
            first = sweep_functional(tiny_traces, config_grid, workers=0)

        memo.clear_memo_cache()
        with run_manifest.recording("resume") as recorder:
            with journaling(path, resume=True):
                second = sweep_functional(tiny_traces, config_grid, workers=0)
        (note,) = recorder.sweeps
        assert note.simulated == 0
        assert note.resumed > 0
        for row_a, row_b in zip(first, second):
            for a, b in zip(row_a, row_b):
                assert_counts_equal(a, b)

    def test_resumed_timing_sweep_is_nanosecond_identical(
        self, tmp_path, tiny_traces, config_grid
    ):
        path = tmp_path / "j.jsonl"
        with journaling(path):
            first = sweep_timing(tiny_traces, config_grid, workers=0)

        memo.clear_memo_cache()
        with run_manifest.recording("resume") as recorder:
            with journaling(path, resume=True):
                second = sweep_timing(tiny_traces, config_grid, workers=0)
        (note,) = recorder.sweeps
        assert note.simulated == 0
        assert note.resumed == len(config_grid) * len(tiny_traces)
        for row_a, row_b in zip(first, second):
            for a, b in zip(row_a, row_b):
                assert a.total_ns == b.total_ns
                assert a.read_stall_ns == b.read_stall_ns

    def test_sweep_without_journal_is_unaffected(self, tiny_traces, config_grid):
        grid = sweep_functional(tiny_traces, config_grid, workers=0)
        assert len(grid) == len(config_grid)


class TestKillResume:
    def test_sigkilled_sweep_resumes_identically(self, tmp_path, tiny_traces):
        """SIGKILL a journaled sweep mid-run; the resume must produce the
        same counts as a clean computation of every cell."""
        journal = tmp_path / "kill.jsonl"
        records = 5_000
        child_code = (
            "import sys\n"
            "from repro.resilience.chaos import build_traces, build_configs\n"
            "from repro.resilience.journal import journaling\n"
            "from repro.core.sweep import sweep_functional\n"
            "with journaling(sys.argv[1]):\n"
            f"    sweep_functional(build_traces({records}), build_configs(),"
            " workers=0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [str(Path(__file__).resolve().parents[2] / "src"),
                        env.get("PYTHONPATH", "")] if p
        )
        # Slow every cell down so the kill lands mid-sweep.
        env["REPRO_FAULTS"] = "worker_hang:1.0"
        env["REPRO_FAULTS_HANG_S"] = "0.2"
        env.pop("REPRO_SWEEP_TIMEOUT", None)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code, str(journal)], env=env
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count('"t": "cell"') >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("child finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("journal never reached 2 cells")
            child.send_signal(signal.SIGKILL)
        finally:
            child.wait()

        from repro.resilience.chaos import build_configs, build_traces

        traces = build_traces(records)
        configs = build_configs()
        with run_manifest.recording("resume") as recorder:
            with journaling(journal, resume=True):
                grid = sweep_functional(traces, configs, workers=0)
        (note,) = recorder.sweeps
        # 3 distinct L1 sizes x 2 traces = 6 distinct functional cells;
        # whatever the journal holds, the rest gets simulated.
        assert note.resumed >= 2
        assert note.simulated == 6 - note.resumed
        for i, config in enumerate(configs):
            for j, trace in enumerate(traces):
                assert_counts_equal(grid[i][j], run_functional(trace, config))


class TestDeadRecords:
    def _littered_journal(self, path, trace, config, torn=2):
        """A journal with one live cell recorded twice (one superseded)
        plus ``torn`` torn trailing lines."""
        key = memo.memo_key(trace, config)
        result = run_functional(trace, config)
        journal = SweepJournal(path)
        journal.record_cell("functional", key, result)
        journal.record_cell("functional", key, result)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": "cell", "kind": "functional", "torn\n' * torn)
        return key, result

    def test_resume_counts_the_dead(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        self._littered_journal(path, tiny_traces[0], tiny_config, torn=2)
        journal = SweepJournal(path, resume=True)
        # One superseded duplicate + two torn lines.
        assert journal.dead == 3
        assert journal.restorable_cells == 1
        journal.close()

    def test_clean_journal_has_no_dead(self, tmp_path, tiny_traces, tiny_config):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_cell(
            "functional",
            memo.memo_key(tiny_traces[0], tiny_config),
            run_functional(tiny_traces[0], tiny_config),
        )
        journal.close()
        reopened = SweepJournal(path, resume=True)
        assert reopened.dead == 0
        reopened.close()


class TestCompaction:
    def _cell_lines(self, path):
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("t") == "cell"
        ]

    def test_compact_drops_dead_and_preserves_cells(
        self, tmp_path, tiny_traces, tiny_config
    ):
        path = tmp_path / "j.jsonl"
        key, result = TestDeadRecords()._littered_journal(
            path, tiny_traces[0], tiny_config
        )
        journal = SweepJournal(path, resume=True)
        dead = journal.dead
        assert journal.compact() == dead
        assert journal.dead == 0
        journal.close()

        assert len(self._cell_lines(path)) == 1
        header = json.loads(path.read_text().splitlines()[0])
        assert header["compacted"] is True
        reopened = SweepJournal(path, resume=True)
        assert reopened.dead == 0
        assert_counts_equal(
            reopened.restore("functional", key, tiny_config), result
        )
        reopened.close()

    def test_compacted_journal_accepts_appends(
        self, tmp_path, tiny_traces, tiny_config
    ):
        path = tmp_path / "j.jsonl"
        TestDeadRecords()._littered_journal(path, tiny_traces[0], tiny_config)
        journal = SweepJournal(path, resume=True)
        journal.compact()
        second_key = memo.memo_key(tiny_traces[1], tiny_config)
        journal.record_cell(
            "functional",
            second_key,
            run_functional(tiny_traces[1], tiny_config),
        )
        journal.close()
        reopened = SweepJournal(path, resume=True)
        assert reopened.restorable_cells == 2
        assert reopened.restore("functional", second_key, tiny_config) is not None
        reopened.close()

    def test_resume_auto_compacts_past_the_threshold(
        self, tmp_path, tiny_traces, tiny_config, monkeypatch
    ):
        import repro.resilience.journal as journal_module

        monkeypatch.setattr(journal_module, "AUTO_COMPACT_MIN_DEAD", 2)
        path = tmp_path / "j.jsonl"
        TestDeadRecords()._littered_journal(
            path, tiny_traces[0], tiny_config, torn=2
        )
        journal = SweepJournal(path, resume=True)  # 3 dead >= max(2, 1 live)
        assert journal.dead == 0
        journal.close()
        assert "torn" not in path.read_text()

    def test_no_auto_compact_below_the_threshold(
        self, tmp_path, tiny_traces, tiny_config
    ):
        path = tmp_path / "j.jsonl"
        TestDeadRecords()._littered_journal(
            path, tiny_traces[0], tiny_config, torn=2
        )
        journal = SweepJournal(path, resume=True)
        # 3 dead, but the default threshold is 64: the litter stays (a
        # rewrite per resume would cost more than it saves).
        assert journal.dead == 3
        journal.close()
        assert "torn" in path.read_text()


class TestCompactionAtomicity:
    """A crash mid-compaction must leave either the old segment or the
    new one fully valid -- never a blend.  The injected disk faults fire
    at the atomic swap's commit point, which is exactly where a SIGKILL
    or ENOSPC would land."""

    def _compact_under_fault(self, path, fault, monkeypatch):
        from repro.resilience.faults import InjectedFault

        journal = SweepJournal(path, resume=True)
        dead_before = journal.dead
        monkeypatch.setenv("REPRO_FAULTS", fault)
        with pytest.raises(InjectedFault):
            journal.compact()
        monkeypatch.delenv("REPRO_FAULTS")
        # The failed swap never touched the published segment, so the
        # dead records are still there (and still counted).
        assert journal.dead == dead_before
        return journal

    @pytest.mark.parametrize("fault", ["rename_fail:1.0", "torn_write:1.0"])
    def test_failed_swap_leaves_old_segment_valid(
        self, tmp_path, tiny_traces, tiny_config, monkeypatch, fault
    ):
        path = tmp_path / "j.jsonl"
        key, result = TestDeadRecords()._littered_journal(
            path, tiny_traces[0], tiny_config
        )
        journal = self._compact_under_fault(path, fault, monkeypatch)
        journal.close()

        # The damage lives on an orphaned tmp file (doctor fodder); the
        # journal itself still restores every cell.
        from repro.resilience.integrity import is_tmp_artifact

        assert any(is_tmp_artifact(p) for p in tmp_path.iterdir())
        reopened = SweepJournal(path, resume=True)
        assert_counts_equal(
            reopened.restore("functional", key, tiny_config), result
        )
        reopened.close()

    def test_appending_continues_on_the_old_segment(
        self, tmp_path, tiny_traces, tiny_config, monkeypatch
    ):
        path = tmp_path / "j.jsonl"
        key, _ = TestDeadRecords()._littered_journal(
            path, tiny_traces[0], tiny_config
        )
        journal = self._compact_under_fault(path, "rename_fail:1.0", monkeypatch)
        second_key = memo.memo_key(tiny_traces[1], tiny_config)
        journal.record_cell(
            "functional",
            second_key,
            run_functional(tiny_traces[1], tiny_config),
        )
        journal.close()
        reopened = SweepJournal(path, resume=True)
        assert reopened.restore("functional", key, tiny_config) is not None
        assert reopened.restore("functional", second_key, tiny_config) is not None
        reopened.close()


class TestJournalLock:
    def test_second_writer_fails_fast_with_holder_identity(
        self, tmp_path, monkeypatch
    ):
        import repro.resilience.journal as journal_module
        from repro.resilience.integrity import LockHeldError

        monkeypatch.setattr(journal_module, "LOCK_GRACE_S", 0.2)
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path, name="first")
        try:
            with pytest.raises(LockHeldError, match="journal:first"):
                SweepJournal(path, resume=True, name="second")
        finally:
            journal.close()
        # Once the holder releases, the path is immediately reusable.
        successor = SweepJournal(path, resume=True, name="second")
        successor.close()


def _with_l2(config, ways, sets=256):
    """``config`` with a ``ways``-way L2 of ``sets`` sets (one grid group)."""
    block = config.levels[1].block_bytes
    return config.with_level(1, size_bytes=sets * block * ways, associativity=ways)


class TestStandaloneJournal:
    """Each sweep's journal holds every cell that sweep asked for, so it
    resumes alone -- even cells another sweep's grid pass derived."""

    def _sweep(self, path, traces, configs, resume=False):
        with run_manifest.recording("sweep") as recorder:
            with journaling(path, resume=resume) as journal:
                grid = sweep_functional(traces, configs, workers=0)
                dead = journal.dead
        (note,) = recorder.sweeps
        return grid, note, dead

    def test_journal_resumes_alone_after_memo_served_cells(
        self, tmp_path, tiny_traces, tiny_config, monkeypatch
    ):
        first = [_with_l2(tiny_config, ways) for ways in (1, 2)]
        second = [_with_l2(tiny_config, ways) for ways in (4, 8)]
        self._sweep(tmp_path / "a.jsonl", tiny_traces, first)
        grid, note, _ = self._sweep(tmp_path / "b.jsonl", tiny_traces, second)
        # B's cells were A's stack-distance extras: the memo served them.
        assert note.simulated == note.cells_derived == note.stackdist_groups == 0

        memo.clear_memo_cache()
        clear_front_cache()
        passes = []
        original = sweep_module.run_stackdist_grid
        monkeypatch.setattr(
            sweep_module, "run_stackdist_grid",
            lambda *args: passes.append(args) or original(*args),
        )
        mark = telemetry.mark()
        resumed, note, dead = self._sweep(
            tmp_path / "b.jsonl", tiny_traces, second, resume=True
        )
        deltas = telemetry.counter_deltas(mark)
        assert deltas.get("journal.records", 0) == 0
        assert deltas.get("front.misses", 0) == 0
        assert passes == []
        assert note.simulated == note.cells_derived == note.stackdist_groups == 0
        assert note.resumed == len(second) * len(tiny_traces)
        assert dead == 0
        for i, config in enumerate(second):
            for j, trace in enumerate(tiny_traces):
                assert_counts_equal(resumed[i][j], grid[i][j])
                assert_counts_equal(resumed[i][j], run_functional(trace, config))

    def test_rerun_over_journaled_cells_appends_nothing(
        self, tmp_path, tiny_traces, config_grid
    ):
        path = tmp_path / "j.jsonl"
        self._sweep(path, tiny_traces, config_grid)
        size = path.stat().st_size
        mark = telemetry.mark()
        # Warm memo: every cell is memo-served and already journaled.
        self._sweep(path, tiny_traces, config_grid, resume=True)
        # Cold memo: every cell is restored from the journal.
        memo.clear_memo_cache()
        _, _, dead = self._sweep(path, tiny_traces, config_grid, resume=True)
        assert telemetry.counter_deltas(mark).get("journal.records", 0) == 0
        assert path.stat().st_size == size
        assert dead == 0

    def test_memo_served_batch_rides_the_group_commit(
        self, tmp_path, tiny_traces, config_grid
    ):
        sweep_functional(tiny_traces, config_grid, workers=0)
        mark = telemetry.mark()
        with journaling(tmp_path / "j.jsonl") as journal:
            sweep_functional(tiny_traces, config_grid, workers=0)
            distinct = 3 * len(tiny_traces)  # three functional configs
            assert journal.recorded == distinct
            assert journal._unsynced == distinct  # no fsync forced yet
        deltas = telemetry.counter_deltas(mark)
        # The header's fsync, then the one at close.
        assert deltas.get("journal.fsyncs", 0) == 2


# -- the line format -----------------------------------------------------------


def _asdict_payload(kind, result):
    """The payload as the reference encoder builds it (``asdict``)."""
    payload = (encode_functional if kind == "functional" else encode_timing)(result)
    payload["level_stats"] = [dataclasses.asdict(s) for s in result.level_stats]
    return payload


def _reference_line(kind, key, result, sort_keys=True):
    """A cell line as ``json.dumps`` of the whole record writes it."""
    payload = _asdict_payload(kind, result)
    record = {
        "t": "cell",
        "kind": kind,
        "key": journal_digest(kind, key),
        "trace": result.trace_name,
        "sum": hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:12],
        "payload": payload,
    }
    return json.dumps(record, sort_keys=sort_keys) + "\n"


def _reference_load(path):
    """Accepted ``{digest: (kind, payload)}`` and dead count, by re-dumping
    every payload (the format's defining check)."""
    accepted, dead = {}, 0
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            dead += 1
            continue
        if record.get("t") != "cell":
            continue
        text = json.dumps(record.get("payload"), sort_keys=True)
        if record.get("sum") != hashlib.sha256(text.encode()).hexdigest()[:12]:
            dead += 1
            continue
        if record["key"] in accepted:
            dead += 1
        accepted[record["key"]] = (record["kind"], record["payload"])
    return accepted, dead


_AWKWARD_NAMES = ("tiny0", 'quo"ted, "sum": x', "naïve-Ωτ\\path", "tab\tnew\nline")


@pytest.fixture(scope="module")
def three_level_config():
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=16,
                        cycle_cpu_cycles=1, write_hit_cycles=2),
            LevelConfig(size_bytes=16 * KB, block_bytes=32, associativity=2,
                        cycle_cpu_cycles=3, write_hit_cycles=2),
            LevelConfig(size_bytes=64 * KB, block_bytes=64, associativity=4,
                        cycle_cpu_cycles=8, write_hit_cycles=2),
        )
    )


@pytest.fixture(scope="module")
def cell_results(tiny_traces, tiny_config, three_level_config):
    """``(kind, key, result)`` for functional and timing cells of a 2- and
    a 3-level machine, each under every awkward trace name."""
    cells = []
    trace = tiny_traces[0]
    for config in (tiny_config, three_level_config):
        for kind, result, key in (
            ("functional", run_functional(trace, config), memo.memo_key(trace, config)),
            ("timing", TimingSimulator(config).run(trace), memo.timing_key(trace, config)),
        ):
            for name in _AWKWARD_NAMES:
                cells.append((kind, key, dataclasses.replace(result, trace_name=name)))
    return cells


class TestLineFormat:
    def test_line_is_the_sorted_record_dump(self, tmp_path, cell_results):
        journal = SweepJournal(tmp_path / "j.jsonl")
        try:
            for kind, key, result in cell_results:
                _, _, line = journal._cell_record(kind, key, result)
                assert line == _reference_line(kind, key, result)
        finally:
            journal.close()

    def test_written_journal_matches_reference_bytes(self, tmp_path, cell_results):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        for kind, key, result in cell_results[:4]:
            journal.record_cell(kind, key, result)
        journal.record_cells(
            "functional",
            [(key, result) for kind, key, result in cell_results if kind == "functional"],
        )
        journal.close()
        body = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        expected = [_reference_line(kind, key, result) for kind, key, result in cell_results[:4]]
        expected += [
            _reference_line(kind, key, result)
            for kind, key, result in cell_results if kind == "functional"
        ]
        assert body == expected

    def test_compacted_lines_match_reference_bytes(self, tmp_path, cell_results):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        for kind, key, result in cell_results:
            journal.record_cell(kind, key, result)
        journal.compact()
        journal.close()
        body = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        # Compaction keeps one record per key: the last name recorded.
        last = {}
        for kind, key, result in cell_results:
            last[journal_digest(kind, key)] = (kind, key, result)
        assert body == [_reference_line(*cell) for cell in last.values()]

    def test_reference_lines_load_identically(self, tmp_path, cell_results, monkeypatch):
        """Lines as ``json.dumps`` of the whole record writes them load to
        the re-dump's accepted set, hashing their payload text as written:
        the canonical re-dump is never needed."""
        path = tmp_path / "j.jsonl"
        lines = ['{"t": "header", "schema": 1, "name": "", "pid": 1}\n']
        lines += [_reference_line(*cell) for cell in cell_results]
        path.write_text("".join(lines), encoding="utf-8")
        expected = _reference_load(path)

        def no_redump(payload):
            raise AssertionError("canonical line fell back to the re-dump")

        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "_payload_text", no_redump)
            journal = SweepJournal(path, resume=True)
        try:
            assert journal._restorable == expected[0]
            assert journal.dead == expected[1]
        finally:
            journal.close()

    def test_foreign_and_damaged_lines_load_as_the_redump_says(
        self, tmp_path, cell_results
    ):
        """Unsorted records (valid: their payload re-dumps to the sum),
        tampered payloads and sums, torn lines and duplicates get exactly
        the re-dump's verdicts."""
        path = tmp_path / "j.jsonl"
        lines = ['{"t": "header", "schema": 1, "name": "", "pid": 1}\n']
        for index, cell in enumerate(cell_results):
            line = _reference_line(*cell, sort_keys=index % 2 == 0)
            if index % 5 == 1:
                line = line.replace('"reads": ', '"reads": 1', 1)
            if index % 7 == 3:
                line = line.replace('"sum": "', '"sum": "0', 1)
            lines.append(line)
        lines.append(_reference_line(*cell_results[0]))
        lines.append(_reference_line(*cell_results[2])[:-40] + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        accepted, dead = _reference_load(path)
        assert 0 < len(accepted) < len(cell_results) and dead > 0

        journal = SweepJournal(path, resume=True)
        try:
            assert journal._restorable == accepted
            assert journal.dead == dead
        finally:
            journal.close()
