"""Run manifests: recording, executor instrumentation, JSON rendering."""

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.audit import manifest
from repro.core.sweep import sweep_functional, sweep_timing
from repro.resilience.journal import journaling
from repro.sim import memo
from repro.sim.config import LevelConfig, SystemConfig
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

from tests.audit.conftest import GRID

#: The fixed recording of :func:`record_fixed_runs`, captured once under
#: manifest schema 4 (before the manifest became a view over telemetry
#: counters), minus the memo section's worker-fold sub-object that
#: schema 5 removed; see TestGolden.
GOLDEN = Path(__file__).parent / "golden" / "manifest.json"

#: Wall-clock fields: the only manifest content that varies run to run.
VOLATILE = ("created", "seconds", "wall_seconds")


@pytest.fixture(autouse=True)
def fresh_memo():
    memo.clear_memo_cache()
    yield
    memo.clear_memo_cache()


def _configs(count=3):
    return [c for _, c in GRID][:count]


class TestRecording:
    def test_no_recorder_is_active_by_default(self):
        assert manifest.current() is None
        # note_sweep outside a recording is a silent no-op.
        manifest.note_sweep(
            kind="functional", configs=1, traces=1, simulated=1,
            workers=1, pooled=False, seconds=0.0, since=telemetry.mark(),
        )

    def test_sweeps_are_recorded(self, audit_traces):
        with manifest.recording("unit") as recorder:
            sweep_functional(audit_traces, _configs(), workers=1)
            sweep_timing(audit_traces[:1], _configs(1), workers=1)
        assert manifest.current() is None
        kinds = [note.kind for note in recorder.sweeps]
        assert kinds == ["functional", "timing"]
        functional = recorder.sweeps[0]
        assert functional.cells == len(_configs()) * len(audit_traces)
        assert functional.simulated <= functional.cells
        assert functional.workers == 1
        assert not functional.pooled
        assert functional.seconds > 0

    def test_memoisation_shows_up_in_the_delta(self, audit_traces):
        with manifest.recording("unit") as recorder:
            sweep_functional(audit_traces, _configs(2), workers=1)
            sweep_functional(audit_traces, _configs(2), workers=1)
        data = recorder.as_dict()
        assert data["memo"]["hits"] >= len(audit_traces) * 2
        assert 0.0 < data["memo"]["hit_ratio"] <= 1.0
        # The second sweep was fully memoised.
        assert data["sweeps"][1]["simulated"] == 0
        assert data["sweeps"][1]["memoised"] == (
            data["sweeps"][1]["cells"]
        )

    def test_nested_recorders_both_see_sweeps(self, audit_traces):
        with manifest.recording("outer") as outer:
            with manifest.recording("inner") as inner:
                sweep_functional(audit_traces, _configs(1), workers=1)
            assert manifest.current() is outer
        assert len(outer.sweeps) == len(inner.sweeps) == 1

    def test_traces_are_fingerprinted(self, audit_traces):
        with manifest.recording("unit") as recorder:
            recorder.add_traces(audit_traces)
        entries = recorder.as_dict()["traces"]
        assert [e["name"] for e in entries] == [t.name for t in audit_traces]
        assert all(e["fingerprint"] for e in entries)
        assert entries[0]["fingerprint"] != entries[1]["fingerprint"]
        assert entries[0]["records"] == len(audit_traces[0])
        assert entries[0]["warmup"] == audit_traces[0].warmup

    def test_phases_and_annotations(self):
        with manifest.recording("unit") as recorder:
            with recorder.phase("setup"):
                pass
            recorder.annotate(grid="F5", scale=4)
        data = recorder.as_dict()
        assert data["phases"][0]["name"] == "setup"
        assert data["phases"][0]["seconds"] >= 0
        assert data["extra"] == {"grid": "F5", "scale": 4}


class TestJson:
    def test_written_manifest_round_trips(self, tmp_path, audit_traces):
        with manifest.recording("unit") as recorder:
            recorder.add_traces(audit_traces[:1])
            sweep_functional(audit_traces[:1], _configs(2), workers=1)
        path = recorder.write(tmp_path / "nested" / "run.manifest.json")
        data = json.loads(path.read_text())
        assert data["schema"] == manifest.SCHEMA
        assert data["name"] == "unit"
        assert data["audit_enabled"] is True  # running under pytest
        assert data["wall_seconds"] > 0
        assert data["sweep_totals"]["sweeps"] == 1
        assert data["sweep_totals"]["cells"] == 2
        # Everything in the manifest must be JSON-native already.
        json.dumps(data)

    def test_workers_env_is_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        with manifest.recording("unit") as recorder:
            pass
        assert recorder.as_dict()["workers_env"] == "2"


def strip_volatile(value):
    """``value`` without the wall-clock fields, at any depth."""
    if isinstance(value, dict):
        return {
            key: strip_volatile(item)
            for key, item in value.items() if key not in VOLATILE
        }
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def record_fixed_runs(journal_dir):
    """Record the fixed sweep set serially and pooled; stripped manifests.

    Each leg is one recording of four sweeps from a cold memo cache: two
    functional sweeps (the second re-asks for cells of the first and
    adds stack-distance groups), one timing sweep, and a functional
    sweep resumed from a journal written before the recording began.
    """
    traces = [
        SyntheticWorkload(seed=41 + t, address_base=t << 40).trace(
            6_000, name=f"golden{t}", warmup=1_000
        )
        for t in range(2)
    ]
    base = SystemConfig(
        levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=16,
                        cycle_cpu_cycles=1, write_hit_cycles=2),
            LevelConfig(size_bytes=32 * KB, block_bytes=32,
                        cycle_cpu_cycles=3, write_hit_cycles=2),
        )
    )
    l1_axis = [base.with_level(0, size_bytes=s * KB) for s in (1, 2, 4, 8)]
    l2_ways = [base.with_level(1, associativity=a) for a in (2, 4, 8)]
    slow_l2 = [c.with_level(1, cycle_cpu_cycles=5) for c in l1_axis[:2]]
    resumable = [
        base.with_level(1, size_bytes=s * KB) for s in (64, 128, 256)
    ]
    runs = {}
    for leg, workers in (("serial", 0), ("pooled", 2)):
        journal = Path(journal_dir) / f"{leg}.journal"
        memo.clear_memo_cache()
        with journaling(journal):
            sweep_functional(traces, resumable, workers=workers)
        memo.clear_memo_cache()
        with manifest.recording(f"golden-{leg}") as recorder:
            recorder.add_traces(traces)
            with recorder.phase("functional"):
                sweep_functional(traces, l1_axis, workers=workers)
                sweep_functional(traces, l2_ways + slow_l2, workers=workers)
            with recorder.phase("timing"):
                sweep_timing(traces, l1_axis[:2] + slow_l2, workers=workers)
            with recorder.phase("resume"):
                with journaling(journal, resume=True):
                    sweep_functional(traces, resumable, workers=workers)
        runs[leg] = strip_volatile(recorder.as_dict())
    memo.clear_memo_cache()
    return runs


class TestGolden:
    """The manifest is a view over the counters, so its content must not
    depend on whether telemetry is recording -- and must match what the
    parallel bookkeeping it replaced reported."""

    @pytest.fixture
    def quiet_env(self, monkeypatch):
        for name in ("REPRO_SWEEP_WORKERS", "REPRO_FAULTS"):
            monkeypatch.delenv(name, raising=False)
        yield monkeypatch
        telemetry.reset()

    def test_telemetry_on_and_off_agree(self, tmp_path, quiet_env):
        legs = {}
        for flag in ("0", "1"):
            quiet_env.setenv("REPRO_TELEMETRY", flag)
            quiet_env.setenv(
                "REPRO_TELEMETRY_PATH", str(tmp_path / f"sink{flag}.jsonl")
            )
            telemetry.reset()
            legs[flag] = record_fixed_runs(tmp_path / f"journals{flag}")
        for leg in ("serial", "pooled"):
            off, on = legs["0"][leg], legs["1"][leg]
            for section in ("memo", "sweeps", "sweep_totals"):
                assert on[section] == off[section], (leg, section)
            assert off["telemetry"] == {"enabled": False}
            counters = on["telemetry"]["counters"]
            assert on["memo"]["hits"] == counters.get("memo.hits", 0)
            assert on["memo"]["misses"] == counters.get("memo.misses", 0)

    def test_matches_the_schema_4_golden(self, tmp_path, quiet_env):
        quiet_env.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset()
        runs = record_fixed_runs(tmp_path)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert set(runs) == set(golden)
        for leg, data in runs.items():
            assert golden[leg]["schema"] == 4
            assert data["schema"] == manifest.SCHEMA == 5
            assert data == {**golden[leg], "schema": 5}, leg
