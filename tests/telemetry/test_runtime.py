"""Recorder semantics: spans, counters, marks, worker merge, no-op mode.

The runtime contract under test: enabled recording builds a faithful
span tree and counter totals; with recording disabled spans are a
shared no-op and no sink is opened, while counters still validate and
count; worker payloads merge losslessly (spans re-parented, counters
added, gauges maxed); and the manifest aggregation covers exactly the
window after its mark.
"""

import json
import os

import pytest

from repro import telemetry
from repro.telemetry import runtime


def paths():
    return [event["path"] for event in telemetry.iter_events()]


class TestSpans:
    def test_nesting_builds_paths_and_parents(self):
        with telemetry.span("outer"):
            with telemetry.span("middle"):
                with telemetry.span("inner"):
                    pass
            with telemetry.span("middle"):
                pass
        # Close order: children before parents.
        assert paths() == [
            "outer/middle/inner", "outer/middle", "outer/middle", "outer",
        ]
        events = {e["path"]: e for e in telemetry.iter_events()}
        outer = events["outer"]
        inner = events["outer/middle/inner"]
        assert outer["parent"] is None
        assert inner["parent"] is not None
        assert inner["t0"] >= outer["t0"]
        assert inner["t1"] <= outer["t1"]
        assert all(e["pid"] == os.getpid() for e in events.values())

    def test_attrs_ride_along(self):
        with telemetry.span("stackdist.pass", sets=64, records=1000):
            pass
        (event,) = telemetry.iter_events()
        assert event["a"] == {"sets": 64, "records": 1000}

    def test_annotate_adds_attrs_known_at_the_end(self):
        with telemetry.span("journal.load") as span:
            span.annotate(cells=7)
        (event,) = telemetry.iter_events()
        assert event["a"] == {"cells": 7}

    def test_journal_load_is_spanned(self, tmp_path, tiny_traces):
        from repro.resilience.journal import SweepJournal
        from repro.sim import memo
        from repro.sim.config import LevelConfig, SystemConfig
        from repro.sim.fast import run_functional
        from repro.units import KB

        config = SystemConfig(levels=(LevelConfig(size_bytes=2 * KB, block_bytes=16),))
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        for trace in tiny_traces:
            journal.record_cell(
                "functional", memo.memo_key(trace, config), run_functional(trace, config)
            )
        journal.close()
        assert "journal.load" not in paths()  # a fresh journal loads nothing
        SweepJournal(path, resume=True).close()
        (event,) = [e for e in telemetry.iter_events() if e["name"] == "journal.load"]
        assert event["a"] == {"cells": len(tiny_traces)}

    def test_atomic_writes_are_spanned(self, tmp_path):
        from repro.resilience.integrity import atomic_write_text, atomic_writer

        text = "report \u00e9\n"
        atomic_write_text(tmp_path / "report.txt", text)
        with pytest.raises(RuntimeError):
            with atomic_writer(tmp_path / "abandoned.bin") as handle:
                handle.write(b"x" * 10)
                raise RuntimeError("abandoned")
        written, abandoned = [
            e for e in telemetry.iter_events() if e["name"] == "integrity.write"
        ]
        assert written["a"] == {"bytes": len(text.encode("utf-8"))}
        assert "a" not in abandoned  # nothing was published
        assert not (tmp_path / "abandoned.bin").exists()

    def test_trace_builds_are_spanned(self):
        from repro.experiments.workloads import build_trace

        build_trace("vms", index=0, records=2_000, kernel=True)
        build_trace("mix", index=1, records=3_000, kernel=False)
        assert [(e["path"], e["a"]) for e in telemetry.iter_events()] == [
            ("trace.build", {"records": 2_000, "kernel": True}),
            ("trace.build", {"records": 3_000, "kernel": False}),
        ]

    def test_span_ids_are_unique(self):
        for _ in range(5):
            with telemetry.span("tick"):
                pass
        ids = [e["id"] for e in telemetry.iter_events()]
        assert len(set(ids)) == 5


class TestCounters:
    def test_add_and_snapshot(self):
        telemetry.counter_add("pool.jobs")
        telemetry.counter_add("pool.jobs", 2)
        telemetry.gauge_set("memo.entries", 7)
        telemetry.gauge_set("memo.entries", 3)  # last observation wins
        snap = telemetry.counters_snapshot()
        assert snap["pool.jobs"] == 3
        assert snap["memo.entries"] == 3

    def test_undeclared_counter_rejected(self):
        with pytest.raises(KeyError, match="not a declared counter"):
            telemetry.counter_add("made.up")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(KeyError):  # memo.entries is a gauge
            telemetry.counter_add("memo.entries")
        with pytest.raises(KeyError):  # pool.jobs is a counter
            telemetry.gauge_set("pool.jobs", 1)


class TestDisabled:
    @pytest.fixture(autouse=True)
    def disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset()

    def test_span_is_the_shared_noop(self):
        first = telemetry.span("anything", sets=1)
        second = telemetry.span("else")
        assert first is second  # one shared object, zero allocation
        with first:
            first.annotate(cells=1)
        assert list(telemetry.iter_events()) == []

    def test_atomic_writes_record_nothing(self, tmp_path):
        from repro.resilience.integrity import atomic_write_text

        atomic_write_text(tmp_path / "report.txt", "report\n")
        assert (tmp_path / "report.txt").read_text() == "report\n"
        assert list(telemetry.iter_events()) == []

    def test_trace_builds_record_nothing(self):
        from repro.experiments.workloads import build_trace

        trace = build_trace("vms", index=0, records=2_000, kernel=True)
        assert len(trace) == 2_000
        assert list(telemetry.iter_events()) == []

    def test_counters_still_validate_and_count(self):
        telemetry.counter_add("pool.jobs", 2)
        telemetry.gauge_set("memo.entries", 9)
        assert telemetry.counters_snapshot() == {
            "pool.jobs": 2, "memo.entries": 9,
        }
        # A typo fails in every mode, not only under REPRO_TELEMETRY=1.
        with pytest.raises(KeyError, match="not a declared counter"):
            telemetry.counter_add("not.even.declared")
        with pytest.raises(KeyError, match="not a declared gauge"):
            telemetry.gauge_set("also.bogus", 9)

    def test_manifest_section_reports_disabled(self):
        assert telemetry.manifest_section() == {"enabled": False}

    def test_no_sink_file_is_created(self, tmp_path):
        with telemetry.span("quiet"):
            telemetry.counter_add("pool.jobs")
        telemetry.absorb_worker({"counters": {"memo.hits": 1}})
        telemetry.close_sink()
        assert not (tmp_path / "run.telemetry.jsonl").exists()

    def test_drain_ships_counters_only(self):
        runtime.enter_worker()
        with telemetry.span("worker.functional", cells=3):
            telemetry.counter_add("memo.hits", 2)
        payload = telemetry.drain_worker()
        assert payload == {"counters": {"memo.hits": 2}, "gauges": {}}
        assert telemetry.drain_worker() is None

    def test_absorb_adds_counters(self):
        telemetry.counter_add("memo.misses")
        telemetry.absorb_worker({
            "counters": {"memo.misses": 4}, "gauges": {"memo.entries": 6},
        })
        assert telemetry.counters_snapshot() == {
            "memo.misses": 5, "memo.entries": 6,
        }
        assert list(telemetry.iter_events()) == []


class TestWorkerMerge:
    def test_absorb_reparents_and_prefixes(self):
        worker_payload = {
            "events": [
                {"id": "999:1", "parent": None, "pid": 999,
                 "name": "worker.functional", "path": "worker.functional",
                 "t0": 10, "t1": 20},
                {"id": "999:2", "parent": "999:1", "pid": 999,
                 "name": "fast.run", "path": "worker.functional/fast.run",
                 "t0": 12, "t1": 18},
            ],
            "counters": {"memo.misses": 4},
            "gauges": {"memo.entries": 6},
        }
        telemetry.counter_add("memo.misses", 1)
        telemetry.gauge_set("memo.entries", 2)
        with telemetry.span("pool.run") as pool_span:
            telemetry.absorb_worker(worker_payload)
        events = {e["id"]: e for e in telemetry.iter_events()}
        # The worker root now hangs off the supervisor's open span ...
        assert events["999:1"]["parent"] == pool_span._id
        assert events["999:1"]["path"] == "pool.run/worker.functional"
        # ... and the worker-internal parent link is untouched.
        assert events["999:2"]["parent"] == "999:1"
        assert events["999:2"]["path"] == "pool.run/worker.functional/fast.run"
        snap = telemetry.counters_snapshot()
        assert snap["memo.misses"] == 5  # counters add
        assert snap["memo.entries"] == 6  # gauges keep the max

    def test_absorb_none_is_a_noop(self):
        telemetry.absorb_worker(None)
        assert list(telemetry.iter_events()) == []

    def test_enter_worker_clears_inherited_state(self):
        telemetry.counter_add("pool.jobs")
        with telemetry.span("inherited"):
            pass
        runtime.enter_worker()
        assert list(telemetry.iter_events()) == []
        assert telemetry.counters_snapshot() == {}
        assert telemetry.drain_worker() is None  # nothing recorded yet

    def test_drain_returns_buffer_then_resets(self):
        runtime.enter_worker()
        with telemetry.span("worker.functional", cells=3):
            telemetry.counter_add("memo.hits", 2)
        payload = telemetry.drain_worker()
        assert payload is not None
        assert [e["name"] for e in payload["events"]] == ["worker.functional"]
        assert payload["counters"] == {"memo.hits": 2}
        assert telemetry.drain_worker() is None


class TestMarksAndManifest:
    def test_section_covers_only_the_window_after_the_mark(self):
        with telemetry.span("before"):
            telemetry.counter_add("pool.jobs", 10)
        mark = telemetry.mark()
        with telemetry.span("sweep.functional"):
            with telemetry.span("sweep.plan"):
                pass
            telemetry.counter_add("pool.jobs", 2)
        section = telemetry.manifest_section(mark)
        assert section["enabled"] is True
        assert set(section["phase_ns"]) == {"sweep.functional"}
        tree = section["phase_ns"]["sweep.functional"]
        assert tree["count"] == 1
        assert tree["children"]["sweep.plan"]["count"] == 1
        assert tree["ns"] >= tree["children"]["sweep.plan"]["ns"] > 0
        assert section["counters"] == {"pool.jobs": 2}

    def test_drop_cap_counts_rather_than_grows(self, monkeypatch):
        monkeypatch.setattr(runtime, "_MAX_EVENTS", 3)
        for _ in range(5):
            with telemetry.span("tick"):
                pass
        assert len(list(telemetry.iter_events())) == 3
        section = telemetry.manifest_section()
        assert section["dropped_events"] == 2
        assert section["counters"]["telemetry.dropped"] == 2


class TestSink:
    def test_sink_layout(self, tmp_path):
        with telemetry.span("sweep.functional", configs=2):
            telemetry.counter_add("pool.jobs", 4)
            with telemetry.span("sweep.plan"):
                pass
        telemetry.close_sink()
        lines = [
            json.loads(line)
            for line in (tmp_path / "run.telemetry.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        assert lines[0]["k"] == "meta"
        assert lines[0]["schema"] == runtime.SINK_SCHEMA
        assert lines[0]["pid"] == os.getpid()
        spans = [line for line in lines if line["k"] == "span"]
        # Close order: the plan span line lands before its parent.
        assert [s["name"] for s in spans] == ["sweep.plan", "sweep.functional"]
        assert spans[0]["parent"] == spans[1]["id"]
        assert "path" not in spans[0]  # sink lines carry ids, not paths
        counts = [line for line in lines if line["k"] == "count"]
        assert counts and counts[-1]["c"]["pool.jobs"] == 4

    def test_counter_totals_flush_once_per_root_close(self, tmp_path):
        with telemetry.span("root"):
            telemetry.counter_add("pool.jobs")
        with telemetry.span("root"):
            pass  # no counter movement: no second count line
        telemetry.close_sink()
        lines = (tmp_path / "run.telemetry.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["k"] for line in lines]
        assert kinds.count("count") == 1
