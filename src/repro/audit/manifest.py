"""Structured run manifests for sweeps and experiments.

A manifest answers, after the fact, "what did that run actually do?":
how big the configuration grid was, which traces went in (by content
fingerprint), how much the memoisation layer absorbed, how many worker
processes the executor used and where the wall time went.  Benchmark
trajectories and regressions become diagnosable from the artefact alone.

Usage::

    from repro.audit import manifest

    with manifest.recording("F5-1") as run:
        run.add_traces(traces)
        with run.phase("sweep"):
            grid = sweep_functional(traces, configs)
    run.write(Path("results/F5-1.manifest.json"))

The sweep executor (:mod:`repro.core.sweep`) reports into every active
recorder via :func:`note_sweep`; when none is active the call is a
no-op, so instrumentation costs nothing outside a recording.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import telemetry
from repro.audit.invariants import audit_enabled
from repro.core import clock
from repro.sim import memo
from repro.trace.record import Trace

#: Manifest schema version (bump on breaking shape changes).  2 added
#: the resilience fields (resume/retry/timeout/restart counts, failure
#: reports, worker-folded memo counters); 3 added the stack-distance
#: planner counters (``stackdist_groups``/``cells_derived``) and changed
#: what ``simulated`` means on functional sweeps (per-cell simulations
#: only, excluding grid-derived cells); 4 added the ``telemetry``
#: section (the per-phase ``phase_ns`` span tree and counter deltas for
#: this recording window; ``{"enabled": false}`` when REPRO_TELEMETRY
#: is off); 5 made the ``memo`` section and each sweep note's
#: ``retries``/``timeouts``/``pool_restarts`` views over the always-on
#: ``memo.*``/``pool.*`` telemetry counters and dropped the memo
#: section's worker-fold sub-object (worker counts arrive as counters).
SCHEMA = 5


@dataclass
class SweepNote:
    """One executor fan-out inside a recorded run."""

    kind: str  # "functional" or "timing"
    configs: int
    traces: int
    cells: int
    #: Cells actually simulated (the rest were memoisation hits).
    simulated: int
    workers: int
    #: Whether a process pool was actually used (vs the serial path).
    pooled: bool
    seconds: float
    #: Cells restored from a checkpoint journal instead of simulated.
    resumed: int = 0
    #: Cell retry attempts the executor made (``pool.retries`` delta).
    retries: int = 0
    #: Workers killed for exceeding the per-cell wall-clock budget
    #: (``pool.timeouts`` delta).
    timeouts: int = 0
    #: Worker processes re-created after a death, hang or kill
    #: (``pool.restarts`` delta).
    pool_restarts: int = 0
    #: Cells that failed permanently (see the ``failures`` section).
    failed: int = 0
    #: Stack-distance passes the grid planner scheduled (each covers
    #: every member associativity of one (trace, projection) group).
    stackdist_groups: int = 0
    #: Cells whose results were derived from a grid pass instead of
    #: being simulated individually.
    cells_derived: int = 0

    @property
    def memoised(self) -> int:
        return self.cells - self.simulated - self.resumed - self.cells_derived


class RunManifest:
    """Collects one run's observability record; renders to JSON."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._started_unix = clock.wall_unix()
        self._wall = clock.Stopwatch()
        self._wall_seconds: Optional[float] = None
        self.sweeps: List[SweepNote] = []
        self.phases: List[Dict[str, Any]] = []
        self.traces: List[Dict[str, Any]] = []
        self.failures: List[Dict[str, Any]] = []
        self.extra: Dict[str, Any] = {}
        self._telemetry_mark = telemetry.mark()

    # -- recording -----------------------------------------------------------

    def add_traces(self, traces: Sequence[Trace]) -> None:
        """Record the workload by name, shape and content fingerprint."""
        for trace in traces:
            self.traces.append(
                {
                    "name": trace.name,
                    "records": len(trace),
                    "warmup": trace.warmup,
                    "fingerprint": memo.trace_fingerprint(trace),
                }
            )

    def note_sweep(self, note: SweepNote) -> None:
        self.sweeps.append(note)

    def note_failure(self, report: Dict[str, Any]) -> None:
        """Record one permanently-failed sweep cell (JSON-native dict)."""
        self.failures.append(report)

    @contextmanager
    def phase(self, name: str):
        """Time a named phase of the run."""
        watch = clock.Stopwatch()
        try:
            yield
        finally:
            self.phases.append({"name": name, "seconds": watch.elapsed_s()})

    def annotate(self, **fields: Any) -> None:
        """Attach experiment-specific fields (grid axes, scale knobs...)."""
        self.extra.update(fields)

    # -- rendering -----------------------------------------------------------

    def finish(self) -> None:
        """Freeze the wall clock (idempotent; implied by :meth:`as_dict`)."""
        if self._wall_seconds is None:
            self._wall_seconds = self._wall.elapsed_s()

    def as_dict(self) -> Dict[str, Any]:
        # Imported lazily to stay out of the repro.core package-init
        # import cycle (this module is imported by repro.core.sweep).
        from repro.core import envcfg

        self.finish()
        counted = telemetry.counter_deltas(self._telemetry_mark)
        hits = counted.get("memo.hits", 0)
        misses = counted.get("memo.misses", 0)
        lookups = hits + misses
        return {
            "schema": SCHEMA,
            "name": self.name,
            "created": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime(self._started_unix)
            ),
            "audit_enabled": audit_enabled(),
            "workers_env": envcfg.raw("REPRO_SWEEP_WORKERS"),
            "wall_seconds": self._wall_seconds,
            "traces": list(self.traces),
            "sweeps": [
                {**asdict(note), "memoised": note.memoised}
                for note in self.sweeps
            ],
            "sweep_totals": {
                "sweeps": len(self.sweeps),
                "cells": sum(note.cells for note in self.sweeps),
                "simulated": sum(note.simulated for note in self.sweeps),
                "memoised": sum(note.memoised for note in self.sweeps),
                "seconds": sum(note.seconds for note in self.sweeps),
                "resumed": sum(note.resumed for note in self.sweeps),
                "retries": sum(note.retries for note in self.sweeps),
                "timeouts": sum(note.timeouts for note in self.sweeps),
                "pool_restarts": sum(note.pool_restarts for note in self.sweeps),
                "failed": sum(note.failed for note in self.sweeps),
                "stackdist_groups": sum(
                    note.stackdist_groups for note in self.sweeps
                ),
                "cells_derived": sum(note.cells_derived for note in self.sweeps),
            },
            "memo": {
                "hits": hits,
                "misses": misses,
                "evictions": counted.get("memo.evictions", 0),
                "hit_ratio": hits / lookups if lookups else 0.0,
                "entries": memo.cache_size(),
            },
            "failures": list(self.failures),
            "phases": list(self.phases),
            "telemetry": telemetry.manifest_section(self._telemetry_mark),
            "extra": dict(self.extra),
        }

    def write(self, path) -> Path:
        """Serialise to ``path`` as JSON; returns the path written.

        Atomic (tmp + fsync + rename): a manifest is the audit record of
        a run, so a crash mid-write must leave the previous manifest --
        or nothing -- rather than torn JSON.
        """
        # Lazy: resilience's package init imports sim modules; audit must
        # stay importable before they are.
        from repro.resilience.integrity import atomic_write_text

        path = Path(path)
        atomic_write_text(
            path, json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path


#: Active recorders, innermost last.  Sweep notes go to every one of
#: them so an outer (CLI-level) recording sees nested experiments' work.
_active: List[RunManifest] = []


def current() -> Optional[RunManifest]:
    """The innermost active recorder, if any."""
    return _active[-1] if _active else None


def note_sweep(
    kind: str,
    configs: int,
    traces: int,
    simulated: int,
    workers: int,
    pooled: bool,
    seconds: float,
    since: Dict[str, Any],
    resumed: int = 0,
    failed: int = 0,
    stackdist_groups: int = 0,
    cells_derived: int = 0,
) -> None:
    """Report one executor fan-out to every active recorder (no-op when
    nothing is recording).

    ``since`` is a :func:`repro.telemetry.mark` taken when the sweep
    started; the note's retry, timeout and restart counts are the
    ``pool.*`` counter deltas after it.
    """
    if not _active:
        return
    counted = telemetry.counter_deltas(since)
    note = SweepNote(
        kind=kind,
        configs=configs,
        traces=traces,
        cells=configs * traces,
        simulated=simulated,
        workers=workers,
        pooled=pooled,
        seconds=seconds,
        resumed=resumed,
        retries=counted.get("pool.retries", 0),
        timeouts=counted.get("pool.timeouts", 0),
        pool_restarts=counted.get("pool.restarts", 0),
        failed=failed,
        stackdist_groups=stackdist_groups,
        cells_derived=cells_derived,
    )
    for recorder in _active:
        recorder.note_sweep(note)


def note_failures(failures) -> None:
    """Report permanently-failed cells to every active recorder."""
    if not _active or not failures:
        return
    rendered = [report.as_dict() for report in failures]
    for recorder in _active:
        for report in rendered:
            recorder.note_failure(report)


@contextmanager
def recording(name: str):
    """Activate a :class:`RunManifest` for the duration of the block."""
    recorder = RunManifest(name)
    _active.append(recorder)
    try:
        yield recorder
    finally:
        _active.remove(recorder)
        recorder.finish()
