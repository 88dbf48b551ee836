"""Span tracer and counter runtime: the in-process telemetry state.

One module-level recorder per process.  The supervisor process owns the
JSONL sink; worker processes buffer their spans and counter totals and
ship them back with each job result over the existing result pipe
(:func:`drain_worker`), where the supervisor re-parents them under its
live sweep span (:func:`absorb_worker`).  Timestamps are
:func:`repro.core.clock.monotonic_ns` readings -- ``CLOCK_MONOTONIC`` is
system-wide on Linux, so worker and supervisor timestamps are directly
comparable and re-parenting needs no epoch translation.

Counters and gauges are always on: they are the one bookkeeping channel
that run manifests, sweep notes and memo statistics are views of, so
:func:`counter_add` validates the name and adds in every mode (an
integer add per event -- per cell or per job, never per record).  Spans
and the sink are opt-in (``REPRO_TELEMETRY``): when disabled,
:func:`span` returns a shared no-op context manager after one cached
boolean test, no sink file is opened, and simulation results are
bit-identical either way.

The sink is line-oriented JSON, one event per line, flushed per line
and never fsynced: a SIGKILL loses at most the page cache the kernel
had not written, and a torn final line is trimmed by ``mlcache doctor
--fix``.  Partial telemetry is valid telemetry.

Line kinds::

    {"k": "meta",  "schema": 1, "pid": ..., "t0": ns, "unix0": s, ...}
    {"k": "span",  "id": "pid:seq", "parent": id|null, "pid": ...,
     "name": ..., "t0": ns, "t1": ns, "a": {attrs}}
    {"k": "count", "pid": ..., "t": ns, "c": {counter: total, ...}}

``span`` lines appear in *close* order (children before parents); the
exporter and reporter resolve parents post-hoc and treat events whose
parent never closed as roots.
"""

from __future__ import annotations

import json
import os
import sys
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry.counters import CATALOG

#: Lazily-bound :func:`repro.core.clock.monotonic_ns`.  The telemetry
#: layer sits below everything (memo, journal, store import it at module
#: scope), while ``repro.core``'s package init reaches *up* into the
#: sweep engine -- importing the clock here at import time would close
#: that cycle, so it binds on first reading (the repo's standard
#: cycle-break, cf. the lazy envcfg import in ``trace/store.py``).
_monotonic_ns: Optional[Callable[[], int]] = None


def _now_ns() -> int:
    global _monotonic_ns
    if _monotonic_ns is None:
        from repro.core.clock import monotonic_ns

        _monotonic_ns = monotonic_ns
    return _monotonic_ns()


def _wall_unix() -> float:
    from repro.core.clock import wall_unix

    return wall_unix()

__all__ = [
    "enabled",
    "span",
    "counter_add",
    "gauge_set",
    "mark",
    "counter_deltas",
    "manifest_section",
    "enter_worker",
    "drain_worker",
    "absorb_worker",
    "close_sink",
    "reset",
]

SINK_SCHEMA = 1

#: In-memory event cap (the sink file is unbounded; this bounds the
#: supervisor's manifest-aggregation buffer).  Past the cap the *newest*
#: events are counted in ``telemetry.dropped`` and not retained, so
#: manifest marks taken earlier stay valid.
_MAX_EVENTS = 200_000

# -- per-process recorder state ------------------------------------------

#: Cached REPRO_TELEMETRY resolution; ``None`` until first use so tests
#: can flip the env var and call :func:`reset`.
_resolved: Optional[bool] = None
_events: List[Dict[str, Any]] = []
#: Open-span stack: (id, path) tuples, innermost last.
_stack: List[Tuple[str, str]] = []
_seq: int = 0
_counters: Dict[str, int] = {}
_gauges: Dict[str, int] = {}
_dropped: int = 0
_in_worker: bool = False
_sink: Optional[IO[str]] = None


def enabled() -> bool:
    """Whether telemetry is on (REPRO_TELEMETRY, cached after first read)."""
    global _resolved
    if _resolved is None:
        from repro.core import envcfg  # lazy: core package-init cycle

        _resolved = bool(envcfg.get("REPRO_TELEMETRY"))
    return _resolved


def sink_path() -> str:
    """The configured sink path (REPRO_TELEMETRY_PATH)."""
    from repro.core import envcfg  # lazy: core package-init cycle

    return str(envcfg.get("REPRO_TELEMETRY_PATH"))


# -- spans ----------------------------------------------------------------


class _NoopSpan:
    """The shared disabled-mode span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    """One live span: context manager that records a close event."""

    __slots__ = ("name", "attrs", "_id", "_path", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._id = ""
        self._path = ""
        self._t0 = 0

    def __enter__(self) -> "_Span":
        global _seq
        _seq += 1
        self._id = f"{os.getpid()}:{_seq}"
        parent_path = _stack[-1][1] if _stack else ""
        self._path = f"{parent_path}/{self.name}" if parent_path else self.name
        _stack.append((self._id, self._path))
        self._t0 = _now_ns()
        return self

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes known only once the spanned work is done."""
        self.attrs.update(attrs)

    def __exit__(self, *exc: object) -> None:
        t1 = _now_ns()
        parent: Optional[str] = None
        if _stack and _stack[-1][0] == self._id:
            _stack.pop()
            if _stack:
                parent = _stack[-1][0]
        event: Dict[str, Any] = {
            "id": self._id,
            "parent": parent,
            "pid": os.getpid(),
            "name": self.name,
            "path": self._path,
            "t0": self._t0,
            "t1": t1,
        }
        if self.attrs:
            event["a"] = self.attrs
        _record(event)
        if not _in_worker and not _stack:
            _flush_counters()


def span(name: str, **attrs: Any) -> Any:
    """A timing span context manager (shared no-op when disabled).

    ``attrs`` are small JSON-safe scalars attached to the event (set
    counts, record counts, chunk indices) -- identifiers, not payloads.
    """
    if _resolved is False:
        return _NOOP
    if not enabled():
        return _NOOP
    return _Span(name, attrs)


def _record(event: Dict[str, Any]) -> None:
    global _dropped
    if len(_events) >= _MAX_EVENTS:
        _dropped += 1
        _counters["telemetry.dropped"] = (
            _counters.get("telemetry.dropped", 0) + 1
        )
    else:
        _events.append(event)
    if not _in_worker:
        _sink_write(_span_line(event))


def _span_line(event: Dict[str, Any]) -> Dict[str, Any]:
    line = {
        "k": "span",
        "id": event["id"],
        "parent": event["parent"],
        "pid": event["pid"],
        "name": event["name"],
        "t0": event["t0"],
        "t1": event["t1"],
    }
    if "a" in event:
        line["a"] = event["a"]
    return line


# -- counters and gauges --------------------------------------------------


def counter_add(name: str, value: int = 1) -> None:
    """Add ``value`` to a declared counter (always on)."""
    definition = CATALOG.get(name)
    if definition is None or definition.kind != "counter":
        raise KeyError(
            f"{name!r} is not a declared counter; add an InstrumentDef in "
            f"repro/telemetry/counters.py"
        )
    _counters[name] = _counters.get(name, 0) + value


def gauge_set(name: str, value: int) -> None:
    """Record a gauge observation (last value wins; always on)."""
    definition = CATALOG.get(name)
    if definition is None or definition.kind != "gauge":
        raise KeyError(
            f"{name!r} is not a declared gauge; add an InstrumentDef in "
            f"repro/telemetry/counters.py"
        )
    _gauges[name] = value


def counters_snapshot() -> Dict[str, int]:
    """Current counter totals (copy), gauges included."""
    merged = dict(_counters)
    merged.update(_gauges)
    return merged


_last_flushed: Dict[str, int] = {}


def _flush_counters() -> None:
    """Write a ``count`` line with current totals to the sink."""
    global _last_flushed
    totals = counters_snapshot()
    if not totals or totals == _last_flushed:
        return
    _last_flushed = totals
    _sink_write({
        "k": "count",
        "pid": os.getpid(),
        "t": _now_ns(),
        "c": totals,
    })


# -- the JSONL sink (supervisor process only) -----------------------------


def _sink_write(line: Dict[str, Any]) -> None:
    global _sink
    if _in_worker:
        return
    if _sink is None:
        path = sink_path()
        # Append-and-flush is the point: the sink is an event stream, not
        # an atomically-replaced artifact, and a torn tail is repaired by
        # `mlcache doctor --fix` (partial telemetry is valid telemetry).
        _sink = open(path, "a", encoding="utf-8")  # repro: noqa RPR006
        if _sink.tell() == 0:
            _write_meta()
    json.dump(line, _sink, separators=(",", ":"), sort_keys=True)
    _sink.write("\n")
    _sink.flush()


def _write_meta() -> None:
    assert _sink is not None
    meta = {
        "k": "meta",
        "schema": SINK_SCHEMA,
        "pid": os.getpid(),
        "t0": _now_ns(),
        "unix0": _wall_unix(),
        "argv": list(sys.argv),
    }
    # Same deliberate raw append as _sink_write: an event stream, not an
    # atomically-replaced artifact.
    json.dump(meta, _sink, separators=(",", ":"), sort_keys=True)  # repro: noqa RPR006
    _sink.write("\n")
    _sink.flush()


def close_sink() -> None:
    """Flush any pending counter totals and close the sink file."""
    global _sink
    if _sink is not None:
        _flush_counters()
        _sink.close()
        _sink = None


# -- cross-process forwarding ---------------------------------------------


def enter_worker() -> None:
    """Switch this process into worker mode (call first in worker main).

    Drops any state inherited over fork -- the sink handle (per-line
    flushing means its buffer is empty, so closing the child's duped fd
    never touches the supervisor's stream), buffered events and counter
    totals -- so the worker starts with an empty buffer that
    :func:`drain_worker` ships per job.
    """
    global _in_worker, _sink, _dropped
    _in_worker = True
    if _sink is not None:
        try:
            _sink.close()
        except OSError:
            pass
        _sink = None
    _events.clear()
    _stack.clear()
    _counters.clear()
    _gauges.clear()
    _dropped = 0


def drain_worker() -> Optional[Dict[str, Any]]:
    """The worker's counter deltas (and buffered spans), then reset.

    Counters ship in every mode; spans ride along only when telemetry is
    enabled.  Returns ``None`` when nothing was recorded.
    """
    if not _events and not _counters and not _gauges:
        return None
    payload: Dict[str, Any] = {
        "counters": dict(_counters),
        "gauges": dict(_gauges),
    }
    if enabled():
        payload["events"] = list(_events)
    _events.clear()
    _counters.clear()
    _gauges.clear()
    return payload


def absorb_worker(payload: Optional[Dict[str, Any]]) -> None:
    """Merge a worker's drained telemetry into this (supervisor) process.

    Counter deltas add and gauge observations keep the max, in every
    mode.  When telemetry is enabled, worker root spans (``parent is
    None``) are re-parented under the supervisor's innermost open span;
    worker timestamps are already on the shared system-wide monotonic
    clock -- no translation.
    """
    if payload is None:
        return
    if enabled():
        parent_id = _stack[-1][0] if _stack else None
        parent_path = _stack[-1][1] if _stack else ""
        for event in payload.get("events", ()):
            if event.get("parent") is None:
                event["parent"] = parent_id
            if parent_path:
                event["path"] = f"{parent_path}/{event['path']}"
            _record(event)
    for name, value in payload.get("counters", {}).items():
        _counters[name] = _counters.get(name, 0) + int(value)
    for name, value in payload.get("gauges", {}).items():
        _gauges[name] = max(_gauges.get(name, 0), int(value))


# -- manifest aggregation (schema 5) --------------------------------------


def mark() -> Dict[str, Any]:
    """An opaque position: events/counters recorded so far.

    :func:`counter_deltas` and :func:`manifest_section` aggregate
    everything *after* a mark, so a manifest or a sweep note covers its
    own window even when several runs share one process.
    """
    return {
        "events": len(_events),
        "counters": dict(_counters),
        "gauges": dict(_gauges),
    }


def counter_deltas(since: Optional[Dict[str, Any]] = None) -> Dict[str, int]:
    """Non-zero counter movement after ``since`` (totals when ``None``)."""
    base: Dict[str, int] = since["counters"] if since else {}
    return {
        name: total - base.get(name, 0)
        for name, total in _counters.items()
        if total != base.get(name, 0)
    }


def manifest_section(since: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The manifest ``telemetry`` section: phase tree + counter deltas."""
    if not enabled():
        return {"enabled": False}
    start = int(since["events"]) if since else 0
    section: Dict[str, Any] = {
        "enabled": True,
        "phase_ns": phase_tree(_events[start:]),
        "counters": counter_deltas(since),
    }
    if _gauges:
        section["gauges"] = dict(_gauges)
    if _dropped:
        section["dropped_events"] = _dropped
    return section


def phase_tree(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate span events into a nested ``{name: {ns, count, ...}}`` tree.

    Spans aggregate by *name path*: every ``stackdist.pass`` under
    ``sweep.functional/pool.run/worker.functional`` lands in one node with
    a summed ``ns`` and a ``count``, which is the shape a per-phase
    percentage table wants.
    """
    tree: Dict[str, Any] = {}
    for event in events:
        node = tree
        parts = str(event.get("path") or event["name"]).split("/")
        for name in parts[:-1]:
            node = node.setdefault(name, {"ns": 0, "count": 0})
            node = node.setdefault("children", {})
        leaf = node.setdefault(parts[-1], {"ns": 0, "count": 0})
        leaf["ns"] += int(event["t1"]) - int(event["t0"])
        leaf["count"] += 1
    return tree


def iter_events() -> Iterator[Dict[str, Any]]:
    """The in-memory event buffer (tests and the acceptance drill)."""
    return iter(_events)


# -- test support ---------------------------------------------------------


def reset() -> None:
    """Forget everything, including the cached enabled flag and sink.

    For tests that monkeypatch ``REPRO_TELEMETRY`` / the sink path: the
    next :func:`enabled` call re-reads the environment.
    """
    global _resolved, _seq, _dropped, _in_worker
    close_sink()
    _resolved = None
    _seq = 0
    _dropped = 0
    _in_worker = False
    _events.clear()
    _stack.clear()
    _counters.clear()
    _gauges.clear()
    _last_flushed.clear()
