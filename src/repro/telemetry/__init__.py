"""Sweep telemetry: spans, counters, cross-process attribution.

The façade instrumented code imports::

    from repro import telemetry

    with telemetry.span("stackdist.pass", sets=sets, records=n):
        ...
    telemetry.counter_add("memo.hits")

Counters and gauges are always on -- run manifests and sweep notes
read their deltas -- while spans and the JSONL sink are opt-in
(``REPRO_TELEMETRY``); disabled spans are a shared no-op object, so
span instrumentation is effectively free unless asked for.  See
``docs/observability.md`` for the span taxonomy and counter catalog,
and :mod:`repro.telemetry.runtime` for the recorder semantics.
"""

from repro.telemetry.counters import CATALOG, InstrumentDef, markdown_table
from repro.telemetry.runtime import (
    absorb_worker,
    close_sink,
    counter_add,
    counter_deltas,
    counters_snapshot,
    drain_worker,
    enabled,
    enter_worker,
    gauge_set,
    iter_events,
    manifest_section,
    mark,
    phase_tree,
    reset,
    sink_path,
    span,
)

__all__ = [
    "CATALOG",
    "InstrumentDef",
    "markdown_table",
    "absorb_worker",
    "close_sink",
    "counter_add",
    "counter_deltas",
    "counters_snapshot",
    "drain_worker",
    "enabled",
    "enter_worker",
    "gauge_set",
    "iter_events",
    "manifest_section",
    "mark",
    "phase_tree",
    "reset",
    "sink_path",
    "span",
]
