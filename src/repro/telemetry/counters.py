"""The typed counter/gauge catalog.

Every instrument the telemetry layer can record is *declared* here --
name, kind, unit, one-line meaning -- exactly as environment knobs are
declared in :mod:`repro.core.envcfg`.  Incrementing an undeclared name
is a programming error and fails loudly; the catalog renders itself
into ``docs/observability.md`` (:func:`markdown_table`) so the docs
cannot drift from the code.

Counters are monotonic sums; worker processes ship their local totals
to the supervisor with each job result and the supervisor *adds* them
(:func:`repro.telemetry.runtime.absorb_worker`).  Gauges are
last-observation values; across processes the supervisor keeps the
*maximum* (a worker's memo-cache size and the supervisor's are separate
caches -- the max is the honest "largest population seen" summary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["InstrumentDef", "CATALOG", "counter_names", "markdown_table"]


@dataclass(frozen=True)
class InstrumentDef:
    """One declared instrument: name, kind, unit, docs."""

    name: str
    #: ``counter`` (monotonic sum, added across workers) or ``gauge``
    #: (last observation, max across workers).
    kind: str
    #: Human-readable unit for docs and the report footer.
    unit: str
    #: One-line description for the generated catalog table.
    doc: str


def _declare(defs: List[InstrumentDef]) -> Dict[str, InstrumentDef]:
    catalog: Dict[str, InstrumentDef] = {}
    for definition in defs:
        if definition.name in catalog:
            raise ValueError(
                f"instrument {definition.name!r} declared twice in "
                f"repro/telemetry/counters.py"
            )
        catalog[definition.name] = definition
    return catalog


#: Every instrument, by name.  Declarations only -- live values live in
#: :mod:`repro.telemetry.runtime`.
CATALOG: Dict[str, InstrumentDef] = _declare([
    InstrumentDef(
        "memo.hits", "counter", "lookups",
        "Functional memo-cache lookups answered from the cache.",
    ),
    InstrumentDef(
        "memo.misses", "counter", "lookups",
        "Memo-cache lookups that fell through to a simulation.",
    ),
    InstrumentDef(
        "memo.evictions", "counter", "results",
        "Cached functional results evicted past the LRU cap.",
    ),
    InstrumentDef(
        "memo.entries", "gauge", "results",
        "Memo-cache population after the last store (max across "
        "processes).",
    ),
    InstrumentDef(
        "front.hits", "counter", "lookups",
        "Whole-trace upstream replays served from the front cache.",
    ),
    InstrumentDef(
        "front.misses", "counter", "lookups",
        "Front-cache lookups that replayed the upstream levels.",
    ),
    InstrumentDef(
        "timing.plans", "counter", "plans",
        "L1 event plans the event-sparse timing engine built: level-1 "
        "replay, miss index, prefix sums and loop points (runs sharing "
        "a trace and plan projection reuse the last one).",
    ),
    InstrumentDef(
        "timing.parts", "counter", "parts",
        "Levels-below-L1 replays the event-sparse timing engine built "
        "(runs sharing a trace and functional projection reuse the "
        "last one).",
    ),
    InstrumentDef(
        "fast.sparse.walked", "counter", "records",
        "Records the sparse walk stepped through the cache hierarchy "
        "(the rest were provably state-free read hits or dirty-store hits).",
    ),
    InstrumentDef(
        "fast.sparse.forced", "counter", "records",
        "Records the sparse walk stepped through only because a "
        "back-invalidation dropped a block from their level-1 set: the "
        "set's next access and next store after the drop (also in "
        "fast.sparse.walked).",
    ),
    InstrumentDef(
        "journal.records", "counter", "records",
        "Cell records appended to the checkpoint journal.",
    ),
    InstrumentDef(
        "journal.fsyncs", "counter", "calls",
        "fsync(2) calls the journal's group commit actually issued.",
    ),
    InstrumentDef(
        "store.bytes_mapped", "counter", "bytes",
        "Trace-store segment bytes mapped as array views (1-byte kinds "
        "+ 8-byte addresses per record).",
    ),
    InstrumentDef(
        "store.saves", "counter", "stores",
        "Trace stores written through TraceStore.save.",
    ),
    InstrumentDef(
        "store.verifies", "counter", "stores",
        "Full per-segment digest verifications of opened stores.",
    ),
    InstrumentDef(
        "pool.jobs", "counter", "jobs",
        "Jobs dispatched to worker processes by the pooled executor.",
    ),
    InstrumentDef(
        "pool.retries", "counter", "attempts",
        "Cell retry attempts scheduled after a failure (pooled or "
        "serial).",
    ),
    InstrumentDef(
        "pool.timeouts", "counter", "cells",
        "Workers killed for exceeding the per-cell wall-clock budget.",
    ),
    InstrumentDef(
        "pool.restarts", "counter", "workers",
        "Worker processes re-created after a death, hang or kill.",
    ),
    InstrumentDef(
        "telemetry.dropped", "counter", "events",
        "Span events discarded after the in-process buffer cap "
        "(oldest events are kept; drops mean the tail is partial).",
    ),
])


def counter_names() -> List[str]:
    """Every declared instrument name, sorted."""
    return sorted(CATALOG)


def instrument(name: str) -> Optional[InstrumentDef]:
    """The declaration for ``name`` (``None`` when undeclared)."""
    return CATALOG.get(name)


def markdown_table() -> str:
    """The instrument catalog as a markdown reference table."""
    rows = [
        "| Instrument | Kind | Unit | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for name in counter_names():
        definition = CATALOG[name]
        rows.append(
            f"| `{definition.name}` | {definition.kind} "
            f"| {definition.unit} | {definition.doc} |"
        )
    return "\n".join(rows)
