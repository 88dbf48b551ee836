"""Append-only checkpoint journal for sweeps.

One JSONL record per requested cell -- computed, or served by the memo
from another sweep's work -- flushed to the operating system
before the sweep moves on -- so the journal survives a SIGKILL at any
instant (the bytes are in the kernel's page cache, which outlives the
process).  fsync, which is what protects against *machine* crashes and
costs milliseconds per call on ordinary disks, is group-committed: one
lands at least every :data:`FSYNC_EVERY` records, after every batch a
stack-distance pass derives, and at close.  A power loss can
therefore cost at most the last few cells -- a resumed sweep simply
re-simulates them -- instead of taxing every cell of every sweep.  Cells
are keyed by the same identities the memoisation layer uses
(:func:`repro.sim.memo.memo_key` for functional cells,
:func:`repro.sim.memo.timing_key` for timing cells): a resumed sweep
restores every journaled cell and simulates only the remainder,
producing a grid identical to an uninterrupted run.

Record format (one JSON object per line)::

    {"t": "header", "schema": 1, "name": "...", "pid": ...}
    {"t": "cell", "kind": "functional", "key": "<sha256 of the cell key>",
     "trace": "...", "sum": "<sha256[:12] of payload>", "payload": {...}}

Each line is exactly ``json.dumps(record, sort_keys=True)``, so the
payload's checksummed text sits verbatim between ``"payload": `` and
``, "sum": ``.  Torn trailing lines (the record being written when the
process died) and checksum mismatches are skipped on load; duplicate
keys keep the last complete record.  Payloads carry every field of the result except its
``config`` -- the resuming sweep re-attaches its own configuration
object, exactly as the memo cache does for timing-variant hits.

Activation mirrors :mod:`repro.audit.manifest`: the sweep executor
consults :func:`current_journal`, and :func:`journaling` installs a
journal for the duration of a block::

    with journaling(path, resume=True):
        grid = sweep_functional(traces, configs)
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.cache.stats import CacheStats
from repro.resilience.integrity import AdvisoryLock
from repro.sim.functional import FunctionalResult
from repro.sim.timing import TimingResult

#: Journal schema version (bump on breaking shape changes).
SCHEMA = 1

#: Group-commit interval: an fsync is forced after this many records
#: land without one.  Bounds the machine-crash loss window; process
#: crashes lose nothing (every record is flushed).
FSYNC_EVERY = 16

#: Resume auto-compacts when the journal carries at least this many dead
#: records *and* they outnumber the live cells -- long kill/resume
#: chains then stay O(live cells) instead of accreting every torn line
#: and superseded duplicate forever.
AUTO_COMPACT_MIN_DEAD = 64

#: Grace period when acquiring the journal's writer lock.  A SIGKILLed
#: sweep's pool workers share its lock file description until they
#: notice the reparent and exit; a few seconds of patience lets an
#: immediate ``--resume`` ride that window out, while a journal held by
#: a genuinely live sweep still fails fast with the holder's identity.
LOCK_GRACE_S = 5.0


def journal_digest(kind: str, key: Tuple) -> str:
    """The journal's stable identity for one cell.

    ``repr`` of a memo/timing key is deterministic across processes and
    runs: the tuples contain only ints, floats, bools, strings and enums
    with stable reprs, and the trace component is already a content hash.
    """
    return hashlib.sha256(f"{kind}|{key!r}".encode()).hexdigest()


def _payload_text(payload: Dict) -> str:
    """A payload's canonical dump: the text its checksum covers."""
    return json.dumps(payload, sort_keys=True)


def _payload_checksum(payload_text: str) -> str:
    return hashlib.sha256(payload_text.encode()).hexdigest()[:12]


def _cell_line(digest: str, kind: str, trace: str, payload_text: str) -> str:
    """One cell record's line, spliced around the payload's canonical text.

    Byte-identical to ``json.dumps(record, sort_keys=True) + "\n"`` for
    the record ``{"t": "cell", "kind", "key", "trace", "sum", "payload"}``
    (its keys in sorted order), without dumping the payload a second time.
    """
    return (
        f'{{"key": {json.dumps(digest)}, "kind": {json.dumps(kind)}, '
        f'"payload": {payload_text}, '
        f'"sum": {json.dumps(_payload_checksum(payload_text))}, '
        f'"t": "cell", "trace": {json.dumps(trace)}}}\n'
    )


#: What encloses the payload's text in a cell line: it is the value of
#: the first ``"payload"`` key, and ``"sum"`` is the next key in sorted
#: order.  Inside a JSON string a quote is always escaped, so neither
#: marker can match inside one.
_PAYLOAD_OPEN = '"payload": '
_PAYLOAD_CLOSE = ', "sum": '


def _raw_payload_text(line: str) -> Optional[str]:
    """The payload's text as written in ``line``, or ``None``."""
    start = line.find(_PAYLOAD_OPEN)
    end = line.rfind(_PAYLOAD_CLOSE)
    if start < 0 or end < start:
        return None
    return line[start + len(_PAYLOAD_OPEN):end]


# -- result (de)serialisation ------------------------------------------------

#: ``CacheStats`` is flat (every field an int), so a shallow dict is the
#: whole of what ``dataclasses.asdict`` would build, at a fraction of
#: its cost.
_STATS_FIELDS = tuple(field.name for field in fields(CacheStats))


def _encode_stats(stats: CacheStats) -> Dict:
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def encode_functional(result: FunctionalResult) -> Dict:
    return {
        "trace_name": result.trace_name,
        "cpu_reads": result.cpu_reads,
        "cpu_writes": result.cpu_writes,
        "cpu_ifetches": result.cpu_ifetches,
        "level_stats": [_encode_stats(stats) for stats in result.level_stats],
        "memory_reads": result.memory_reads,
        "memory_writes": result.memory_writes,
    }


def decode_functional(payload: Dict, config) -> FunctionalResult:
    return FunctionalResult(
        trace_name=payload["trace_name"],
        config=config,
        cpu_reads=payload["cpu_reads"],
        cpu_writes=payload["cpu_writes"],
        cpu_ifetches=payload["cpu_ifetches"],
        level_stats=[CacheStats(**stats) for stats in payload["level_stats"]],
        memory_reads=payload["memory_reads"],
        memory_writes=payload["memory_writes"],
    )


def encode_timing(result: TimingResult) -> Dict:
    return {
        "trace_name": result.trace_name,
        "instructions": result.instructions,
        "cpu_reads": result.cpu_reads,
        "cpu_writes": result.cpu_writes,
        "total_ns": result.total_ns,
        "base_ns": result.base_ns,
        "read_stall_ns": result.read_stall_ns,
        "write_stall_ns": result.write_stall_ns,
        "level_stats": [_encode_stats(stats) for stats in result.level_stats],
        "memory_reads": result.memory_reads,
        "memory_writes": result.memory_writes,
        "buffer_full_stalls": list(result.buffer_full_stalls),
        "buffer_read_matches": list(result.buffer_read_matches),
    }


def decode_timing(payload: Dict, config) -> TimingResult:
    return TimingResult(
        trace_name=payload["trace_name"],
        config=config,
        instructions=payload["instructions"],
        cpu_reads=payload["cpu_reads"],
        cpu_writes=payload["cpu_writes"],
        total_ns=payload["total_ns"],
        read_stall_ns=payload["read_stall_ns"],
        write_stall_ns=payload["write_stall_ns"],
        level_stats=[CacheStats(**stats) for stats in payload["level_stats"]],
        memory_reads=payload["memory_reads"],
        memory_writes=payload["memory_writes"],
        buffer_full_stalls=list(payload["buffer_full_stalls"]),
        buffer_read_matches=list(payload["buffer_read_matches"]),
        base_ns=payload["base_ns"],
    )


_DECODERS = {"functional": decode_functional, "timing": decode_timing}


# -- the journal -------------------------------------------------------------


class SweepJournal:
    """One sweep run's crash-tolerant cell checkpoint file."""

    def __init__(self, path, resume: bool = False, name: str = "") -> None:
        self.path = Path(path)
        self.name = name
        #: Complete records loaded at open time: digest -> (kind, payload).
        self._restorable: Dict[str, Tuple[str, Dict]] = {}
        #: Cells appended (or restored) during this process's lifetime.
        self.recorded = 0
        #: Records flushed but not yet fsynced (group commit).
        self._unsynced = 0
        #: Dead records seen at load: torn lines, checksum failures, and
        #: cells superseded by a later record for the same key.  Feeds
        #: the auto-compaction heuristic and ``mlcache doctor``.
        self.dead = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One journal, one writer: concurrent sweeps appending to the
        # same file would interleave records and corrupt each other's
        # resume state, so a second opener fails fast (LockHeldError
        # names the holder).  The flock dies with the process -- a
        # SIGKILLed sweep never wedges its successor.
        self._lock = AdvisoryLock(
            self.path.with_name(self.path.name + ".lock"),
            name=f"journal:{name or self.path.stem}",
        )
        self._lock.acquire(timeout_s=LOCK_GRACE_S)
        if resume and self.path.exists():
            self._load()
        # "a" positions at end-of-file, so tell() doubles as a size check;
        # a non-resuming open truncates any stale journal.
        # The append-only journal *is* the durability layer here: every
        # record is a full line fsynced on sync(), and the reader drops
        # torn tails.  Atomic replace would defeat crash-resumability.
        self._handle = open(  # repro: noqa RPR006
            self.path, "a" if resume else "w", encoding="utf-8"
        )
        if self._handle.tell() == 0:
            self._append(
                {"t": "header", "schema": SCHEMA, "name": name, "pid": os.getpid()}
            )
        elif resume and self.dead >= max(
            AUTO_COMPACT_MIN_DEAD, len(self._restorable)
        ):
            self.compact()

    def _load(self) -> None:
        with telemetry.span("journal.load") as span:
            self._parse(self.path.read_text(encoding="utf-8"))
            span.annotate(cells=len(self._restorable))

    def _parse(self, text: str) -> None:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.dead += 1
                continue  # torn write from a killed process
            if record.get("t") != "cell":
                continue
            payload = record.get("payload")
            # The checksum is over the payload's canonical dump.  A line
            # this journal wrote holds exactly that text, so hash it as
            # written; only a line whose text does not match (a damaged
            # or foreign record) pays for the canonical re-dump, which
            # keeps the accepted and dead sets those of the re-dump alone.
            checksum = record.get("sum")
            raw = _raw_payload_text(line)
            if (raw is None or checksum != _payload_checksum(raw)) and (
                checksum != _payload_checksum(_payload_text(payload))
            ):
                self.dead += 1
                continue
            if record["key"] in self._restorable:
                self.dead += 1  # the earlier record is now superseded
            self._restorable[record["key"]] = (record["kind"], payload)

    def _append(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        telemetry.counter_add("journal.fsyncs")

    def sync(self) -> None:
        """Force any flushed-but-unsynced records to stable storage."""
        if self._unsynced and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0
            telemetry.counter_add("journal.fsyncs")

    # -- recording ----------------------------------------------------------

    def _cell_record(self, kind: str, key: Tuple, result) -> Tuple[str, Dict, str]:
        """``(digest, payload, line)`` for one cell; the payload is dumped
        once, for both its checksum and the line."""
        payload = (
            encode_functional(result) if kind == "functional" else encode_timing(result)
        )
        digest = journal_digest(kind, key)
        line = _cell_line(digest, kind, result.trace_name, _payload_text(payload))
        return digest, payload, line

    def record_cell(self, kind: str, key: Tuple, result) -> None:
        """Journal one completed cell, flushed before returning.

        The flush makes the record survive a process kill; the fsync
        that also makes it survive a machine crash is group-committed
        (every :data:`FSYNC_EVERY` records and at close).
        """
        digest, payload, line = self._cell_record(kind, key, result)
        self._handle.write(line)
        self._handle.flush()
        self._restorable[digest] = (kind, payload)
        self.recorded += 1
        self._unsynced += 1
        telemetry.counter_add("journal.records")
        if self._unsynced >= FSYNC_EVERY:
            self.sync()

    def record_cells(self, kind: str, entries, sync: bool = True) -> None:
        """Journal a batch of ``(key, result)`` cells with a single write
        and flush.  A torn tail loses at most the batch's unflushed
        suffix; :meth:`_load` drops it by checksum.

        ``sync=True`` (cells one stack-distance pass derived together)
        fsyncs the batch at once.  ``sync=False`` (cells the memo already
        held) lets the batch ride the group commit: a machine crash then
        costs only their re-derivation.
        """
        lines = []
        for key, result in entries:
            digest, payload, line = self._cell_record(kind, key, result)
            lines.append(line)
            self._restorable[digest] = (kind, payload)
        if not lines:
            return
        self._handle.write("".join(lines))
        self._handle.flush()
        self.recorded += len(lines)
        self._unsynced += len(lines)
        telemetry.counter_add("journal.records", len(lines))
        if sync or self._unsynced >= FSYNC_EVERY:
            self.sync()

    # -- restoring ----------------------------------------------------------

    def holds(self, kind: str, key: Tuple) -> bool:
        """Whether a complete record for ``key`` is journaled (no decode)."""
        return journal_digest(kind, key) in self._restorable

    def restore(self, kind: str, key: Tuple, config):
        """The journaled result for ``key`` with ``config`` attached, or
        ``None`` when the cell was never completed."""
        entry = self._restorable.get(journal_digest(kind, key))
        if entry is None or entry[0] != kind:
            return None
        return _DECODERS[kind](entry[1], config)

    @property
    def restorable_cells(self) -> int:
        return len(self._restorable)

    # -- compaction ----------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the journal to just its live cells, atomically.

        Builds a fresh segment (header + one record per restorable cell,
        insertion order) and swaps it in with the atomic-write primitive
        -- a crash at any instant leaves either the old segment or the
        new one fully valid, never a blend.  If the swap itself fails
        (ENOSPC, injected ``rename_fail``), the old segment is untouched
        and appending resumes on it.  Returns the number of dead records
        dropped.
        """
        with telemetry.span("journal.compact", live=len(self._restorable)):
            return self._compact()

    def _compact(self) -> int:
        from repro.resilience.integrity import atomic_writer

        self.sync()
        self._handle.close()
        lines = [
            json.dumps(
                {
                    "t": "header",
                    "schema": SCHEMA,
                    "name": self.name,
                    "pid": os.getpid(),
                    "compacted": True,
                },
                sort_keys=True,
            )
            + "\n"
        ]
        for digest, (kind, payload) in self._restorable.items():
            lines.append(
                _cell_line(
                    digest, kind, payload.get("trace_name", ""), _payload_text(payload)
                )
            )
        dropped = self.dead
        try:
            with atomic_writer(self.path) as handle:
                handle.write("".join(lines).encode("utf-8"))
        finally:
            # Success: append to the fresh segment.  Failure: the old
            # segment was never touched (the damage, if any, is on the
            # orphaned tmp file), so appending there stays correct.
            self._handle = open(self.path, "a", encoding="utf-8")  # repro: noqa RPR006
        self.dead = 0
        return dropped

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()
        self._lock.release()


# -- activation --------------------------------------------------------------

#: Active journals, innermost last (mirrors ``repro.audit.manifest``).
_active: List[SweepJournal] = []


def current_journal() -> Optional[SweepJournal]:
    """The innermost active journal, if any."""
    return _active[-1] if _active else None


@contextmanager
def journaling(path, resume: bool = False, name: str = ""):
    """Activate a :class:`SweepJournal` for the duration of the block.

    ``resume=False`` starts a fresh journal (truncating any existing
    file); ``resume=True`` restores every complete cell already in the
    file and appends the rest as they complete.
    """
    journal = SweepJournal(path, resume=resume, name=name)
    _active.append(journal)
    try:
        yield journal
    finally:
        _active.remove(journal)
        journal.close()
