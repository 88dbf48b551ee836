"""Functional-result memoisation.

Event counts depend only on a trace and on the *functional* half of a
configuration -- geometry, policies and hierarchy shape.  Timing fields
(cycle times, write-hit latency, memory/bus/backplane speeds, buffer
depth) never change a :class:`~repro.sim.functional.FunctionalResult`.
Timing-only sweeps -- the Figure 4 lines of constant performance, the
Equation 1/2 validations, the optimizer's cycle-time axis -- therefore
need each distinct functional configuration simulated exactly **once**
per trace; this module provides that cache.

Keys are ``(trace fingerprint, functional projection)``:

* :func:`trace_fingerprint` hashes the trace's records, name and warmup
  boundary (cached on ``trace.metadata`` so repeated lookups are free);
* :func:`functional_projection` extracts the count-relevant fields of a
  :class:`~repro.sim.config.SystemConfig` and nothing else.

Cached results are shared, not copied: treat a returned
``FunctionalResult``'s ``level_stats`` as read-only (every consumer in
this repository does).  The cache is per-process; the sweep executor
(:mod:`repro.core.sweep`) consults it before fanning work out and seeds
it with results coming back from worker processes.  Hits, misses and
evictions are the ``memo.*`` telemetry counters, which worker processes
ship back with each job; run manifests read their deltas.

Timing results live in a second cache, keyed by :func:`timing_key`
(the whole configuration), so a timing cell two sweeps ask for is
simulated once per process.  The ``memo.*`` counters do not count it;
sweep notes count the cells it serves as memoised.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro import telemetry
from repro.cache.policy import PrefetchKind
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import run_functional
from repro.sim.functional import FunctionalResult
from repro.trace.record import Trace
from repro.trace.store import trace_content_digest

if TYPE_CHECKING:  # the timing engine keys its plans through this module
    from repro.sim.timing import TimingResult

#: Metadata slot holding a trace's cached fingerprint.
_FINGERPRINT_SLOT = "_functional_fingerprint"

#: Bound on cached results; a FunctionalResult is a few hundred bytes, so
#: this comfortably covers every sweep in the repository while staying
#: irrelevant memory-wise.
MAX_ENTRIES = 65536

_cache: "OrderedDict[Tuple, FunctionalResult]" = OrderedDict()

#: Timing results by :func:`timing_key`, under the same bound.
_timing_cache: "OrderedDict[Tuple, TimingResult]" = OrderedDict()


def trace_fingerprint(trace: Trace) -> str:
    """A stable content hash of a trace's functional identity.

    Computed once and cached in ``trace.metadata``; traces are treated as
    immutable once built (every generator in :mod:`repro.trace` returns a
    finished trace).  The record-content part of the hash is the trace's
    content digest (:func:`repro.trace.store.trace_content_digest`):
    computed in fixed-size chunks -- a memmap-backed store trace is never
    materialised in full -- and *trusted* when the store recorded it at
    save time, making fingerprinting a store-opened trace O(1).
    """
    cached = trace.metadata.get(_FINGERPRINT_SLOT)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(trace.name.encode())
    hasher.update(str(trace.warmup).encode())
    hasher.update(str(len(trace)).encode())
    hasher.update(trace_content_digest(trace).encode())
    fingerprint = hasher.hexdigest()
    trace.metadata[_FINGERPRINT_SLOT] = fingerprint
    return fingerprint


def level_projection(level: LevelConfig) -> Tuple:
    """The count-relevant slice of one cache level, canonicalised.

    Functionally inert field combinations collapse to one canonical
    point: a direct-mapped level's stated replacement policy is dead
    configuration (one way leaves nothing to choose), and so is the
    prefetch distance of a level that never prefetches.  Collapsing
    them here means the memo cache, the sweep executor's grid
    deduplication and the stack-distance grouping
    (:mod:`repro.sim.stackdist`) all treat such configurations as the
    single functional configuration they are -- simulated once, shared
    everywhere.
    """
    return (
        level.size_bytes,
        level.block_bytes,
        level.associativity,
        level.split,
        "lru" if level.associativity == 1 else level.replacement,
        level.write_policy,
        level.fetch_blocks,
        level.write_allocate,
        level.prefetch,
        1 if level.prefetch is PrefetchKind.NONE else level.prefetch_distance,
    )


def functional_projection(config: SystemConfig) -> Tuple:
    """The count-relevant slice of a configuration.

    Two configurations with equal projections produce identical
    functional results on every trace; cycle times, write-hit latencies
    and the memory/bus/buffer model are deliberately excluded, and each
    level is canonicalised through :func:`level_projection`.
    """
    return (
        config.enforce_inclusion,
        tuple(level_projection(level) for level in config.levels),
    )


def timing_projection(config: SystemConfig) -> Tuple:
    """Every field a :class:`~repro.sim.timing.TimingResult` depends on.

    Timing results are a function of the *whole* configuration, so this is
    the functional projection plus all the timing fields.  It keys the
    timing memo cache (:func:`peek_timing`, :func:`store_timing`) and the
    resilience journal's checkpointed timing cells
    (:mod:`repro.resilience.journal`).
    """
    return (
        functional_projection(config),
        config.cpu.cycle_ns,
        tuple(
            (level.cycle_cpu_cycles, level.write_hit_cycles)
            for level in config.levels
        ),
        (
            config.memory.read_ns,
            config.memory.write_ns,
            config.memory.recovery_ns,
        ),
        config.bus_width_words,
        config.write_buffer_entries,
        config.backplane_cycle_ns,
    )


def memo_key(trace: Trace, config: SystemConfig) -> Tuple:
    """The cache key for one (trace, config) cell."""
    return (trace_fingerprint(trace), functional_projection(config))


def timing_key(trace: Trace, config: SystemConfig) -> Tuple:
    """The timing memo and journal key for one (trace, config) cell."""
    return (trace_fingerprint(trace), timing_projection(config))


def lookup(key: Tuple) -> Optional[FunctionalResult]:
    """Fetch a cached result (counts ``memo.hits``/``memo.misses``);
    ``None`` when absent."""
    result = _cache.get(key)
    if result is None:
        telemetry.counter_add("memo.misses")
        return None
    _cache.move_to_end(key)
    telemetry.counter_add("memo.hits")
    return result


def peek(key: Tuple) -> Optional[FunctionalResult]:
    """Like :func:`lookup` but without touching the hit/miss counters.

    The sweep executor uses this while *planning* (deduplicating cells
    against the cache); the authoritative lookup accounting happens when
    cells are actually evaluated, wherever that evaluation runs.
    """
    result = _cache.get(key)
    if result is not None:
        _cache.move_to_end(key)
    return result


def store(key: Tuple, result: FunctionalResult) -> None:
    """Insert a result, evicting least-recently-used entries past the cap."""
    _cache[key] = result
    _cache.move_to_end(key)
    while len(_cache) > MAX_ENTRIES:
        _cache.popitem(last=False)
        telemetry.counter_add("memo.evictions")
    telemetry.gauge_set("memo.entries", len(_cache))


def peek_timing(key: Tuple) -> Optional["TimingResult"]:
    """A cached timing result for ``key``, or ``None``.

    The sweep executor serves timing cells from here while planning,
    as it serves functional cells from :func:`peek`; the result carries
    the configuration of the cell that computed it.
    """
    result = _timing_cache.get(key)
    if result is not None:
        _timing_cache.move_to_end(key)
    return result


def store_timing(key: Tuple, result: "TimingResult") -> None:
    """Insert a timing result, evicting least-recently-used entries past
    the cap."""
    _timing_cache[key] = result
    _timing_cache.move_to_end(key)
    while len(_timing_cache) > MAX_ENTRIES:
        _timing_cache.popitem(last=False)


def run_functional_memo(trace: Trace, config: SystemConfig) -> FunctionalResult:
    """Memoised :func:`~repro.sim.fast.run_functional`.

    The returned result carries the *caller's* ``config`` (the cached one
    may differ in timing-only fields); the count payload is shared with
    the cache and must be treated as read-only.
    """
    key = memo_key(trace, config)
    cached = lookup(key)
    if cached is None:
        cached = run_functional(trace, config)
        store(key, cached)
    if cached.config is config:
        return cached
    return replace(cached, config=config)


def cache_size() -> int:
    """Number of cached functional results."""
    return len(_cache)


def clear_memo_cache() -> None:
    """Drop every cached functional and timing result (the ``memo.*``
    counters keep counting)."""
    _cache.clear()
    _timing_cache.clear()
