"""Differential parity checks between the repository's redundant engines.

The repository deliberately computes the same counts several ways -- a
vectorised fast path and a stack-distance grid against a reference
event-driven simulator, an event-sparse timing engine against the
per-record one, the per-record timing engine's counts against the
functional simulator, a memoisation cache against direct runs, a process
pool against the serial loop.  That redundancy is only a safety net if
someone compares the answers; these helpers are that comparison,
reusable from tests and from the ``repro.audit.selfcheck`` CLI.

Each check raises :class:`ParityError` (an :class:`AuditError`) with the
first diverging counter, or returns quietly.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.audit.invariants import AuditError
from repro.sim import memo
from repro.sim.config import SystemConfig
from repro.sim.fast import FastFunctionalSimulator, sparse_eligible
from repro.sim.functional import FunctionalResult, FunctionalSimulator
from repro.sim.stackdist import run_stackdist_grid, stackdist_eligible
from repro.sim.timing import (
    TimingResult,
    _EventEngine,
    _TimingEngine,
    event_eligible,
)
from repro.trace.record import Trace


class ParityError(AuditError):
    """Two engines that must agree produced different counts."""


#: Per-level counters compared between functional results.
_LEVEL_FIELDS = (
    "reads", "read_misses", "writes", "write_misses", "writebacks",
    "blocks_fetched", "prefetched_blocks", "writes_forwarded",
    "prefetch_reads", "prefetch_read_misses", "prefetches_issued",
    "useful_prefetches",
)

#: Scalar and per-buffer fields compared between timing results.
_TIMING_FIELDS = (
    "instructions", "cpu_reads", "cpu_writes", "total_ns", "base_ns",
    "read_stall_ns", "write_stall_ns", "memory_reads", "memory_writes",
    "buffer_full_stalls", "buffer_read_matches",
)


def _diff(a, b, names: Sequence[str]) -> List[str]:
    """The diverging scalar fields and per-level counters of two results."""
    diffs: List[str] = []
    for name in names:
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            diffs.append(f"{name}: {left} != {right}")
    if len(a.level_stats) != len(b.level_stats):
        diffs.append(
            f"depth: {len(a.level_stats)} != {len(b.level_stats)} levels"
        )
    else:
        for level, (sa, sb) in enumerate(zip(a.level_stats, b.level_stats), 1):
            for name in _LEVEL_FIELDS:
                left, right = getattr(sa, name), getattr(sb, name)
                if left != right:
                    diffs.append(f"L{level}.{name}: {left} != {right}")
    return diffs


def _raise_on(diffs: List[str], context: str, trace_name: str) -> None:
    if diffs:
        listed = "\n".join(f"  - {diff}" for diff in diffs)
        raise ParityError(
            f"{context}: counts diverge on trace {trace_name!r}:\n{listed}"
        )


def assert_counts_equal(
    a: Union[FunctionalResult, TimingResult],
    b: Union[FunctionalResult, TimingResult],
    context: str = "parity",
) -> None:
    """Raise :class:`ParityError` on the first diverging counter (CPU
    counts, memory traffic and every per-level counter)."""
    diffs = _diff(
        a, b, ("cpu_reads", "cpu_writes", "memory_reads", "memory_writes")
    )
    _raise_on(diffs, context, a.trace_name)


def assert_timing_equal(
    a: TimingResult, b: TimingResult, context: str = "timing parity"
) -> None:
    """Raise :class:`ParityError` unless two timing results agree exactly:
    every nanosecond total, count, per-level counter and buffer statistic."""
    _raise_on(_diff(a, b, _TIMING_FIELDS), context, a.trace_name)


def check_fast_vs_reference(trace: Trace, config: SystemConfig) -> None:
    """The fast engine must be count-identical to the reference on every
    configuration it accepts -- a vectorised first level, with any deeper
    levels it cannot replay walked event by event, or the sparse walk --
    and is a no-op on the rest (a first-level prefetcher or multi-block
    fetch)."""
    if not sparse_eligible(config):
        return
    fast = FastFunctionalSimulator(config).run(trace)
    reference = FunctionalSimulator(config).run(trace)
    assert_counts_equal(fast, reference, context="fast-vs-reference")


def check_stackdist_vs_reference(
    trace: Trace, config: SystemConfig, set_counts: Sequence[int] = ()
) -> None:
    """Every member of the grid pass ``config`` heads at ``set_counts``
    (every associativity its kernel derives at each, see
    :func:`~repro.sim.stackdist.run_stackdist_grid`) must be
    count-identical to the reference on its member configuration (no-op
    when the config is outside the stack-distance path)."""
    if not stackdist_eligible(config):
        return
    for derived in run_stackdist_grid(trace, config, set_counts).results:
        deepest = derived.config.levels[-1]
        reference = FunctionalSimulator(derived.config).run(trace)
        assert_counts_equal(
            derived, reference,
            context=f"stackdist-vs-reference[{deepest.geometry().sets} sets, "
            f"{deepest.associativity}-way]",
        )


def check_timing_vs_reference(trace: Trace, config: SystemConfig) -> None:
    """The event-sparse timing engine must reproduce the per-record
    reference exactly on every run it accepts (no-op otherwise)."""
    if not event_eligible(config, trace):
        return
    event = _EventEngine(config).run(trace)
    reference = _TimingEngine(config).run(trace)
    assert_timing_equal(event, reference, context="timing-vs-reference")


def check_timing_counts_vs_functional(trace: Trace, config: SystemConfig) -> None:
    """The per-record timing engine applies every cache-state change
    through the functional simulator's :class:`CacheHierarchy`, so its
    counts must equal the functional simulator's on every configuration."""
    timing = _TimingEngine(config).run(trace)
    functional = FunctionalSimulator(config).run(trace)
    assert_counts_equal(
        timing, functional, context="timing-reference-vs-functional"
    )


def check_memo_vs_direct(trace: Trace, config: SystemConfig) -> None:
    """A memoised lookup must return the counts of a direct run."""
    from repro.sim.fast import run_functional

    memoised = memo.run_functional_memo(trace, config)
    direct = run_functional(trace, config)
    assert_counts_equal(memoised, direct, context="memo-vs-direct")


def check_sweep_vs_reference(
    traces: Sequence[Trace], configs: Sequence[SystemConfig]
) -> None:
    """Every cell of a functional sweep -- whichever job the planner put
    it in -- must be count-identical to the reference on its own
    configuration.  Clears the memoisation cache first so the sweep
    plans every cell."""
    from repro.core.sweep import sweep_functional

    memo.clear_memo_cache()
    grid = sweep_functional(traces, configs, workers=1)
    for config, row in zip(configs, grid):
        for trace, result in zip(traces, row):
            deepest = config.levels[-1]
            assert_counts_equal(
                result, FunctionalSimulator(config).run(trace),
                context=f"sweep-vs-reference[{deepest.geometry().sets} sets, "
                f"{deepest.associativity}-way]",
            )


def check_serial_vs_parallel(
    traces: Sequence[Trace],
    configs: Sequence[SystemConfig],
    workers: int = 2,
) -> None:
    """The pooled executor must reproduce the serial grid cell by cell.

    Clears the memoisation cache before each leg so both actually
    simulate; leaves the serial leg's results cached afterwards.
    """
    from repro.core.sweep import sweep_functional

    memo.clear_memo_cache()
    pooled = sweep_functional(traces, configs, workers=workers)
    memo.clear_memo_cache()
    serial = sweep_functional(traces, configs, workers=1)
    for row_serial, row_pooled in zip(serial, pooled):
        for a, b in zip(row_serial, row_pooled):
            assert_counts_equal(a, b, context="serial-vs-parallel")
