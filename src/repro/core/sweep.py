"""The shared sweep executor.

Every sweep in the repository evaluates a grid of configurations against a
trace suite.  This module is the single fan-out point for that work:
:func:`sweep_functional` and :func:`sweep_timing` take ``(traces,
configs)`` and return a dense ``results[config][trace]`` grid, and every
sweep site (``core/design_space.py``, ``core/optimizer.py``,
``core/metrics.py``, ``experiments/equations.py``,
``experiments/extensions.py``) routes through them instead of rolling its
own loop.

What the executor layers on top of a plain double loop:

* **Memoisation**: cells are first deduplicated through
  :mod:`repro.sim.memo`, so timing-only configuration variations and
  repeated sub-sweeps (e.g. the shared direct-mapped baseline of the
  three Figure 5 maps) simulate each distinct functional configuration
  exactly once per trace.  Timing cells are memoised by their whole
  configuration (:func:`repro.sim.memo.timing_key`), and each
  event-engine result's counts also seed the functional memo, so a
  functional sweep after a timing sweep of the same cells simulates
  nothing.
* **Parallelism**: outstanding cells are chunked and fanned out over a
  supervised worker pool (:mod:`repro.resilience.executor`).  Chunks keep
  the cells that share work together: a functional cell's front
  (:func:`_front_chunks`), a timing cell's L1 event plan
  (:func:`_plan_chunks`).  Traces ship to each worker once (at spawn),
  not per cell.  Results come back in deterministic cell order
  regardless of worker scheduling.
* **Fault isolation**: a failed, hung or killed worker no longer takes
  the sweep down with it.  Cells are retried with exponential backoff
  (``REPRO_SWEEP_RETRIES``), bounded by per-cell wall-clock timeouts
  (``REPRO_SWEEP_TIMEOUT``), and dead workers are re-created.  Cells
  that exhaust their budget surface as structured
  :class:`~repro.resilience.policy.FailureReport` records -- re-raised
  by default, or returned as a partial grid with
  ``on_failure="partial"`` -- never as silent all-or-nothing loss.
* **Checkpointing**: when a :func:`repro.resilience.journal.journaling`
  context is active, every requested cell lands in an append-only
  journal -- computed cells as they complete, memo-served ones in one
  batch at planning -- and a resumed sweep restores journaled cells
  instead of re-simulating them (``mlcache run --resume``).
* **Graceful degradation**: one worker (the default on a single-CPU
  host), tiny workloads, or a host where worker processes cannot be
  created at all (e.g. a sandbox that forbids ``fork``) all fall back to
  the same serial path with identical results.

The worker count comes from ``REPRO_SWEEP_WORKERS`` when set (``0``/``1``
force serial; negatives are rejected; values above :data:`MAX_WORKERS`
clamp), otherwise from ``os.cpu_count()``; see ``docs/performance.md``
and ``docs/resilience.md``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.audit import manifest as run_manifest
from repro.core import clock, envcfg
from repro.audit.invariants import (
    audit_enabled,
    audit_functional_result,
    audit_timing_result,
)
from repro.resilience import executor as resilient_executor
from repro.resilience.executor import Cell, ExecOutcome
from repro.resilience.faults import FaultPlan, cell_signature
from repro.resilience.journal import current_journal
from repro.resilience.policy import FailureReport, RetryPolicy, SweepFailure
from repro.sim import memo
from repro.sim.config import SystemConfig
from repro.sim.fast import front_projection, run_functional
from repro.sim.functional import FunctionalResult, functional_result
from repro.sim.stackdist import (
    StackdistGridResult,
    grid_projection,
    run_stackdist_grid,
    stackdist_eligible,
)
from repro.sim.timing import (
    TimingResult,
    TimingSimulator,
    event_eligible,
    plan_projection,
)
from repro.trace.record import Trace

#: Environment knob for the pool size (0 or 1 disables the pool).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment knob gating the stack-distance grid planner (on by
#: default; ``0`` forces one simulation per cell).
STACKDIST_ENV = "REPRO_STACKDIST"

#: Upper bound on the worker count.  Requests beyond it (a fat-fingered
#: ``REPRO_SWEEP_WORKERS=10000``) clamp instead of fork-bombing the host.
MAX_WORKERS = 64

#: Don't spin up a pool for fewer cells than this; worker startup plus
#: trace shipping costs more than the simulation it would parallelise.
MIN_CELLS_FOR_POOL = 4

#: Chunks per worker of a functional sweep's jobs: small
#: enough to amortise dispatch, large enough to balance uneven cell
#: costs (big caches simulate faster than small ones).  The count sets
#: the chunk size; :func:`_front_chunks` then cuts chunks at front
#: boundaries, so a worker replays each front it is sent once and only a
#: front larger than a chunk is split, evenly.  A timing sweep sends one
#: chunk per worker, cut at L1 plan boundaries (:func:`_plan_chunks`):
#: a plan is about half a cold cell, so splitting a group costs more
#: than the balance it buys.  A chunk that fails is split back into
#: single cells by the executor, so chunking never weakens fault
#: isolation.
_CHUNKS_PER_WORKER = 4

def stackdist_enabled() -> bool:
    """Whether the grid planner may batch cells through the stack pass."""
    return bool(envcfg.get(STACKDIST_ENV))


def _clamp_workers(value: int, origin: str) -> int:
    """Pin the worker-count domain: negatives are an error (a sweep
    cannot run with less than no workers -- reject rather than guess),
    ``0``/``1`` mean serial, and anything above :data:`MAX_WORKERS`
    clamps."""
    if value < 0:
        raise ValueError(f"{origin} must be non-negative, got {value}")
    return max(1, min(value, MAX_WORKERS))


def sweep_workers(explicit: Optional[int] = None) -> int:
    """Resolve the worker count (explicit arg > env knob > CPU count)."""
    if explicit is not None:
        return _clamp_workers(int(explicit), "workers")
    configured = envcfg.get(WORKERS_ENV)
    if configured is not None:
        return _clamp_workers(configured, WORKERS_ENV)
    return _clamp_workers(os.cpu_count() or 1, "cpu_count")


def _chunked(jobs: List, chunks: int) -> List[List]:
    """Split ``jobs`` into at most ``chunks`` contiguous, balanced runs."""
    chunks = max(1, min(chunks, len(jobs)))
    size, remainder = divmod(len(jobs), chunks)
    out = []
    start = 0
    for i in range(chunks):
        end = start + size + (1 if i < remainder else 0)
        out.append(jobs[start:end])
        start = end
    return out


def _group_chunks(
    cells: List[Cell], chunks: int, group: Callable[[Cell], Tuple]
) -> List[List[Cell]]:
    """Split ``cells`` into chunks of at most ``ceil(len / chunks)`` cells
    that keep each ``group``'s cells together.

    A worker builds a group's shared state once and serves every cell of
    the group from its cache.  Cells are grouped in first-seen order,
    cells in their given order; a group with more cells than a chunk
    splits into even runs; runs are then packed in order, a chunk
    closing when the next run would overflow it.
    """
    groups: dict = {}
    for cell in cells:
        groups.setdefault(group(cell), []).append(cell)
    size = -(-len(cells) // max(1, chunks))
    out: List[List[Cell]] = []
    for members in groups.values():
        for run in _chunked(members, -(-len(members) // size)):
            if not out or len(out[-1]) + len(run) > size:
                out.append([])
            out[-1].extend(run)
    return out


def _front_group(cell: Cell) -> Tuple:
    """A functional cell's front: the stream its upstream levels send
    the deepest level over its trace
    (:func:`repro.sim.fast.front_projection`)."""
    return cell.trace_index, front_projection(cell.config)


def _plan_group(cell: Cell) -> Tuple:
    """A timing cell's L1 event plan
    (:func:`repro.sim.timing.plan_projection`)."""
    return cell.trace_index, plan_projection(cell.config)


def _front_chunks(cells: List[Cell], chunks: int) -> List[List[Cell]]:
    """Functional job chunks, cut at front boundaries."""
    return _group_chunks(cells, chunks, _front_group)


def _plan_chunks(cells: List[Cell], chunks: int) -> List[List[Cell]]:
    """Timing chunks, cut at L1 plan boundaries."""
    return _group_chunks(cells, chunks, _plan_group)


def _run_functional_cell(traces: Sequence[Trace], cell: Cell) -> FunctionalResult:
    """Memoised functional evaluation of one cell.

    Routed through this module's ``run_functional`` (not the memo
    module's) so tests can poison the simulation entry point; the memo
    bookkeeping here is what makes worker-side hit/miss counters real.
    """
    trace = traces[cell.trace_index]
    key = memo.memo_key(trace, cell.config)
    cached = memo.lookup(key)
    if cached is None:
        cached = run_functional(trace, cell.config)
        memo.store(key, cached)
    if cached.config is not cell.config:
        cached = dataclasses.replace(cached, config=cell.config)
    return cached


def _run_timing_cell(traces: Sequence[Trace], cell: Cell) -> TimingResult:
    return TimingSimulator(cell.config).run(traces[cell.trace_index])


def _run_functional_job(traces: Sequence[Trace], cell: Cell) -> StackdistGridResult:
    """One functional job: a grid group's single pass over every member
    of its plane at its set counts, or a single cell as a one-member
    result."""
    if not cell.set_counts:
        return StackdistGridResult(results=(_run_functional_cell(traces, cell),))
    return run_stackdist_grid(traces[cell.trace_index], cell.config, cell.set_counts)


def _plan_stackdist(
    pending: List[Cell], pending_keys: List[Tuple], enabled: bool
) -> Tuple[List[Cell], List[List[Tuple]]]:
    """Partition outstanding cells into the sweep's functional jobs.

    Cells whose configurations are :func:`stackdist_eligible` bucket by
    trace and :func:`grid_projection` -- one front, one deepest block
    size and policy, so they differ at most in the deepest level's set
    and way counts -- and every bucket is **one** grid job, unless it is
    a lone direct-mapped cell: that is the direct-mapped kernel's own
    one-member call, which runs per cell on its cached upstream stream
    (:func:`repro.sim.fast._cached_front`) and asks it for nothing
    extra.  A job's ``Cell.config`` is its widest member, whose
    associativity picks the kernel (:func:`run_stackdist_grid`), and
    its ``set_counts`` are its members' distinct set counts; a job
    without set counts is a single cell.  A lone A-way cell pays a
    stack pass at width A on the fast path anyway (70-98% of width 16),
    so it rides the width-16 pass and its sibling associativities land
    in the memo for free.

    Returns ``(jobs, job_keys)``, ``job_keys[i]`` the pending keys job
    ``i`` covers.  Jobs follow their first member's position, so
    scheduling stays deterministic.
    """
    buckets: dict = {}
    for index, cell in enumerate(pending):
        if enabled and stackdist_eligible(cell.config):
            plane: object = (cell.trace_index, grid_projection(cell.config))
        else:
            plane = index  # its own bucket, keyed by its position
        buckets.setdefault(plane, []).append(index)
    jobs: List[Cell] = []
    job_keys: List[List[Tuple]] = []
    for plane, members in buckets.items():
        first = pending[members[0]]
        if isinstance(plane, int) or (
            len(members) == 1 and first.config.levels[-1].associativity == 1
        ):
            jobs.append(first._replace(cell_id=len(jobs)))
        else:
            head = max(
                (pending[m] for m in members),
                key=lambda cell: cell.config.levels[-1].associativity,
            )
            set_counts = tuple(sorted(
                {pending[m].config.levels[-1].geometry().sets for m in members}
            ))
            jobs.append(Cell(
                len(jobs),
                head.trace_index,
                head.config,
                cell_signature("stackdist", head.trace_index, (plane[1], set_counts)),
                set_counts,
            ))
        job_keys.append([pending_keys[m] for m in members])
    return jobs, job_keys


def _make_validate(kind: str, traces: Sequence[Trace], faults) -> Optional[Callable]:
    """Re-audit results at sweep intake when fault injection is active.

    The simulators audit themselves *inside* each run; an injected
    ``corrupt_result`` happens after that, so the intake check is what
    catches it (and turns it into a retry instead of a poisoned grid).
    """
    if faults is None or not audit_enabled():
        return None
    if kind == "functional":
        def validate(cell: Cell, result) -> None:
            for member in result.results:
                audit_functional_result(
                    traces[cell.trace_index], member, source="sweep-intake"
                )
        return validate
    def validate(cell: Cell, result) -> None:
        audit_timing_result(traces[cell.trace_index], result, source="sweep-intake")
    return validate


def _pool_map(
    kind: str,
    compute: Callable,
    cells: List[Cell],
    traces: List[Trace],
    workers: int,
    policy: RetryPolicy,
    faults,
    validate,
    on_result,
    chunker: Callable[[List[Cell], int], List[List[Cell]]],
    per_worker: int,
) -> Optional[ExecOutcome]:
    """Fan ``cells`` out over the supervised pool; ``None`` if no worker
    process could be created (the caller falls back to the serial path).

    Only worker *creation* is allowed to fail softly.  A failure inside
    a worker -- a simulation error, a hang, a death -- is retried and,
    if permanent, reported; silently re-running a failing grid serially
    would mask the error (and could "succeed" with different results).
    """
    chunks = chunker(cells, workers * per_worker)
    return resilient_executor.run_pooled(
        kind, compute, chunks, traces, workers, policy,
        faults=faults, validate=validate, on_result=on_result,
    )


def _run_cells(
    kind: str,
    compute: Callable,
    cells: List[Cell],
    traces: List[Trace],
    workers: Optional[int],
    faults,
    on_result,
    chunker: Callable[[List[Cell], int], List[List[Cell]]] = _front_chunks,
    per_worker: int = _CHUNKS_PER_WORKER,
) -> Tuple[ExecOutcome, int, bool]:
    """Evaluate ``cells`` (deterministic order) in parallel when it pays.

    A pool gets ``chunker(cells, workers * per_worker)``; the serial path
    runs the cells in their given order.  Returns ``(outcome,
    workers_resolved, pooled)`` so callers can report how the work was
    actually executed.
    """
    policy = RetryPolicy.from_env()
    validate = _make_validate(kind, traces, faults)
    count = sweep_workers(workers)
    if count > 1 and len(cells) >= MIN_CELLS_FOR_POOL:
        outcome = _pool_map(
            kind, compute, cells, traces, count, policy, faults, validate,
            on_result, chunker, per_worker,
        )
        if outcome is not None:
            return outcome, count, True
    outcome = resilient_executor.run_serial(
        kind, compute, cells, traces, policy,
        faults=faults, validate=validate, on_result=on_result,
    )
    return outcome, count, False


def _settle_failures(
    outcome: ExecOutcome,
    on_failure: str,
    failures: Optional[List[FailureReport]],
) -> None:
    """Surface permanent failures: report them, then raise or degrade."""
    if failures is not None:
        failures.extend(outcome.failures)
    if not outcome.failures:
        return
    run_manifest.note_failures(outcome.failures)
    if on_failure == "partial":
        return
    for report in outcome.failures:
        if report.exception is not None:
            raise report.exception
    raise SweepFailure(outcome.failures)


def sweep_functional(
    traces: Sequence[Trace],
    configs: Sequence[SystemConfig],
    workers: Optional[int] = None,
    on_failure: str = "raise",
    failures: Optional[List[FailureReport]] = None,
) -> List[List[Optional[FunctionalResult]]]:
    """Functional-simulate every (config, trace) cell of the grid.

    Returns ``results`` with ``results[i][j]`` the
    :class:`~repro.sim.functional.FunctionalResult` of ``configs[i]`` on
    ``traces[j]``.  Cells sharing a memoisation key (timing-only config
    differences, or results already cached by an earlier sweep) are
    simulated once; the rest are fanned out over the worker pool.

    ``on_failure`` controls what happens when a cell fails permanently
    (after retries): ``"raise"`` (default) re-raises the first failure's
    exception, ``"partial"`` leaves failed cells as ``None`` in the grid.
    Either way the reports are appended to ``failures`` (when given) and
    to any active run manifest, and completed cells are already in the
    memo cache and the active checkpoint journal.
    """
    traces = list(traces)
    configs = list(configs)
    if not traces or not configs:
        raise ValueError("need at least one trace and one configuration")
    with telemetry.span(
        "sweep.functional", configs=len(configs), traces=len(traces)
    ):
        return _sweep_functional_grid(
            traces, configs, workers, on_failure, failures
        )


def _sweep_functional_grid(
    traces: List[Trace],
    configs: List[SystemConfig],
    workers: Optional[int],
    on_failure: str,
    failures: Optional[List[FailureReport]],
) -> List[List[Optional[FunctionalResult]]]:
    watch = clock.Stopwatch()
    since = telemetry.mark()
    journal = current_journal()
    faults = FaultPlan.from_env()
    with telemetry.span("sweep.plan"):
        keys = [
            [memo.memo_key(trace, config) for trace in traces]
            for config in configs
        ]
        # One representative cell per distinct un-cached key, in
        # first-seen (config-major) order so results are reproducible
        # cell by cell.  Each distinct key is looked up once, in order:
        # the memo, then this sweep's journal, then the pending list.  A
        # memo-served key the journal lacks (typically another sweep's
        # grid extra) is journaled too, so the journal resumes alone.
        pending: List[Cell] = []
        pending_keys: List[Tuple] = []
        served: List[Tuple[Tuple, FunctionalResult]] = []
        seen = set()
        resumed = 0
        for i, config in enumerate(configs):
            for j in range(len(traces)):
                key = keys[i][j]
                if key in seen:
                    continue
                seen.add(key)
                cached = memo.peek(key)
                if cached is not None:
                    if journal is not None and not journal.holds("functional", key):
                        served.append((key, cached))
                    continue
                if journal is not None:
                    restored = journal.restore("functional", key, config)
                    if restored is not None:
                        memo.store(key, restored)
                        resumed += 1
                        continue
                pending.append(
                    Cell(
                        len(pending), j, config,
                        cell_signature("functional", j, key[1]),
                    )
                )
                pending_keys.append(key)

        # Plan: cells that differ only in the deepest level's set and
        # way counts share one grid pass; everything else simulates per
        # cell.
        jobs, job_keys = _plan_stackdist(pending, pending_keys, stackdist_enabled())

    if journal is not None and served:
        # Already computed, so a machine crash costs only re-derivation:
        # the batch rides the group commit instead of forcing an fsync.
        journal.record_cells("functional", served, sync=False)

    def on_result(cell: Cell, result: StackdistGridResult) -> None:
        # Fan every member into the memo cache: the members this sweep
        # asked for materialise below, and a grid job's extras turn
        # later per-cell runs into hits.  Only the *requested* members
        # are journaled -- persisting the speculative extras would grow
        # the journal ~5x on direct-mapped sweeps.  A grid job's batch
        # is fsynced at once (one fsync per pass); a single rides the
        # group commit.
        trace = traces[cell.trace_index]
        requested = set(job_keys[cell.cell_id])
        batch = []
        for member in result.results:
            key = memo.memo_key(trace, member.config)
            memo.store(key, member)
            if key in requested:
                batch.append((key, member))
        if journal is not None:
            journal.record_cells("functional", batch, sync=bool(cell.set_counts))

    outcome = ExecOutcome()
    used_workers, pooled = sweep_workers(workers), False
    # The workers' only global mutation is the process-local memo/front
    # caches and telemetry counters: each spawn worker fills its own
    # copy, and the counters ride back with every result -- sanctioned
    # state.
    if jobs:
        outcome, used_workers, pooled = _run_cells(
            "functional", _run_functional_job, jobs, traces, workers,  # repro: noqa RPR009
            faults, on_result,
        )
    failed_keys = {
        key
        for report in outcome.failures
        if report.cell_id >= 0
        for key in job_keys[report.cell_id]
    }
    singles = sum(1 for job in jobs if not job.set_counts)
    run_manifest.note_sweep(
        kind="functional",
        configs=len(configs),
        traces=len(traces),
        simulated=singles,
        workers=used_workers,
        pooled=pooled,
        seconds=watch.elapsed_s(),
        since=since,
        resumed=resumed,
        failed=len(outcome.failures),
        stackdist_groups=len(jobs) - singles,
        cells_derived=len(pending) - singles,
    )
    _settle_failures(outcome, on_failure, failures)
    return [
        [
            None if keys[i][j] in failed_keys
            else memo.run_functional_memo(traces[j], configs[i])
            for j in range(len(traces))
        ]
        for i in range(len(configs))
    ]


def sweep_timing(
    traces: Sequence[Trace],
    configs: Sequence[SystemConfig],
    workers: Optional[int] = None,
    on_failure: str = "raise",
    failures: Optional[List[FailureReport]] = None,
) -> List[List[Optional[TimingResult]]]:
    """Timing-simulate every (config, trace) cell of the grid.

    Returns ``results[i][j]`` for ``configs[i]`` on ``traces[j]``.  Timing
    results depend on every configuration field, so cells are memoised
    and checkpointed by :func:`repro.sim.memo.timing_key`: a cell this
    process already timed, or one asked for twice, simulates once.
    Outstanding cells are grouped by L1 event plan
    (:func:`repro.sim.timing.plan_projection`), which a worker builds once
    for the group, and each event-engine result's counts seed the
    functional memo.  ``on_failure`` behaves as in
    :func:`sweep_functional`.
    """
    traces = list(traces)
    configs = list(configs)
    if not traces or not configs:
        raise ValueError("need at least one trace and one configuration")
    with telemetry.span(
        "sweep.timing", configs=len(configs), traces=len(traces)
    ):
        return _sweep_timing_grid(traces, configs, workers, on_failure, failures)


def _remember_counts(trace: Trace, config: SystemConfig, result: TimingResult) -> None:
    """Seed the functional memo with an event-engine result's counts.

    The event engine's counts equal the functional fast path's on every
    run it takes (``tests/sim/test_timing_events.py`` pins it to the
    reference, whose counts are the functional simulator's), so a later
    functional sweep of the same cell is a memo hit.  The result goes
    through :func:`functional_result`, which audits it.
    """
    if not event_eligible(config, trace):
        return
    key = memo.memo_key(trace, config)
    if memo.peek(key) is None:
        memo.store(key, functional_result(
            trace, config, [dataclasses.replace(s) for s in result.level_stats],
            result.memory_reads, result.memory_writes, source="event-engine",
        ))


def _sweep_timing_grid(
    traces: List[Trace],
    configs: List[SystemConfig],
    workers: Optional[int],
    on_failure: str,
    failures: Optional[List[FailureReport]],
) -> List[List[Optional[TimingResult]]]:
    watch = clock.Stopwatch()
    since = telemetry.mark()
    journal = current_journal()
    faults = FaultPlan.from_env()
    fingerprints = [memo.trace_fingerprint(trace) for trace in traces]
    keys: List[List[Tuple]] = []
    found: dict = {}
    served: List[Tuple[Tuple, TimingResult]] = []
    plans: dict = {}
    resumed = 0
    with telemetry.span("sweep.plan"):
        # Each distinct key is looked up once, in order: the memo, then
        # this sweep's journal, then the pending list, grouped by L1
        # plan so the serial path and every pool chunk build each plan
        # once.  A memo-served key the journal lacks is journaled too,
        # so the journal resumes alone.
        for i, config in enumerate(configs):
            projection = memo.timing_projection(config)
            keys.append([(fingerprint, projection) for fingerprint in fingerprints])
            for j, key in enumerate(keys[i]):
                if key in found:
                    continue
                cached = memo.peek_timing(key)
                if cached is not None:
                    found[key] = cached
                    if journal is not None and not journal.holds("timing", key):
                        served.append((key, cached))
                    continue
                if journal is not None:
                    restored = journal.restore("timing", key, config)
                    if restored is not None:
                        memo.store_timing(key, restored)
                        found[key] = restored
                        resumed += 1
                        continue
                found[key] = None  # pending: filled by on_result
                group = (j, plan_projection(config))
                plans.setdefault(group, []).append((j, config, key))
        pending: List[Cell] = []
        pending_keys: List[Tuple] = []
        for members in plans.values():
            for j, config, key in members:
                pending.append(
                    Cell(
                        len(pending), j, config,
                        cell_signature("timing", j, key[1]),
                    )
                )
                pending_keys.append(key)

    if journal is not None and served:
        journal.record_cells("timing", served, sync=False)

    def on_result(cell: Cell, result: TimingResult) -> None:
        key = pending_keys[cell.cell_id]
        found[key] = result
        memo.store_timing(key, result)
        _remember_counts(traces[cell.trace_index], cell.config, result)
        if journal is not None:
            journal.record_cell("timing", key, result)

    outcome = ExecOutcome()
    used_workers, pooled = sweep_workers(workers), False
    if pending:
        outcome, used_workers, pooled = _run_cells(
            "timing", _run_timing_cell, pending, traces, workers,
            faults, on_result, _plan_chunks, 1,
        )
    run_manifest.note_sweep(
        kind="timing",
        configs=len(configs),
        traces=len(traces),
        simulated=len(pending),
        workers=used_workers,
        pooled=pooled,
        seconds=watch.elapsed_s(),
        since=since,
        resumed=resumed,
        failed=len(outcome.failures),
    )
    _settle_failures(outcome, on_failure, failures)
    grid: List[List[Optional[TimingResult]]] = []
    for config, row in zip(configs, keys):
        cells = []
        for key in row:
            result = found[key]
            if result is not None and result.config is not config:
                result = dataclasses.replace(result, config=config)
            cells.append(result)
        grid.append(cells)
    return grid
