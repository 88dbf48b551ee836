"""The shared sweep executor.

Every sweep in the repository evaluates a grid of configurations against a
trace suite.  This module is the single fan-out point for that work:
:func:`sweep_functional` and :func:`sweep_timing` take ``(traces,
configs)`` and return a dense ``results[config][trace]`` grid, and every
sweep site (``core/design_space.py``, ``core/optimizer.py``,
``core/metrics.py``, ``experiments/equations.py``,
``experiments/extensions.py``) routes through them instead of rolling its
own loop.  Both kinds run one pipeline (:func:`_sweep`); a
:class:`_Kind` holds the few steps in which they differ.

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
* **Parallelism**: outstanding jobs are chunked and fanned out over a
  supervised worker pool (:mod:`repro.resilience.executor`).  Chunks keep
  the jobs that share work together (:func:`_group_chunks`): a
  functional job's front, a timing cell's L1 event plan.  Traces ship to
  each worker once (at spawn), not per cell.  Results come back in
  deterministic cell order regardless of worker scheduling.
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
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

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

#: Upper bound on the worker count.  Requests beyond it (a fat-fingered
#: ``REPRO_SWEEP_WORKERS=10000``) clamp instead of fork-bombing the host.
MAX_WORKERS = 64

#: Don't spin up a pool for fewer cells than this; worker startup plus
#: trace shipping costs more than the simulation it would parallelise.
MIN_CELLS_FOR_POOL = 4

#: Chunks per worker of a functional sweep's jobs: small
#: enough to amortise dispatch, large enough to balance uneven cell
#: costs (big caches simulate faster than small ones).  The count sets
#: the chunk size; :func:`_group_chunks` then cuts chunks at front
#: boundaries, so a worker replays each front it is sent once and only a
#: front larger than a chunk is split, evenly.  A timing sweep sends one
#: chunk per worker, cut at L1 plan boundaries: a plan is about half a
#: cold cell, so splitting a group costs more than the balance it buys.
#: A chunk that fails is split back into single cells by the executor,
#: so chunking never weakens fault isolation.
_CHUNKS_PER_WORKER = 4


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


def _with_config(result, config: SystemConfig):
    """``result`` carrying the caller's ``config`` (a memoised result
    carries the configuration of the cell that computed it)."""
    if result.config is config:
        return result
    return dataclasses.replace(result, config=config)


def _run_functional_job(traces: Sequence[Trace], cell: Cell) -> StackdistGridResult:
    """One functional job: a grid group's single pass over every member
    of its plane at its set counts, or a single cell, memoised, as a
    one-member result.

    A single runs through this module's ``run_functional`` (not the memo
    module's) so tests can poison the simulation entry point; the memo
    bookkeeping here is what makes worker-side hit/miss counters real.
    """
    trace = traces[cell.trace_index]
    if cell.set_counts:
        return run_stackdist_grid(trace, cell.config, cell.set_counts)
    key = memo.memo_key(trace, cell.config)
    cached = memo.lookup(key)
    if cached is None:
        cached = run_functional(trace, cell.config)
        memo.store(key, cached)
    return StackdistGridResult(results=(_with_config(cached, cell.config),))


def _run_timing_cell(traces: Sequence[Trace], cell: Cell) -> TimingResult:
    return TimingSimulator(cell.config).run(traces[cell.trace_index])


def _plan_stackdist(
    pending: List[Cell], pending_keys: List[Tuple]
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
        if stackdist_eligible(cell.config):
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


def _plan_timing(
    pending: List[Cell], pending_keys: List[Tuple]
) -> Tuple[List[Cell], List[List[Tuple]]]:
    """One job per timing cell, the cells of an L1 event plan adjacent,
    so the serial path builds each plan once."""
    ordered = [cell for run in _group_chunks(pending, 1, _plan_group) for cell in run]
    jobs = [cell._replace(cell_id=index) for index, cell in enumerate(ordered)]
    return jobs, [[pending_keys[cell.cell_id]] for cell in ordered]


def _grid_members(
    trace: Trace, cell: Cell, result: StackdistGridResult, keys: List[Tuple]
) -> List[Tuple[Tuple, FunctionalResult]]:
    """Every member of a functional job's result: the cells it was asked
    for and, from a grid pass, its extras."""
    return [(memo.memo_key(trace, member.config), member) for member in result.results]


def _timing_members(
    trace: Trace, cell: Cell, result: TimingResult, keys: List[Tuple]
) -> List[Tuple[Tuple, TimingResult]]:
    """A timing job's one cell.  An event-engine result's counts also
    seed the functional memo.

    The event engine's counts equal the functional fast path's on every
    run it takes (``tests/sim/test_timing_events.py`` pins it to the
    reference, whose counts are the functional simulator's), so a later
    functional sweep of the same cell is a memo hit.  The counts go
    through :func:`functional_result`, which audits them.
    """
    config = cell.config
    if event_eligible(config, trace):
        key = memo.memo_key(trace, config)
        if memo.peek(key) is None:
            memo.store(key, functional_result(
                trace, config, [dataclasses.replace(s) for s in result.level_stats],
                result.memory_reads, result.memory_writes, source="event-engine",
            ))
    return [(keys[0], result)]


def _audit_grid(trace: Trace, result: StackdistGridResult) -> None:
    for member in result.results:
        audit_functional_result(trace, member, source="sweep-intake")


def _audit_timing(trace: Trace, result: TimingResult) -> None:
    audit_timing_result(trace, result, source="sweep-intake")


def _read_functional(trace: Trace, config: SystemConfig, result) -> FunctionalResult:
    """A functional grid cell, read back through one counted memo lookup
    (the run manifest's ``memo.hits``)."""
    return memo.run_functional_memo(trace, config)


def _read_timing(trace: Trace, config: SystemConfig, result) -> TimingResult:
    return _with_config(result, config)


class _Kind(NamedTuple):
    """The steps in which a functional and a timing sweep differ.

    ``name`` tags the journal, the executor and fault signatures; a
    cell's key is ``(trace fingerprint, projection(config))``, read from
    and written to the memo by ``peek``/``store``; ``plan`` turns the
    pending cells and keys into ``(jobs, job_keys)``; a pool chunk keeps
    a ``group`` together, ``per_worker`` chunks a worker; ``members``
    lists the ``(key, result)`` cells a job's result carries; ``audit``
    re-checks a job's result at intake; ``read`` turns a cell's result
    into its grid entry.
    """

    name: str
    projection: Callable[[SystemConfig], Tuple]
    peek: Callable[[Tuple], Any]
    store: Callable[[Tuple, Any], None]
    plan: Callable[[List[Cell], List[Tuple]], Tuple[List[Cell], List[List[Tuple]]]]
    group: Callable[[Cell], Tuple]
    per_worker: int
    members: Callable[[Trace, Cell, Any, List[Tuple]], List[Tuple[Tuple, Any]]]
    audit: Callable[[Trace, Any], None]
    read: Callable[[Trace, SystemConfig, Any], Any]


_FUNCTIONAL = _Kind(
    "functional", memo.functional_projection, memo.peek, memo.store,
    _plan_stackdist, _front_group, _CHUNKS_PER_WORKER, _grid_members,
    _audit_grid, _read_functional,
)

_TIMING = _Kind(
    "timing", memo.timing_projection, memo.peek_timing, memo.store_timing,
    _plan_timing, _plan_group, 1, _timing_members, _audit_timing, _read_timing,
)


def _run_cells(
    kind: _Kind,
    compute: Callable,
    cells: List[Cell],
    traces: List[Trace],
    workers: Optional[int],
    faults,
    on_result,
) -> Tuple[ExecOutcome, int, bool]:
    """Evaluate ``cells`` (deterministic order) in parallel when it pays;
    returns ``(outcome, workers_resolved, pooled)``.

    Only worker *creation* may fail softly (the pool returns ``None``
    and the serial path runs instead): a failure inside a worker is
    retried and, if permanent, reported, since re-running a failing grid
    serially would mask the error.
    """
    policy = RetryPolicy.from_env()
    validate = None
    if faults is not None and audit_enabled():
        # The simulators audit themselves *inside* each run; an injected
        # ``corrupt_result`` happens after that, so this intake check is
        # what catches it (and turns it into a retry instead of a
        # poisoned grid).
        def validate(cell: Cell, result) -> None:
            kind.audit(traces[cell.trace_index], result)
    count = sweep_workers(workers)
    if count > 1 and len(cells) >= MIN_CELLS_FOR_POOL:
        outcome = resilient_executor.run_pooled(
            kind.name, compute,
            _group_chunks(cells, count * kind.per_worker, kind.group),
            traces, count, policy,
            faults=faults, validate=validate, on_result=on_result,
        )
        if outcome is not None:
            return outcome, count, True
    outcome = resilient_executor.run_serial(
        kind.name, compute, cells, traces, policy,
        faults=faults, validate=validate, on_result=on_result,
    )
    return outcome, count, False


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
    simulated once; cells that differ only in the deepest level's set
    and way counts share one grid pass (:func:`_plan_stackdist`); the
    rest are fanned out over the worker pool.

    ``on_failure`` controls what happens when a cell fails permanently
    (after retries): ``"raise"`` (default) re-raises the first failure's
    exception, ``"partial"`` leaves failed cells as ``None`` in the grid.
    Either way the reports are appended to ``failures`` (when given) and
    to any active run manifest, and completed cells are already in the
    memo cache and the active checkpoint journal.
    """
    # The workers' only global mutation is the process-local memo/front
    # caches and telemetry counters: each spawn worker fills its own
    # copy, and the counters ride back with every result -- sanctioned
    # state.
    return _sweep(
        _FUNCTIONAL, _run_functional_job, traces, configs, workers,  # repro: noqa RPR009
        on_failure, failures,
    )


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
    return _sweep(
        _TIMING, _run_timing_cell, traces, configs, workers, on_failure, failures
    )


def _sweep(
    kind: _Kind,
    compute: Callable,
    traces: Sequence[Trace],
    configs: Sequence[SystemConfig],
    workers: Optional[int],
    on_failure: str,
    failures: Optional[List[FailureReport]],
) -> List[List[Any]]:
    """Plan, journal, execute and assemble one grid of ``kind``'s cells;
    ``compute`` evaluates one job (in a worker, or in process)."""
    traces = list(traces)
    configs = list(configs)
    if not traces or not configs:
        raise ValueError("need at least one trace and one configuration")
    with telemetry.span(
        f"sweep.{kind.name}", configs=len(configs), traces=len(traces)
    ):
        watch = clock.Stopwatch()
        since = telemetry.mark()
        journal = current_journal()
        faults = FaultPlan.from_env()
        fingerprints = [memo.trace_fingerprint(trace) for trace in traces]
        keys: List[List[Tuple]] = []
        # key -> its result; ``None`` while pending, and for good if its
        # job fails.
        found: dict = {}
        served: List[Tuple[Tuple, Any]] = []
        pending: List[Cell] = []
        pending_keys: List[Tuple] = []
        resumed = 0
        with telemetry.span("sweep.plan"):
            # One representative cell per distinct un-cached key, in
            # first-seen (config-major) order so results are reproducible
            # cell by cell.  Each distinct key is looked up once, in order:
            # the memo, then this sweep's journal, then the pending list.
            # A memo-served key the journal lacks (typically another
            # sweep's grid extra) is journaled too, so the journal
            # resumes alone.
            for config in configs:
                projection = kind.projection(config)
                keys.append([(fingerprint, projection) for fingerprint in fingerprints])
                for j, key in enumerate(keys[-1]):
                    if key in found:
                        continue
                    cached = kind.peek(key)
                    if cached is not None:
                        found[key] = cached
                        if journal is not None and not journal.holds(kind.name, key):
                            served.append((key, cached))
                        continue
                    if journal is not None:
                        restored = journal.restore(kind.name, key, config)
                        if restored is not None:
                            kind.store(key, restored)
                            found[key] = restored
                            resumed += 1
                            continue
                    found[key] = None
                    pending.append(Cell(
                        len(pending), j, config,
                        cell_signature(kind.name, j, projection),
                    ))
                    pending_keys.append(key)
            jobs, job_keys = kind.plan(pending, pending_keys)

        if journal is not None and served:
            # Already computed, so a machine crash costs only
            # re-derivation: the batch rides the group commit instead of
            # forcing an fsync.
            journal.record_cells(kind.name, served, sync=False)

        def on_result(cell: Cell, result) -> None:
            # Fan every member into the memo cache: the members this
            # sweep asked for materialise below, and a grid job's extras
            # turn later per-cell runs into hits.  Only the *requested*
            # members are journaled -- persisting the speculative extras
            # would grow the journal ~5x on direct-mapped sweeps.  A grid
            # job's batch is fsynced at once (one fsync per pass); a
            # single rides the group commit.
            requested = set(job_keys[cell.cell_id])
            batch = []
            for key, member in kind.members(
                traces[cell.trace_index], cell, result, job_keys[cell.cell_id]
            ):
                kind.store(key, member)
                if key in requested:
                    found[key] = member
                    batch.append((key, member))
            if journal is not None:
                journal.record_cells(kind.name, batch, sync=bool(cell.set_counts))

        outcome = ExecOutcome()
        used_workers, pooled = sweep_workers(workers), False
        if jobs:
            outcome, used_workers, pooled = _run_cells(
                kind, compute, jobs, traces, workers, faults, on_result
            )
        singles = sum(1 for job in jobs if not job.set_counts)
        run_manifest.note_sweep(
            kind=kind.name,
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
        # Surface permanent failures: report them, then raise or degrade.
        if failures is not None:
            failures.extend(outcome.failures)
        run_manifest.note_failures(outcome.failures)
        if outcome.failures and on_failure != "partial":
            for report in outcome.failures:
                if report.exception is not None:
                    raise report.exception
            raise SweepFailure(outcome.failures)
        return [
            [
                None if found[key] is None else kind.read(trace, config, found[key])
                for trace, key in zip(traces, row)
            ]
            for config, row in zip(configs, keys)
        ]
