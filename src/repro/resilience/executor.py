"""Supervised worker pool with per-cell fault isolation.

This is the execution engine under :mod:`repro.core.sweep`.  Unlike a
plain ``multiprocessing.Pool.map`` -- where one worker exception aborts
the whole grid, a hung worker hangs the sweep forever and a SIGKILLed
worker silently loses its tasks -- this executor supervises its workers
explicitly:

* each worker is a dedicated process with its own duplex pipe, so a
  worker death is detected as pipe EOF the moment it happens and only
  that worker's in-flight work is affected;
* failed cells are retried with exponential backoff and jitter up to
  :class:`~repro.resilience.policy.RetryPolicy.max_attempts`;
* a multi-cell chunk that fails is split into single-cell jobs first, so
  one poisoned cell cannot consume innocent neighbours' retry budgets;
* cells exceeding ``REPRO_SWEEP_TIMEOUT`` get their worker killed and
  replaced, and the cell re-queued (a hung worker is unrecoverable by
  any other means);
* cells that exhaust their budget become structured
  :class:`~repro.resilience.policy.FailureReport` records -- the sweep
  degrades to a partial grid instead of losing everything;
* every completed cell is delivered to the caller *as it completes*
  through ``on_result``, which is how the checkpoint journal stays
  current even when the process is later SIGKILLed;
* worker teardown runs in a ``finally``: no aborted sweep leaves orphan
  processes behind.

The serial path (:func:`run_serial`) applies the same retry, fault
injection and validation logic in-process; it cannot preempt a running
cell, so wall-clock timeouts are pooled-only.
"""

from __future__ import annotations

import collections
import os
import signal
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import telemetry
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import FailureReport, RetryPolicy
from repro.sim.config import SystemConfig, format_config
from repro.trace.record import Trace
from repro.trace.store import TraceHandle, export_traces, resolve_traces

#: Supervisor poll interval (seconds): the upper bound on how stale the
#: deadline/liveness checks can be.
_POLL_S = 0.05

#: Headroom added to a job's deadline so dispatch latency is not billed
#: against the cell's own budget.
_DEADLINE_GRACE_S = 0.1

#: How often an idle worker checks whether its supervisor still exists.
_ORPHAN_POLL_S = 0.5


class Cell(NamedTuple):
    """One unit of sweep work, with a scheduling-independent identity."""

    cell_id: int
    trace_index: int
    config: SystemConfig
    #: Stable signature (:func:`repro.resilience.faults.cell_signature`)
    #: used for deterministic fault injection.
    signature: str


@dataclass
class ExecOutcome:
    """What actually happened to a batch of cells.

    Retries, timeouts and worker restarts are counted once, as the
    ``pool.*`` telemetry counters; sweep notes read their deltas.
    """

    #: cell_id -> result, for every cell that completed and validated.
    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[FailureReport] = field(default_factory=list)


@dataclass
class _Job:
    cells: List[Cell]
    attempt: int
    job_id: int = 0


def _evaluate_cell(
    compute: Callable[[Sequence[Trace], Cell], Any],
    traces: Sequence[Trace],
    cell: Cell,
    attempt: int,
    faults: Optional[FaultPlan],
    in_worker: bool,
):
    """Run one cell, applying injected faults around the simulation."""
    if faults is not None:
        faults.inject_before(cell.signature, attempt, in_worker)
    result = compute(traces, cell)
    if faults is not None:
        result = faults.corrupt_after(cell.signature, attempt, result)
    return result


def _worker_main(
    conn,
    trace_handles: Sequence[TraceHandle],
    compute: Callable[[Sequence[Trace], Cell], Any],
    faults: Optional[FaultPlan],
    kind: str = "",
) -> None:
    """Worker process loop: serve jobs until EOF or a ``None`` sentinel.

    Workers receive trace *handles* (:mod:`repro.trace.store`): a store
    path reopens as memmap views, a shared-memory name attaches
    zero-copy, and under ``fork`` a heap trace's inline handle is the
    parent's own arrays, inherited.  Spawning a worker therefore ships
    kilobytes regardless of trace size, pool restarts re-touch no trace
    pages, and the loop is start-method-agnostic (every worker resolves
    handles the same way).

    SIGINT is ignored so a ctrl-C lands only in the supervisor, whose
    ``finally`` then tears the workers down deterministically.  Pipe EOF
    alone cannot be relied on for supervisor death: each fork inherits
    the parent-side ends of every pipe open at spawn time (including its
    own), so a SIGKILLed supervisor leaves the write ends alive inside
    the workers themselves.  The reparenting check catches that case --
    an orphaned worker exits within one poll interval instead of
    lingering forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    telemetry.enter_worker()
    traces = resolve_traces(trace_handles)
    supervisor_pid = os.getppid()
    while True:
        try:
            if not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != supervisor_pid:
                    break  # supervisor died without running cleanup
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, attempt, cells = message
        try:
            with telemetry.span(
                f"worker.{kind or 'job'}", cells=len(cells), attempt=attempt
            ):
                results = [
                    _evaluate_cell(
                        compute, traces, cell, attempt, faults, in_worker=True
                    )
                    for cell in cells
                ]
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            text = traceback_module.format_exc()
            tele = telemetry.drain_worker()
            try:
                conn.send(
                    ("err", job_id, exc, type(exc).__name__, str(exc), text, tele)
                )
            except Exception:
                # The exception itself would not pickle; ship the strings.
                conn.send(
                    ("err", job_id, None, type(exc).__name__, str(exc), text, tele)
                )
            continue
        conn.send(("ok", job_id, results, telemetry.drain_worker()))
    conn.close()


class _WorkerHandle:
    __slots__ = ("process", "conn", "job", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.job: Optional[_Job] = None
        self.deadline: Optional[float] = None


class _Supervisor:
    """Parent-side orchestration of the worker fleet."""

    def __init__(
        self,
        kind: str,
        compute: Callable[[Sequence[Trace], Cell], Any],
        traces: Sequence[Trace],
        trace_handles: Sequence[TraceHandle],
        context,
        workers: int,
        policy: RetryPolicy,
        faults: Optional[FaultPlan],
        validate: Optional[Callable[[Cell, Any], None]],
        on_result: Optional[Callable[[Cell, Any], None]],
    ) -> None:
        self.kind = kind
        self.compute = compute
        # Kept for failure reports (trace names); workers never see these.
        self.traces = list(traces)
        self.trace_handles = list(trace_handles)
        self.context = context
        self.workers = workers
        self.policy = policy
        self.faults = faults
        self.validate = validate
        self.on_result = on_result
        self.outcome = ExecOutcome()
        self.rng = policy.rng()
        self.pending: "collections.deque[_Job]" = collections.deque()
        self.delayed: List[Tuple[float, _Job]] = []
        self.handles: List[_WorkerHandle] = []
        self._next_job_id = 0

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main,
            args=(
                child_conn, self.trace_handles, self.compute, self.faults,
                self.kind,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _shutdown_handle(self, handle: _WorkerHandle, deadline_s: float = 2.0) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=deadline_s)
        if handle.process.is_alive():  # pragma: no cover - stubborn worker
            handle.process.kill()
            handle.process.join(timeout=deadline_s)

    def _respawn(self, handle: _WorkerHandle) -> None:
        self._shutdown_handle(handle)
        replacement = self._spawn()
        handle.process = replacement.process
        handle.conn = replacement.conn
        handle.job = None
        handle.deadline = None
        telemetry.counter_add("pool.restarts")

    def start(self, job_count: int) -> None:
        for _ in range(max(1, min(self.workers, job_count))):
            self.handles.append(self._spawn())

    def close(self) -> None:
        """Terminate and reap every worker (idempotent; runs in finally)."""
        for handle in self.handles:
            self._shutdown_handle(handle)

    # -- scheduling ---------------------------------------------------------

    def submit(self, cells: List[Cell], attempt: int = 0) -> None:
        self.pending.append(_Job(list(cells), attempt))

    def _refill(self, handle: _WorkerHandle) -> None:
        """Hand an idle worker the next pending job, if there is one."""
        if handle.job is None and self.pending:
            job = self.pending.popleft()
            if not self._dispatch(handle, job):
                self.pending.appendleft(job)

    def _dispatch(self, handle: _WorkerHandle, job: _Job) -> bool:
        if not handle.process.is_alive():
            self._respawn(handle)
        job.job_id = self._next_job_id
        self._next_job_id += 1
        try:
            handle.conn.send((job.job_id, job.attempt, job.cells))
        except (BrokenPipeError, OSError):
            self._respawn(handle)
            return False
        handle.job = job
        telemetry.counter_add("pool.jobs")
        if self.policy.cell_timeout_s is not None:
            handle.deadline = (
                time.monotonic()
                + self.policy.cell_timeout_s * len(job.cells)
                + _DEADLINE_GRACE_S
            )
        else:
            handle.deadline = None
        return True

    def _accept(self, job: _Job, cell: Cell, result: Any) -> None:
        if self.validate is not None:
            try:
                self.validate(cell, result)
            except Exception as exc:
                self._job_failed(
                    _Job([cell], job.attempt), "invalid-result", exc=exc
                )
                return
        self.outcome.results[cell.cell_id] = result
        if self.on_result is not None:
            self.on_result(cell, result)

    def _job_failed(
        self,
        job: _Job,
        reason: str,
        exc: Optional[BaseException] = None,
        exception_type: str = "",
        message: str = "",
        traceback_text: str = "",
    ) -> None:
        if len(job.cells) > 1:
            # Isolate first: one poisoned cell must not consume its chunk
            # neighbours' retry budgets, so the chunk re-runs cell by cell
            # at the same attempt number.
            for cell in job.cells:
                self.pending.append(_Job([cell], job.attempt))
            return
        cell = job.cells[0]
        attempts_made = job.attempt + 1
        if attempts_made < self.policy.max_attempts:
            telemetry.counter_add("pool.retries")
            delay = self.policy.backoff_s(attempts_made, self.rng)
            self.delayed.append(
                (time.monotonic() + delay, _Job(job.cells, job.attempt + 1))
            )
            return
        self.outcome.failures.append(
            FailureReport.from_exception(
                kind=self.kind,
                reason=reason,
                trace_index=cell.trace_index,
                trace_name=self.traces[cell.trace_index].name,
                config_text=format_config(cell.config).strip(),
                attempts=attempts_made,
                exc=exc,
                exception_type=exception_type,
                message=message,
                traceback_text=traceback_text,
                cell_id=cell.cell_id,
            )
        )

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        job = handle.job
        handle.job = None
        handle.deadline = None
        tag, job_id = message[0], message[1]
        if job is None or job_id != job.job_id:  # pragma: no cover - stale
            return
        # The worker's next job goes out before this one's results are
        # absorbed, validated and delivered, so it does not wait on them.
        self._refill(handle)
        if tag == "ok":
            _, _, results, tele = message
            telemetry.absorb_worker(tele)
            for cell, result in zip(job.cells, results):
                self._accept(job, cell, result)
        else:
            _, _, exc, exception_type, text, traceback_text, tele = message
            telemetry.absorb_worker(tele)
            self._job_failed(
                job,
                "exception",
                exc=exc,
                exception_type=exception_type,
                message=text,
                traceback_text=traceback_text,
            )

    def _handle_death(self, handle: _WorkerHandle) -> None:
        job = handle.job
        self._respawn(handle)
        if job is not None:
            self._job_failed(
                job,
                "worker-death",
                exception_type="WorkerDied",
                message=(
                    f"worker process died while evaluating "
                    f"{len(job.cells)} cell(s)"
                ),
            )

    def _handle_timeout(self, handle: _WorkerHandle) -> None:
        job = handle.job
        telemetry.counter_add("pool.timeouts")
        self._respawn(handle)
        if job is not None:
            budget = (self.policy.cell_timeout_s or 0.0) * len(job.cells)
            self._job_failed(
                job,
                "timeout",
                exception_type="CellTimeout",
                message=(
                    f"{len(job.cells)} cell(s) exceeded the "
                    f"{budget:.3g}s wall-clock budget; worker killed"
                ),
            )

    # -- the loop -----------------------------------------------------------

    def run(self) -> ExecOutcome:
        while True:
            now = time.monotonic()
            if self.delayed:
                ready = [entry for entry in self.delayed if entry[0] <= now]
                if ready:
                    self.delayed = [e for e in self.delayed if e[0] > now]
                    self.pending.extend(job for _, job in ready)
            busy = [h for h in self.handles if h.job is not None]
            if not self.pending and not self.delayed and not busy:
                break
            for handle in self.handles:
                self._refill(handle)
            busy = {h.conn: h for h in self.handles if h.job is not None}
            if not busy:
                if self.delayed and not self.pending:
                    next_ready = min(entry[0] for entry in self.delayed)
                    time.sleep(min(_POLL_S, max(0.0, next_ready - time.monotonic())))
                continue
            for conn in _connection_wait(list(busy), timeout=_POLL_S):
                handle = busy[conn]
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    self._handle_death(handle)
                else:
                    self._handle_message(handle, message)
            now = time.monotonic()
            for handle in self.handles:
                if handle.job is None:
                    continue
                if handle.deadline is not None and now > handle.deadline:
                    self._handle_timeout(handle)
                elif not handle.process.is_alive():
                    self._handle_death(handle)
        return self.outcome


def _pool_context():
    """The multiprocessing context the sweep pool runs under.

    ``REPRO_SWEEP_CONTEXT`` selects the start method explicitly; unset
    prefers ``fork`` (cheapest, and required by compute callables that
    are not picklable) and falls back to the platform default where fork
    does not exist.  The trace-handle handoff makes the worker loop
    itself correct under any of them.
    """
    import multiprocessing

    from repro.core import envcfg

    method = envcfg.get("REPRO_SWEEP_CONTEXT")
    if method is not None:
        return multiprocessing.get_context(str(method))
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def run_pooled(
    kind: str,
    compute: Callable[[Sequence[Trace], Cell], Any],
    chunks: Sequence[Sequence[Cell]],
    traces: Sequence[Trace],
    workers: int,
    policy: RetryPolicy,
    faults: Optional[FaultPlan] = None,
    validate: Optional[Callable[[Cell, Any], None]] = None,
    on_result: Optional[Callable[[Cell, Any], None]] = None,
) -> Optional[ExecOutcome]:
    """Evaluate ``chunks`` of cells over a supervised worker pool.

    Traces are exported to zero-copy handles once per call
    (:func:`repro.trace.store.export_traces`): store-backed traces ship
    as paths.  Forked workers -- including every respawn after a death,
    hang or kill -- inherit heap traces' arrays as they are; under spawn
    or forkserver, heap traces ship as shared-memory segments owned by
    this process until the pool is done.

    Returns ``None`` when worker processes cannot be created at all (a
    sandbox forbidding process creation, say); the caller falls back to
    :func:`run_serial` with identical results.  Everything else --
    worker exceptions, hangs, deaths, invalid results -- is handled per
    cell and reported in the :class:`ExecOutcome`.
    """
    context = _pool_context()
    jobs = [list(chunk) for chunk in chunks if chunk]
    trace_handles, lease = export_traces(
        traces, inherited=context.get_start_method() == "fork"
    )
    supervisor = _Supervisor(
        kind, compute, traces, trace_handles, context, workers, policy,
        faults, validate, on_result,
    )
    try:
        supervisor.start(len(jobs))
    except (AttributeError, OSError, ValueError, ImportError, PermissionError):
        supervisor.close()
        lease.release()
        return None
    try:
        with telemetry.span(
            "pool.run", kind=kind, workers=workers, jobs=len(jobs)
        ):
            for job_cells in jobs:
                supervisor.submit(job_cells)
            return supervisor.run()
    finally:
        # Pool hygiene: a KeyboardInterrupt (or any exception) mid-sweep
        # must not leak worker processes or shared-memory segments.
        supervisor.close()
        lease.release()


def run_serial(
    kind: str,
    compute: Callable[[Sequence[Trace], Cell], Any],
    cells: Sequence[Cell],
    traces: Sequence[Trace],
    policy: RetryPolicy,
    faults: Optional[FaultPlan] = None,
    validate: Optional[Callable[[Cell, Any], None]] = None,
    on_result: Optional[Callable[[Cell, Any], None]] = None,
) -> ExecOutcome:
    """The in-process twin of :func:`run_pooled`.

    Same retries, fault injection, validation and streaming delivery; no
    wall-clock preemption (a serial cell cannot be killed from outside).
    """
    outcome = ExecOutcome()
    rng = policy.rng()
    with telemetry.span("serial.run", kind=kind, cells=len(cells)):
        _run_serial_cells(
            kind, compute, cells, traces, policy, faults, validate,
            on_result, outcome, rng,
        )
    return outcome


def _run_serial_cells(
    kind: str,
    compute: Callable[[Sequence[Trace], Cell], Any],
    cells: Sequence[Cell],
    traces: Sequence[Trace],
    policy: RetryPolicy,
    faults: Optional[FaultPlan],
    validate: Optional[Callable[[Cell, Any], None]],
    on_result: Optional[Callable[[Cell, Any], None]],
    outcome: ExecOutcome,
    rng: Any,
) -> None:
    for cell in cells:
        attempt = 0
        while True:
            reason = "exception"
            try:
                result = _evaluate_cell(
                    compute, traces, cell, attempt, faults, in_worker=False
                )
                if validate is not None:
                    reason = "invalid-result"
                    validate(cell, result)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                attempts_made = attempt + 1
                if attempts_made < policy.max_attempts:
                    telemetry.counter_add("pool.retries")
                    time.sleep(policy.backoff_s(attempts_made, rng))
                    attempt += 1
                    continue
                outcome.failures.append(
                    FailureReport.from_exception(
                        kind=kind,
                        reason=reason,
                        trace_index=cell.trace_index,
                        trace_name=traces[cell.trace_index].name,
                        config_text=format_config(cell.config).strip(),
                        attempts=attempts_made,
                        exc=exc,
                        cell_id=cell.cell_id,
                    )
                )
                break
            outcome.results[cell.cell_id] = result
            if on_result is not None:
                on_result(cell, result)
            break
