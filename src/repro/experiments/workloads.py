"""The synthetic stand-in for the paper's eight multiprogramming traces.

The paper drives every experiment with eight large traces: four ATUM VAX
traces with operating-system references (three VMS, one Ultrix) and four
randomly interleaved MIPS R2000 uniprocessor traces (section 2).  Those are
proprietary; :func:`paper_trace_suite` builds eight synthetic equivalents:

* four "vms-like" mixes (three processes plus a shared kernel workload
  injected at every context switch), and
* four "interleaved" mixes (four processes, no kernel activity),

with context-switch intervals in the ATUM range and locality calibrated to
the paper's own characterisation of its traces (L1 4 KB global read miss
ratio near 10%, solo miss ratio falling ~0.69x per size doubling; see
DESIGN.md section 2).

Scaling knobs (environment variables, read at suite-build time):

* ``REPRO_RECORDS`` -- records per trace (default 250000);
* ``REPRO_TRACES`` -- number of traces, up to 8 (default 4 to keep the
  benchmark suite laptop-friendly; set 8 for the full paper suite);
* ``REPRO_TRACE_CACHE`` -- directory for on-disk trace caching.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path
from typing import Dict, List, Optional

from repro import telemetry
from repro.core import envcfg
from repro.trace.instr import InstructionStreamGenerator
from repro.trace.multiprogram import MultiprogramScheduler, ProcessSpec
from repro.trace.record import Trace
from repro.trace.store import (
    STORE_PATH_SLOT,
    STORE_SUFFIX,
    StoreCorruptError,
    TraceStore,
)
from repro.trace.synthetic import StackDistanceGenerator
from repro.trace.warmup import warmup_boundary
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

log = logging.getLogger("repro.experiments.workloads")

#: Default records per trace (override with REPRO_RECORDS); the
#: authoritative default lives in the envcfg registry.
DEFAULT_RECORDS = envcfg.var("REPRO_RECORDS").default
#: Default number of traces (override with REPRO_TRACES, max 8).
DEFAULT_TRACES = envcfg.var("REPRO_TRACES").default

#: Mean context-switch interval in references (ATUM-era quantum).
SWITCH_INTERVAL = 15_000

#: In-memory cache so repeated experiments share the same suite.
_memory_cache: Dict[str, List[Trace]] = {}


def _records() -> int:
    return envcfg.get("REPRO_RECORDS")


def _trace_count() -> int:
    return max(1, min(8, envcfg.get("REPRO_TRACES")))


def _process_workload(seed: int, address_base: int) -> SyntheticWorkload:
    """One process, calibrated for the paper's L1 behaviour.

    The instruction side concentrates fetches in a hot-function set small
    enough that a 2 KB L1I works but a large cold code footprint keeps the
    L2 busy; the data side pairs the paper-calibrated Pareto stack
    distances with a fresh-block stream that grows the footprint into the
    multi-megabyte range the Figure 3/4 sweeps need.
    """
    data = StackDistanceGenerator(
        block_bytes=16,
        address_base=address_base + (1 << 32),
        new_block_fraction=0.008,
        seed=seed + 1,
    )
    instructions = InstructionStreamGenerator(
        function_count=4096,
        function_words=64,
        zipf_alpha=1.8,
        mean_run_length=24.0,
        address_base=address_base,
        seed=seed + 2,
    )
    return SyntheticWorkload(
        data=data,
        instructions=instructions,
        data_ref_fraction=0.5,
        data_read_fraction=0.65,
        seed=seed,
    )


def _kernel_workload(seed: int) -> SyntheticWorkload:
    """Shared operating-system activity for the vms-like traces."""
    base = 0xF << 44
    data = StackDistanceGenerator(
        block_bytes=16,
        address_base=base + (1 << 32),
        new_block_fraction=0.02,
        seed=seed + 1,
    )
    instructions = InstructionStreamGenerator(
        function_count=2048,
        function_words=96,
        zipf_alpha=1.3,
        mean_run_length=12.0,
        address_base=base,
        seed=seed + 2,
    )
    return SyntheticWorkload(data=data, instructions=instructions, seed=seed)


def build_trace(name: str, index: int, records: int, kernel: bool) -> Trace:
    """Build one multiprogramming trace.

    ``kernel=True`` produces a "vms-like" trace (OS bursts at context
    switches); ``False`` an "interleaved" one.  Each build is one
    ``trace.build`` telemetry span.
    """
    with telemetry.span("trace.build", records=records, kernel=kernel):
        seed_base = 10_000 * (index + 1)
        process_count = 3 if kernel else 4
        processes = [
            ProcessSpec(
                name=f"{name}-p{p}",
                workload=_process_workload(
                    seed=seed_base + 100 * p, address_base=(p + 1) << 44
                ),
            )
            for p in range(process_count)
        ]
        scheduler = MultiprogramScheduler(
            processes,
            switch_interval=SWITCH_INTERVAL,
            kernel=_kernel_workload(seed_base + 7) if kernel else None,
            kernel_burst=600,
            seed=seed_base + 13,
        )
        trace = scheduler.trace(records, name=name)
        trace.warmup = warmup_boundary(trace, largest_cache_bytes=256 * KB)
    return trace


def trace_cache_dir() -> Optional[Path]:
    """The on-disk trace cache directory, or ``None`` when caching is off.

    Public so ``mlcache doctor`` can include the cache in its default
    scan roots.
    """
    path = envcfg.get("REPRO_TRACE_CACHE")
    if not path:
        return None
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _open_cached(path: Path, legacy: Path) -> Optional[Trace]:
    """The cached store at ``path`` as a memmap-backed trace, or ``None``
    when the entry is absent or unusable (a cache *miss*, never a crash).

    Corruption -- torn header, digest mismatch under
    ``REPRO_STORE_VERIFY`` -- quarantines the file (preserving the
    evidence, freeing the path) and rebuilds.  A missing entry falls
    back to a legacy ``.npz`` migration when one exists.
    """
    verify = bool(envcfg.get("REPRO_STORE_VERIFY"))
    try:
        return TraceStore.open(path, verify=verify).as_trace()
    except FileNotFoundError:
        pass
    except StoreCorruptError as error:
        from repro.resilience.integrity import quarantine

        quarantine(path, str(error))
        log.warning(
            "trace-cache-corrupt path=%s action=quarantine-and-rebuild "
            "reason=%s", path, error,
        )
    if legacy.exists():
        # Migrate pre-store caches: one load, then memmaps forever.
        try:
            TraceStore.save(Trace.load(legacy), path)
            return TraceStore.open(path, verify=verify).as_trace()
        except (OSError, ValueError) as error:
            from repro.resilience.integrity import quarantine

            quarantine(legacy, f"legacy cache migration failed: {error}")
            log.warning(
                "trace-cache-legacy-corrupt path=%s action=quarantine-"
                "and-rebuild reason=%s", legacy, error,
            )
    return None


def _publish(trace: Trace, path: Path) -> Trace:
    """Save a freshly built trace into the cache; degrade on failure.

    A failed save (disk full, injected disk fault) logs and returns the
    heap trace unchanged -- the sweep proceeds uncached rather than
    aborting, and the atomic-write primitive guarantees the failure left
    no partial store behind at ``path``.  The reopen re-verifies under
    ``REPRO_STORE_VERIFY``: the header digests were hashed from the
    in-memory arrays *before* the bytes hit disk, so corruption during
    the write itself (an injected ``bitflip``, real controller trouble)
    is caught here, quarantined, and the sweep falls back to the known-
    good heap trace instead of silently reading poisoned records.
    """
    from repro.resilience.faults import InjectedFault
    from repro.resilience.integrity import quarantine

    verify = bool(envcfg.get("REPRO_STORE_VERIFY"))
    try:
        TraceStore.save(trace, path)
        # Hand back the memmap-backed view rather than the heap trace:
        # the suite then opens O(1) and exports to workers as a path.
        return TraceStore.open(path, verify=verify).as_trace()
    except StoreCorruptError as error:
        quarantine(path, f"corrupted during publish: {error}")
        log.warning(
            "trace-cache-publish-corrupt path=%s action=quarantine-and-"
            "degrade-to-heap reason=%s", path, error,
        )
        return trace
    except (OSError, InjectedFault) as error:
        log.warning(
            "trace-cache-save-failed path=%s action=degrade-to-heap "
            "reason=%s", path, error,
        )
        return trace


def _store_backed_ok(trace: Trace) -> bool:
    """Whether a cached suite trace's backing store file still exists."""
    path = trace.metadata.get(STORE_PATH_SLOT)
    return path is None or Path(path).is_file()


def paper_trace_suite(
    records: Optional[int] = None, count: Optional[int] = None
) -> List[Trace]:
    """The eight-trace stand-in suite (or the first ``count`` of them).

    Traces alternate vms-like and interleaved so any prefix stays mixed.
    Suites are cached in memory and, when ``REPRO_TRACE_CACHE`` is set, on
    disk keyed by the generation parameters.  The disk cache is safe to
    share between concurrent sweeps: each entry is built under an
    advisory lock (waiters reuse the winner's store), corrupt entries
    quarantine and rebuild, and a store file deleted out from under a
    cached suite -- e.g. between a journaled run and its resume -- is
    re-derived from the deterministic generator with a warning instead
    of aborting the sweep.
    """
    records = records if records is not None else _records()
    count = count if count is not None else _trace_count()
    key = f"v1-{records}-{count}"
    if key in _memory_cache:
        cached = _memory_cache[key]
        if all(_store_backed_ok(trace) for trace in cached):
            return cached
        # Generation is deterministic by (records, name), so the rebuilt
        # store is byte-identical and journal/memo keys still match.
        log.warning(
            "trace-suite-store-missing key=%s action=re-derive "
            "reason=backing store file deleted; rebuilding from the "
            "workload generator", key,
        )
        del _memory_cache[key]
    disk = trace_cache_dir()
    traces = []
    for i in range(count):
        kernel = i % 2 == 0
        kind = "vms" if kernel else "mix"
        name = f"{kind}{i}"
        if disk is None:
            traces.append(
                build_trace(name, index=i, records=records, kernel=kernel)
            )
            continue
        digest = hashlib.sha256(f"{key}-{name}".encode()).hexdigest()[:16]
        path = disk / f"trace-{digest}{STORE_SUFFIX}"
        # One builder per entry: concurrent sweeps sharing a cache dir
        # serialise on the entry's lock, so the loser of the race waits
        # (up to REPRO_LOCK_TIMEOUT_S) and then *opens* the winner's
        # store instead of racing a second build of the same bytes.
        from repro.resilience.integrity import AdvisoryLock

        lock = AdvisoryLock(
            path.with_name(path.name + ".lock"), name=f"trace-cache:{name}"
        )
        lock.acquire(timeout_s=float(envcfg.get("REPRO_LOCK_TIMEOUT_S")))
        try:
            trace = _open_cached(path, legacy=disk / f"trace-{digest}.npz")
            if trace is None:
                trace = _publish(
                    build_trace(name, index=i, records=records, kernel=kernel),
                    path,
                )
        finally:
            lock.release()
        traces.append(trace)
    _memory_cache[key] = traces
    return traces
