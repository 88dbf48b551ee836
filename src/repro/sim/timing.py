"""Nanosecond-resolution execution-time simulation.

This is the measurement engine behind the paper's sections 4 and 5: it
tracks time through the whole hierarchy -- cache cycle times, write-buffer
drains, bus transfers and DRAM recovery -- and reports total execution time
and its decomposition.

Machine model (paper, section 2)
--------------------------------

* The CPU executes one instruction fetch and at most one data access per
  non-stall cycle; total time = cycles * cycle time, where the cycle count
  is the number of instruction fetches plus stall cycles.
* A read that hits in L1 costs nothing beyond the base cycle.  A read that
  misses stalls the CPU until the whole L1 block arrives; if it hits in L2
  that takes one L2 cycle (the 4-word bus returns the block within it), the
  nominal 3-CPU-cycle penalty of the base machine.
* An L2 miss stalls the CPU until the entire L2 block arrives from memory:
  one backplane cycle for the address, the DRAM read, and two backplane
  data cycles -- 270 ns nominally, more when the DRAM recovery window or
  pending write traffic intervenes.
* Write hits occupy the data cache for ``write_hit_cycles``; the CPU does
  not stall unless the next data access arrives while the cache is busy.
* Dirty victims are pushed into the 4-entry inter-level write buffers and
  drain while the downstream level is idle.  A full buffer stalls the miss
  that caused the eviction; a read matching a buffered entry drains the
  buffer up to the match first.

Modelling approximations (documented in docs/timing-model.md): buffered
writes are applied to the downstream cache *functionally* at push time
(their timing cost is paid at drain time); the drain service time of the
memory-side buffer folds in the DRAM write and recovery windows rather than
re-entering the DRAM state machine; prefetch fills, the dirty victims they
evict on hits, and inclusion back-invalidations change state but cost no
time.

The cache-state rules live in :class:`~repro.sim.hierarchy.CacheHierarchy`
alone.  The reference engine times the demand part of each outcome and
applies every state-only change through the hierarchy, so its counts equal
:class:`~repro.sim.functional.FunctionalSimulator`'s on every
configuration.  Runs the vectorised front replays in full -- write-back
or write-allocate write-through levels -- take the event-sparse engine
instead, which times only L1 misses and a write-through L1's stores and
reproduces the reference field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.audit import maybe_audit_timing
from repro.cache.policy import WritePolicy
from repro.cache.stats import CacheStats
from repro.cache.write_buffer import WriteBuffer
from repro.memory.bus import Bus
from repro.memory.main_memory import MainMemory
from repro.sim import memo
from repro.sim.config import SystemConfig
from repro.sim.fast import _Front, fast_eligible, memory_traffic, trace_eligible
from repro.sim.functional import measured_cpu_counts
from repro.sim.hierarchy import CacheHierarchy
from repro.trace.record import IFETCH, READ, WRITE, Trace
from repro.units import log2_int


@dataclass
class TimingResult:
    """Execution-time measurement for one trace on one machine."""

    trace_name: str
    config: SystemConfig
    #: Post-warmup counts.
    instructions: int
    cpu_reads: int
    cpu_writes: int
    #: Total simulated time (ns) for the measured region, including the
    #: end-of-trace drain of the inter-level write buffers.
    total_ns: float
    #: Stall decomposition in nanoseconds.  ``total_ns`` is exactly
    #: ``base_ns + read_stall_ns + write_stall_ns`` (audited in
    #: :mod:`repro.audit.invariants`); the end-of-trace buffer drain is
    #: folded into ``write_stall_ns``.
    read_stall_ns: float
    write_stall_ns: float
    level_stats: List[CacheStats]
    memory_reads: int
    memory_writes: int
    #: Write-buffer statistics per boundary (L1->L2 first).
    buffer_full_stalls: List[int]
    buffer_read_matches: List[int]
    #: Non-stall time (ns): instruction-fetch base cycles plus data-read
    #: hit costs.  Kept last with a default so older call sites that build
    #: results positionally keep working.
    base_ns: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Total CPU cycles (time over the CPU cycle time)."""
        return self.total_ns / self.config.cpu.cycle_ns

    @property
    def cycles_per_instruction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.total_cycles / self.instructions

    def global_read_miss_ratio(self, level: int) -> float:
        """Misses at ``level`` (1-based) over CPU reads (paper, section 2)."""
        if not 1 <= level <= len(self.level_stats):
            raise ValueError(
                f"level must be in 1..{len(self.level_stats)}, got {level}"
            )
        if self.cpu_reads == 0:
            return 0.0
        return self.level_stats[level - 1].read_misses / self.cpu_reads

    def relative_to(self, reference: "TimingResult") -> float:
        """Execution time relative to ``reference`` (same trace)."""
        if reference.total_ns == 0:
            raise ValueError("reference execution time is zero")
        return self.total_ns / reference.total_ns


class TimingSimulator:
    """Trace-driven timing simulation of a configured machine.

    Dispatches to the event-sparse engine when :func:`event_eligible`
    holds and to the per-record reference engine otherwise; the two
    produce identical results on every eligible run
    (``tests/sim/test_timing_events.py``).
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def run(self, trace: Trace) -> TimingResult:
        if event_eligible(self.config, trace):
            return _EventEngine(self.config).run(trace)
        return _TimingEngine(self.config).run(trace)


def simulate_execution_time(trace: Trace, config: SystemConfig) -> TimingResult:
    """One-shot convenience wrapper around :class:`TimingSimulator`."""
    return TimingSimulator(config).run(trace)


def _integral_ns(config: SystemConfig) -> bool:
    """True when every time the engines charge is a whole number of ns.

    Every charge is a sum or integer multiple of these base times, so
    integer arithmetic then reproduces the reference's float64 sums
    exactly.
    """
    times = [
        config.cpu.cycle_ns,
        config.effective_backplane_ns,
        config.memory.read_ns,
        config.memory.write_ns,
        config.memory.recovery_ns,
    ]
    times.extend(config.level_cycle_ns(i) for i in range(config.depth))
    return all(float(t).is_integer() for t in times)


def event_eligible(config: SystemConfig, trace: Trace) -> bool:
    """True when the event-sparse engine reproduces the reference exactly.

    The configuration must be on the vectorised functional path, a
    write-allocate write-through level included (its cache outcomes then
    come from :class:`repro.sim.fast._Front`),
    the trace must fit its signed 64-bit arithmetic, and every charge
    must be a whole number of nanoseconds (docs/timing-model.md).
    """
    return (
        fast_eligible(config) and _integral_ns(config) and trace_eligible(trace)
    )


class _TimingState:
    """The time side of one run: buffers, busses, DRAM and the clocks.

    Both engines drive the same :class:`WriteBuffer`, :class:`Bus` and
    :class:`MainMemory` objects through the same calls; they differ only
    in where cache outcomes come from.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.cpu_cycle = config.cpu.cycle_ns
        depth = config.depth
        #: Cycle time (ns) per configured level.
        self.level_cycle = [config.level_cycle_ns(i) for i in range(depth)]
        #: Block size per configured level.
        self.level_block = [config.levels[i].block_bytes for i in range(depth)]
        #: Busy-until time for each lower level (demand service occupancy).
        self.level_busy = [0.0] * (depth - 1)
        # The backplane runs at the deepest cache's cycle time unless the
        # configuration pins it (the paper's sweeps hold the memory access
        # portion of the miss penalty constant).
        self.memory_bus = Bus(
            width_words=config.bus_width_words,
            cycle_ns=config.effective_backplane_ns,
        )
        self.memory = MainMemory(config.memory)
        # Every memory transfer moves one deepest-level block.
        self._address_ns = self.memory_bus.address_time()
        self._memory_data_ns = self.memory_bus.data_time(self.level_block[-1])
        # buffers[i] sits between level i and level i+1 (0-based); the last
        # buffer feeds main memory.
        self.buffers: List[WriteBuffer] = []
        for i in range(depth):
            if i + 1 < depth:
                service = (
                    config.levels[i + 1].write_hit_cycles * self.level_cycle[i + 1]
                )
                downstream_block = self.level_block[i + 1]
            else:
                service = (
                    config.memory.write_ns
                    + config.memory.recovery_ns
                    + self._memory_data_ns
                )
                downstream_block = self.level_block[i]
            self.buffers.append(
                WriteBuffer(
                    capacity=config.write_buffer_entries,
                    service_time=service,
                    downstream_block=downstream_block,
                )
            )
        # Per-reference hit costs.  The base machine's split L1 cycles at
        # the CPU rate, so an instruction fetch costs one CPU cycle and a
        # data read hit is free (it shares the cycle).  For a single-level
        # system whose only cache is slower than the CPU -- the paper's
        # "equivalent single-level cache" comparisons -- every fetch costs
        # a full cache cycle, and on a unified cache a data access occupies
        # the single port for another cache cycle.
        l1_cycle = self.level_cycle[0]
        self.ifetch_cost = max(self.cpu_cycle, l1_cycle)
        if config.levels[0].split or l1_cycle <= self.cpu_cycle:
            self.data_hit_cost = max(0.0, l1_cycle - self.cpu_cycle)
        else:
            self.data_hit_cost = l1_cycle
        # Time the D-cache finishes a multi-cycle write hit and can accept
        # the next data access.
        self.dcache_free_at = float("-inf")
        self.now = 0.0
        #: Non-stall time: ifetch base cycles plus data-read hit costs.
        self.base = 0.0
        self.read_stall = 0.0
        self.write_stall = 0.0

    def _drain_buffers(self) -> None:
        """Charge the end-of-trace drain of the write buffers.

        Writes already pushed are committed work, and the trace's
        execution is not complete until they have retired downstream.
        The buffers drain concurrently (each feeds a different level), so
        the cost is the latest completion, folded into the write-stall
        component.
        """
        drained = self.now
        for buffer in self.buffers:
            drained = max(drained, buffer.flush(self.now))
        if drained > self.now:
            self.write_stall += drained - self.now
            self.now = drained

    def _result(
        self,
        trace: Trace,
        level_stats: List[CacheStats],
        memory_reads: int,
        memory_writes: int,
    ) -> TimingResult:
        cpu_reads, cpu_writes, instructions = measured_cpu_counts(trace)
        result = TimingResult(
            trace_name=trace.name,
            config=self.config,
            instructions=instructions,
            cpu_reads=cpu_reads,
            cpu_writes=cpu_writes,
            total_ns=self.now,
            read_stall_ns=self.read_stall,
            write_stall_ns=self.write_stall,
            level_stats=level_stats,
            memory_reads=memory_reads,
            memory_writes=memory_writes,
            buffer_full_stalls=[b.full_stalls for b in self.buffers],
            buffer_read_matches=[b.read_matches for b in self.buffers],
            base_ns=self.base,
        )
        return maybe_audit_timing(trace, result)

    def _memory_read(self, now: float) -> float:
        """Address cycle, DRAM read, data transfer back: the backplane is
        held from the address cycle until the block has arrived."""
        bus = self.memory_bus
        done = self.memory.read(bus.acquire(now, self._address_ns))
        done += self._memory_data_ns
        bus.busy_until = done
        return done


class _TimingEngine(_TimingState):
    """The reference engine: every record steps through ``Cache`` objects.

    Covers every configuration; the event engine is checked against it.
    It times the demand part of each outcome and applies every state-only
    change through its :class:`CacheHierarchy`, so its counts are those of
    :class:`~repro.sim.functional.FunctionalSimulator`.
    """

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self.hierarchy = CacheHierarchy(config)

    # -- top level -----------------------------------------------------------

    def run(self, trace: Trace) -> TimingResult:
        hierarchy = self.hierarchy
        icache = hierarchy.icache
        dcache = hierarchy.dcache
        for kind, address in hierarchy.warm(trace):
            if kind == IFETCH:
                self.now += self.ifetch_cost
                self.base += self.ifetch_cost
                cache = icache if icache is not None else dcache
                outcome = cache.read(address)
                if not outcome.hit:
                    done = self._service_miss(outcome, self.now, for_write=False)
                    self.read_stall += done - self.now
                    self.now = done
                elif outcome.prefetched:
                    # A hit's only traffic is prefetch fills and the dirty
                    # victims they evict: state-only (approximation 3).
                    hierarchy.propagate(0, outcome, "read")
            elif kind == WRITE:
                self._do_write(address)
            else:
                self._do_read(address)
        self._drain_buffers()
        return self._result(
            trace,
            hierarchy.level_stats(),
            hierarchy.memory_traffic.reads,
            hierarchy.memory_traffic.writes,
        )

    # -- CPU-side data accesses ------------------------------------------------

    def _wait_for_dcache(self) -> None:
        """Stall if a multi-cycle write still occupies the D-cache.

        A data access belongs to the cycle that started one CPU cycle before
        ``now`` (``now`` marks cycle ends), so the comparison is against the
        cycle start.
        """
        cycle_start = self.now - self.cpu_cycle
        if self.dcache_free_at > cycle_start:
            wait = self.dcache_free_at - cycle_start
            self.write_stall += wait
            self.now += wait

    def _do_read(self, address: int) -> None:
        self._wait_for_dcache()
        outcome = self.hierarchy.dcache.read(address)
        if outcome.hit:
            self.now += self.data_hit_cost
            self.base += self.data_hit_cost
            if outcome.prefetched:
                self.hierarchy.propagate(0, outcome, "read")
        else:
            done = self._service_miss(outcome, self.now, for_write=False)
            self.read_stall += done - self.now
            self.now = done

    def _do_write(self, address: int) -> None:
        self._wait_for_dcache()
        dcache = self.hierarchy.dcache
        outcome = dcache.write(address)
        if not outcome.hit and outcome.fetched:
            # Fetch-on-write: the CPU stalls for the allocation.
            done = self._service_miss(outcome, self.now, for_write=True)
            self.write_stall += done - self.now
            self.now = done
        elif outcome.writebacks or outcome.forwarded_write is not None:
            done = self._service_miss(outcome, self.now, for_write=True)
            if done > self.now:
                self.write_stall += done - self.now
                self.now = done
        if dcache.write_policy.value == "write-back":
            # The write occupies the D-cache for write_hit_cycles starting
            # at its own cycle's start.
            cycle_start = self.now - self.cpu_cycle
            occupancy = self.config.levels[0].write_hit_cycles * self.cpu_cycle
            self.dcache_free_at = cycle_start + occupancy

    # -- miss service ------------------------------------------------------------

    def _service_miss(self, outcome, now: float, for_write: bool) -> float:
        """Charge the downstream consequences of a level-1 outcome.

        Returns the completion time of the demand transfer.
        """
        done = now
        done = max(done, self._push_writebacks(0, outcome.writebacks, now))
        for fetched in outcome.fetched:
            done = max(done, self._read_block(1, fetched, now, for_write))
        self.hierarchy.settle(0, outcome)
        if outcome.forwarded_write is not None:
            done = max(done, self._write_block(1, outcome.forwarded_write, now))
        return done

    def _push_writebacks(self, boundary: int, victims, now: float) -> float:
        """Push victim blocks into the buffer at ``boundary``.

        Functionally applies the writes downstream immediately; the buffer
        carries the timing.  Returns when the processor-side push completes
        (later than ``now`` only when the buffer is full).
        """
        done = now
        buffer = self.buffers[boundary]
        align = buffer.downstream_block - 1
        for victim in victims:
            done = max(done, buffer.push(victim & ~align, now))
            self.hierarchy.write(boundary + 1, victim)
        return done

    def _read_block(
        self, level_index: int, address: int, now: float, for_write: bool
    ) -> float:
        """Fetch one upstream block through level ``level_index`` (0-based
        into ``config.levels``); returns the completion time."""
        bucket = "write" if for_write else "read"
        boundary = level_index - 1  # buffer feeding this level
        buffer = self.buffers[boundary]
        fence = buffer.read_fence(address & ~(buffer.downstream_block - 1), now)
        cache = self.hierarchy.cache_at(level_index)
        if cache is None:
            # Straight to main memory.
            self.hierarchy.read(level_index, address, bucket)
            return self._memory_read(fence)
        start = max(fence, self.level_busy[boundary])
        outcome = cache.read(address, bucket)
        if outcome.hit:
            done = start + self.level_cycle[level_index]
            self.hierarchy.propagate(level_index, outcome, bucket)
        else:
            done = max(
                start, self._push_writebacks(level_index, outcome.writebacks, start)
            )
            for fetched in outcome.fetched:
                done = max(
                    done, self._read_block(level_index + 1, fetched, start, for_write)
                )
            self.hierarchy.settle(level_index, outcome)
        self.level_busy[boundary] = done
        buffer.block_until(done)
        return done

    def _write_block(self, level_index: int, address: int, now: float) -> float:
        """A forwarded (write-through) word write heading downstream: goes
        through the write buffer at the upstream boundary.  Returns the push
        completion time (> ``now`` only when the buffer is full)."""
        boundary = level_index - 1
        buffer = self.buffers[boundary]
        done = buffer.push(address & ~(buffer.downstream_block - 1), now)
        self.hierarchy.write(level_index, address)
        return done


def plan_projection(config: SystemConfig) -> Tuple:
    """What an L1 event plan depends on besides the trace.

    The first level's functional projection (its output stream, misses
    and victims), the CPU-side costs (the CPU cycle, the L1 cycle in CPU
    cycles and its write-hit occupancy, which set the base costs and the
    occupancy windows; the L1 write policy rides in the projection), and
    the block size of the level below the first, which aligns the fences,
    victims and forwarded stores of the L1->L2 buffer (a one-level
    machine's buffer feeds memory at the L1's own block size).
    """
    first = config.levels[0]
    below = config.levels[1] if config.depth > 1 else first
    return (
        memo.level_projection(first),
        config.cpu.cycle_ns,
        first.cycle_cpu_cycles,
        first.write_hit_cycles,
        below.block_bytes,
    )


class _Slot:
    """A one-entry cache: the last value built, under its key.

    Values are pure functions of their keys, so reuse never changes a
    result; one entry suffices because the sweep planner hands a worker
    each plan group's cells together.
    """

    def __init__(self, counter: str) -> None:
        self.counter = counter
        self.key: Optional[Tuple] = None
        self.value = None

    def get(self, key: Tuple, build: Callable[[], Any]) -> Any:
        if self.key != key:
            self.key, self.value = None, None  # free the old value first
            self.value = build()
            self.key = key
            telemetry.counter_add(self.counter)
        return self.value

    def clear(self) -> None:
        self.key, self.value = None, None


#: The last L1 plan (:class:`_L1Plan`) and the last levels-below part
#: (:class:`_LowerLevels`) the event engine built in this process.
_plans = _Slot("timing.plans")
_lower = _Slot("timing.parts")


def clear_plan_cache() -> None:
    """Drop the cached L1 plan and levels-below part (tests, benchmarks)."""
    _plans.clear()
    _lower.clear()


def _chain(
    entry: Tuple,
    level: int,
    misses: np.ndarray,
    addresses: np.ndarray,
    align: np.int64,
    offset: int,
) -> Tuple[List[int], List[int]]:
    """One level's share of the demand chain of each measured L1 miss.

    ``entry`` is the level's ``_Front`` trail.  Returns per miss (sorted
    record indices ``misses``): the dirty victim the level pushes into
    the buffer below it (``-1`` for none) and the address that buffer's
    read fence compares, both aligned with ``align`` to the block below.
    Level-d demand events carry order keys ``r * 4**d + 2 * (4**d - 1) /
    3``; the victims of a buffered write's allocation below L1 have
    other keys and stay state-only.
    """
    _, _, victims, victim_keys = entry
    scale = 4**level
    pushed = victim_keys % scale == 2 * (scale - 1) // 3
    pushes = np.full(len(misses), -1, dtype=np.int64)
    _scatter(
        pushes, misses, victim_keys[pushed] // scale,
        (victims[pushed] << offset) & align,
    )
    return pushes.tolist(), (addresses & align).tolist()


class _L1Plan:
    """The first level's share of an event-sparse run.

    What the L1 sends down does not depend on the levels below it, so
    everything here is a function of the trace and
    :func:`plan_projection` alone: the level-1 replay and its
    statistics, the stream it sends level 2, the measured-miss index
    with the first boundary's victims and fences, and the event loop's
    per-point inputs -- the base-cost prefix sums and the occupancy
    waits between points.  Cells that share it replay only the levels
    below it (:class:`_LowerLevels`) and run the event loop.
    """

    def __init__(self, trace: Trace, engine: "_EventEngine") -> None:
        config = engine.config
        n = len(trace)
        warmup = trace.warmup
        kinds = trace.kinds
        trail: List[Tuple] = []
        front = _Front(trace, config, 1)
        [self.stream] = next(front.streams(trail))
        [self.stats] = front.level_stats
        keys, miss, _, _ = trail[0]
        misses = np.sort(keys[miss])
        #: Sorted record indices of the measured L1 misses.
        self.misses = misses = misses[np.searchsorted(misses, warmup):]
        #: Their addresses, which every boundary's fence compares.
        self.addresses = trace.addresses[misses].astype(np.int64)
        buffer = engine.buffers[0]
        align = ~np.int64(buffer.downstream_block - 1)
        self.victims, self.fences = _chain(
            trail[0], 0, misses, self.addresses, align,
            log2_int(engine.level_block[0]),
        )
        del trail, keys, miss

        # base[i]: non-stall time of the measured records before record i.
        base = np.zeros(n + 1, dtype=np.int64)
        cost = base[1:]
        cost[kinds == IFETCH] = int(engine.ifetch_cost)
        cost[kinds == READ] = int(engine.data_hit_cost)
        cost[misses[kinds[misses] == READ]] = 0  # a read miss pays its stall
        cost[:warmup] = 0
        np.cumsum(base, out=base)

        # Write-hit occupancy: a data access waits out the rest of the
        # previous data access's occupancy window if that was a measured
        # write.  The gap is the time of the fetches between the two.
        data = np.flatnonzero(kinds != IFETCH)
        writer = np.empty_like(data)
        writer[:1] = -1
        writer[1:] = data[:-1]
        after_write = writer >= warmup
        after_write[after_write] = kinds[writer[after_write]] == WRITE
        data, writer = data[after_write], writer[after_write]
        # Only a write-back L1 is occupied by a write hit; a write-through
        # L1 forwards each store into the L1->L2 buffer instead.
        through = config.levels[0].write_policy is WritePolicy.WRITE_THROUGH
        occupancy = 0 if through else int(
            config.levels[0].write_hit_cycles * engine.cpu_cycle
        )
        nominal = occupancy - (base[data] - base[writer + 1])
        waiting = nominal > 0
        data, writer, nominal = data[waiting], writer[waiting], nominal[waiting]
        # A fetch miss in between stretches the gap by its stall, which is
        # known only once the event loop reaches it: such waits are
        # deferred to the loop, as are waits of data accesses that miss.
        fetch_misses = misses[kinds[misses] == IFETCH]
        deferred = np.searchsorted(fetch_misses, data) > np.searchsorted(
            fetch_misses, writer, side="right"
        )
        is_miss = np.zeros(n, dtype=bool)
        is_miss[misses] = True
        in_loop = deferred | is_miss[data]
        # The loop visits these points: every miss, every deferred wait
        # and, behind a write-through L1, every measured store.
        visit = is_miss.copy()
        visit[data[deferred]] = True
        if through:
            visit[warmup:] |= kinds[warmup:] == WRITE
        points = np.flatnonzero(visit)
        forward = np.full(len(points), -1, dtype=np.int64)
        if through:
            # Each store goes into the buffer aligned to the block below.
            forward = np.where(
                kinds[points] == WRITE,
                trace.addresses[points].astype(np.int64) & align,
                -1,
            )
        own_wait = np.zeros(len(points), dtype=np.int64)
        own_wait[np.searchsorted(points, data[in_loop])] = nominal[in_loop]
        # A deferred wait's window opens at the first point after its write.
        anchor = np.full(len(points), -1, dtype=np.int64)
        anchor[np.searchsorted(points, data[deferred])] = np.searchsorted(
            points, writer[deferred], side="right"
        )
        # The remaining waits, summed between consecutive points.
        loose_at = data[~in_loop]
        loose = np.zeros(len(loose_at) + 1, dtype=np.int64)
        np.cumsum(nominal[~in_loop], out=loose[1:])
        loose_before = loose[np.searchsorted(loose_at, points)]

        #: The event loop's inputs, one entry per point.
        self.points = (
            np.diff(loose_before, prepend=0).tolist(),
            own_wait.tolist(),
            anchor.tolist(),
            is_miss[points].tolist(),
            kinds[points].tolist(),
            base[points + 1].tolist(),
            forward.tolist(),
        )
        #: Non-stall time of the whole measured region.
        self.base_ns = int(base[n])
        #: All loose waits, and those after the last point.
        self.loose_ns = int(loose[-1])
        self.loose_tail_ns = int(
            loose[-1] - (loose_before[-1] if len(points) else 0)
        )


class _LowerLevels:
    """The levels below the first over an L1 plan's stream.

    Their statistics, the memory traffic, and the rest of each measured
    miss's demand chain: the level its fetch hits at (depth means
    memory) and, per boundary below the first, its victim push and
    fence address.  A function of the trace and the configuration's
    functional projection alone, so cells that differ only in timing
    fields -- buffer depth, cycle times, memory speeds -- share it.
    """

    def __init__(self, trace: Trace, engine: "_EventEngine", plan: _L1Plan) -> None:
        config = engine.config
        depth = config.depth
        stream = plan.stream
        trail: List[Tuple] = []
        front = _Front(trace, config, depth)
        if depth > 1:
            [stream] = front._replay(trace, 0, trail, 1, [stream])
        self.stats = front.level_stats[1:]
        self.memory_reads, self.memory_writes = memory_traffic(
            stream, trace.warmup * 4**depth
        )
        misses = plan.misses
        reach = np.full(len(misses), depth, dtype=np.int64)
        self.victims: List[List[int]] = []
        self.fences: List[List[int]] = []
        for level, entry in enumerate(trail, start=1):
            keys, miss, _, _ = entry
            scale = 4**level
            hits = keys[(keys % scale == 2 * (scale - 1) // 3) & ~miss] // scale
            _scatter(reach, misses, hits, level)
            victims, fences = _chain(
                entry, level, misses, plan.addresses,
                ~np.int64(engine.buffers[level].downstream_block - 1),
                log2_int(engine.level_block[level]),
            )
            self.victims.append(victims)
            self.fences.append(fences)
        self.reach: List[int] = reach.tolist()


class _EventEngine(_TimingState):
    """The event-sparse engine for :func:`event_eligible` runs.

    Cache outcomes are independent of time (buffered writes are applied
    functionally at push time), so one whole-array functional replay
    (:class:`repro.sim.fast._Front`) decides every hit, miss and
    dirty victim up front.  The write-buffer, bus and DRAM objects then
    run over the events only, through the same calls the reference
    engine makes: the post-warmup L1 misses and, behind a write-through
    L1, every measured store, which after its own miss chain pushes its
    address into the L1->L2 buffer.  Between two events the CPU pays
    only base costs and a write-back L1's write-hit occupancy waits,
    which come from integer prefix sums; a wait whose window holds a
    miss is settled in the event loop.

    The replay splits at the first level: an :class:`_L1Plan` (keyed by
    :func:`plan_projection`) and a :class:`_LowerLevels` part (keyed by
    the functional projection), each kept for the next run that shares
    it, so only the event loop runs per cell.
    """

    def run(self, trace: Trace) -> TimingResult:
        config = self.config
        fingerprint = memo.trace_fingerprint(trace)
        plan = _plans.get(
            (fingerprint, plan_projection(config)),
            lambda: _L1Plan(trace, self),
        )
        lower = _lower.get(
            (fingerprint, memo.functional_projection(config)),
            lambda: _LowerLevels(trace, self, plan),
        )
        self._victims = [plan.victims] + lower.victims
        self._fences = [plan.fences] + lower.fences
        self._reach = lower.reach

        # The L1->L2 step of each miss, in locals: a miss that hits in L2
        # is timed here; deeper chains go through _fetch.  (A reach of 1
        # on a one-level machine is memory.)
        depth = config.depth
        buffer = self.buffers[0]
        push = buffer.push
        fence = buffer.read_fence
        block = buffer.block_until
        first_victims = plan.victims
        first_fences = plan.fences
        reach = lower.reach
        l2_hit = 1 if depth > 1 else -1
        l2_cycle = self.level_cycle[1] if depth > 1 else 0
        level_busy = self.level_busy
        x = 0  # time beyond the base cost, up to the current point
        x_before: List[int] = []
        read_stall = 0
        write_stall = 0
        event = 0
        for gap, wait, opened, missed, kind, now_base, forwarded in zip(
            *plan.points
        ):
            x += gap
            x_before.append(x)
            if wait:
                if opened >= 0:
                    wait -= x - x_before[opened]
                    if wait < 0:
                        wait = 0
                x += wait
                write_stall += wait
            if not missed and forwarded < 0:
                continue
            now = now_base + x
            done = now
            if missed:
                victim = first_victims[event]
                if victim >= 0:
                    pushed = push(victim, now)
                    if pushed > done:
                        done = pushed
                if reach[event] == l2_hit:
                    ready = fence(first_fences[event], now)
                    busy = level_busy[0]
                    fetched = (busy if busy > ready else ready) + l2_cycle
                    level_busy[0] = fetched
                    block(fetched)
                else:
                    fetched = self._fetch(1, event, now)
                if fetched > done:
                    done = fetched
                event += 1
            if forwarded >= 0:
                # After the store's own fetch, as in the reference's
                # _service_miss -> _write_block.
                pushed = push(forwarded, now)
                if pushed > done:
                    done = pushed
            stall = done - now
            x += stall
            if kind == WRITE:
                write_stall += stall
            else:
                read_stall += stall
        x += plan.loose_tail_ns

        self.base = float(plan.base_ns)
        self.now = float(plan.base_ns + x)
        self.read_stall = float(read_stall)
        self.write_stall = float(write_stall + plan.loose_ns)
        self._drain_buffers()
        level_stats = [replace(plan.stats)] + [replace(s) for s in lower.stats]
        return self._result(
            trace, level_stats, lower.memory_reads, lower.memory_writes
        )

    def _fetch(self, level: int, event: int, now: float) -> float:
        """Demand fetch of miss ``event`` through ``config.levels[level]``.

        The counterpart of :meth:`_TimingEngine._read_block`, with the
        cache outcome read from the precomputed demand chain.
        """
        buffer = self.buffers[level - 1]
        fence = buffer.read_fence(self._fences[level - 1][event], now)
        if level == len(self.buffers):
            return self._memory_read(fence)
        busy = self.level_busy[level - 1]
        start = busy if busy > fence else fence
        if self._reach[event] == level:
            done = start + self.level_cycle[level]
        else:
            done = start
            victim = self._victims[level][event]
            if victim >= 0:
                pushed = self.buffers[level].push(victim, start)
                if pushed > done:
                    done = pushed
            fetched = self._fetch(level + 1, event, start)
            if fetched > done:
                done = fetched
        self.level_busy[level - 1] = done
        buffer.block_until(done)
        return done


def _scatter(target: np.ndarray, positions: np.ndarray, records, values) -> None:
    """``target[i] = value`` for each record equal to ``positions[i]``.

    ``positions`` is sorted; records it does not hold (warmup misses) are
    dropped.
    """
    index = np.searchsorted(positions, records)
    found = index < len(positions)
    found[found] = positions[index[found]] == records[found]
    target[index[found]] = values if np.isscalar(values) else values[found]
