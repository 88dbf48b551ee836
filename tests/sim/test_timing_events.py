"""Differential contract: event-sparse timing engine == per-record reference.

``TimingSimulator.run`` replays eligible runs on the event-sparse engine
(cache outcomes from the vectorised functional front, the write-buffer,
bus and DRAM objects driven over L1 misses only, plus the stores a
write-through L1 forwards).  Every field of its ``TimingResult`` --
nanosecond totals, stall split, counts, per-level statistics and buffer
statistics -- must equal the reference engine's exactly, not
approximately.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache.policy import PrefetchKind, WritePolicy
from repro.memory.main_memory import MemoryTiming
from repro.sim import timing
from repro.sim.config import CpuConfig, LevelConfig, SystemConfig
from repro.sim.timing import (
    TimingSimulator,
    _EventEngine,
    _TimingEngine,
    event_eligible,
)
from repro.trace.record import IFETCH, READ, WRITE, Trace
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

from tests.sim import test_timing as known


def assert_same(a, b):
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        assert left == right, f"{field.name}: {left} != {right}"


def both(trace, config):
    """Run both engines; assert they agree; return (result, event, reference)."""
    assert event_eligible(config, trace)
    event = _EventEngine(config)
    reference = _TimingEngine(config)
    result = event.run(trace)
    assert_same(result, reference.run(trace))
    assert [b.total_pushes for b in event.buffers] == [
        b.total_pushes for b in reference.buffers
    ]
    return result, event, reference


def machine(*levels, **system):
    return SystemConfig(levels=tuple(levels), **system)


def tiny_two_level(**system):
    """64 B direct-mapped unified L1 (4 sets) over a 64 KB L2."""
    return machine(
        LevelConfig(size_bytes=64, block_bytes=16, cycle_cpu_cycles=1),
        LevelConfig(size_bytes=64 * KB, block_bytes=32, cycle_cpu_cycles=3),
        **system,
    )


# -- hypothesis strategies ---------------------------------------------------

WAYS = (1, 2, 4, 8, 16)
POLICIES = (WritePolicy.WRITE_BACK, WritePolicy.WRITE_THROUGH)


@st.composite
def machines(draw):
    """Event-eligible machines: 1-3 LRU levels, each write-back or
    write-allocate write-through, split or unified L1 (possibly slower
    than the CPU), buffer depths 1-8."""
    depth = draw(st.integers(1, 3))
    split = draw(st.booleans())
    block = draw(st.sampled_from((16, 32)))
    ways = draw(st.sampled_from(WAYS))
    half = block * ways * draw(st.sampled_from((1, 2, 4, 8)))
    levels = [
        LevelConfig(
            size_bytes=half * 2 if split else half,
            block_bytes=block,
            associativity=ways,
            split=split,
            cycle_cpu_cycles=draw(st.sampled_from((1.0, 2.0, 3.0))),
            write_hit_cycles=draw(st.integers(1, 3)),
            write_policy=draw(st.sampled_from(POLICIES)),
        )
    ]
    for _ in range(1, depth):
        block *= draw(st.sampled_from((1, 2)))
        ways = draw(st.sampled_from(WAYS))
        levels.append(
            LevelConfig(
                size_bytes=block * ways * draw(st.sampled_from((2, 4, 16))),
                block_bytes=block,
                associativity=ways,
                cycle_cpu_cycles=float(draw(st.integers(1, 8))),
                write_hit_cycles=draw(st.integers(1, 3)),
                write_policy=draw(st.sampled_from(POLICIES)),
            )
        )
    return machine(
        *levels,
        write_buffer_entries=draw(st.integers(1, 8)),
        backplane_cycle_ns=draw(st.sampled_from((None, 30.0))),
    )


@st.composite
def traces(draw):
    """Short adversarial traces: set-conflict storms, write bursts,
    re-reads of just-written blocks, and every warmup boundary."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stride = draw(st.sampled_from((16, 64, 256, 2048)))
    span = draw(st.sampled_from((4, 16, 64)))
    addresses = rng.integers(0, span, n) * stride + rng.integers(0, 4, n) * 4
    ifetch_share = draw(st.sampled_from((0.2, 0.5, 0.8)))
    write_share = draw(st.sampled_from((0.2, 0.5, 0.9)))
    kinds = np.where(
        rng.random(n) < ifetch_share,
        IFETCH,
        np.where(rng.random(n) < write_share, WRITE, READ),
    )
    if draw(st.booleans()) and n:
        # A write burst: a run of stores walking one conflict chain.
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(4, 32)))
        kinds[start:stop] = WRITE
        addresses[start:stop] = np.arange(stop - start) * stride * span
    warmup = draw(st.sampled_from((0, n // 2, n)) | st.integers(0, n))
    return Trace(kinds, addresses, warmup=warmup)


@st.composite
def plan_families(draw):
    """Machines that share one L1 and CPU -- the L2's size, ways and
    cycle, the buffer depth and the memory times vary, and a drawn
    member may repeat the first's levels at another buffer depth -- and
    unrelated machines, each differing from the first in exactly one
    field its L1 plan depends on."""
    split = draw(st.booleans())
    ways = draw(st.sampled_from(WAYS))
    half = 16 * ways * draw(st.sampled_from((1, 2, 4)))
    first = LevelConfig(
        size_bytes=half * 2 if split else half,
        block_bytes=16,
        associativity=ways,
        split=split,
        cycle_cpu_cycles=draw(st.sampled_from((1.0, 2.0))),
        write_hit_cycles=draw(st.integers(2, 3)),
        write_policy=draw(st.sampled_from(POLICIES)),
    )
    cpu = CpuConfig(cycle_ns=draw(st.sampled_from((10.0, 20.0))))

    def member():
        ways = draw(st.sampled_from(WAYS))
        return machine(
            first,
            LevelConfig(
                size_bytes=32 * ways * draw(st.sampled_from((2, 4, 16))),
                block_bytes=32,
                associativity=ways,
                cycle_cpu_cycles=float(draw(st.integers(1, 8))),
                write_hit_cycles=draw(st.integers(1, 3)),
            ),
            cpu=cpu,
            memory=MemoryTiming(
                read_ns=draw(st.sampled_from((60.0, 180.0))),
                write_ns=draw(st.sampled_from((40.0, 100.0))),
                recovery_ns=draw(st.sampled_from((0.0, 120.0))),
            ),
            write_buffer_entries=draw(st.integers(1, 8)),
        )

    family = [member() for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        family.append(
            dataclasses.replace(
                family[0], write_buffer_entries=draw(st.integers(1, 8))
            )
        )
    base = family[0]
    other_policy = POLICIES[1 - POLICIES.index(first.write_policy)]
    unrelated = [
        dataclasses.replace(base, cpu=CpuConfig(cycle_ns=30.0 - cpu.cycle_ns)),
        base.with_level(0, write_hit_cycles=5 - first.write_hit_cycles),
        base.with_level(0, write_policy=other_policy),
        base.with_level(0, cycle_cpu_cycles=3.0 - first.cycle_cpu_cycles),
        base.with_level(0, size_bytes=first.size_bytes * 2),
    ]
    return family, unrelated


class TestSharedPlans:
    """Runs that share an L1 plan, or a levels-below part, reuse it; each
    run must still equal the reference field for field, whatever ran
    before it in the process."""

    @pytest.fixture(autouse=True)
    def cold(self):
        timing.clear_plan_cache()
        yield
        timing.clear_plan_cache()

    @settings(max_examples=100, deadline=None)
    @given(family=plan_families(), trace=traces(), data=st.data())
    def test_cold_warm_and_shuffled_runs_match_reference(self, family, trace, data):
        configs, unrelated = family
        timing.clear_plan_cache()
        expected = {id(c): _TimingEngine(c).run(trace) for c in configs + unrelated}
        # Cold, then warm; each unrelated machine runs between two family
        # members, so a plan or part it wrongly shared would show on one
        # side or the other; then the family again in a shuffled order.
        order = list(configs)
        for other in unrelated:
            order += [other, data.draw(st.sampled_from(configs))]
        order += data.draw(st.permutations(configs))
        for config in order:
            assert event_eligible(config, trace)
            assert_same(_EventEngine(config).run(trace), expected[id(config)])

    @pytest.mark.parametrize(
        "change",
        [
            {"cpu": CpuConfig(cycle_ns=20.0)},
            {"level": {"write_hit_cycles": 3}},
            {"level": {"write_policy": WritePolicy.WRITE_THROUGH}},
            {"level": {"cycle_cpu_cycles": 2.0}},
            {"below": {"block_bytes": 64, "size_bytes": 128 * KB}},
            {"below": {"size_bytes": 16 * KB}},
        ],
        ids=["cpu-cycle", "occupancy", "write-policy", "l1-cycle",
             "block-below", "l2-size"],
    )
    def test_one_field_apart_never_shares(self, change):
        trace = SyntheticWorkload(seed=53).trace(6_000, warmup=1_000)
        base = known.base_machine(l2_kb=32)
        other = base
        if "cpu" in change:
            other = dataclasses.replace(base, cpu=change["cpu"])
        if "level" in change:
            other = base.with_level(0, **change["level"])
        if "below" in change:
            other = base.with_level(1, **change["below"])
        expected = [_TimingEngine(c).run(trace) for c in (base, other)]
        assert expected[0].total_ns != expected[1].total_ns
        for config, result in zip((base, other, base, other), expected * 2):
            assert_same(_EventEngine(config).run(trace), result)

    def test_a_family_builds_one_plan_and_one_part_per_projection(self):
        trace = SyntheticWorkload(seed=59).trace(6_000, warmup=1_000)
        base = known.base_machine(l2_kb=32)
        family = [
            dataclasses.replace(base, write_buffer_entries=entries)
            for entries in (1, 2, 4, 8)
        ] + [base.with_level(1, size_bytes=64 * KB, cycle_cpu_cycles=5)]
        since = telemetry.mark()
        for config in family:
            both(trace, config)
        moved = telemetry.counter_deltas(since)
        assert moved["timing.plans"] == 1
        assert moved["timing.parts"] == 2


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(config=machines(), trace=traces())
    def test_event_engine_matches_reference(self, config, trace):
        both(trace, config)

    @pytest.mark.parametrize("entries", [1, 2, 4, 8])
    def test_synthetic_workload_at_every_buffer_depth(self, entries):
        trace = SyntheticWorkload(seed=31).trace(20_000, warmup=4_000)
        config = dataclasses.replace(
            known.base_machine(l2_kb=16), write_buffer_entries=entries
        )
        result, _, _ = both(trace, config)
        assert result.read_stall_ns > 0

    def test_three_level_synthetic_workload(self):
        trace = SyntheticWorkload(seed=37).trace(20_000, warmup=4_000)
        both(trace, known.TestThreeLevelTiming().three_level())


class TestScenarios:
    """One hand-built case per mechanism, each checked to actually fire."""

    @pytest.mark.parametrize("where", ["none", "middle", "end"])
    def test_warmup_boundaries(self, where):
        warmup = {"none": 0, "middle": 1_500, "end": 3_000}[where]
        trace = SyntheticWorkload(seed=41).trace(3_000, warmup=warmup)
        result, _, _ = both(trace, known.base_machine())
        assert (result.total_ns == 0) == (where == "end")

    def test_empty_trace(self):
        result, _, _ = both(Trace.from_records([]), known.base_machine())
        assert result.total_ns == 0.0

    @pytest.mark.parametrize("split", [True, False])
    def test_l1_slower_than_the_cpu(self, split):
        # A unified slow L1 charges a full cycle per data-read hit (port
        # conflict); a split one charges the difference to the CPU cycle.
        config = machine(
            LevelConfig(size_bytes=8 * KB, block_bytes=16, split=split,
                        cycle_cpu_cycles=2),
            LevelConfig(size_bytes=64 * KB, block_bytes=32, cycle_cpu_cycles=4),
        )
        trace = SyntheticWorkload(seed=43).trace(5_000, warmup=1_000)
        result, engine, _ = both(trace, config)
        assert engine.data_hit_cost == (10.0 if split else 20.0)
        assert result.base_ns > result.instructions * engine.ifetch_cost

    def test_write_burst_fills_the_buffer(self):
        records = []
        for i in range(64):
            records.append((IFETCH, 0x10000))
            records.append((WRITE, (i % 16) * 64))
        result, _, _ = both(
            Trace.from_records(records), tiny_two_level(write_buffer_entries=2)
        )
        assert result.buffer_full_stalls[0] > 0

    def test_write_through_store_burst_fills_the_buffer(self):
        # Behind a write-through L1 every store, hit or miss, goes into
        # the L1->L2 buffer; stores back to back outrun its drain.
        config = tiny_two_level(write_buffer_entries=2).with_level(
            0, write_policy=WritePolicy.WRITE_THROUGH
        )
        records = [(READ, 0x0)] + [(WRITE, 0x0)] * 8
        result, _, _ = both(Trace.from_records(records), config)
        assert result.buffer_full_stalls[0] > 0
        assert result.level_stats[0].writes_forwarded == 8
        assert result.write_stall_ns > 0

    def test_read_miss_fenced_by_a_forwarded_store(self):
        # The store to 0x0 hits and is forwarded into the buffer; 0x10 is
        # a different L1 block in the same 32-byte L2 block, so its fetch
        # must wait for the buffered store to drain.
        config = tiny_two_level().with_level(
            0, write_policy=WritePolicy.WRITE_THROUGH
        )
        records = [(READ, 0x0), (WRITE, 0x0), (READ, 0x10)]
        result, _, _ = both(Trace.from_records(records), config)
        assert result.buffer_read_matches == [1, 0]
        assert result.level_stats[0].writebacks == 0

    def test_reread_of_evicted_dirty_block_matches_downstream_block(self):
        # 0x0 is evicted dirty into the L1->L2 buffer; 0x10 is a different
        # L1 block but the same 32-byte L2 block, so its fetch must fence.
        records = [(WRITE, 0x0), (READ, 0x100), (READ, 0x10)]
        result, _, _ = both(Trace.from_records(records), tiny_two_level())
        assert result.buffer_read_matches == [1, 0]

    @pytest.mark.parametrize("between, stall", [(0, 20.0), (1, 10.0), (2, 0.0)])
    def test_write_occupancy_by_fetches_between(self, between, stall):
        warm = [(IFETCH, 0x0), (READ, 0x5000), (READ, 0x5010)]
        records = (
            warm
            + [(IFETCH, 0x0), (WRITE, 0x5000)]
            + [(IFETCH, 0x0)] * between
            + [(READ, 0x5010)]
        )
        trace = Trace.from_records(records, warmup=len(warm))
        result, _, _ = both(trace, known.base_machine())
        assert result.write_stall_ns == stall

    def test_occupancy_window_holding_a_fetch_miss(self):
        # Three-cycle write occupancy; the fetch between the write and the
        # read misses L1 and hits a 1-cycle L2, so only part of the window
        # is left when the read arrives (30 - 10 base - 10 stall).
        config = machine(
            LevelConfig(size_bytes=4 * KB, block_bytes=16, split=True,
                        write_hit_cycles=3),
            LevelConfig(size_bytes=64 * KB, block_bytes=32, cycle_cpu_cycles=1),
        )
        warm = [(IFETCH, 0x0), (IFETCH, 0x800), (READ, 0x5000), (READ, 0x5010)]
        records = warm + [
            (IFETCH, 0x800), (WRITE, 0x5000), (IFETCH, 0x0), (READ, 0x5010),
        ]
        trace = Trace.from_records(records, warmup=len(warm))
        result, _, _ = both(trace, config)
        assert result.read_stall_ns == 10.0
        assert result.write_stall_ns == 10.0

    def test_victim_write_allocation_victims_are_state_only(self):
        # 64 B L1 and 128 B L2, both direct-mapped with four sets.  The
        # last read evicts dirty 0x000 from L1; its write misses the L2
        # set holding the dirty 0x080 block, and that L2 victim goes to
        # memory functionally without entering the memory-side buffer.
        config = machine(
            LevelConfig(size_bytes=64, block_bytes=16),
            LevelConfig(size_bytes=128, block_bytes=32, cycle_cpu_cycles=3),
        )
        records = [(WRITE, 0x000), (WRITE, 0x090), (READ, 0x0D0), (READ, 0x040)]
        result, event, _ = both(Trace.from_records(records), config)
        assert result.memory_writes == 1
        assert result.level_stats[1].writebacks == 1
        assert event.buffers[1].total_pushes == 0


class TestFallback:
    """Runs outside the event engine's eligibility keep the reference."""

    @pytest.mark.parametrize(
        "config",
        [
            known.base_machine().with_level(
                0, write_policy=WritePolicy.WRITE_THROUGH, write_allocate=False
            ),
            known.base_machine().with_level(0, prefetch=PrefetchKind.ON_MISS),
            dataclasses.replace(known.base_machine(), enforce_inclusion=True),
            known.base_machine(l2_cycle=1.25),
        ],
        ids=["write-through", "prefetch", "inclusion", "fractional-cycle"],
    )
    def test_ineligible_config_uses_reference(self, config, monkeypatch):
        trace = SyntheticWorkload(seed=47).trace(3_000, warmup=500)
        assert not event_eligible(config, trace)
        expected = _TimingEngine(config).run(trace)
        monkeypatch.setattr(_EventEngine, "run", _refuse)
        assert_same(TimingSimulator(config).run(trace), expected)

    def test_high_addresses_use_reference(self, monkeypatch):
        trace = Trace.from_records([(IFETCH, 2**63 + 16), (READ, 0x40)])
        assert not event_eligible(known.base_machine(), trace)
        monkeypatch.setattr(_EventEngine, "run", _refuse)
        TimingSimulator(known.base_machine()).run(trace)


def _refuse(self, trace):
    raise AssertionError(f"{type(self).__name__} must not run here")


# -- the known-answer classes of test_timing.py, on each engine --------------


@pytest.fixture
def on_events(monkeypatch):
    monkeypatch.setattr(_TimingEngine, "run", _refuse)


@pytest.fixture
def on_reference(monkeypatch):
    monkeypatch.setattr(timing, "event_eligible", lambda config, trace: False)


for _cls in (
    known.TestHitTiming,
    known.TestMissPenalties,
    known.TestWriteTiming,
    known.TestWriteBufferEffects,
    known.TestSingleLevelSystems,
    known.TestThreeLevelTiming,
    known.TestEndOfTraceDrain,
):
    for _engine in ("events", "reference"):
        _name = f"{_cls.__name__}On{_engine.title()}"
        globals()[_name] = pytest.mark.usefixtures(f"on_{_engine}")(
            type(_name, (_cls,), {})
        )
del _cls, _engine, _name
