"""Differential parity for chunked streaming replay.

The contract: with ``REPRO_TRACE_CHUNK`` set, the fast path and the
stack-distance grid stream the trace through persistent cache state in
fixed-size chunks -- and every count comes out *identical* to whole-array
replay.  ``test_replay_oracle.py`` holds both to the reference simulator
on short adversarial traces; these cases replay synthetic workloads long
enough to touch many sets, and memmap-backed store traces, which is
what lets those run without materialising in full.
"""

import pytest

from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import (
    FastFunctionalSimulator,
    clear_front_cache,
    run_functional,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import STACK_ASSOCIATIVITIES, member_config, run_stackdist_grid
from repro.trace.store import TraceStore
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

COUNT_FIELDS = (
    "reads", "read_misses", "writes", "write_misses",
    "writebacks", "blocks_fetched",
)

#: Deliberately awkward chunk sizes: not divisors of the trace length,
#: odd, and one that leaves a single-record tail.
CHUNK_SIZES = (999, 7777, 24_999)


@pytest.fixture(autouse=True)
def fresh_front_cache():
    clear_front_cache()
    yield
    clear_front_cache()


def two_level(split=True, l1_ways=1, l2_ways=1):
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=4 * KB, block_bytes=16, split=split,
                        associativity=l1_ways),
            LevelConfig(size_bytes=32 * KB, block_bytes=32,
                        cycle_cpu_cycles=3, associativity=l2_ways),
        )
    )


def three_level():
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True),
            LevelConfig(size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3),
            LevelConfig(size_bytes=64 * KB, block_bytes=64, cycle_cpu_cycles=6),
        )
    )


def run_chunked(trace, config, chunk):
    """:func:`run_functional` streaming ``chunk`` records at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_CHUNK", str(chunk))
        return run_functional(trace, config)


def assert_counts_equal(got, want, context=""):
    assert got.cpu_reads == want.cpu_reads, context
    assert got.cpu_writes == want.cpu_writes, context
    assert got.cpu_ifetches == want.cpu_ifetches, context
    for level, (g, w) in enumerate(
        zip(got.level_stats, want.level_stats), start=1
    ):
        for field in COUNT_FIELDS:
            assert getattr(g, field) == getattr(w, field), (
                f"{context} level {level} {field}: chunked={getattr(g, field)} "
                f"whole={getattr(w, field)}"
            )
    assert got.memory_reads == want.memory_reads, context
    assert got.memory_writes == want.memory_writes, context


class TestFastChunkedParity:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_split_two_level(self, chunk):
        trace = SyntheticWorkload(seed=41).trace(25_000, warmup=5_000)
        whole = FastFunctionalSimulator(two_level()).run(trace)
        chunked = run_chunked(trace, two_level(), chunk)
        assert_counts_equal(chunked, whole, f"chunk={chunk}")

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_unified_set_associative(self, chunk):
        trace = SyntheticWorkload(seed=42).trace(25_000)
        config = two_level(split=False, l1_ways=4, l2_ways=8)
        whole = FastFunctionalSimulator(config).run(trace)
        chunked = run_chunked(trace, config, chunk)
        assert_counts_equal(chunked, whole, f"chunk={chunk}")

    def test_three_levels(self):
        trace = SyntheticWorkload(seed=43).trace(25_000, warmup=4_000)
        whole = FastFunctionalSimulator(three_level()).run(trace)
        for chunk in CHUNK_SIZES:
            chunked = run_chunked(trace, three_level(), chunk)
            assert_counts_equal(chunked, whole, f"chunk={chunk}")

    def test_single_level(self):
        trace = SyntheticWorkload(seed=44).trace(15_000)
        config = SystemConfig(
            levels=(LevelConfig(size_bytes=2 * KB, block_bytes=16),)
        )
        whole = FastFunctionalSimulator(config).run(trace)
        chunked = run_chunked(trace, config, 999)
        assert_counts_equal(chunked, whole)

    def test_chunk_larger_than_trace(self):
        trace = SyntheticWorkload(seed=45).trace(5_000)
        whole = FastFunctionalSimulator(two_level()).run(trace)
        chunked = run_chunked(trace, two_level(), 1_000_000)
        assert_counts_equal(chunked, whole)

    def test_matches_reference_simulator(self):
        trace = SyntheticWorkload(seed=46).trace(12_000, warmup=2_000)
        reference = FunctionalSimulator(two_level()).run(trace)
        chunked = run_chunked(trace, two_level(), 999)
        assert_counts_equal(chunked, reference)


class TestStackdistChunkedParity:
    def grids(self, trace, config, chunk, monkeypatch):
        """Whole and chunked width-16 passes, ``config``'s 16-way member
        heading both."""
        head = member_config(config, 16)
        whole = run_stackdist_grid(trace, head)
        clear_front_cache()
        monkeypatch.setenv("REPRO_TRACE_CHUNK", str(chunk))
        chunked = run_stackdist_grid(trace, head)
        monkeypatch.delenv("REPRO_TRACE_CHUNK")
        return whole, chunked

    @pytest.mark.parametrize("chunk", (999, 7777))
    def test_depth_one_split(self, chunk, monkeypatch):
        trace = SyntheticWorkload(seed=47).trace(20_000, warmup=4_000)
        config = SystemConfig(
            levels=(LevelConfig(size_bytes=4 * KB, block_bytes=16, split=True),)
        )
        whole, chunked = self.grids(trace, config, chunk, monkeypatch)
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(config, ways)
            assert_counts_equal(
                chunked.result_for(member), whole.result_for(member),
                f"ways={ways} chunk={chunk}",
            )

    @pytest.mark.parametrize("chunk", (999, 7777))
    def test_two_level_grid(self, chunk, monkeypatch):
        trace = SyntheticWorkload(seed=48).trace(20_000, warmup=4_000)
        whole, chunked = self.grids(trace, two_level(), chunk, monkeypatch)
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(two_level(), ways)
            assert_counts_equal(
                chunked.result_for(member), whole.result_for(member),
                f"ways={ways} chunk={chunk}",
            )

    def test_three_level_grid(self, monkeypatch):
        trace = SyntheticWorkload(seed=49).trace(20_000)
        whole, chunked = self.grids(trace, three_level(), 7777, monkeypatch)
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(three_level(), ways)
            assert_counts_equal(
                chunked.result_for(member), whole.result_for(member), f"ways={ways}"
            )


class TestEnvDispatch:
    def test_run_functional_honours_the_chunk_knob(self, monkeypatch):
        trace = SyntheticWorkload(seed=50).trace(10_000)
        monkeypatch.delenv("REPRO_TRACE_CHUNK", raising=False)
        whole = run_functional(trace, two_level())
        monkeypatch.setenv("REPRO_TRACE_CHUNK", "999")
        chunked = run_functional(trace, two_level())
        assert_counts_equal(chunked, whole)

    def test_chunk_zero_means_off(self, monkeypatch):
        from repro.trace.store import replay_chunk_records

        monkeypatch.setenv("REPRO_TRACE_CHUNK", "0")
        assert replay_chunk_records() is None
        monkeypatch.setenv("REPRO_TRACE_CHUNK", "4096")
        assert replay_chunk_records() == 4096


class TestStoreTraceReplay:
    """Memmap-backed store traces run the chunked path end to end."""

    def test_store_trace_counts_match_heap_trace(self, tmp_path, monkeypatch):
        trace = SyntheticWorkload(seed=51).trace(20_000, warmup=3_000)
        whole = run_functional(trace, two_level())
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        monkeypatch.setenv("REPRO_TRACE_CHUNK", "4096")
        chunked = run_functional(loaded, two_level())
        assert_counts_equal(chunked, whole)

    def test_store_trace_grid_matches_heap_trace(self, tmp_path, monkeypatch):
        trace = SyntheticWorkload(seed=52).trace(15_000, warmup=2_000)
        head = member_config(two_level(), 16)
        whole = run_stackdist_grid(trace, head)
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        clear_front_cache()
        monkeypatch.setenv("REPRO_TRACE_CHUNK", "4096")
        chunked = run_stackdist_grid(loaded, head)
        for ways in STACK_ASSOCIATIVITIES:
            member = member_config(two_level(), ways)
            assert_counts_equal(
                chunked.result_for(member), whole.result_for(member), f"ways={ways}"
            )
