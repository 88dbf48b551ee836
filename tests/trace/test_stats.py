"""Tests for trace statistics and the stack-distance profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import IFETCH, READ, WRITE, Trace
from repro.trace.stats import TraceStatistics, stack_distance_profile


def trace_of(records):
    return Trace.from_records(records)


class TestTraceStatistics:
    def test_counts(self):
        trace = trace_of(
            [(IFETCH, 0), (IFETCH, 16), (READ, 256), (WRITE, 256), (READ, 512)]
        )
        stats = TraceStatistics.measure(trace, block_bytes=16)
        assert stats.records == 5
        assert stats.ifetches == 2
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.reads == 4

    def test_unique_blocks_uses_block_granularity(self):
        trace = trace_of([(READ, 0), (READ, 8), (READ, 16), (READ, 48)])
        stats = TraceStatistics.measure(trace, block_bytes=16)
        assert stats.unique_blocks == 3  # blocks 0, 1, 3
        assert stats.footprint_bytes == 48

    def test_fractions(self):
        trace = trace_of([(IFETCH, 0), (READ, 16), (IFETCH, 4), (WRITE, 32)])
        stats = TraceStatistics.measure(trace)
        assert stats.data_ref_per_ifetch == pytest.approx(1.0)
        assert stats.data_read_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        stats = TraceStatistics.measure(trace_of([]))
        assert stats.data_read_fraction == 0.0
        assert stats.data_ref_per_ifetch == 0.0

    def test_invalid_block_bytes(self):
        with pytest.raises(ValueError):
            TraceStatistics.measure(trace_of([(READ, 0)]), block_bytes=0)


def brute_force_distances(blocks):
    """Reference LRU stack-distance computation."""
    stack = []
    distances = []
    cold = 0
    for block in blocks:
        if block in stack:
            depth = stack.index(block)
            distances.append(depth + 1)
            stack.remove(block)
        else:
            cold += 1
        stack.insert(0, block)
    return distances, cold


class TestStackDistanceProfile:
    def test_matches_brute_force_on_small_trace(self):
        blocks = [1, 2, 3, 1, 2, 4, 1, 1, 3, 5, 2]
        trace = trace_of([(READ, b * 16) for b in blocks])
        profile = stack_distance_profile(trace, block_bytes=16)
        expected, cold = brute_force_distances(blocks)
        assert sorted(profile.distances.tolist()) == sorted(expected)
        assert profile.cold_references == cold

    def test_matches_brute_force_on_random_trace(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 40, size=400).tolist()
        trace = trace_of([(READ, b * 16) for b in blocks])
        profile = stack_distance_profile(trace, block_bytes=16)
        expected, cold = brute_force_distances(blocks)
        assert sorted(profile.distances.tolist()) == sorted(expected)
        assert profile.cold_references == cold

    def test_immediate_reuse_has_distance_one(self):
        trace = trace_of([(READ, 0), (READ, 0)])
        profile = stack_distance_profile(trace)
        assert profile.distances.tolist() == [1]

    def test_miss_ratio_at_counts_cold_misses(self):
        # Two cold references + one reuse at distance 2.
        trace = trace_of([(READ, 0), (READ, 16), (READ, 0)])
        profile = stack_distance_profile(trace)
        assert profile.miss_ratio_at(1) == pytest.approx(1.0)
        assert profile.miss_ratio_at(2) == pytest.approx(2 / 3)

    def test_survival_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 100, size=1000).tolist()
        trace = trace_of([(READ, b * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        depths = np.array([1, 2, 4, 8, 16, 32, 64])
        surv = profile.survival(depths)
        assert np.all(np.diff(surv) <= 1e-12)

    def test_max_references_truncates(self):
        trace = trace_of([(READ, i * 16) for i in range(100)])
        profile = stack_distance_profile(trace, max_references=10)
        assert profile.total_references == 10

    def test_block_granularity_merges_addresses(self):
        # Two addresses in the same 64-byte block are the same block.
        trace = trace_of([(READ, 0), (READ, 32)])
        profile = stack_distance_profile(trace, block_bytes=64)
        assert profile.cold_references == 1
        assert profile.distances.tolist() == [1]


def distinct_since_previous_use(blocks):
    """Oracle: each reuse's distance, in trace order, as one plus the
    number of distinct blocks since the block's previous use."""
    last_use = {}
    distances = []
    for t, block in enumerate(blocks):
        if block in last_use:
            distances.append(1 + len(set(blocks[last_use[block] + 1 : t])))
        last_use[block] = t
    return distances, len(blocks) - len(distances)


@st.composite
def profiled_traces(draw):
    """Up to 300 references over a drawn footprint, a block size and a
    truncation (``None``: the whole trace)."""
    n = draw(st.integers(0, 300))
    footprint = draw(st.integers(1, 80))
    shape = draw(st.sampled_from(("random", "single", "same")))
    if shape == "single":
        n = 1
    addresses = draw(
        st.lists(st.integers(0, footprint * 64 - 1), min_size=n, max_size=n)
    )
    if shape == "same" and addresses:
        addresses = [addresses[0]] * n
    block_bytes = draw(st.sampled_from((1, 16, 24, 64)))
    limit = draw(st.none() | st.integers(0, n + 5))
    return trace_of([(READ, a) for a in addresses]), block_bytes, limit


@settings(max_examples=200, deadline=None)
@given(drawn=profiled_traces())
def test_profile_equals_distinct_block_oracle(drawn):
    trace, block_bytes, limit = drawn
    profile = stack_distance_profile(
        trace, block_bytes=block_bytes, max_references=limit
    )
    blocks = [a // block_bytes for a in trace.addresses.tolist()][:limit]
    distances, cold = distinct_since_previous_use(blocks)
    assert profile.distances.tolist() == distances
    assert profile.distances.dtype == np.int64
    assert profile.cold_references == cold
    assert profile.block_bytes == block_bytes


@pytest.mark.parametrize(
    "records, distances, cold",
    [([], [], 0), ([(READ, 32)], [], 1), ([(READ, 48)] * 5, [1, 1, 1, 1], 1)],
    ids=["empty", "single", "all-same"],
)
def test_profile_edge_traces(records, distances, cold):
    profile = stack_distance_profile(trace_of(records))
    assert profile.distances.tolist() == distances
    assert profile.cold_references == cold
