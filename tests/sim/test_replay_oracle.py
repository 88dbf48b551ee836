"""The replay oracle: vectorised replay equals the reference simulator.

The fast path (:func:`~repro.sim.fast.run_functional`) and every member
of a stack-distance grid pass
(:func:`~repro.sim.stackdist.run_stackdist_grid`) share one LRU stack
kernel and one replay driver, so neither can vouch for the other: each
is held to :class:`~repro.sim.functional.FunctionalSimulator` on the
same (member) configuration, replaying whole and in chunks.

Hypothesis draws fast-eligible configurations (1-3 levels, split or
unified first level, 1-16 ways, equal or growing blocks, one to eight
sets), short adversarial traces (set-conflict storms deeper than the
widest stack, write bursts), a warmup boundary anywhere -- on a chunk
edge included -- and chunk sizes of 1, awkward sizes, and at least the
trace length.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.parity import assert_counts_equal
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import fast_eligible, run_functional
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import (
    clear_front_cache,
    member_config,
    run_stackdist_grid,
    stackdist_eligible,
)
from repro.trace.record import IFETCH, READ, WRITE, Trace

WAYS = (1, 2, 4, 8, 16)

#: A multiple of every drawn level's sets x block bytes: addresses this
#: far apart share a set at every level.
STRIDE = 4096


@contextmanager
def chunked(records):
    """Replay in ``records``-record chunks (``None``: the whole trace)."""
    saved = os.environ.pop("REPRO_TRACE_CHUNK", None)
    if records is not None:
        os.environ["REPRO_TRACE_CHUNK"] = str(records)
    try:
        yield
    finally:
        os.environ.pop("REPRO_TRACE_CHUNK", None)
        if saved is not None:
            os.environ["REPRO_TRACE_CHUNK"] = saved


@st.composite
def configs(draw):
    """Fast-eligible hierarchies with so few sets that every set conflicts."""
    split = draw(st.booleans())
    block = draw(st.sampled_from((16, 32)))
    levels = []
    for index in range(draw(st.integers(1, 3))):
        if index:
            block *= draw(st.sampled_from((1, 2)))
        ways = draw(st.sampled_from(WAYS))
        sides = 2 if split and index == 0 else 1
        levels.append(
            LevelConfig(
                size_bytes=block * ways * sides * draw(st.sampled_from((1, 2, 4, 8))),
                block_bytes=block,
                associativity=ways,
                split=sides == 2,
            )
        )
    config = SystemConfig(levels=tuple(levels))
    assert fast_eligible(config) and stackdist_eligible(config)
    return config


@st.composite
def replays(draw):
    """A short adversarial trace and a chunk size (``None``: whole)."""
    n = draw(st.integers(0, 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # More tags than the widest stack, a few sets apart: a storm.
    tags = draw(st.integers(1, 24))
    sets = draw(st.sampled_from((1, 4, 32)))
    addresses = rng.integers(0, tags, n) * STRIDE + rng.integers(0, sets, n) * 16
    write_share = draw(st.sampled_from((0.1, 0.5, 0.9)))
    kinds = np.where(
        rng.random(n) < 0.3,
        IFETCH,
        np.where(rng.random(n) < write_share, WRITE, READ),
    )
    if n and draw(st.booleans()):
        # A write burst walking one conflict chain.
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(4, 40)))
        kinds[start:stop] = WRITE
        addresses[start:stop] = np.arange(stop - start) * STRIDE
    chunk = draw(st.sampled_from((None, 1, 3, 7, 13)) | st.integers(max(n, 1), n + 5))
    edges = [0, n] if chunk is None else list(range(0, n + 1, chunk))
    warmup = draw(st.integers(0, n) | st.sampled_from(edges))
    return Trace(kinds, addresses, warmup=warmup), chunk


@settings(max_examples=150, deadline=None)
@given(config=configs(), replay=replays())
def test_fast_path_equals_reference(config, replay):
    trace, chunk = replay
    with chunked(chunk):
        fast = run_functional(trace, config)
    assert_counts_equal(fast, FunctionalSimulator(config).run(trace), "fast path")


@settings(max_examples=100, deadline=None)
@given(config=configs(), replay=replays())
def test_every_grid_member_equals_reference(config, replay):
    trace, chunk = replay
    clear_front_cache()
    with chunked(chunk):
        grid = run_stackdist_grid(trace, config)
    for ways, derived in grid.results:
        member = member_config(config, ways)
        assert derived.config == member
        reference = FunctionalSimulator(member).run(trace)
        assert_counts_equal(derived, reference, f"{ways}-way grid member")
