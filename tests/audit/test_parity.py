"""Differential parity checks between the redundant engines."""

import copy

import pytest

from repro.audit.parity import (
    ParityError,
    assert_counts_equal,
    assert_timing_equal,
    check_fast_vs_reference,
    check_memo_vs_direct,
    check_serial_vs_parallel,
    check_stackdist_vs_reference,
    check_timing_vs_reference,
)
from repro.sim import memo
from repro.sim.fast import fast_eligible, front_depth
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import member_config
from repro.sim.timing import TimingSimulator, event_eligible

from tests.audit.conftest import GRID


@pytest.fixture(autouse=True)
def fresh_memo():
    memo.clear_memo_cache()
    yield
    memo.clear_memo_cache()


class TestChecksPass:
    @pytest.mark.parametrize(
        "config",
        [c for _, c in GRID if front_depth(c)][:4],
        ids=[n for n, c in GRID if front_depth(c)][:4],
    )
    def test_fast_vs_reference(self, audit_trace, config):
        check_fast_vs_reference(audit_trace, config)

    @pytest.mark.parametrize("name", ["prefetch-tagged-l2", "prefetch-always-l3"])
    def test_fast_vs_reference_covers_the_event_tail(self, audit_trace, name):
        from repro.audit.selfcheck import _grid

        config = dict(_grid())[name]
        assert 0 < front_depth(config) < config.depth
        check_fast_vs_reference(audit_trace, config)

    def test_fast_vs_reference_is_noop_when_ineligible(self, audit_trace):
        ineligible = next(c for _, c in GRID if front_depth(c) == 0)
        check_fast_vs_reference(audit_trace, ineligible)

    @pytest.mark.parametrize(
        "name", [n for n, c in GRID if fast_eligible(c)]
    )
    def test_timing_vs_reference(self, audit_trace, name):
        config = dict(GRID)[name]
        short = audit_trace[-3_000:]
        assert event_eligible(config, short)
        check_timing_vs_reference(short, config)

    @pytest.mark.parametrize(
        "name", [n for n, c in GRID if fast_eligible(c) and c.depth > 1]
    )
    def test_stackdist_vs_reference(self, audit_trace, name):
        # The configuration's own kernel, and the width-16 pass its
        # 16-way member heads.
        config = dict(GRID)[name]
        for head in (config, member_config(config, 16)):
            check_stackdist_vs_reference(audit_trace[-3_000:], head)

    def test_timing_vs_reference_is_noop_when_ineligible(self, audit_trace):
        ineligible = next(c for _, c in GRID if not fast_eligible(c))
        check_timing_vs_reference(audit_trace[-1_000:], ineligible)

    def test_memo_vs_direct(self, audit_trace):
        config = next(c for n, c in GRID if n == "split-write-back-2L-none")
        check_memo_vs_direct(audit_trace, config)

    def test_serial_vs_parallel(self, audit_traces):
        configs = [c for _, c in GRID if fast_eligible(c)][:3]
        check_serial_vs_parallel(audit_traces, configs, workers=2)


class TestDivergenceIsReported:
    def test_first_diverging_counter_is_named(self, audit_trace):
        config = next(c for n, c in GRID if n == "split-write-back-2L-none")
        a = FunctionalSimulator(config).run(audit_trace)
        b = copy.deepcopy(a)
        b.level_stats[1].writebacks += 3
        with pytest.raises(ParityError, match=r"L2\.writebacks"):
            assert_counts_equal(a, b, context="unit")

    def test_depth_mismatch_is_named(self, audit_trace):
        config = next(c for n, c in GRID if n == "split-write-back-2L-none")
        a = FunctionalSimulator(config).run(audit_trace)
        b = copy.deepcopy(a)
        b.level_stats.pop()
        with pytest.raises(ParityError, match="depth"):
            assert_counts_equal(a, b)

    def test_diverging_timing_field_is_named(self, audit_trace):
        config = next(c for n, c in GRID if n == "split-write-back-2L-none")
        a = TimingSimulator(config).run(audit_trace[-1_000:])
        b = copy.deepcopy(a)
        b.write_stall_ns += 10.0
        b.buffer_read_matches[0] += 1
        with pytest.raises(
            ParityError, match=r"write_stall_ns(.|\n)*buffer_read_matches"
        ):
            assert_timing_equal(a, b)

    def test_parity_error_is_an_audit_error(self):
        from repro.audit import AuditError

        assert issubclass(ParityError, AuditError)
