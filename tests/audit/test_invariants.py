"""Conservation-law audits: they hold on correct engines, and they fire.

Two halves.  The property half runs every engine over the structural
grid (split/unified x write policy x depth x prefetch) and asserts the
laws pass -- under pytest the audits also run *inside* the simulators,
so a silent violation would already have failed the run.  The mutation
half proves the laws are not vacuous: corrupt one counter, or break one
engine invariant, and the matching law must name the problem.
"""

import copy

import pytest

from repro.audit import AuditError, audit_enabled
from repro.audit.invariants import (
    ENV_KNOB,
    audit_functional_result,
    audit_timing_result,
)
from repro.sim.fast import front_depth, run_functional
from repro.sim.functional import FunctionalSimulator
from repro.sim.hierarchy import CacheHierarchy
from repro.sim import timing as timing_module
from repro.sim.timing import TimingSimulator

from tests.audit.conftest import GRID


class TestEnvironmentKnob:
    def test_defaults_on_under_pytest(self, monkeypatch):
        monkeypatch.delenv(ENV_KNOB, raising=False)
        assert audit_enabled()

    def test_defaults_off_outside_pytest(self, monkeypatch):
        monkeypatch.delenv(ENV_KNOB, raising=False)
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        assert not audit_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", ""])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_KNOB, value)
        assert not audit_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_KNOB, value)
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        assert audit_enabled()


class TestLawsHoldAcrossTheGrid:
    @pytest.mark.parametrize(
        "config", [c for _, c in GRID], ids=[n for n, _ in GRID]
    )
    def test_reference_functional(self, audit_trace, config):
        result = FunctionalSimulator(config).run(audit_trace)
        audit_functional_result(audit_trace, result, source="reference")

    @pytest.mark.parametrize(
        "config",
        [c for _, c in GRID if front_depth(c)],
        ids=[n for n, c in GRID if front_depth(c)],
    )
    def test_fast_functional(self, audit_trace, config):
        result = run_functional(audit_trace, config)
        audit_functional_result(audit_trace, result, source="fast-path")

    @pytest.mark.parametrize(
        "config", [c for _, c in GRID], ids=[n for n, _ in GRID]
    )
    def test_timing(self, audit_trace, config):
        short = audit_trace[:4_000]
        result = TimingSimulator(config).run(short)
        audit_timing_result(short, result)

    def test_inclusion_gated_configs_still_audit(self, audit_trace):
        import dataclasses

        two_level = next(
            c for n, c in GRID if "2L" in n and "write-back" in n
        )
        inclusive = dataclasses.replace(two_level, enforce_inclusion=True)
        result = FunctionalSimulator(inclusive).run(audit_trace)
        audit_functional_result(audit_trace, result)


def _functional_result(trace, config):
    return FunctionalSimulator(config).run(trace)


class TestMutationsAreCaught:
    """Tamper with one counter; the matching law must fire."""

    @pytest.fixture()
    def two_level(self):
        return next(
            c for n, c in GRID
            if n == "split-write-back-2L-none"
        )

    @pytest.fixture()
    def result(self, audit_trace, two_level):
        return copy.deepcopy(_functional_result(audit_trace, two_level))

    def test_clean_result_passes(self, audit_trace, result):
        audit_functional_result(audit_trace, result)

    def test_cpu_reads_tamper(self, audit_trace, result):
        result.cpu_reads += 1
        with pytest.raises(AuditError, match="cpu-boundary"):
            audit_functional_result(audit_trace, result)

    def test_ifetch_tamper(self, audit_trace, result):
        result.cpu_ifetches -= 1
        with pytest.raises(AuditError, match="cpu-boundary"):
            audit_functional_result(audit_trace, result)

    def test_l1_read_undercount(self, audit_trace, result):
        result.level_stats[0].reads -= 1
        with pytest.raises(AuditError, match="cpu-boundary"):
            audit_functional_result(audit_trace, result)

    def test_fill_law(self, audit_trace, result):
        result.level_stats[0].blocks_fetched += 1
        with pytest.raises(AuditError, match="fill-law"):
            audit_functional_result(audit_trace, result)

    def test_boundary_flow(self, audit_trace, result):
        result.level_stats[1].reads += 1
        with pytest.raises(AuditError, match="boundary-flow"):
            audit_functional_result(audit_trace, result)

    def test_memory_flow(self, audit_trace, result):
        result.memory_reads += 1
        with pytest.raises(AuditError, match="memory-flow"):
            audit_functional_result(audit_trace, result)

    def test_bucket_sanity_misses_exceed_accesses(self, audit_trace, result):
        result.level_stats[1].read_misses = result.level_stats[1].reads + 1
        with pytest.raises(AuditError, match="bucket-sanity"):
            audit_functional_result(audit_trace, result)

    def test_bucket_sanity_negative_counter(self, audit_trace, result):
        result.level_stats[1].writebacks = -1
        with pytest.raises(AuditError, match="bucket-sanity"):
            audit_functional_result(audit_trace, result)

    def test_time_decomposition(self, audit_trace, two_level):
        short = audit_trace[:2_000]
        result = copy.deepcopy(TimingSimulator(two_level).run(short))
        result.write_stall_ns += 5.0
        with pytest.raises(AuditError, match="time-decomposition"):
            audit_timing_result(short, result)

    def test_error_message_names_the_trace_and_laws(
        self, audit_trace, result
    ):
        result.cpu_writes += 2
        result.memory_writes += 1
        with pytest.raises(AuditError) as excinfo:
            audit_functional_result(audit_trace, result)
        message = str(excinfo.value)
        assert "'audit'" in message
        assert "2 conservation law(s)" in message


class TestEngineMutationsAreCaught:
    """Break an engine invariant; the in-engine audit must fire."""

    def test_warmup_leak_is_detected(self, audit_trace, monkeypatch):
        # A broken warmup (statistics collected during the cold-start
        # region) inflates the L1 counters past the measured reference
        # counts -- exactly the silent corruption the audit layer exists
        # to catch.
        monkeypatch.setattr(
            CacheHierarchy, "set_counting", lambda self, enabled: None
        )
        config = next(c for n, c in GRID if n == "split-write-back-2L-none")
        with pytest.raises(AuditError, match="cpu-boundary"):
            FunctionalSimulator(config).run(audit_trace)

    def test_dropped_stall_accounting_is_detected(self, audit_trace):
        # An engine that advances the clock on a miss without booking the
        # read stall breaks Equation 1's decomposition.
        class LossyEngine(timing_module._TimingEngine):
            def _do_read(self, address):
                self._wait_for_dcache()
                outcome = self.hierarchy.dcache.read(address)
                if outcome.hit:
                    self.now += self.data_hit_cost
                    self.base += self.data_hit_cost
                    if outcome.prefetched:
                        self.hierarchy.propagate(0, outcome, "read")
                else:
                    done = self._service_miss(
                        outcome, self.now, for_write=False
                    )
                    self.now = done  # stall time vanishes

        short = audit_trace[:4_000]
        with pytest.raises(AuditError, match="time-decomposition"):
            LossyEngine(next(c for n, c in GRID if "2L" in n)).run(short)
