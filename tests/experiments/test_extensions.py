"""Structural tests for the extension and ablation experiments."""

import pytest

from repro.experiments.extensions import (
    BlockSizeAblation,
    InclusionAblation,
    PrefetchAblation,
    ThreeLevelHierarchy,
    WritePolicyAblation,
    three_level_machine,
)
from repro.experiments.workloads import paper_trace_suite
from repro.sim.timing import _TimingEngine


@pytest.fixture(scope="module")
def tiny_suite():
    return paper_trace_suite(records=60_000, count=2)


class TestThreeLevelMachine:
    def test_depth_and_ordering(self):
        config = three_level_machine()
        assert config.depth == 3
        assert config.levels[1].size_bytes < config.levels[2].size_bytes
        assert (
            config.levels[1].cycle_cpu_cycles < config.levels[2].cycle_cpu_cycles
        )

    def test_experiment_reports_triads(self, tiny_suite):
        report = ThreeLevelHierarchy().run(tiny_suite)
        assert any("L3 triad" in row[0] for row in report.rows)
        assert report.checks[
            "upstream levels filter references at L3 too (local >> global)"
        ]


class TestPrefetchAblation:
    def test_rows_cover_all_schemes(self, tiny_suite):
        report = PrefetchAblation().run(tiny_suite)
        schemes = [row[0] for row in report.rows]
        assert schemes == ["none", "on-miss", "tagged", "always"]
        assert report.checks[
            "every prefetch scheme lowers the L2 demand miss ratio"
        ]

    def test_baseline_issues_no_prefetches(self, tiny_suite):
        report = PrefetchAblation().run(tiny_suite)
        assert report.rows[0][2] == "0"  # issued column for "none"


class TestInclusionAblation:
    def test_cost_column_present_and_nonnegative(self, tiny_suite):
        report = InclusionAblation().run(tiny_suite)
        assert report.checks["inclusion never lowers the L1 miss ratio"]
        assert len(report.rows) == len(InclusionAblation.L2_SIZES_KB)


class TestBlockSizeAblation:
    def test_miss_ratio_falls_with_block_size(self, tiny_suite):
        report = BlockSizeAblation().run(tiny_suite)
        ratios = [float(row[1]) for row in report.rows]
        assert ratios == sorted(ratios, reverse=True)
        assert report.checks[
            "larger blocks lower the L2 miss ratio (sequential code)"
        ]


class TestWritePolicyAblation:
    def test_write_through_ships_every_store(self, tiny_suite):
        report = WritePolicyAblation().run(tiny_suite)
        by_policy = {row[0]: row for row in report.rows}
        assert float(by_policy["write-through"][3]) == pytest.approx(1.0, abs=0.01)
        assert float(by_policy["write-back"][3]) < 0.9
        assert report.all_checks_pass

    def test_times_every_cell_on_the_event_engine(self, tiny_suite, monkeypatch):
        # The write-through L1 allocates on a store miss, so it replays
        # on the vectorised front: no cell steps the per-record engine.
        def refuse(engine, trace):
            raise AssertionError("the per-record timing engine ran")

        monkeypatch.setattr(_TimingEngine, "run", refuse)
        assert WritePolicyAblation().run(tiny_suite).all_checks_pass
