"""End-to-end tests of the figure experiments at reduced scale.

These run each experiment class on a small shared trace suite and verify
the report structure and the paper-shape checks that are robust at this
scale (structural checks, not the fine quantitative ones -- those are
exercised at benchmark scale).
"""

import pytest

from repro.experiments.equations import (
    EquationOneValidation,
    MissRatePowerLaw,
)
from repro.experiments.extensions import (
    GeneratorAblation,
    WriteBufferAblation,
)
from repro.experiments.fig3 import fig3_1
from repro.experiments.fig4 import build_grid, fig4_1
from repro.experiments.fig5 import BreakevenFigure
from repro.experiments.workloads import paper_trace_suite


@pytest.fixture(scope="module")
def tiny_suite():
    return paper_trace_suite(records=80_000, count=2)


class TestFig3:
    def test_report_structure_and_core_claims(self, tiny_suite):
        report = fig3_1().run(tiny_suite)
        assert report.experiment_id == "F3-1"
        assert report.headers[0] == "L2 size"
        assert len(report.rows) == len(fig3_1().sizes())
        assert report.checks[
            "local miss ratio exceeds global at every size (L1 filters "
            "references, not misses)"
        ]
        assert report.checks["miss ratios fall monotonically with L2 size"]


class TestFig4:
    def test_curves_report(self, tiny_suite):
        report = fig4_1().run(tiny_suite)
        assert report.experiment_id == "F4-1"
        # One row per size, one column per cycle time plus the label.
        assert len(report.rows[0]) == 11
        assert report.checks[
            "execution time rises with L2 cycle time at every size"
        ]

    def test_grid_builder_respects_l1_minimum(self, tiny_suite):
        from repro.units import KB

        grid = build_grid(tiny_suite, l1_size=32 * KB)
        assert min(grid.sizes) == 32 * KB


class TestFig5:
    def test_breakeven_report(self, tiny_suite):
        report = BreakevenFigure("F5-T", set_size=2).run(tiny_suite)
        assert report.checks["associativity buys time somewhere in the plane"]
        assert any("TTL reference" in note for note in report.notes)


class TestEquationExperiments:
    def test_eq1_report(self, tiny_suite):
        report = EquationOneValidation().run(tiny_suite)
        assert len(report.rows) == len(tiny_suite)
        assert report.checks["Equation 1 within 10% of simulation on every trace"]

    def test_powerlaw_report(self, tiny_suite):
        report = MissRatePowerLaw().run(tiny_suite)
        assert any("fitted doubling factor" in note for note in report.notes)
        assert report.checks[
            "power-law fit is tight in the pre-plateau region (R^2 > 0.95)"
        ]


class TestAblations:
    def test_write_buffer_ablation(self, tiny_suite):
        report = WriteBufferAblation().run(tiny_suite)
        assert len(report.rows) == 4
        assert report.all_checks_pass

    def test_generator_ablation_needs_no_traces(self):
        report = GeneratorAblation().run([])
        assert len(report.rows) == 2
        assert report.checks[
            "both generators produce decreasing miss curves"
        ]


class TestCli:
    def test_list_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "F3-1" in out and "E-CONC" in out

    def test_run_command_saves_report(self, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(
            ["run", "A-GEN", "--records", "5000", "--traces", "1",
             "-o", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "A-GEN.txt").exists()
        assert "A-GEN" in capsys.readouterr().out

    def test_run_builds_no_suite_for_an_experiment_that_reads_none(
        self, tmp_path, capsys, monkeypatch
    ):
        """Regression: ``mlcache run A-GEN`` built the trace suite, which
        A-GEN never reads (it draws its own generator streams)."""
        from repro.experiments import cli

        def no_suite(*args, **kwargs):
            raise AssertionError("paper_trace_suite built for A-GEN")

        monkeypatch.setattr(cli, "paper_trace_suite", no_suite)
        assert cli.main(["run", "A-GEN", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "A-GEN.txt").exists()
        capsys.readouterr()


class TestSimulateCommand:
    def test_simulate_prints_per_level_table(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cfg = tmp_path / "machine.cfg"
        cfg.write_text(
            "cpu cycle_ns=10\n"
            "l1 size=4KB block=16 split=true\n"
            "l2 size=64KB block=32 cycle=3\n"
        )
        assert main(
            ["simulate", str(cfg), "--records", "8000", "--traces", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "L1" in out and "L2" in out
        assert "memory traffic" in out

    def test_simulate_with_timing(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cfg = tmp_path / "machine.cfg"
        cfg.write_text("l1 size=4KB block=16\n")
        assert main(
            ["simulate", str(cfg), "--records", "6000", "--traces", "1",
             "--timing"]
        ) == 0
        assert "cycles per instruction" in capsys.readouterr().out


class TestEquationExperimentsStructure:
    def test_conclusion_shifts_rows(self, tiny_suite):
        from repro.experiments.equations import ConclusionShifts

        report = ConclusionShifts().run(tiny_suite)
        quantities = [row[0] for row in report.rows]
        assert "single-level -> two-level shift" in quantities
        assert report.checks["L1 global miss ratio near the paper's 10%"]

    def test_l1opt_reports_one_row_per_l2_speed(self, tiny_suite):
        from repro.experiments.equations import OptimalL1VersusL2Speed

        report = OptimalL1VersusL2Speed().run(tiny_suite)
        assert len(report.rows) == len(OptimalL1VersusL2Speed.L2_SPEEDS_NS)
        assert report.checks["optimal L1 never shrinks as the L2 slows"]

    def test_eq3_reports_eq3_prediction(self, tiny_suite):
        from repro.experiments.equations import BreakevenL1Scaling

        report = BreakevenL1Scaling().run(tiny_suite)
        assert any("Equation 3 predicts" in note for note in report.notes)
        assert report.checks["budgets grow with every L1 doubling"]


class TestFig5Structure:
    def test_contour_map_embedded(self, tiny_suite):
        from repro.experiments.fig5 import fig5_2

        report = fig5_2().run(tiny_suite)
        assert any("legend" in note for note in report.notes)
        # One row per cycle time on the Y axis.
        from repro.experiments.fig5 import BREAKEVEN_CYCLE_TIMES

        assert len(report.rows) == len(BREAKEVEN_CYCLE_TIMES)
