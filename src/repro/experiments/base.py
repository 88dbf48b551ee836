"""Experiment framework shared by every figure reproduction."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.render import render_table
from repro.trace.record import Trace


@dataclass
class ExperimentReport:
    """The result of one experiment: a paper-shaped table plus shape checks.

    ``checks`` maps a named paper claim to whether the measured data shows
    it; EXPERIMENTS.md aggregates these as the paper-versus-measured
    record.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[str]]
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(render_table(self.headers, self.rows))
        if self.checks:
            lines.append("shape checks:")
            for name, passed in self.checks.items():
                lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


class Experiment(ABC):
    """One reproducible artefact (a figure, a table, or a claim)."""

    #: Identifier used by the CLI and DESIGN.md ("F3-1", "E-EQ1", ...).
    experiment_id: str = "?"
    title: str = "?"
    #: Whether :meth:`run` reads the trace suite it is given; one that
    #: draws its own streams sets this false, and ``mlcache run`` then
    #: builds no suite for it.
    reads_traces: bool = True

    @abstractmethod
    def run(self, traces: Sequence[Trace]) -> ExperimentReport:
        """Execute the experiment on the given trace suite."""

    def run_recorded(
        self,
        traces: Sequence[Trace],
        journal=None,
        resume: bool = False,
    ) -> Tuple[ExperimentReport, "object"]:
        """Execute with a run manifest recording the sweeps.

        Returns ``(report, recorder)``; the recorder is a
        :class:`repro.audit.manifest.RunManifest` already annotated with
        the report's shape-check outcomes, ready to ``write()``.

        ``journal`` (a path) checkpoints every completed sweep cell to an
        append-only :mod:`repro.resilience.journal` file; with
        ``resume=True`` a re-run restores the journaled cells instead of
        re-simulating them, producing an identical report.
        """
        from contextlib import nullcontext

        from repro import telemetry
        from repro.audit import manifest as run_manifest
        from repro.resilience.journal import journaling

        journal_ctx = (
            journaling(journal, resume=resume, name=self.experiment_id)
            if journal is not None
            else nullcontext(None)
        )
        with run_manifest.recording(self.experiment_id) as recorder:
            recorder.add_traces(traces)
            with journal_ctx as active_journal:
                with telemetry.span("experiment." + self.experiment_id):
                    report = self.run(traces)
        recorder.annotate(
            title=report.title,
            checks={name: bool(ok) for name, ok in report.checks.items()},
            all_checks_pass=report.all_checks_pass,
        )
        if active_journal is not None:
            recorder.annotate(
                journal={
                    "path": str(active_journal.path),
                    "resumed": resume,
                    "cells_recorded": active_journal.recorded,
                    "cells_restorable": active_journal.restorable_cells,
                }
            )
        return report, recorder

    def run_default(self) -> ExperimentReport:
        """Execute on the standard paper trace suite."""
        from repro.experiments.workloads import paper_trace_suite

        return self.run(paper_trace_suite())
