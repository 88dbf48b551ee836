"""``mlcache`` command-line interface.

Examples::

    mlcache list                      # show every experiment id
    mlcache run F3-1                  # reproduce Figure 3-1
    mlcache run all -o results/       # everything, saved per experiment
    mlcache simulate machine.cfg      # run a config-file machine, like the
                                      # paper's simulator input files
    mlcache trace save t.npz t.mlt    # convert to the memmap store format
    mlcache trace info t.mlt          # header, digest, segment offsets
    mlcache doctor results/ --fix     # scan artifacts, repair crash residue
    mlcache telemetry report          # per-phase timing from a telemetry sink
    mlcache telemetry export -o t.json   # Chrome/Perfetto trace for ui.perfetto.dev
    REPRO_RECORDS=1000000 REPRO_TRACES=8 mlcache run F4-2   # paper scale
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.clock import Stopwatch
from repro.experiments.base import Experiment
from repro.experiments.registry import experiment_ids, make_experiment
from repro.experiments.workloads import paper_trace_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlcache",
        description=(
            "Reproduce the figures and analytical claims of Przybylski, "
            "Horowitz & Hennessy, 'Characteristics of Performance-Optimal "
            "Multi-Level Cache Hierarchies' (ISCA 1989)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run one experiment, or 'all'")
    run.add_argument("experiment", help="experiment id (e.g. F3-1) or 'all'")
    run.add_argument(
        "-o", "--output", type=Path, default=None,
        help="directory to save rendered reports into",
    )
    run.add_argument(
        "--records", type=int, default=None,
        help="records per trace (default: REPRO_RECORDS or 250000)",
    )
    run.add_argument(
        "--traces", type=int, default=None,
        help="number of traces, up to 8 (default: REPRO_TRACES or 4)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from the per-experiment checkpoint journal in the "
             "output directory (requires -o); completed sweep cells are "
             "restored instead of re-simulated",
    )
    sim = sub.add_parser(
        "simulate",
        help="simulate a machine described by a config file on the "
             "standard workload suite",
    )
    sim.add_argument("config", type=Path, help="machine description file")
    sim.add_argument("--records", type=int, default=None)
    sim.add_argument("--traces", type=int, default=None)
    sim.add_argument(
        "--timing", action="store_true",
        help="also run the (slower) timing simulator for CPI",
    )
    lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis rules over source trees "
             "(same engine as python -m repro.lint; see "
             "docs/static-analysis.md)",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint "
             "(paths, --format, --select, --baseline, ...)",
    )
    doctor = sub.add_parser(
        "doctor",
        help="scan artifact directories (trace stores, journals, "
             "manifests, locks) for corruption and crash residue; "
             "repair with --fix (see docs/resilience.md)",
    )
    doctor.add_argument(
        "doctor_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.resilience.doctor "
             "(paths, --fix, --json)",
    )
    tele = sub.add_parser(
        "telemetry",
        help="inspect a sweep telemetry sink recorded with "
             "REPRO_TELEMETRY=1: 'report' prints a per-phase time table, "
             "'export' writes a Chrome/Perfetto trace "
             "(see docs/observability.md)",
    )
    tele.add_argument(
        "telemetry_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.telemetry.cli "
             "(report|export, sink path, -o)",
    )
    trace = sub.add_parser(
        "trace",
        help="convert and inspect memmap trace store files "
             "(.mlt; see docs/workloads.md)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_save = trace_sub.add_parser(
        "save",
        help="convert a .npz or .din trace into the store format, which "
             "opens O(1) as memory-mapped views",
    )
    trace_save.add_argument("input", type=Path, help=".npz or .din trace file")
    trace_save.add_argument(
        "output", type=Path, help="store file to write (conventionally .mlt)"
    )
    trace_info = trace_sub.add_parser(
        "info",
        help="print a store file's header without touching its data pages",
    )
    trace_info.add_argument("path", type=Path, help="store (.mlt) file")
    report = sub.add_parser(
        "report",
        help="assemble EXPERIMENTS.md from saved results/ reports",
    )
    report.add_argument(
        "--results", type=Path, default=Path("results"),
        help="directory of saved experiment reports",
    )
    report.add_argument(
        "-o", "--output", type=Path, default=Path("EXPERIMENTS.md"),
    )
    return parser


def _run_one(
    experiment: Experiment, traces, output: Optional[Path], resume: bool = False
) -> bool:
    experiment_id = experiment.experiment_id
    watch = Stopwatch()
    journal = (
        output / f"{experiment_id}.journal.jsonl" if output is not None else None
    )
    report, recorder = experiment.run_recorded(
        traces, journal=journal, resume=resume
    )
    elapsed = watch.elapsed_s()
    text = report.render() + f"\n({elapsed:.1f}s)\n"
    print(text)
    if output is not None:
        from repro.resilience.integrity import atomic_write_text

        output.mkdir(parents=True, exist_ok=True)
        atomic_write_text(output / f"{report.experiment_id}.txt", text)
        recorder.write(output / f"{report.experiment_id}.manifest.json")
    return report.all_checks_pass


def _simulate(args) -> int:
    from repro.experiments.render import format_ratio, format_size, render_table
    from repro.sim import TimingSimulator, parse_config, run_functional

    config = parse_config(args.config.read_text())
    traces = paper_trace_suite(records=args.records, count=args.traces)
    merged = None
    cpu_reads = 0
    memory_reads = memory_writes = 0
    for trace in traces:
        result = run_functional(trace, config)
        cpu_reads += result.cpu_reads
        memory_reads += result.memory_reads
        memory_writes += result.memory_writes
        if merged is None:
            merged = result.level_stats
        else:
            merged = [a.merge(b) for a, b in zip(merged, result.level_stats)]
    rows = []
    for i, stats in enumerate(merged, start=1):
        level = config.levels[i - 1]
        rows.append(
            [
                f"L{i}",
                format_size(level.size_bytes),
                f"{level.associativity}-way",
                format_ratio(stats.read_miss_ratio),
                format_ratio(stats.read_misses / cpu_reads if cpu_reads else 0.0),
                str(stats.writebacks),
            ]
        )
    print(f"machine: {args.config}")
    print(
        render_table(
            ["level", "size", "assoc", "local read miss", "global read miss",
             "writebacks"],
            rows,
        )
    )
    print(f"memory traffic: {memory_reads} block reads, {memory_writes} block writes")
    if args.timing:
        total_ns = instructions = 0.0
        for trace in traces:
            timing = TimingSimulator(config).run(trace)
            total_ns += timing.total_ns
            instructions += timing.instructions
        cpi = (total_ns / config.cpu.cycle_ns) / instructions
        print(f"timing: {cpi:.3f} cycles per instruction "
              f"({total_ns / 1e6:.2f} ms simulated)")
    return 0


def _trace(args) -> int:
    import json

    from repro.trace.record import Trace
    from repro.trace.store import TraceStore

    if args.trace_command == "save":
        if args.input.suffix == ".din":
            from repro.trace.dinero import read_dinero

            trace = read_dinero(args.input)
        else:
            trace = Trace.load(args.input)
        store = TraceStore.save(trace, args.output)
        size = args.output.stat().st_size
        print(
            f"wrote {args.output}: {store.records} records, "
            f"warmup {store.warmup}, {size} bytes"
        )
        print(f"digest {store.digest}")
        return 0
    store = TraceStore.open(args.path)
    print(store.path)
    print(f"  name      {store.name}")
    print(f"  records   {store.records}")
    print(f"  warmup    {store.warmup}")
    print(f"  digest    {store.digest}")
    print(f"  segments  kinds@{store.kinds_offset} addresses@{store.addresses_offset}")
    if store.metadata:
        print(f"  metadata  {json.dumps(store.metadata, sort_keys=True)}")
    return 0


def _report(args) -> int:
    from repro.experiments.expectations import EXPECTATIONS

    lines = [
        "# EXPERIMENTS — paper versus measured",
        "",
        "Generated by ``mlcache report`` from the rendered experiment",
        "reports in ``results/`` (regenerate them with",
        "``pytest benchmarks/ --benchmark-only`` or ``mlcache run all -o",
        "results/``).  Absolute numbers are not expected to match the",
        "paper -- the workload is a calibrated synthetic stand-in for its",
        "proprietary traces (DESIGN.md section 2) -- but every *shape*",
        "claim is checked mechanically: the ``[ok]``/``[FAIL]`` lines in",
        "each block are asserted by the benchmark suite.",
        "",
    ]
    missing = []
    for experiment_id, expectation in EXPECTATIONS.items():
        path = args.results / f"{experiment_id}.txt"
        lines.append(f"## {experiment_id}: {expectation.artefact}")
        lines.append("")
        lines.append(f"**Paper:** {expectation.paper_says}")
        lines.append("")
        lines.append(f"**Comparison:** {expectation.how_compared}")
        lines.append("")
        if path.exists():
            lines.append("**Measured:**")
            lines.append("")
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(experiment_id)
            lines.append("*(no saved report; run the benchmark)*")
        lines.append("")
    from repro.resilience.integrity import atomic_write_text

    atomic_write_text(args.output, "\n".join(lines))
    print(f"wrote {args.output} ({len(EXPECTATIONS) - len(missing)} measured, "
          f"{len(missing)} missing)")
    if missing:
        print("missing:", ", ".join(missing))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Dispatched before argparse: the lint front end owns its own flags,
    # and argparse.REMAINDER refuses option-shaped leading tokens.
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    # Same pattern for the artifact doctor (see docs/resilience.md).
    if argv[:1] == ["doctor"]:
        from repro.resilience.doctor import main as doctor_main

        return doctor_main(argv[1:])
    # And for the telemetry tools (see docs/observability.md).
    if argv[:1] == ["telemetry"]:
        from repro.telemetry.cli import main as telemetry_main

        return telemetry_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "report":
        return _report(args)
    if args.resume and args.output is None:
        print("mlcache run: --resume requires -o/--output (the checkpoint "
              "journal lives in the output directory)", file=sys.stderr)
        return 2
    targets = [
        make_experiment(experiment_id)
        for experiment_id in (
            experiment_ids() if args.experiment.lower() == "all"
            else [args.experiment]
        )
    ]
    # Built only when a target reads it (A-GEN draws its own streams).
    traces = (
        paper_trace_suite(records=args.records, count=args.traces)
        if any(experiment.reads_traces for experiment in targets)
        else []
    )
    ok = True
    for experiment in targets:
        ok = _run_one(experiment, traces, args.output, resume=args.resume) and ok
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
