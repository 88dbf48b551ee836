"""BENCH-STACKDIST: one trace pass per grid group vs one per grid cell.

Times a Figure-5-shaped size x associativity grid (L2 sizes 16 KB-512 KB
x 1/2/4/8/16 ways over the standard trace suite) two ways:

* **fast path** (the PR-1 engine): one vectorised
  ``FastFunctionalSimulator`` run per grid cell, serially -- what every
  sweep paid before the stack-distance planner.
* **stackdist path**: :func:`repro.core.sweep.sweep_functional` with a
  cold memo cache.  Cells sharing a deepest-level
  set count ride one stack (Mattson's inclusion property), and the set
  counts of one front share one sets x ways pass with a stack per set
  count; on this grid that collapses 30 simulations per trace into one
  pass over the ten diagonals, headed by a 16-way cell.

Both paths must produce identical counts on every cell (the fast path is
itself count-identical to the reference ``FunctionalSimulator`` --
``tests/sim``), and a truncated-trace sub-grid is checked against the
reference simulator directly.  The acceptance bar is >= 5x at the full
250k-record scale.

The set-count row times Figure-3-shaped direct-mapped cells -- the base
machine's L2 and its solo twin over the CPU stream, 4 KB-4 MB each --
per cell on the fast path against one direct-mapped set-count pass per
trace and shape (:func:`repro.sim.stackdist.run_stackdist_grid` with the
member set counts), with identical counts on every cell.

The sets x ways row times Figure-5-1-shaped cells -- the base machine
with a 4 KB L1, every L2 size of the sweep at one and two ways -- as one
width-16 pass per deepest set count against one pass with a stack per
set count, each replaying only its direct-mapped misses, found for
every member by one set refinement
(:func:`repro.sim.stackdist.run_stackdist_grid` headed by the 16-way
member, with the member set counts), with identical counts on every
cell.  A ``BENCH`` summary line goes to stdout for CI job
summaries, and the headline numbers land in ``results/BENCH.json`` via
:mod:`benchjson`.
"""

import sys

import benchjson

from repro.audit import manifest
from repro.core import clock
from repro.core.sweep import sweep_functional
from repro.experiments.base import ExperimentReport
from repro.experiments.baseline import base_machine, l2_sweep_sizes
from repro.experiments.render import format_size
from repro.sim import memo, stackdist
from repro.sim.stackdist import STACK_ASSOCIATIVITIES as STACK_WAYS
from repro.sim.fast import FastFunctionalSimulator, clear_front_cache
from repro.sim.functional import FunctionalSimulator
from repro.trace.record import Trace
from repro.units import KB

#: The Figure 5 axes: six sizes x five set sizes.  Diagonals of constant
#: size/ways share a set count, and every cell lies on one plane of one
#: front, so the planner runs one pass per trace.
L2_SIZES = [16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB]
SET_SIZES = [1, 2, 4, 8, 16]

#: The Figure 3 L2 axis, direct-mapped: one set-count pass per trace
#: serves every size of the base machine's L2, and another every size
#: of its solo twin.
DM_SIZES = [(4 * KB) << i for i in range(11)]

#: The Figure 5-1 plane: a 4 KB L1, every L2 size of the sweep at one
#: and two ways -- the set counts one sets x ways pass serves.
PLANE_SIZES = l2_sweep_sizes(minimum=8 * KB)
PLANE_WAYS = (1, 2)

#: Records of the reference-simulator spot check (the event-driven
#: reference is ~3 orders slower, so it sees a truncated trace).
REFERENCE_RECORDS = 20_000

#: Interleaved best-of rounds.  This machine drifts +/-20% between
#: identical legs, so two fixed-order single-shot legs would book that
#: drift as speedup (or its absence); alternating which path goes first
#: each round and taking each leg's best cancels the bias.
ROUNDS = 3


def _grid_configs():
    return [
        (size, ways, base_machine(l2_size=size).with_level(1, associativity=ways))
        for size in L2_SIZES
        for ways in SET_SIZES
    ]


def _counts(result):
    return tuple(
        (s.reads, s.read_misses, s.writes, s.write_misses, s.writebacks,
         s.blocks_fetched)
        for s in result.level_stats
    ) + ((result.memory_reads, result.memory_writes),)


def _set_count_shapes():
    """(shape, group config, member configs): the base machine's L2 and
    its solo twin, direct-mapped over :data:`DM_SIZES`."""
    shapes = []
    for shape, config in (
        ("base-machine L2", base_machine()),
        ("solo L2", base_machine().without_level(0)),
    ):
        members = [config.with_level(config.depth - 1, size_bytes=size) for size in DM_SIZES]
        shapes.append((shape, config, members))
    return shapes


def _set_count_row(traces):
    """Per-cell fast path against one set-count pass per trace and shape:
    ``(per-cell s, one-pass s, identical, cells, passes)``, each leg its
    best of :data:`ROUNDS` alternating rounds."""
    shapes = _set_count_shapes()
    per_cell, grouped = {}, {}

    def cell_leg():
        clear_front_cache()
        watch = clock.Stopwatch()
        for shape, _, members in shapes:
            for trace in traces:
                per_cell[(shape, trace.name)] = [
                    FastFunctionalSimulator(member).run(trace) for member in members
                ]
        return watch.elapsed_s()

    def pass_leg():
        clear_front_cache()
        watch = clock.Stopwatch()
        for shape, config, members in shapes:
            set_counts = [m.levels[-1].geometry().sets for m in members]
            for trace in traces:
                grouped[(shape, trace.name)] = stackdist.run_stackdist_grid(
                    trace, config, set_counts
                ).results
        return watch.elapsed_s()

    cell_times, pass_times = [], []
    for rnd in range(ROUNDS):
        legs = (pass_leg, cell_leg) if rnd % 2 else (cell_leg, pass_leg)
        for leg in legs:
            (cell_times if leg is cell_leg else pass_times).append(leg())
    identical = all(
        _counts(new) == _counts(old)
        for key, cells in per_cell.items()
        for new, old in zip(grouped[key], cells)
    ) and per_cell.keys() == grouped.keys()
    cells = sum(len(members) for _, _, members in shapes) * len(traces)
    return min(cell_times), min(pass_times), identical, cells, len(per_cell)


def _plane_row(traces):
    """One width-16 pass per set count against one sets x ways pass per
    trace: ``(per-set-count s, one-pass s, identical, set counts)``, each
    leg its best of :data:`ROUNDS` alternating rounds."""
    config = base_machine(l1_size=4 * KB)
    set_counts = sorted({
        config.with_level(1, size_bytes=size, associativity=ways)
        .levels[-1].geometry().sets
        for size in PLANE_SIZES
        for ways in PLANE_WAYS
    })
    per_count, grouped = {}, {}

    def count_leg():
        clear_front_cache()
        watch = clock.Stopwatch()
        for trace in traces:
            per_count[trace.name] = [
                member
                for sets in set_counts
                for member in stackdist.run_stackdist_grid(
                    trace, stackdist.member_config(config, 16, sets)
                ).results
            ]
        return watch.elapsed_s()

    def pass_leg():
        clear_front_cache()
        watch = clock.Stopwatch()
        for trace in traces:
            grouped[trace.name] = stackdist.run_stackdist_grid(
                trace, stackdist.member_config(config, 16), set_counts
            ).results
        return watch.elapsed_s()

    count_times, pass_times = [], []
    for rnd in range(ROUNDS):
        legs = (pass_leg, count_leg) if rnd % 2 else (count_leg, pass_leg)
        for leg in legs:
            (count_times if leg is count_leg else pass_times).append(leg())
    identical = per_count.keys() == grouped.keys() and all(
        len(grouped[name]) == len(members)
        and all(
            new.config == old.config and _counts(new) == _counts(old)
            for new, old in zip(grouped[name], members)
        )
        for name, members in per_count.items()
    )
    return min(count_times), min(pass_times), identical, set_counts


def _reference_spot_check(trace):
    """stackdist members vs the reference simulator on a truncated trace."""
    short = Trace(
        trace.kinds[:REFERENCE_RECORDS].copy(),
        trace.addresses[:REFERENCE_RECORDS].copy(),
        name=f"{trace.name}-spot",
        warmup=min(trace.warmup, REFERENCE_RECORDS // 4),
    )
    config = stackdist.member_config(base_machine(l2_size=32 * KB), 16)
    grid = stackdist.run_stackdist_grid(short, config)
    return all(
        _counts(member) == _counts(FunctionalSimulator(member.config).run(short))
        for member in grid.results
    )


def test_stackdist_grid_speedup(traces, emit):
    grid = _grid_configs()
    records = sum(len(t) for t in traces)

    fast_results = {}

    def fast_leg():
        clear_front_cache()
        watch = clock.Stopwatch()
        for size, ways, config in grid:
            fast_results[(size, ways)] = [
                FastFunctionalSimulator(config).run(trace) for trace in traces
            ]
        return watch.elapsed_s()

    planned = {}

    def stack_leg():
        memo.clear_memo_cache()
        clear_front_cache()
        watch = clock.Stopwatch()
        with manifest.recording("bench-stackdist") as run:
            rows = sweep_functional(
                traces, [config for _, _, config in grid], workers=1
            )
        elapsed = watch.elapsed_s()
        (note,) = run.sweeps
        planned.update(groups=note.stackdist_groups, simulated=note.simulated)
        return elapsed, rows

    fast_times, stack_times = [], []
    stack_rows = None
    for rnd in range(ROUNDS):
        if rnd % 2:
            s, stack_rows = stack_leg()
            f = fast_leg()
        else:
            f = fast_leg()
            s, stack_rows = stack_leg()
        fast_times.append(f)
        stack_times.append(s)
    fast_total = min(fast_times)
    stack_total = min(stack_times)

    identical = all(
        _counts(new) == _counts(old)
        for (size, ways, _), row in zip(grid, stack_rows)
        for new, old in zip(row, fast_results[(size, ways)])
    )
    reference_ok = _reference_spot_check(traces[0])
    speedup = fast_total / stack_total if stack_total else float("inf")
    dm_cell_total, dm_pass_total, dm_identical, dm_cells, dm_passes = (
        _set_count_row(traces)
    )
    dm_speedup = dm_cell_total / dm_pass_total if dm_pass_total else float("inf")
    plane_count_total, plane_pass_total, plane_identical, plane_sets = (
        _plane_row(traces)
    )
    plane_speedup = (
        plane_count_total / plane_pass_total if plane_pass_total else float("inf")
    )
    full_scale = records >= len(traces) * 200_000

    headers = ["path", "wall (s)", "trace passes / trace"]
    cells = len(grid)
    groups = planned["groups"] // len(traces)
    singles = planned["simulated"] // len(traces)
    rows = [
        ["fast path (per cell)", f"{fast_total:.2f}", str(cells)],
        [
            "stackdist (sweep planner)",
            f"{stack_total:.2f}",
            f"{groups} stack pass{'es' if groups != 1 else ''}"
            + (f" + {singles} per cell" if singles else ""),
        ],
        [
            "direct-mapped L2 axis, per cell",
            f"{dm_cell_total:.2f}",
            str(dm_cells // len(traces)),
        ],
        [
            "direct-mapped L2 axis, one pass",
            f"{dm_pass_total:.2f}",
            f"{dm_passes // len(traces)} set-count passes",
        ],
        [
            "sets x ways plane, per set count",
            f"{plane_count_total:.2f}",
            f"{len(plane_sets)} stack passes",
        ],
        [
            "sets x ways plane, one pass",
            f"{plane_pass_total:.2f}",
            "1 stack pass",
        ],
    ]

    checks = {
        "stackdist counts identical to the fast path on every cell": identical,
        "stackdist counts identical to the reference (truncated sub-grid)":
            reference_ok,
        "stackdist faster than per-cell fast path": speedup > 1.0,
        "set-count pass counts identical to the fast path on every cell":
            dm_identical,
        "set-count pass faster than per-cell fast path": dm_speedup > 1.0,
        "sets x ways pass counts identical to per-set-count passes on every cell":
            plane_identical,
        "sets x ways pass faster than one pass per set count": plane_speedup > 1.0,
    }
    if full_scale:
        checks["speedup >= 5x at full 250k-record scale"] = speedup >= 5.0

    bench_line = (
        f"BENCH stackdist-grid: fast {fast_total:.2f}s stackdist "
        f"{stack_total:.2f}s speedup {speedup:.1f}x "
        f"({cells} configs x {len(traces)} traces x "
        f"{records // len(traces)} records/trace, best of {ROUNDS})"
    )
    dm_line = (
        f"BENCH stackdist-sets: fast {dm_cell_total:.2f}s set-count pass "
        f"{dm_pass_total:.2f}s speedup {dm_speedup:.1f}x "
        f"({dm_cells // len(traces)} direct-mapped cells x {len(traces)} traces, "
        f"{format_size(DM_SIZES[0])}-{format_size(DM_SIZES[-1])}, base-machine "
        f"and solo L2, best of {ROUNDS})"
    )
    plane_line = (
        f"BENCH stackdist-plane: per set count {plane_count_total:.2f}s "
        f"one pass {plane_pass_total:.2f}s speedup {plane_speedup:.1f}x "
        f"({len(plane_sets)} set counts {plane_sets[0]}-{plane_sets[-1]} x "
        f"{len(STACK_WAYS)} associativities x {len(traces)} traces, 4KB L1, "
        f"best of {ROUNDS})"
    )
    print(bench_line, file=sys.__stdout__, flush=True)
    print(dm_line, file=sys.__stdout__, flush=True)
    print(plane_line, file=sys.__stdout__, flush=True)
    benchjson.note(
        "stackdist-grid", records, stack_total, speedup=speedup,
        baseline_wall_s=round(fast_total, 4), configs=cells,
        traces=len(traces), parity=bool(identical and reference_ok),
    )
    benchjson.note(
        "stackdist-sets", records, dm_pass_total, speedup=dm_speedup,
        baseline_wall_s=round(dm_cell_total, 4), configs=dm_cells // len(traces),
        traces=len(traces), parity=bool(dm_identical),
    )
    benchjson.note(
        "stackdist-plane", records, plane_pass_total, speedup=plane_speedup,
        baseline_wall_s=round(plane_count_total, 4),
        configs=len(plane_sets) * len(STACK_WAYS), traces=len(traces),
        parity=bool(plane_identical),
    )

    report = ExperimentReport(
        experiment_id="BENCH-STACKDIST",
        title=(
            "Grid engine vs per-cell fast path (Figure-5-shaped size x "
            "associativity grid; Figure-3-shaped direct-mapped size axis; "
            "Figure-5-1-shaped sets x ways plane)"
        ),
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            bench_line,
            dm_line,
            plane_line,
            f"{format_size(min(L2_SIZES))}-{format_size(max(L2_SIZES))} x "
            f"set sizes {SET_SIZES}: diagonals of constant size/ways share "
            f"a set count, so one LRU stack derives every member "
            f"associativity exactly (Mattson inclusion), and one pass with "
            f"a stack per set count serves every diagonal (set refinement).",
        ],
    )
    emit(report)
    assert report.all_checks_pass, report.render()
