"""BENCH-TELEMETRY: what observability costs on a real sweep.

Times the same functional sweep (eight L2 sizes over the standard trace
suite, cold memoisation cache each pass) three ways:

* **stubbed**: every telemetry entry point replaced by a bare lambda --
  the closest measurable stand-in for "the instrumentation was never
  written", since the call sites cannot be compiled away;
* **disabled**: the real runtime with ``REPRO_TELEMETRY`` off -- every
  ``span()`` call takes the one-branch no-op fast path, while counters
  and gauges still validate and add (they are always on: run manifests
  read them), so this leg prices the counters against stubbed;
* **enabled**: ``REPRO_TELEMETRY=1`` with a JSONL sink, so every span
  is timed, buffered and written, and worker telemetry rides the
  result pipe back to the supervisor.

All three passes must produce identical counts (recording never touches
results), the disabled pass must cost at most 1% over stubbed and the
enabled pass at most 2% (acceptance bars at the full 250k-record
scale): spans are nanosecond reads around multi-millisecond kernels.
The 1% disabled bar is the measured run-to-run noise floor on a ~1 s
wall, not the cost of the no-op branch -- full-scale runs routinely
measure the *enabled* leg inside the disabled leg's jitter.

Measurement is paired: the three legs run back-to-back inside each
round (rotating order), the overhead of a round is the ratio against
*that round's* stubbed leg, and the reported overhead is the median
ratio across :data:`ROUNDS`.  Independent best-of-N per leg is not
robust here -- a load spike during one leg's quiet round books ambient
drift as overhead; a paired ratio sees both legs under the same load.
A ``BENCH`` summary line goes to stdout for CI job summaries.
"""

import statistics
import sys

import benchjson

from repro import telemetry
from repro.core import clock
from repro.core.sweep import sweep_functional
from repro.experiments.base import ExperimentReport
from repro.experiments.baseline import base_machine
from repro.sim import memo
from repro.telemetry import runtime as telemetry_runtime
from repro.units import KB

#: Eight functionally-distinct configurations (L2 size axis).
L2_SIZES = [16 * KB, 32 * KB, 64 * KB, 128 * KB,
            256 * KB, 512 * KB, 1024 * KB, 2048 * KB]

#: Overhead budgets versus the stubbed pass.
DISABLED_BUDGET = 0.01
ENABLED_BUDGET = 0.02

#: Interleaved repetitions per leg; overheads are medians of per-round
#: paired ratios, walls report each leg's best round.
ROUNDS = 7


def _counts(result):
    return tuple(
        (s.reads, s.read_misses, s.writes, s.write_misses, s.writebacks)
        for s in result.level_stats
    )


def _grid_counts(grid):
    return tuple(_counts(cell) for row in grid for cell in row)


def test_telemetry_overhead(traces, emit, tmp_path, monkeypatch):
    configs = [base_machine(l2_size=size) for size in L2_SIZES]
    records = sum(len(t) for t in traces)

    def stubbed_leg():
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        telemetry.reset()
        noop_span = telemetry_runtime._NOOP
        monkeypatch.setattr(
            telemetry_runtime, "span", lambda *a, **k: noop_span
        )
        monkeypatch.setattr(
            telemetry_runtime, "counter_add", lambda *a, **k: None
        )
        monkeypatch.setattr(
            telemetry_runtime, "gauge_set", lambda *a, **k: None
        )
        # The call sites go through the package facade.
        monkeypatch.setattr(telemetry, "span", telemetry_runtime.span)
        monkeypatch.setattr(
            telemetry, "counter_add", telemetry_runtime.counter_add
        )
        monkeypatch.setattr(
            telemetry, "gauge_set", telemetry_runtime.gauge_set
        )
        try:
            memo.clear_memo_cache()
            watch = clock.Stopwatch()
            grid = sweep_functional(traces, configs)
            return watch.elapsed_s(), grid
        finally:
            monkeypatch.undo()

    def disabled_leg():
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.reset()
        memo.clear_memo_cache()
        watch = clock.Stopwatch()
        grid = sweep_functional(traces, configs)
        return watch.elapsed_s(), grid

    def enabled_leg(rnd):
        sink = tmp_path / f"bench-{rnd}.telemetry.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_PATH", str(sink))
        telemetry.reset()
        memo.clear_memo_cache()
        watch = clock.Stopwatch()
        grid = sweep_functional(traces, configs)
        elapsed = watch.elapsed_s()
        telemetry.close_sink()
        return elapsed, grid, sink

    # Rotate which leg goes first each round: on a shared machine later
    # legs systematically see a different load than earlier ones, and a
    # fixed order would book that bias as "overhead".
    stub_times, off_times, on_times = [], [], []
    for rnd in range(ROUNDS):
        legs = [
            ("stub", stubbed_leg),
            ("off", disabled_leg),
            ("on", lambda rnd=rnd: enabled_leg(rnd)),
        ]
        order = legs[rnd % 3:] + legs[:rnd % 3]
        for name, leg in order:
            if name == "stub":
                stub_s, stub_grid = leg()
                stub_times.append(stub_s)
            elif name == "off":
                off_s, off_grid = leg()
                off_times.append(off_s)
            else:
                on_s, on_grid, sink = leg()
                on_times.append(on_s)
    telemetry.reset()
    stub_best = min(stub_times)
    off_best = min(off_times)
    on_best = min(on_times)

    parity = (
        _grid_counts(stub_grid) == _grid_counts(off_grid)
        == _grid_counts(on_grid)
    )
    off_overhead = statistics.median(
        off / stub for off, stub in zip(off_times, stub_times)
    ) - 1.0
    on_overhead = statistics.median(
        on / stub for on, stub in zip(on_times, stub_times)
    ) - 1.0
    sink_lines = sum(
        1 for line in sink.read_text(encoding="utf-8").splitlines() if line
    )
    full_scale = records >= len(traces) * 200_000

    headers = ["pass", "wall (s)", "overhead"]
    rows = [
        ["stubbed (no instrumentation)", f"{stub_best:.2f}", "-"],
        ["disabled (no-op spans)", f"{off_best:.2f}",
         f"{off_overhead * 100:+.2f}% (budget "
         f"{DISABLED_BUDGET * 100:.1f}%)"],
        ["enabled (spans -> sink)", f"{on_best:.2f}",
         f"{on_overhead * 100:+.2f}% (budget "
         f"{ENABLED_BUDGET * 100:.0f}%)"],
    ]
    checks = {
        "recording never changes results": parity,
        "enabled run wrote span lines to the sink": sink_lines > 1,
    }
    if full_scale:
        checks["disabled overhead <= 1% at full scale"] = (
            off_overhead <= DISABLED_BUDGET
        )
        checks["enabled overhead <= 2% at full scale"] = (
            on_overhead <= ENABLED_BUDGET
        )

    bench_line = (
        f"BENCH telemetry-overhead: stubbed {stub_best:.2f}s disabled "
        f"{off_best:.2f}s ({off_overhead * 100:+.2f}%) enabled "
        f"{on_best:.2f}s ({on_overhead * 100:+.2f}%) "
        f"({len(configs)} configs x {len(traces)} traces x "
        f"{records // len(traces)} records/trace, {sink_lines} sink "
        f"lines, best of {ROUNDS})"
    )
    print(bench_line, file=sys.__stdout__, flush=True)
    benchjson.note(
        "telemetry-overhead", records, on_best,
        baseline_wall_s=round(stub_best, 4),
        disabled_wall_s=round(off_best, 4),
        disabled_overhead=round(off_overhead, 4),
        enabled_overhead=round(on_overhead, 4),
        sink_lines=sink_lines,
        configs=len(configs), traces=len(traces), parity=bool(parity),
    )

    report = ExperimentReport(
        experiment_id="BENCH-TELEMETRY",
        title="Telemetry span/counter overhead on a cold sweep",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[bench_line],
    )
    emit(report)
    assert report.all_checks_pass, report.render()
