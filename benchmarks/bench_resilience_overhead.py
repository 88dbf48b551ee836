"""BENCH-RESILIENCE: what crash tolerance costs on a real sweep.

Times the same functional sweep (eight L1 sizes over the standard trace
suite, cold memoisation cache each pass) two ways:

* **bare**: the executor as every call site uses it by default -- no
  journal, no fault plan;
* **instrumented**: a checkpoint journal recording every completed cell
  (flushed per cell, fsynced by group commit), plus a parsed-but-zero-
  rate fault plan so every per-cell injection hook runs.

Both passes must produce identical counts, and the instrumented pass
must cost at most 5% more wall clock (the acceptance bar at the full
250k-record scale): resilience is bookkeeping around the simulation, a
few JSONL writes against seconds of kernel time.  The legs run
interleaved, best of :data:`ROUNDS`, so machine drift between two
single-shot measurements cannot masquerade as overhead.  A ``BENCH``
summary line goes to stdout for CI job summaries.
"""

import sys

import benchjson

from repro.core import clock
from repro.core.sweep import sweep_functional
from repro.experiments.base import ExperimentReport
from repro.experiments.baseline import base_machine
from repro.resilience.journal import journaling
from repro.sim import memo
from repro.units import KB

#: Eight functionally-distinct configurations (L1 size axis).  Each
#: puts the direct-mapped L2 behind its own front, so the sweep planner
#: runs every cell on its own: one simulation, and one journal record,
#: per requested cell.
L1_SIZES = [1 * KB, 2 * KB, 4 * KB, 8 * KB,
            16 * KB, 32 * KB, 64 * KB, 128 * KB]

#: L2 sizes of the resume test, which share one front: one set-count
#: pass per trace, journaled as a batch.
L2_SIZES = [16 * KB, 32 * KB, 64 * KB, 128 * KB]

#: Overhead budget for the fully instrumented pass.
OVERHEAD_BUDGET = 0.05

#: Interleaved repetitions per leg; each leg reports its best round.
ROUNDS = 5


def _counts(result):
    return tuple(
        (s.reads, s.read_misses, s.writes, s.write_misses, s.writebacks)
        for s in result.level_stats
    )


def test_resilience_overhead(traces, emit, tmp_path, monkeypatch):
    configs = [base_machine(l1_size=size) for size in L1_SIZES]
    records = sum(len(t) for t in traces)
    cells = len(configs) * len(traces)

    def bare_leg():
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        memo.clear_memo_cache()
        watch = clock.Stopwatch()
        grid = sweep_functional(traces, configs)
        return watch.elapsed_s(), grid

    def instrumented_leg(rnd):
        # Zero-rate plan: every injection decision point runs, nothing
        # fires.
        monkeypatch.setenv(
            "REPRO_FAULTS", "worker_raise:0.0,corrupt_result:0.0"
        )
        memo.clear_memo_cache()
        watch = clock.Stopwatch()
        with journaling(tmp_path / f"bench-{rnd}.journal.jsonl") as journal:
            grid = sweep_functional(traces, configs)
        return watch.elapsed_s(), grid, journal

    # Alternate which leg goes first each round: on a shared machine the
    # second leg of a pair systematically sees a different load than the
    # first, and a fixed order would book that bias as "overhead".
    bare_times, inst_times = [], []
    for rnd in range(ROUNDS):
        if rnd % 2:
            inst_s, instrumented_grid, journal = instrumented_leg(rnd)
            bare_t, bare_grid = bare_leg()
        else:
            bare_t, bare_grid = bare_leg()
            inst_s, instrumented_grid, journal = instrumented_leg(rnd)
        bare_times.append(bare_t)
        inst_times.append(inst_s)
    bare_s, instrumented_s = min(bare_times), min(inst_times)

    identical = all(
        _counts(a) == _counts(b)
        for row_a, row_b in zip(bare_grid, instrumented_grid)
        for a, b in zip(row_a, row_b)
    )
    overhead = (instrumented_s - bare_s) / bare_s if bare_s else 0.0
    full_scale = records >= len(traces) * 200_000

    headers = ["pass", "wall (s)", "journal cells"]
    rows = [
        ["bare sweep", f"{bare_s:.2f}", "-"],
        ["journal + fault hooks", f"{instrumented_s:.2f}",
         str(journal.recorded)],
        ["overhead", f"{overhead * 100:+.1f}%",
         f"budget {OVERHEAD_BUDGET * 100:.0f}%"],
    ]
    checks = {
        "instrumented counts identical to bare": identical,
        "every simulated cell journaled": journal.recorded == cells,
    }
    if full_scale:
        checks["overhead <= 5% at full 250k-record scale"] = (
            overhead <= OVERHEAD_BUDGET
        )

    bench_line = (
        f"BENCH resilience-overhead: bare {bare_s:.2f}s instrumented "
        f"{instrumented_s:.2f}s overhead {overhead * 100:+.1f}% "
        f"({len(configs)} configs x {len(traces)} traces x "
        f"{records // len(traces)} records/trace, "
        f"{journal.recorded} cells journaled+fsynced, best of {ROUNDS})"
    )
    print(bench_line, file=sys.__stdout__, flush=True)
    benchjson.note(
        "resilience-overhead", records, instrumented_s,
        baseline_wall_s=round(bare_s, 4), overhead=round(overhead, 4),
        configs=len(configs), traces=len(traces), parity=bool(identical),
    )

    report = ExperimentReport(
        experiment_id="BENCH-RESILIENCE",
        title="Checkpoint journal + fault hooks overhead on a cold sweep",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[bench_line],
    )
    emit(report)
    assert report.all_checks_pass, report.render()


def test_resume_is_cheaper_than_recompute(traces, emit, tmp_path, monkeypatch):
    """Resuming a fully journaled sweep must beat re-simulating it."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    configs = [base_machine(l2_size=size) for size in L2_SIZES]
    path = tmp_path / "resume.journal.jsonl"

    memo.clear_memo_cache()
    watch = clock.Stopwatch()
    with journaling(path):
        first = sweep_functional(traces, configs)
    cold_s = watch.elapsed_s()

    memo.clear_memo_cache()
    watch = clock.Stopwatch()
    with journaling(path, resume=True):
        resumed = sweep_functional(traces, configs)
    resume_s = watch.elapsed_s()

    identical = all(
        _counts(a) == _counts(b)
        for row_a, row_b in zip(first, resumed)
        for a, b in zip(row_a, row_b)
    )
    speedup = cold_s / resume_s if resume_s else float("inf")

    bench_line = (
        f"BENCH resilience-resume: cold {cold_s:.2f}s resumed {resume_s:.2f}s "
        f"({speedup:.0f}x, {len(configs)} configs x {len(traces)} traces)"
    )
    print(bench_line, file=sys.__stdout__, flush=True)

    report = ExperimentReport(
        experiment_id="BENCH-RESILIENCE-RESUME",
        title="Journal resume vs cold recompute",
        headers=["pass", "wall (s)"],
        rows=[
            ["cold (journaling)", f"{cold_s:.2f}"],
            ["resumed (restore only)", f"{resume_s:.2f}"],
        ],
        checks={
            "resumed counts identical to cold": identical,
            "resume faster than recompute": resume_s < cold_s,
        },
        notes=[bench_line],
    )
    emit(report)
    assert report.all_checks_pass, report.render()
