"""BENCH-INTEGRITY: what the durable artifact layer costs when nothing
is wrong.

Times the same cold functional sweep (eight L2 sizes over the standard
trace suite) two ways, with the suite served from an on-disk trace cache
each pass -- the configuration every journaled/resumable run uses:

* **bare**: ``REPRO_STORE_VERIFY=0`` -- stores are reopened on trust
  (header parse only), as before the integrity layer existed;
* **verified**: ``REPRO_STORE_VERIFY=1`` (the default) -- every store
  open re-hashes both data segments against the recorded per-segment
  digests, and every cache entry is opened under its advisory lock.

Both passes must produce identical counts, and the verified pass must
cost at most 5% more wall clock at the full 250k-record scale: one
chunked SHA-256 over ~9 MB of segments per trace open is milliseconds
against seconds of simulation, and the locks are uncontended flock
calls.  Measurement is paired, as in ``bench_telemetry_overhead``: the
two legs run back-to-back inside each of :data:`ROUNDS` rounds,
alternating order so machine drift cannot masquerade as overhead, and
the overhead is the median of the per-round verified/bare ratios.  A
``BENCH`` summary line goes to stdout for CI job summaries.
"""

import statistics
import sys

import numpy as np

import benchjson

from repro.core import clock
from repro.core.sweep import sweep_functional
from repro.experiments import workloads
from repro.experiments.base import ExperimentReport
from repro.experiments.baseline import base_machine
from repro.experiments.workloads import paper_trace_suite
from repro.sim import memo
from repro.units import KB

#: Eight functionally-distinct configurations (L2 size axis).
L2_SIZES = [16 * KB, 32 * KB, 64 * KB, 128 * KB,
            256 * KB, 512 * KB, 1024 * KB, 2048 * KB]

#: Overhead budget for the fully verified pass.
OVERHEAD_BUDGET = 0.05

#: Interleaved repetitions per leg; the overhead is the median of the
#: per-round paired ratios, walls report each leg's best round.
ROUNDS = 5


def _counts(result):
    return tuple(
        (s.reads, s.read_misses, s.writes, s.write_misses, s.writebacks)
        for s in result.level_stats
    )


def test_integrity_overhead(emit, tmp_path, monkeypatch):
    configs = [base_machine(l2_size=size) for size in L2_SIZES]
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)

    # Populate the disk cache once, outside the clock: both legs then
    # measure reopen + sweep, the shape of every resumed or concurrent
    # run against a shared cache.
    workloads._memory_cache.clear()
    suite = paper_trace_suite()
    records = sum(len(t) for t in suite)
    trace_count = len(suite)
    del suite

    def leg(verify):
        monkeypatch.setenv("REPRO_STORE_VERIFY", "1" if verify else "0")
        workloads._memory_cache.clear()
        memo.clear_memo_cache()
        watch = clock.Stopwatch()
        traces = paper_trace_suite()
        grid = sweep_functional(traces, configs)
        elapsed = watch.elapsed_s()
        memmapped = all(isinstance(t.addresses, np.memmap) for t in traces)
        return elapsed, grid, memmapped

    # Alternate which leg goes first each round: on a shared machine the
    # second leg of a pair systematically sees a different load than the
    # first, and a fixed order would book that bias as "overhead".
    bare_times, verified_times = [], []
    for rnd in range(ROUNDS):
        if rnd % 2:
            verified_s, verified_grid, verified_memmap = leg(verify=True)
            bare_s, bare_grid, _ = leg(verify=False)
        else:
            bare_s, bare_grid, _ = leg(verify=False)
            verified_s, verified_grid, verified_memmap = leg(verify=True)
        bare_times.append(bare_s)
        verified_times.append(verified_s)
    bare_s, verified_s = min(bare_times), min(verified_times)

    identical = all(
        _counts(a) == _counts(b)
        for row_a, row_b in zip(bare_grid, verified_grid)
        for a, b in zip(row_a, row_b)
    )
    overhead = statistics.median(
        verified / bare for verified, bare in zip(verified_times, bare_times)
    ) - 1.0
    full_scale = records >= trace_count * 200_000

    headers = ["pass", "wall (s)", "per store open"]
    rows = [
        ["trusted open + sweep", f"{bare_s:.2f}", "header parse"],
        ["verified open + sweep", f"{verified_s:.2f}",
         "2 segment digests + lock"],
        ["overhead", f"{overhead * 100:+.1f}%",
         f"budget {OVERHEAD_BUDGET * 100:.0f}%"],
    ]
    checks = {
        "verified counts identical to bare": identical,
        "verified suite still memmap-backed": verified_memmap,
    }
    if full_scale:
        checks["overhead <= 5% at full 250k-record scale"] = (
            overhead <= OVERHEAD_BUDGET
        )

    bench_line = (
        f"BENCH integrity-overhead: bare {bare_s:.2f}s verified "
        f"{verified_s:.2f}s overhead {overhead * 100:+.1f}% "
        f"({len(configs)} configs x {trace_count} traces x "
        f"{records // trace_count} records/trace, segment digests + "
        f"advisory locks per open, median of {ROUNDS} paired rounds)"
    )
    print(bench_line, file=sys.__stdout__, flush=True)
    benchjson.note(
        "integrity-overhead", records, verified_s,
        baseline_wall_s=round(bare_s, 4), overhead=round(overhead, 4),
        configs=len(configs), traces=trace_count, parity=bool(identical),
    )

    report = ExperimentReport(
        experiment_id="BENCH-INTEGRITY",
        title="Store verification + advisory locking overhead on a cold sweep",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[bench_line],
    )
    emit(report)
    assert report.all_checks_pass, report.render()
