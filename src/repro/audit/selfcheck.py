"""``python -m repro.audit.selfcheck`` -- end-to-end trust check.

Runs every class of audit the repository has against a small synthetic
workload and reports PASS/FAIL per check:

* conservation laws on the reference functional simulator, the
  vectorised fast path and the timing simulator, over a grid of
  split/unified, write-back/write-through, 1-3 level and prefetching
  configurations;
* fast-path vs reference parity, including the per-event tail below a
  vectorised prefix (the L2- and L3-prefetching rows), a vectorised
  write-allocate write-through L1, and the sparse walk (the inclusive
  two- and three-level rows and the non-allocating write-through L1);
* stack-distance grid (every member associativity) vs reference parity,
  the direct-mapped set-count grid (every member set count of a solo
  and of a two-level group) likewise, and a sets x ways group (every
  associativity at each of three set counts, one pass) likewise;
* event-sparse vs per-record timing parity, a write-through L1 included;
* per-record timing counts vs the reference functional simulator;
* memoised vs direct parity;
* serial vs parallel sweep parity.

Exit status is 0 only if every check passes.  With ``-o PATH`` a run
manifest (including the sweep and memoisation record of the parity
checks) is written as JSON -- CI uploads one as a build artefact.

::

    PYTHONPATH=src python -m repro.audit.selfcheck -o selfcheck.manifest.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Tuple

from repro.audit import manifest as run_manifest
from repro.audit.invariants import (
    AuditError,
    audit_functional_result,
    audit_timing_result,
)
from repro.audit.parity import (
    check_fast_vs_reference,
    check_memo_vs_direct,
    check_serial_vs_parallel,
    check_stackdist_vs_reference,
    check_sweep_vs_reference,
    check_timing_counts_vs_functional,
    check_timing_vs_reference,
)
from repro.cache.policy import PrefetchKind, WritePolicy
from repro.sim.config import LevelConfig, SystemConfig
from repro.sim.fast import run_functional
from repro.sim.functional import FunctionalSimulator
from repro.sim.stackdist import member_config
from repro.sim.timing import TimingSimulator
from repro.trace.workload import SyntheticWorkload
from repro.units import KB


def _grid() -> List[Tuple[str, SystemConfig]]:
    """The scenario grid: every structural axis the audit laws cover."""
    l1 = LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True,
                     cycle_cpu_cycles=1, write_hit_cycles=2)
    l2 = LevelConfig(size_bytes=32 * KB, block_bytes=32, cycle_cpu_cycles=3)
    return [
        ("unified-1-level", SystemConfig(levels=(
            LevelConfig(size_bytes=8 * KB, block_bytes=16, cycle_cpu_cycles=2),
        ))),
        ("split-2-level-wb", SystemConfig(levels=(l1, l2))),
        ("unified-2-level-assoc", SystemConfig(levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=16, associativity=2),
            l2.with_(associativity=4),
        ))),
        ("write-through-l1", SystemConfig(levels=(
            l1.with_(split=False, write_policy=WritePolicy.WRITE_THROUGH,
                     write_allocate=False),
            l2,
        ))),
        ("write-through-alloc-l1", SystemConfig(levels=(
            l1.with_(write_policy=WritePolicy.WRITE_THROUGH), l2,
        ))),
        ("prefetch-on-miss", SystemConfig(levels=(
            l1.with_(split=False, prefetch=PrefetchKind.ON_MISS),
            l2,
        ))),
        ("prefetch-tagged-l2", SystemConfig(levels=(
            l1, l2.with_(size_bytes=8 * KB, prefetch=PrefetchKind.TAGGED),
        ))),
        ("inclusive-2-level", SystemConfig(levels=(l1, l2), enforce_inclusion=True)),
        ("inclusive-3-level", SystemConfig(levels=(
            l1,
            LevelConfig(size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3),
            LevelConfig(size_bytes=16 * KB, block_bytes=32, cycle_cpu_cycles=6),
        ), enforce_inclusion=True, backplane_cycle_ns=30.0)),
        ("fetch-two-blocks", SystemConfig(levels=(
            l1.with_(split=False, fetch_blocks=2),
            l2,
        ))),
        ("three-level", SystemConfig(levels=(
            l1,
            LevelConfig(size_bytes=16 * KB, block_bytes=32, cycle_cpu_cycles=3),
            LevelConfig(size_bytes=128 * KB, block_bytes=32, cycle_cpu_cycles=6),
        ), backplane_cycle_ns=30.0)),
        ("prefetch-always-l3", SystemConfig(levels=(
            l1,
            LevelConfig(size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3),
            LevelConfig(size_bytes=32 * KB, block_bytes=32, cycle_cpu_cycles=6,
                        prefetch=PrefetchKind.ALWAYS),
        ), backplane_cycle_ns=30.0)),
    ]


def _set_count_groups() -> List[Tuple[SystemConfig, Tuple[int, ...]]]:
    """Direct-mapped set-count groups: a solo cache over the CPU stream,
    and a base-machine-shaped L2 behind a split L1."""
    l1 = LevelConfig(size_bytes=2 * KB, block_bytes=16, split=True,
                     cycle_cpu_cycles=1, write_hit_cycles=2)
    l2 = LevelConfig(size_bytes=8 * KB, block_bytes=32, cycle_cpu_cycles=3)
    return [
        (SystemConfig(levels=(l2,)), (64, 256, 1024)),
        (SystemConfig(levels=(l1, l2)), (256, 1024, 4096)),
    ]


def _plane_group() -> Tuple[SystemConfig, Tuple[int, ...]]:
    """A sets x ways group: a base-machine-shaped L2 behind a split L1,
    every associativity at three set counts from one width-16 pass (its
    16-way member heads it)."""
    config, _ = _set_count_groups()[1]
    return member_config(config, 16), (64, 256, 1024)


def _mixed_plane() -> List[SystemConfig]:
    """A mixed plane: the base-machine-shaped L2 at 2 ways beside its
    direct-mapped twin at one set count, and lone direct-mapped cells at
    two others -- one sweep job per trace, the width-16 pass at every set
    count."""
    config, _ = _set_count_groups()[1]
    return [
        member_config(config, 2, 256),
        member_config(config, 1, 256),
        member_config(config, 1, 64),
        member_config(config, 1, 1024),
    ]


def _checks(traces, timing_records: int) -> List[Tuple[str, Callable[[], None]]]:
    checks: List[Tuple[str, Callable[[], None]]] = []
    grid = _grid()

    for name, config in grid:
        def conservation(config=config):
            for trace in traces:
                audit_functional_result(
                    trace, FunctionalSimulator(config).run(trace),
                    source="reference",
                )
                audit_functional_result(
                    trace, run_functional(trace, config), source="fast-path"
                )
                short = trace[:timing_records]
                audit_timing_result(
                    short, TimingSimulator(config).run(short)
                )
        checks.append((f"conservation[{name}]", conservation))

    def fast_parity():
        for _, config in grid:
            for trace in traces:
                check_fast_vs_reference(trace, config)
    checks.append(("fast-vs-reference", fast_parity))

    def stackdist_parity():
        # Each configuration's 16-way member heads the width-16 pass
        # over all of its associativities.
        for _, config in grid:
            for trace in traces:
                check_stackdist_vs_reference(trace, member_config(config, 16))
    checks.append(("stackdist-vs-reference", stackdist_parity))

    def dmgrid_parity():
        for config, set_counts in _set_count_groups():
            for trace in traces:
                check_stackdist_vs_reference(trace, config, set_counts)
    checks.append(("dmgrid-vs-reference", dmgrid_parity))

    def plane_parity():
        config, set_counts = _plane_group()
        for trace in traces:
            check_stackdist_vs_reference(trace, config, set_counts)
    checks.append(("plane-vs-reference", plane_parity))

    def mixed_plane_parity():
        check_sweep_vs_reference(traces, _mixed_plane())
    checks.append(("mixed-plane-vs-reference", mixed_plane_parity))

    def timing_parity():
        for _, config in grid:
            for trace in traces:
                check_timing_vs_reference(trace[:timing_records], config)
    checks.append(("timing-vs-reference", timing_parity))

    def timing_counts():
        for _, config in grid:
            for trace in traces:
                check_timing_counts_vs_functional(trace[:timing_records], config)
    checks.append(("timing-reference-vs-functional", timing_counts))

    def memo_parity():
        for _, config in grid:
            check_memo_vs_direct(traces[0], config)
    checks.append(("memo-vs-direct", memo_parity))

    def pool_parity():
        check_serial_vs_parallel(
            traces, [config for _, config in grid], workers=2
        )
    checks.append(("serial-vs-parallel", pool_parity))

    return checks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.audit.selfcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--records", type=int, default=20_000,
        help="records per synthetic trace (default 20000)",
    )
    parser.add_argument(
        "--traces", type=int, default=2,
        help="number of synthetic traces (default 2)",
    )
    parser.add_argument(
        "--timing-records", type=int, default=5_000,
        help="records per timing-simulator run (default 5000)",
    )
    parser.add_argument(
        "-o", "--manifest", type=str, default=None,
        help="write a JSON run manifest to this path",
    )
    args = parser.parse_args(argv)

    traces = [
        SyntheticWorkload(seed=17 + i).trace(
            args.records, name=f"selfcheck-{i}", warmup=args.records // 5
        )
        for i in range(max(1, args.traces))
    ]

    failures = 0
    with run_manifest.recording("selfcheck") as recorder:
        recorder.add_traces(traces)
        recorder.annotate(
            records=args.records,
            traces=args.traces,
            timing_records=args.timing_records,
        )
        results = {}
        for name, check in _checks(traces, args.timing_records):
            with recorder.phase(name):
                try:
                    check()
                except AuditError as error:
                    failures += 1
                    results[name] = "fail"
                    print(f"selfcheck: {name} ... FAIL\n{error}")
                else:
                    results[name] = "ok"
                    print(f"selfcheck: {name} ... ok")
        recorder.annotate(results=results)
    if args.manifest:
        path = recorder.write(args.manifest)
        print(f"selfcheck: manifest written to {path}")
    print(
        f"selfcheck: {len(results) - failures}/{len(results)} checks passed"
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
