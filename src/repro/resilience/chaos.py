"""End-to-end chaos drill: sweep under injected faults, kill, resume.

This is the executable proof behind ``docs/resilience.md``::

    python -m repro.resilience.chaos --out /tmp/chaos

runs the same deterministic sweep three times:

1. **golden** -- a clean subprocess run (no faults) recording the grid
   digest an undisturbed sweep produces;
2. **chaos** -- a subprocess run with fault injection (``REPRO_FAULTS``),
   audit invariants (``REPRO_AUDIT=1``), telemetry recording
   (``REPRO_TELEMETRY=1``) and a checkpoint journal; the parent watches
   the journal grow and SIGKILLs the subprocess after a few cells have
   been checkpointed, then proves the surviving telemetry sink is
   parseable (``mlcache doctor`` trims any torn tail -- partial
   telemetry is valid telemetry);
3. **resume** -- the same command with ``--resume``, still under faults,
   which restores the journaled cells and completes the rest.

The drill passes only if the resumed grid digest is byte-identical to
the golden one -- same event counts *and* same nanosecond totals -- and
every phase's artefacts (digests, journal, summary) are left in the
output directory for inspection or CI upload.

The digest is a sha256 over a canonical rendering of every cell of both
grids (functional event counts and timing nanosecond totals), so any
lost, duplicated, corrupted or reordered cell changes it.

``--storage`` runs the *storage* variant of the drill, the executable
proof behind the durable artifact layer
(:mod:`repro.resilience.integrity`): the sweep reads its traces through
the on-disk workload cache (``REPRO_TRACE_CACHE``), the faulted phase
adds the disk faults (``torn_write``/``enospc``/``rename_fail``/
``bitflip``) to the storm and is SIGKILLed mid-run, and then the parent
*vandalises* the survivors -- flips a bit inside a cached trace store,
deletes another, appends torn journal lines, plants an orphaned tmp file
and a stale lock -- before running ``mlcache doctor --fix`` and
resuming.  The drill passes only if the doctor repairs everything it
found (corrupt artifacts quarantined, never silently read), and the
resumed grid digest is still byte-identical to the fault-free golden
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set

from repro.resilience.integrity import atomic_write_text
from repro.sim.config import LevelConfig, SystemConfig
from repro.trace.multiprogram import MultiprogramScheduler, ProcessSpec
from repro.trace.record import Trace
from repro.trace.workload import SyntheticWorkload
from repro.units import KB

#: Default fault mix for the drill: every recovery path gets exercised,
#: and the aggregate per-attempt failure probability is about 32%.
DEFAULT_FAULTS = "worker_raise:0.2,corrupt_result:0.1,worker_kill:0.05"

#: Retries for the chaos phases.  Injection draws are a pure function of
#: (seed, fault, cell, attempt), so with the default workload, faults and
#: seed the whole drill is deterministic: the worst cell fails 4
#: consecutive attempts, comfortably inside this budget.
CHAOS_RETRIES = "6"

#: Fault mix for the storage drill's storm phase: the four disk faults
#: hammer the trace-cache publish path (each failed or poisoned save
#: degrades to a heap trace or quarantines, never aborts) on top of a
#: lighter worker-fault mix.
DEFAULT_STORAGE_FAULTS = (
    "torn_write:0.3,enospc:0.2,rename_fail:0.2,bitflip:0.2,"
    "worker_raise:0.15,worker_kill:0.05"
)

#: Worker-fault-only mix for the storage drill's resume phase: recovery
#: still runs under duress, but the parent-side journal/doctor artifacts
#: it depends on are not being re-damaged while it verifies them.
RESUME_FAULTS = "worker_raise:0.15"

#: Where POSIX shared memory is visible as files; the segment check is
#: skipped on hosts without it.
SHM_DIR = Path("/dev/shm")
#: Name prefix of the segments ``multiprocessing.shared_memory`` creates
#: (``trace.store.export_traces`` hands spawned or forkserver pool workers
#: their traces in them; forked workers inherit the arrays instead).
SHM_PREFIX = "psm_"
#: How long the killed child's resource tracker gets to unlink its
#: segments before a survivor counts as leaked.
SHM_GRACE_S = 5.0


def build_traces(records: int, count: int = 2) -> List[Trace]:
    """Deterministic multiprogramming traces (identical across runs)."""
    traces = []
    for t in range(count):
        processes = [
            ProcessSpec(
                name=f"p{i}",
                workload=SyntheticWorkload(
                    seed=1000 * t + 37 * i, address_base=i << 44
                ),
            )
            for i in range(1, 4)
        ]
        scheduler = MultiprogramScheduler(processes, switch_interval=4000, seed=t)
        traces.append(
            scheduler.trace(records, name=f"chaos{t}", warmup=records // 5)
        )
    return traces


def build_configs() -> List[SystemConfig]:
    """A small grid mixing functional and timing-only variation."""
    base = SystemConfig(
        levels=(
            LevelConfig(size_bytes=4 * KB, block_bytes=16, split=True,
                        cycle_cpu_cycles=1, write_hit_cycles=2),
            LevelConfig(size_bytes=64 * KB, block_bytes=32,
                        cycle_cpu_cycles=3, write_hit_cycles=2),
        )
    )
    configs = []
    for size in (2 * KB, 4 * KB, 8 * KB):
        sized = base.with_level(0, size_bytes=size)
        configs.append(sized)
        configs.append(sized.with_level(1, cycle_cpu_cycles=5))
    return configs


def grid_digest(functional_grid, timing_grid) -> str:
    """A canonical sha256 over every cell of both grids."""
    hasher = hashlib.sha256()
    for row in functional_grid:
        for cell in row:
            hasher.update(repr((
                cell.trace_name,
                cell.cpu_reads, cell.cpu_writes, cell.cpu_ifetches,
                tuple(
                    (s.reads, s.read_misses, s.writes, s.write_misses,
                     s.writebacks)
                    for s in cell.level_stats
                ),
                cell.memory_reads, cell.memory_writes,
            )).encode())
    for row in timing_grid:
        for cell in row:
            # repr of the float totals: byte-identical means
            # nanosecond-identical, the acceptance bar for resume.
            hasher.update(repr((
                cell.trace_name, cell.total_ns, cell.read_stall_ns,
                cell.write_stall_ns, cell.memory_reads, cell.memory_writes,
            )).encode())
    return hasher.hexdigest()


def _run_sweep(args) -> int:
    """Child phase: the actual sweep, optionally journaled/resumed."""
    from contextlib import nullcontext

    from repro.core.sweep import sweep_functional, sweep_timing
    from repro.resilience.journal import journaling

    if args.suite:
        # The storage drill sweeps through the on-disk workload cache
        # (REPRO_TRACE_CACHE in the environment) so the trace-store
        # publish/verify/quarantine paths are in the line of fire.
        from repro.experiments.workloads import paper_trace_suite

        traces = paper_trace_suite(records=args.records, count=2)
    else:
        traces = build_traces(args.records)
    configs = build_configs()
    context = (
        journaling(args.journal, resume=args.resume, name="chaos")
        if args.journal
        else nullcontext(None)
    )
    with context:
        functional_grid = sweep_functional(traces, configs)
        timing_grid = sweep_timing(traces, configs)
    digest = grid_digest(functional_grid, timing_grid)
    atomic_write_text(Path(args.digest_file), digest + "\n")
    print(f"digest {digest}")
    return 0


def _count_journal_cells(path: Path) -> int:
    if not path.exists():
        return 0
    count = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if '"t": "cell"' in line:
                    count += 1
    except OSError:
        return 0
    return count


def _child_command(
    args, journal: Path, digest_file: Path, resume: bool, suite: bool = False
) -> List[str]:
    command = [
        sys.executable, "-m", "repro.resilience.chaos",
        "--phase", "sweep",
        "--records", str(args.records),
        "--digest-file", str(digest_file),
    ]
    if journal is not None:
        command += ["--journal", str(journal)]
    if resume:
        command += ["--resume"]
    if suite:
        command += ["--suite"]
    return command


def _clean_env() -> dict:
    """The fault-free child environment (audit on, src importable)."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_TRACE_CACHE", None)
    env["REPRO_AUDIT"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(Path(__file__).resolve().parents[2]),
                    os.environ.get("PYTHONPATH", "")] if p
    )
    return env


def _shm_segments() -> Optional[Set[str]]:
    """Names of the ``shared_memory`` segments now present, or ``None``
    when the host has no ``SHM_DIR``."""
    if not SHM_DIR.is_dir():
        return None
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


def _surviving_segments(before: Optional[Set[str]]) -> List[str]:
    """Segments created since ``before`` that outlive the drill.

    A SIGKILLed child cannot unlink the segments its sweep exported;
    its ``resource_tracker`` process unlinks them once the child is gone
    (and warns "leaked shared_memory objects" while doing so), so a
    survivor gets ``SHM_GRACE_S`` before it counts.
    """
    if before is None:
        return []
    deadline = time.monotonic() + SHM_GRACE_S
    while True:
        survivors = sorted((_shm_segments() or set()) - before)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.1)


def _kill_when_journaled(child, journal: Path, kill_after: int,
                         phase_timeout: float) -> bool:
    """Watch the journal grow; SIGKILL the child at ``kill_after`` cells.

    Returns whether the kill landed (the child may finish first on tiny
    grids); a hang past ``phase_timeout`` aborts the drill.
    """
    killed = False
    deadline = time.monotonic() + phase_timeout
    while child.poll() is None:
        if _count_journal_cells(journal) >= kill_after:
            child.send_signal(signal.SIGKILL)
            killed = True
            break
        if time.monotonic() > deadline:
            child.send_signal(signal.SIGKILL)
            child.wait()
            raise SystemExit("[chaos] FAIL: faulted run hung past the "
                             f"{phase_timeout}s phase timeout")
        time.sleep(0.02)
    child.wait()
    return killed


def _shm_failures(left: List[str]) -> List[str]:
    if not left:
        return []
    return [f"{len(left)} shared_memory segment(s) survived the drill: "
            f"{', '.join(left)}"]


def _orchestrate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    journal = out / "chaos.journal.jsonl"
    summary = {
        "faults": args.faults,
        "records": args.records,
        "kill_after_cells": args.kill_after,
    }

    clean_env = _clean_env()
    chaos_env = dict(clean_env)
    chaos_env["REPRO_FAULTS"] = args.faults
    chaos_env["REPRO_SWEEP_RETRIES"] = CHAOS_RETRIES
    # The killed phase records telemetry so the drill can prove a
    # SIGKILLed sink is still usable (torn tail at worst).
    telemetry_sink = out / "chaos.telemetry.jsonl"
    chaos_env["REPRO_TELEMETRY"] = "1"
    chaos_env["REPRO_TELEMETRY_PATH"] = str(telemetry_sink)
    if args.workers:
        chaos_env["REPRO_SWEEP_WORKERS"] = str(args.workers)

    segments_before = _shm_segments()
    print("[chaos] golden run (no faults)...")
    golden_file = out / "golden.digest"
    subprocess.run(
        _child_command(args, None, golden_file, resume=False),
        env=clean_env, check=True,
    )
    golden = golden_file.read_text().strip()

    print(f"[chaos] faulted run (REPRO_FAULTS={args.faults}), "
          f"killing after {args.kill_after} journaled cells...")
    chaos_digest = out / "chaos.digest"
    child = subprocess.Popen(
        _child_command(args, journal, chaos_digest, resume=False),
        env=chaos_env,
    )
    killed = _kill_when_journaled(
        child, journal, args.kill_after, args.phase_timeout
    )
    summary["killed_mid_run"] = killed
    summary["cells_at_kill"] = _count_journal_cells(journal)
    if killed:
        print(f"[chaos] killed child with {summary['cells_at_kill']} "
              f"cells journaled")
    else:
        print("[chaos] child finished before the kill threshold "
              "(still resuming to verify the journal)")

    # Partial telemetry is valid telemetry: the doctor trims any torn
    # tail the kill left, and the sink must then parse cleanly.
    import dataclasses

    from repro.resilience import doctor as doctor_mod
    from repro.telemetry.export import read_sink

    tele_findings = doctor_mod.scan([telemetry_sink])
    doctor_mod.repair(tele_findings)
    summary["telemetry_findings"] = [
        dataclasses.asdict(f) for f in tele_findings
    ]
    tele_unfixed = [f for f in tele_findings if f.fixed is None]
    summary["telemetry_doctor_unfixed"] = len(tele_unfixed)
    sink_content = (
        read_sink(telemetry_sink) if telemetry_sink.exists() else None
    )
    summary["telemetry_sink_lines"] = (
        sink_content.total_lines if sink_content else 0
    )
    summary["telemetry_span_lines"] = (
        len(sink_content.spans) if sink_content else 0
    )
    print(f"[chaos] telemetry sink: {summary['telemetry_sink_lines']} "
          f"line(s), {summary['telemetry_span_lines']} span(s), "
          f"{len(tele_findings)} doctor finding(s), "
          f"{len(tele_unfixed)} unfixed")

    print("[chaos] resumed run (faults still on)...")
    resumed_file = out / "resumed.digest"
    subprocess.run(
        _child_command(args, journal, resumed_file, resume=True),
        env=chaos_env, check=True, timeout=args.phase_timeout,
    )
    resumed = resumed_file.read_text().strip()

    summary["golden_digest"] = golden
    summary["resumed_digest"] = resumed
    summary["identical"] = resumed == golden
    summary["shm_segments_left"] = _surviving_segments(segments_before)
    atomic_write_text(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    failures = _shm_failures(summary["shm_segments_left"])
    if resumed != golden:
        failures.append(f"resumed digest {resumed[:16]}... != "
                        f"golden {golden[:16]}...")
    if tele_unfixed:
        failures.append(f"{len(tele_unfixed)} telemetry doctor "
                        f"finding(s) unfixed")
    if sink_content is None:
        failures.append("the killed run left no telemetry sink")
    elif sink_content.bad_lines or sink_content.torn_tail_bytes:
        failures.append("telemetry sink still damaged after doctor --fix "
                        f"({sink_content.bad_lines} bad line(s), "
                        f"{sink_content.torn_tail_bytes} torn byte(s))")
    if failures:
        for failure in failures:
            print(f"[chaos] FAIL: {failure}")
        return 1
    print(f"[chaos] PASS: resumed grid identical to golden "
          f"({golden[:16]}...), artefacts in {out}")
    return 0


def _vandalise(
    cache: Path, golden_cache: Path, journal: Path, dead_pid: int
) -> dict:
    """Damage the storm's survivors the way real failures would.

    Flips one bit inside a cached trace store's data pages (bit rot the
    header cannot reveal), deletes another store outright (resume must
    fall back to re-deriving it from the generator), appends a block of
    torn lines to the journal (to force it past the compaction
    threshold), and plants an orphaned tmp file plus a stale lock
    recording the dead child as holder.  If the storm's disk faults
    prevented every store save (each degraded to a heap trace), healthy
    stores are first copied in from the golden cache -- the cache key is
    deterministic, so the filenames match -- to guarantee the bitflip
    victim exists.  Returns what was done, for the drill summary.
    """
    import shutil

    acts: dict = {"bitflipped": None, "deleted": None}
    stores = sorted(cache.glob("*.mlt"))
    if not stores:
        for source in sorted(golden_cache.glob("*.mlt")):
            shutil.copy2(source, cache / source.name)
        stores = sorted(cache.glob("*.mlt"))
        acts["reseeded_from_golden"] = [p.name for p in stores]
    if stores:
        victim = stores[0]
        size = victim.stat().st_size
        # Deliberate vandalism: the drill corrupts artifacts in place so the
        # doctor has something to catch.
        with open(victim, "r+b") as handle:  # repro: noqa RPR006
            handle.seek(size - 9)  # inside the addresses segment
            byte = handle.read(1)
            handle.seek(size - 9)
            handle.write(bytes([byte[0] ^ 0x40]))
        acts["bitflipped"] = victim.name
    if len(stores) > 1:
        stores[1].unlink()
        acts["deleted"] = stores[1].name
    # Torn-line injection must bypass the journal's own append path.
    with open(journal, "a", encoding="utf-8") as handle:  # repro: noqa RPR006
        handle.write('{"t": "cell", "kind": "functional", "torn\n' * 80)
    acts["torn_journal_lines"] = 80
    # Fake crash residue: a stale tmp file the doctor must sweep up.
    (cache / f"vandal.mlt.tmp-{dead_pid}-0").write_bytes(b"\x00" * 128)  # repro: noqa RPR006
    from repro.resilience.integrity import boot_id

    # Stale lock from a dead pid -- planted raw on purpose.
    (cache / "vandal.lock").write_text(json.dumps(
        {"pid": dead_pid, "boot_id": boot_id(), "name": "vandal"}
    ) + "\n")  # repro: noqa RPR006
    return acts


def _orchestrate_storage(args) -> int:
    """The storage drill: disk-fault storm -> vandalism -> doctor -> resume."""
    import dataclasses

    from repro.resilience import doctor as doctor_mod

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache = out / "storage-cache"
    journal = out / "storage.journal.jsonl"
    faults = (
        args.faults if args.faults != DEFAULT_FAULTS else DEFAULT_STORAGE_FAULTS
    )
    summary = {
        "drill": "storage",
        "faults": faults,
        "records": args.records,
        "kill_after_cells": args.kill_after,
    }

    clean_env = _clean_env()
    golden_env = dict(clean_env)
    golden_env["REPRO_TRACE_CACHE"] = str(out / "golden-cache")
    storm_env = dict(clean_env)
    storm_env["REPRO_TRACE_CACHE"] = str(cache)
    storm_env["REPRO_FAULTS"] = faults
    storm_env["REPRO_SWEEP_RETRIES"] = CHAOS_RETRIES
    resume_env = dict(storm_env)
    resume_env["REPRO_FAULTS"] = RESUME_FAULTS
    if args.workers:
        storm_env["REPRO_SWEEP_WORKERS"] = str(args.workers)
        resume_env["REPRO_SWEEP_WORKERS"] = str(args.workers)

    segments_before = _shm_segments()
    print("[storage] golden run (no faults, pristine cache)...")
    golden_file = out / "golden.digest"
    subprocess.run(
        _child_command(args, None, golden_file, resume=False, suite=True),
        env=golden_env, check=True,
    )
    golden = golden_file.read_text().strip()

    print(f"[storage] disk-fault storm (REPRO_FAULTS={faults}), "
          f"killing after {args.kill_after} journaled cells...")
    child = subprocess.Popen(
        _child_command(args, journal, out / "storm.digest", resume=False,
                       suite=True),
        env=storm_env,
    )
    killed = _kill_when_journaled(
        child, journal, args.kill_after, args.phase_timeout
    )
    summary["killed_mid_run"] = killed
    summary["cells_at_kill"] = _count_journal_cells(journal)
    print(f"[storage] storm over ({summary['cells_at_kill']} cells "
          f"journaled); vandalising survivors...")
    summary["vandalism"] = _vandalise(
        cache, out / "golden-cache", journal, dead_pid=child.pid
    )

    # The killed child's pool workers share its journal-lock file
    # description until they notice the reparent and exit; give them a
    # moment so the doctor sees a stale lock, not a held one.
    from repro.resilience.integrity import probe_lock

    lock_path = journal.with_name(journal.name + ".lock")
    orphan_deadline = time.monotonic() + 15.0
    while (probe_lock(lock_path) == "held"
           and time.monotonic() < orphan_deadline):
        time.sleep(0.1)

    print("[storage] mlcache doctor --fix over the wreckage...")
    findings = doctor_mod.scan([out])  # the cache dir nests under out
    doctor_mod.repair(findings)
    summary["doctor_findings"] = [dataclasses.asdict(f) for f in findings]
    unfixed = [
        f for f in findings if f.fixed is None and f.kind != "held_lock"
    ]
    summary["doctor_unfixed"] = len(unfixed)
    for finding in findings:
        print(f"[storage]   {finding.fixed or 'UNFIXED'}: "
              f"{finding.kind} {finding.path}")

    print("[storage] resumed run (worker faults only)...")
    resumed_file = out / "resumed.digest"
    subprocess.run(
        _child_command(args, journal, resumed_file, resume=True, suite=True),
        env=resume_env, check=True, timeout=args.phase_timeout,
    )
    resumed = resumed_file.read_text().strip()

    quarantined = sorted(
        str(p.relative_to(out))
        for p in out.rglob("quarantine/*")
        if not p.name.endswith(".reason.json")
    )
    summary["quarantined"] = quarantined
    summary["golden_digest"] = golden
    summary["resumed_digest"] = resumed
    summary["identical"] = resumed == golden
    summary["shm_segments_left"] = _surviving_segments(segments_before)
    atomic_write_text(
        out / "storage-summary.json",
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    failures = _shm_failures(summary["shm_segments_left"])
    if resumed != golden:
        failures.append(f"resumed digest {resumed[:16]}... != golden "
                        f"{golden[:16]}...")
    if unfixed:
        failures.append(f"{len(unfixed)} doctor finding(s) unfixed")
    if not quarantined:
        failures.append("nothing was quarantined (the bitflipped store "
                        "must never be silently read)")
    if failures:
        for failure in failures:
            print(f"[storage] FAIL: {failure}")
        return 1
    print(f"[storage] PASS: doctor repaired {len(findings)} finding(s), "
          f"{len(quarantined)} artifact(s) quarantined, resumed grid "
          f"identical to golden ({golden[:16]}...), artefacts in {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Kill-and-resume chaos drill for the sweep executor.",
    )
    parser.add_argument("--out", type=Path, default=Path("chaos-out"),
                        help="artefact directory (journal, digests, summary)")
    parser.add_argument("--records", type=int, default=40_000,
                        help="records per trace (2 traces)")
    parser.add_argument("--faults", default=DEFAULT_FAULTS,
                        help="REPRO_FAULTS spec for the chaos phases")
    parser.add_argument("--kill-after", type=int, default=3,
                        help="SIGKILL the faulted run after this many "
                             "journaled cells")
    parser.add_argument("--workers", type=int, default=2,
                        help="REPRO_SWEEP_WORKERS for the chaos phases "
                             "(0 keeps the environment's setting)")
    parser.add_argument("--phase-timeout", type=float, default=600.0,
                        help="wall-clock limit per phase (hang detector)")
    parser.add_argument("--storage", action="store_true",
                        help="run the storage drill instead: disk-fault "
                             "storm through the on-disk trace cache, "
                             "vandalism, mlcache doctor --fix, resume")
    # Child-phase plumbing (not for interactive use).
    parser.add_argument("--phase", choices=["sweep"], default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--journal", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--resume", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--digest-file", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--suite", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase == "sweep":
        return _run_sweep(args)
    if args.storage:
        return _orchestrate_storage(args)
    return _orchestrate(args)


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
