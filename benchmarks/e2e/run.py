"""End-to-end benchmark of ``mlcache run``: host time per workload, and a
traced pass that splits that time across the repository's layers.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload timing --reps 5
    python3 benchmarks/e2e/run.py --trace --json out.json
    python3 benchmarks/e2e/run.py --workload figures --seed 3 --seconds 20 --trace 0

Each rep is a fresh ``rep.py`` subprocess, run one at a time (a closed
loop with one client), so every cache starts cold.  ``--reps N`` fixes
the rep count; ``--seconds T`` starts reps while the next one is
predicted to end within T seconds (at least one); otherwise each
workload runs its default count.  ``setup_s`` gets at least
:data:`MIN_SETUPS` samples, topped up with setup-only spawns.

Outputs are checked on every pass: report digests against
``golden/seed0.json`` (seed 0, default scale) or else against the first
pass, failed sweep cells, the paper's shape checks (gated at seed 0 and
default scale only: they are claims about that calibrated suite), and,
on the first rep, one swept cell against the reference simulator.  Any
failure makes the exit status 1.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (experiment runs) and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  Each invocation also appends one row to
``history.jsonl`` (unless ``--no-history``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden" / "seed0.json"
HISTORY = HERE / "history.jsonl"
#: Scratch space for rep directories; inside the checkout, removed on exit.
WORK = HERE / ".work"

DEFAULT_RECORDS = 250_000
MIN_SETUPS = 3
#: A single rep at default scale takes ~25 s; this only stops a hang.
REP_TIMEOUT_S = 170

FIGURES = (
    "F3-1", "F3-2", "F4-1", "F4-2", "F4-3", "F4-4", "F5-1", "F5-2", "F5-3",
    "E-EQ2", "E-EQ3", "E-R5", "E-CONC", "E-L1OPT", "A-BLOCK",
)


@dataclass(frozen=True)
class Workload:
    ids: Tuple[str, ...]
    traces: int
    reps: int
    #: L2 size of a base-machine cell the workload sweeps; the first rep
    #: checks it against the reference simulator (later passes must then
    #: match that rep's report digests).
    probe_l2_kb: int = 64
    full: bool = False
    resume: bool = False


#: Together the first three cover every experiment of ``mlcache run all``;
#: ``resume`` re-runs the first from a complete checkpoint.  The reasons
#: for each choice are in BENCHMARK.json and README.md.
WORKLOADS = {
    "figures": Workload(FIGURES, traces=8, reps=3, full=True),
    "timing": Workload(("E-EQ1", "E-3L", "A-AFFINE", "A-WBUF", "A-WPOL"), traces=4, reps=3),
    # A-PREF's no-prefetch cell is keyed apart from the base machine, so
    # the probe uses one of A-INCL's L2 sizes.
    "reference": Workload(("A-PREF", "A-INCL", "A-GEN"), traces=4, reps=3, probe_l2_kb=32),
    "resume": Workload(FIGURES, traces=8, reps=5, full=True, resume=True),
}


def _summary(samples: List[float], unit: str) -> Dict[str, Any]:
    return {
        "value": statistics.median(samples), "unit": unit, "n": len(samples),
        "min": min(samples), "max": max(samples), "samples": samples,
    }


def _workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _rep_env(workload: Workload, telemetry_path: Optional[Path]) -> Dict[str, str]:
    """The pinned rep environment: inherited REPRO_* knobs are dropped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_AUDIT="0",
        REPRO_TELEMETRY="0",
        REPRO_SWEEP_CONTEXT="fork",
        REPRO_SWEEP_WORKERS=str(_workers()),
    )
    if workload.full:
        env["REPRO_FULL"] = "1"
    if telemetry_path is not None:
        env.update(REPRO_TELEMETRY="1", REPRO_TELEMETRY_PATH=str(telemetry_path))
    return env


class RepFailed(RuntimeError):
    """A rep subprocess exited non-zero or hung."""


def _spawn(spec: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one rep to completion; returns its result plus ``setup_s``.

    The rep runs in its own process group, so a hang is killed together
    with its pool workers, and every process is reaped before returning.
    """
    directory = Path(spec["dir"])
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path)],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # After a hang or an interrupt this kills the rep and its pool
        # workers; after a clean exit the group is already empty.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RepFailed(f"rep timed out after {REP_TIMEOUT_S} s ({spec['mode']}, {directory.name})")
    if code != 0:
        raise RepFailed(f"rep exited with status {code} ({spec['mode']}, {directory.name})")
    result = json.loads(Path(spec["result"]).read_text())
    result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
    return result


def _read_pass(directory: Path, ids: Tuple[str, ...]) -> Dict[str, Dict[str, Any]]:
    """Digest, failed shape checks and sweep totals of each experiment."""
    outputs = {}
    for experiment_id in ids:
        report = (directory / f"{experiment_id}.txt").read_bytes()
        manifest = json.loads((directory / f"{experiment_id}.manifest.json").read_text())
        outputs[experiment_id] = {
            "digest": hashlib.sha256(report).hexdigest(),
            "checks_failed": sorted(
                name for name, ok in manifest["extra"].get("checks", {}).items() if not ok
            ),
            "totals": manifest["sweep_totals"],
        }
    return outputs


def _sum_totals(outputs: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    keys = ("cells", "simulated", "memoised", "resumed", "failed",
            "stackdist_groups", "cells_derived")
    return {key: sum(out["totals"][key] for out in outputs.values()) for key in keys}


class WorkloadRun:
    """Every pass of one workload: reps, setup probes, traced pass."""

    def __init__(self, name: str, args: argparse.Namespace, scratch: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.args = args
        self.scratch = scratch
        self.traces = min(self.workload.traces, args.traces or self.workload.traces)
        self.records = args.records or DEFAULT_RECORDS
        self.spawned = 0
        self.prep_dir: Optional[Path] = None
        #: (label, outputs, rep result) per pass that ran experiments.
        self.passes: List[Tuple[str, Dict[str, Dict[str, Any]], Dict[str, Any]]] = []
        self.reps: List[Dict[str, Any]] = []
        self.setups: List[float] = []
        self.errors: List[str] = []

    def _spec(self, mode: str, directory: Path, trace: bool = False,
              probe: bool = False) -> Dict[str, Any]:
        resume = self.workload.resume and mode != "prep"
        return {
            "mode": mode, "ids": list(self.workload.ids), "seed": self.args.seed,
            "records": self.records, "traces": self.traces, "dir": str(directory),
            "resume": resume, "trace": trace,
            "probe_l2_kb": self.workload.probe_l2_kb if probe else None,
            "result": str(directory / "result.json"),
        }

    def _fresh_dir(self, label: str) -> Path:
        self.spawned += 1
        directory = self.scratch / f"{self.name}-{self.spawned:03d}-{label}"
        directory.mkdir()
        if self.workload.resume and self.prep_dir is not None:
            # A pristine copy of the checkpoint: journals and trace stores.
            for source in self.prep_dir.iterdir():
                if source.suffix in (".mlt", ".jsonl"):
                    shutil.copyfile(source, directory / source.name)
        return directory

    def _pass(self, label: str, trace: bool = False) -> Dict[str, Any]:
        directory = self._fresh_dir(label)
        telemetry_path = directory / "telemetry.jsonl" if trace else None
        mode = "prep" if label == "prep" else "pass"
        result = _spawn(
            self._spec(mode, directory, trace, probe=label == "rep1"),
            _rep_env(self.workload, telemetry_path),
        )
        result["dir"] = str(directory)
        self.passes.append((label, _read_pass(directory, self.workload.ids), result))
        if result["probe"] not in (None, "ok"):
            self.errors.append(f"{label}: {result['probe']}")
        return result

    def run(self) -> None:
        if self.workload.resume:
            self._pass("prep")
            self.prep_dir = Path(self.passes[0][2]["dir"])
        fixed = self.args.reps or (None if self.args.seconds else self.workload.reps)
        started = time.monotonic()
        while True:
            self.reps.append(self._pass(f"rep{len(self.reps) + 1}"))
            self.setups.append(self.reps[-1]["setup_s"])
            if fixed is not None:
                if len(self.reps) >= fixed:
                    break
            else:
                elapsed = time.monotonic() - started
                if elapsed * (len(self.reps) + 1) / len(self.reps) > self.args.seconds:
                    break
        while len(self.setups) < MIN_SETUPS:
            directory = self._fresh_dir("setup")
            self.setups.append(
                _spawn(self._spec("setup", directory), _rep_env(self.workload, None))["setup_s"]
            )
        if self.args.trace:
            self._pass("traced", trace=True)

    # -- results ---------------------------------------------------------------

    def digests(self) -> Dict[str, str]:
        """Per-experiment report digests of the first timed rep."""
        rep = next(outputs for label, outputs, _ in self.passes if label == "rep1")
        return {eid: out["digest"] for eid, out in rep.items()}

    def check(self, golden: Optional[Dict[str, str]], gate_shape: bool) -> Dict[str, Any]:
        """Correctness of every pass; returns the gate counters.

        ``golden`` (seed 0 at default scale) is the reference digest set;
        otherwise the first pass -- the checkpointing prep run for
        ``resume`` -- is, so reps must agree with each other, traced with
        untraced, and a resumed run with the run it resumes.
        """
        reference = golden or {
            eid: out["digest"] for eid, out in self.passes[0][1].items()
        }
        mismatched, attempted, failed = set(), 0, 0
        cells = failed_cells = 0
        shape_failures = sum(len(out["checks_failed"]) for out in self.passes[0][1].values())
        for label, outputs, result in self.passes:
            # Untraced passes must run the program as shipped; the traced
            # pass must have every layer wrapped, or its breakdown has holes.
            expected = len(layers.ENTRY_POINTS) if label == "traced" else 0
            if len(result["wrapped"]) != expected:
                self.errors.append(
                    f"{label}: {len(result['wrapped'])} entry points wrapped, expected {expected}"
                )
            if label == "prep":
                continue
            for experiment_id, out in outputs.items():
                attempted += 1
                bad = []
                if out["digest"] != reference.get(experiment_id):
                    mismatched.add(experiment_id)
                    bad.append("report digest differs from the reference")
                if out["totals"]["failed"]:
                    bad.append(f"{out['totals']['failed']} sweep cells failed")
                if gate_shape and out["checks_failed"]:
                    bad.append("shape checks failed: " + "; ".join(out["checks_failed"]))
                if result["probe"] not in (None, "ok") or bad:
                    failed += 1
                for reason in bad:
                    self.errors.append(f"{label} {experiment_id}: {reason}")
            totals = _sum_totals(outputs)
            cells += totals["cells"]
            failed_cells += totals["failed"]
        return {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed_cells / cells if cells else 0.0,
            "checks_failed": shape_failures,
            "mismatches": len(mismatched),
            "reference": "golden" if golden else self.passes[0][0],
        }

    def end_to_end(self, units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
        cells = [
            _sum_totals(outputs)["cells"]
            for label, outputs, _ in self.passes if label.startswith("rep")
        ]
        samples = {
            "wall_s": [rep["wall_s"] for rep in self.reps],
            "setup_s": self.setups,
            "cpu_s": [rep["cpu_s"] for rep in self.reps],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in self.reps],
            "cell_records_per_s": [
                count * self.records / rep["wall_s"] for count, rep in zip(cells, self.reps)
            ],
        }
        return {name: _summary(samples[name], unit) for name, unit in units.items()}

    def wrapped(self) -> Dict[str, List[str]]:
        """The entry points each pass found wrapped after its timed pass."""
        return {label: result["wrapped"] for label, _, result in self.passes}

    def per_layer(self) -> Dict[str, float]:
        label, outputs, traced = self.passes[-1]
        assert label == "traced"
        untraced = statistics.median(rep["wall_s"] for rep in self.reps)
        return layers.layer_metrics(
            Path(traced["dir"]) / "telemetry.jsonl",
            tuple(traced["pass_ns"]),
            _sum_totals(outputs),
            traced["wall_s"] / untraced - 1.0,
        )


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of mlcache run (see README.md)."
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace-suite seed: trace i uses generator index 8*seed+i")
    parser.add_argument("--reps", type=int, default=None, help="timed reps per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box for the timed reps of each workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced pass per workload and report per-layer metrics")
    parser.add_argument("--json", type=Path, default=None, help="write the full result here")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/seed0.json from this run (seed 0, default scale)")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append a row to history.jsonl")
    parser.add_argument("--records", type=int, default=None,
                        help="records per trace (smoke tests; disables the golden check)")
    parser.add_argument("--traces", type=int, default=None,
                        help="cap on traces per workload (smoke tests; disables the golden check)")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like ctrl-C: reps are killed and scratch is removed.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # run.py itself only parses telemetry sinks (repro.telemetry.export).
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = args.workload or list(WORKLOADS)
    default_scale = args.records is None and args.traces is None
    # The paper's shape checks and the golden digests hold for the
    # calibrated suite: seed 0 at the default scale.
    calibrated = args.seed == 0 and default_scale
    golden_all = json.loads(GOLDEN.read_text())["workloads"] if GOLDEN.is_file() else {}
    use_golden = calibrated and not args.update_golden
    if args.update_golden and not calibrated:
        print("e2e: --update-golden needs --seed 0 at default scale", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    rows: Dict[str, Dict[str, Any]] = {}
    errors: List[str] = []
    attempted = failed = 0
    try:
        for name in names:
            run = WorkloadRun(name, args, scratch)
            try:
                run.run()
            except RepFailed as error:
                errors.append(f"{name}: {error}")
                attempted += len(run.workload.ids)
                failed += len(run.workload.ids)
                continue
            golden = golden_all.get(name) if use_golden else None
            if use_golden and golden is None:
                run.errors.append("no golden digests for this workload")
            gates = run.check(golden, gate_shape=calibrated)
            attempted += gates["attempted"]
            failed += gates["failed"]
            errors.extend(f"{name} {error}" for error in run.errors)
            rows[name] = {
                "reps": len(run.reps),
                "traces": run.traces,
                "records": run.records,
                "metrics": run.end_to_end(units),
                "gates": gates,
                "digests": run.digests(),
                "wrapped": run.wrapped(),
            }
            if args.trace:
                rows[name]["layers"] = run.per_layer()
            _print_workload(name, rows[name], units, layer_units, calibrated)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = not errors and failed == 0
    for error in errors:
        print(f"FAILED {error}")
    if args.update_golden and correct:
        _update_golden(rows)
    if not args.no_history or args.json is not None:
        record = {
            "provenance": _provenance(),
            "seed": args.seed,
            "default_scale": default_scale,
            "workers": _workers(),
            "trace": bool(args.trace),
            "correct": correct,
            "workloads": rows,
        }
        if not args.no_history:
            with HISTORY.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if args.json is not None:
            args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(_contract_line(rows, names, layer_units, correct, attempted, failed)))
    return 0 if correct else 1


def _print_workload(name, row, units, layer_units, calibrated) -> None:
    print(f"== {name}: {row['reps']} reps, {row['traces']} traces x {row['records']} records")
    if name == "reference":
        print("   note: A-GEN ignores the suite and draws its own streams "
              "from a fixed generator seed (5)")
    for metric in units:
        summary = row["metrics"][metric]
        print(f"   {metric:<22} {_fmt(summary['value']):>12} {summary['unit']:<10} "
              f"median  n={summary['n']}  min={_fmt(summary['min'])}  "
              f"max={_fmt(summary['max'])}")
    gates = row["gates"]
    shape = "" if calibrated else "  (reported; gated on seed 0 at default scale)"
    print(f"   {'failed_frac':<22} {_fmt(gates['failed_frac']):>12} ratio")
    print(f"   {'checks_failed':<22} {gates['checks_failed']:>12} count{shape}")
    print(f"   {'mismatches':<22} {gates['mismatches']:>12} count      "
          f"(reference: {gates['reference']})")
    if not calibrated:
        for experiment_id, digest in row["digests"].items():
            print(f"   digest {experiment_id:<9} {digest}")
    for metric, value in row.get("layers", {}).items():
        print(f"   {metric:<36} {_fmt(value):>12} {layer_units[metric]}")


def _contract_line(rows, names, layer_units, correct, attempted, failed) -> Dict[str, Any]:
    """The result line: end-to-end metrics, or per-layer ones when traced.

    Metric names carry a ``<workload>.`` prefix when several workloads ran.
    """
    metrics: Dict[str, Any] = {}
    for name, row in rows.items():
        prefix = "" if len(names) == 1 else f"{name}."
        if "layers" in row:
            for metric, unit in layer_units.items():
                metrics[prefix + metric] = {"value": row["layers"][metric], "unit": unit}
        else:
            for metric, summary in row["metrics"].items():
                metrics[prefix + metric] = {"value": summary["value"], "unit": summary["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _provenance() -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import benchjson
    finally:
        sys.path.pop(0)
    return benchjson.provenance()


def _update_golden(rows: Dict[str, Dict[str, Any]]) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"workloads": {}}
    golden.update(seed=0, records=DEFAULT_RECORDS)
    for name, row in rows.items():
        golden["workloads"][name] = row["digests"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
