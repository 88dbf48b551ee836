"""One repetition of an end-to-end workload, in a fresh interpreter.

``run.py`` spawns this script once per rep, so the memo, front and
trace caches always start cold::

    python3 benchmarks/e2e/rep.py SPEC.json

``SPEC.json`` names the mode, the experiment ids, the trace suite
(seed, records, count) and the rep's directory.  With ``resume`` set the
traces are opened, verified, from the ``.mlt`` stores in that directory
and the pass resumes its journals.  The modes:

* ``setup`` -- build (or open) the traces, then stop;
* ``prep``  -- build the traces, save them as ``.mlt`` stores, then run
  the pass with fresh journals (the ``resume`` workload's checkpoint);
* ``pass``  -- build or open the traces, then run the timed pass.

The timed pass mirrors ``mlcache run <ids> -o DIR``: for each id,
``run_recorded`` with a journal in the rep directory, then the report
through ``atomic_write_text`` and the manifest through
``recorder.write``.  The rep writes its timings to ``SPEC["result"]``;
``run.py`` reads the reports and manifests itself.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest reaped worker's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def _traces(spec, directory: Path):
    """The suite for ``spec["seed"]``: trace i uses generator index 8*seed+i,
    so seed 0 is byte-identical to ``paper_trace_suite()``."""
    from repro.experiments import workloads
    from repro.trace.store import TraceStore

    count = spec["traces"]
    if spec["resume"]:
        return [
            TraceStore.open(directory / f"trace-{i}.mlt", verify=True).as_trace()
            for i in range(count)
        ]
    traces = [
        workloads.build_trace(
            f"{'vms' if i % 2 == 0 else 'mix'}{i}",
            index=8 * spec["seed"] + i,
            records=spec["records"],
            kernel=i % 2 == 0,
        )
        for i in range(count)
    ]
    if spec["mode"] == "prep":
        for i, trace in enumerate(traces):
            TraceStore.save(trace, directory / f"trace-{i}.mlt")
    return traces


def _probe(traces, l2_kb: int) -> str:
    """Check one swept cell against the reference simulator.

    The workload sweeps the base machine with an ``l2_kb`` L2 (``resume``
    restores it from a journal), so the pass must have left its result
    for the first trace in the memo cache, count-identical to a direct
    reference run.
    """
    from repro.audit.parity import ParityError, assert_counts_equal
    from repro.experiments.baseline import base_machine
    from repro.sim import memo
    from repro.sim.functional import FunctionalSimulator
    from repro.units import KB

    config = base_machine(l2_size=l2_kb * KB)
    swept = memo.peek(memo.memo_key(traces[0], config))
    if swept is None:
        return f"probe cell (base machine, {l2_kb} KB L2) was not swept"
    try:
        assert_counts_equal(
            swept, FunctionalSimulator(config).run(traces[0]),
            context="sweep-vs-reference",
        )
    except ParityError as error:
        return str(error)
    return "ok"


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    directory = Path(spec["dir"])

    import layers
    from repro import telemetry
    from repro.core import clock
    from repro.experiments.registry import make_experiment
    from repro.resilience.integrity import atomic_write_text

    originals = layers.entry_points()
    if spec["trace"]:
        layers.install()
    traces = _traces(spec, directory)
    result = {"ready_ns": clock.monotonic_ns()}
    if spec["mode"] != "setup":
        cpu_before = _cpu_s()
        start = clock.monotonic_ns()
        for experiment_id in spec["ids"]:
            report, recorder = make_experiment(experiment_id).run_recorded(
                traces,
                journal=directory / f"{experiment_id}.journal.jsonl",
                resume=spec["resume"],
            )
            atomic_write_text(directory / f"{experiment_id}.txt", report.render() + "\n")
            recorder.write(directory / f"{experiment_id}.manifest.json")
        end = clock.monotonic_ns()
        result.update(
            pass_ns=[start, end],
            wall_s=(end - start) / 1e9,
            cpu_s=_cpu_s() - cpu_before,
            peak_rss_mb=_peak_rss_mb(),
            wrapped=layers.changed(originals),
        )
        if spec["trace"]:
            layers.uninstall(originals)
        result["probe"] = spec["probe_l2_kb"] and _probe(traces, spec["probe_l2_kb"])
    telemetry.close_sink()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
