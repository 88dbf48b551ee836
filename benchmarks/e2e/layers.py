"""Per-layer measurement for the end-to-end benchmark, from outside ``src/``.

Two halves:

* :func:`install` wraps public entry points of layers that emit no span
  of their own (trace generation, store open, the stats profiler, the
  reference and timing simulators, journal writes and restores) in
  ``telemetry.span("bench.<layer>", records=...)``.  Only the traced rep
  calls it, before it builds its traces; pool workers are forked, so
  they inherit the wrappers and ship their spans back over the
  executor's result pipe.  Untraced reps never call it, and
  :func:`changed` lets them prove it.
* :func:`layer_metrics` reduces one traced rep's telemetry sink and run
  manifests to the ``per_layer`` metrics named in ``BENCHMARK.json``.

A span's *self time* is its duration minus the part of that interval its
child spans cover (children from concurrent workers are merged first, so
overlapping children are not subtracted twice).
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, class or None, attribute, argument whose size
#: becomes the span's ``records`` attribute, or None).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, Optional[str]], ...] = (
    ("bench.trace", "repro.experiments.workloads", None, "build_trace", "records"),
    ("bench.trace.store", "repro.trace.store", "TraceStore", "open", None),
    ("bench.trace.stats", "repro.experiments.extensions", None,
     "stack_distance_profile", "trace"),
    ("bench.sim.functional", "repro.sim.functional", "FunctionalSimulator", "run",
     "trace"),
    ("bench.sim.timing", "repro.sim.timing", "TimingSimulator", "run", "trace"),
    ("bench.resilience.journal.record", "repro.resilience.journal", "SweepJournal",
     "record_cell", None),
    ("bench.resilience.journal.record", "repro.resilience.journal", "SweepJournal",
     "record_cells", "entries"),
    ("bench.resilience.journal.restore", "repro.resilience.journal", "SweepJournal",
     "restore", None),
)


def _owner(module: str, cls: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _label(module: str, cls: Optional[str], attr: str) -> str:
    return ".".join(part for part in (module, cls, attr) if part)


def entry_points() -> Dict[str, Any]:
    """Every wrapped entry point's current object, by dotted label.

    Read with :func:`inspect.getattr_static`, so a classmethod comes back
    as the ``classmethod`` object that :func:`install` replaces.
    """
    return {
        _label(module, cls, attr): inspect.getattr_static(_owner(module, cls), attr)
        for _, module, cls, attr, _ in ENTRY_POINTS
    }


def changed(originals: Dict[str, Any]) -> List[str]:
    """Labels whose current object is not the one in ``originals``."""
    return [
        label for label, current in entry_points().items()
        if current is not originals[label]
    ]


def _spanned(name: str, func: Callable, size_arg: Optional[str]) -> Callable:
    from repro import telemetry

    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attrs = {}
        if size_arg is not None:
            value = signature.bind(*args, **kwargs).arguments[size_arg]
            attrs["records"] = value if isinstance(value, int) else len(value)
        with telemetry.span(name, **attrs):
            return func(*args, **kwargs)

    return wrapper


def install() -> Dict[str, Any]:
    """Wrap every entry point in its ``bench.*`` span.

    Returns the original objects, for :func:`uninstall` and
    :func:`changed`.
    """
    originals = entry_points()
    for name, module, cls, attr, size_arg in ENTRY_POINTS:
        original = originals[_label(module, cls, attr)]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(_spanned(name, original.__func__, size_arg))
        else:
            wrapped = _spanned(name, original, size_arg)
        setattr(_owner(module, cls), attr, wrapped)
    return originals


def uninstall(originals: Dict[str, Any]) -> None:
    """Put back the objects :func:`install` replaced."""
    for _, module, cls, attr, _ in ENTRY_POINTS:
        setattr(_owner(module, cls), attr, originals[_label(module, cls, attr)])


# -- sink reduction ------------------------------------------------------------


def _covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of half-open intervals (empty ones ignored)."""
    total = 0
    start = end = None
    for lo, hi in sorted((lo, hi) for lo, hi in intervals if hi > lo):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def self_ns(spans: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append(span)
    result = {}
    for span in spans:
        t0, t1 = int(span["t0"]), int(span["t1"])
        covered = _covered_ns(
            (max(int(child["t0"]), t0), min(int(child["t1"]), t1))
            for child in children[span["id"]]
        )
        result[span["id"]] = (t1 - t0) - covered
    return result


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(
    sink,
    pass_window_ns: Tuple[int, int],
    totals: Dict[str, int],
    overhead_frac: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced rep.

    ``sink`` is the rep's telemetry JSONL file, ``pass_window_ns`` the
    timed pass on the monotonic clock, ``totals`` the summed manifest
    ``sweep_totals`` of the pass, and ``overhead_frac`` the traced pass
    time over the untraced median, minus one.
    """
    from repro.telemetry.export import read_sink

    content = read_sink(sink)
    spans = content.spans
    counters = content.counts[-1].get("c", {}) if content.counts else {}
    own = self_ns(spans)

    def matching(*patterns: str) -> List[Dict[str, Any]]:
        return [
            span for span in spans
            if any(fnmatch.fnmatchcase(span["name"], p) for p in patterns)
        ]

    def seconds(*patterns: str) -> float:
        return sum(int(s["t1"]) - int(s["t0"]) for s in matching(*patterns)) / 1e9

    def self_seconds(*patterns: str) -> float:
        return sum(own[s["id"]] for s in matching(*patterns)) / 1e9

    def records(pattern: str) -> int:
        return sum(int(s.get("a", {}).get("records", 0)) for s in matching(pattern))

    def engine(prefix: str, count: str, run_span: str, *patterns: str) -> Dict[str, float]:
        return {
            f"{prefix}.self_s": self_seconds(*patterns),
            f"{prefix}.{count}": len(matching(run_span)),
            f"{prefix}.records_per_s": _rate(records(run_span), seconds(run_span)),
        }

    hits = int(counters.get("memo.hits", 0))
    lookups = hits + int(counters.get("memo.misses", 0))
    pools = matching("pool.run")
    capacity = sum(
        int(s.get("a", {}).get("workers", 1)) * (int(s["t1"]) - int(s["t0"]))
        for s in pools
    ) / 1e9
    busy = seconds("worker.*")
    supervisor = {meta.get("pid") for meta in content.meta}
    w0, w1 = pass_window_ns
    covered = _covered_ns(
        (max(int(s["t0"]), w0), min(int(s["t1"]), w1))
        for s in spans if s.get("pid") in supervisor
    )

    metrics: Dict[str, float] = {
        "trace.build_s": seconds("bench.trace"),
        "trace.build_records_per_s": _rate(records("bench.trace"), seconds("bench.trace")),
        "trace.store.open_s": seconds("bench.trace.store"),
        "trace.store.verify_s": seconds("store.verify"),
        "trace.store.bytes_mapped": int(counters.get("store.bytes_mapped", 0)),
        "trace.stats.profile_s": seconds("bench.trace.stats"),
        "core.sweep.plan_s": seconds("sweep.plan"),
        "core.sweep.self_s": self_seconds("sweep.functional", "sweep.timing", "sweep.plan"),
        "core.sweep.cells": totals["cells"],
        "core.sweep.cells_simulated": totals["simulated"],
        "core.sweep.cells_derived": totals["cells_derived"],
        "core.sweep.cells_memoised": totals["memoised"],
        "core.sweep.cells_resumed": totals["resumed"],
        "core.sweep.stackdist_groups": totals["stackdist_groups"],
        "sim.memo.lookups": lookups,
        "sim.memo.hit_ratio": hits / lookups if lookups else 0.0,
    }
    metrics.update(engine("sim.stackdist", "passes", "stackdist.pass", "stackdist.*"))
    metrics.update(engine("sim.fast", "runs", "fast.run", "fast.*"))
    metrics.update(
        engine("sim.functional", "runs", "bench.sim.functional", "bench.sim.functional")
    )
    metrics.update(engine("sim.timing", "runs", "bench.sim.timing", "bench.sim.timing"))
    metrics.update({
        "resilience.executor.pool_s": seconds("pool.run"),
        "resilience.executor.worker_busy_s": busy,
        "resilience.executor.utilisation": _rate(busy, capacity),
        "resilience.executor.jobs": int(counters.get("pool.jobs", 0)),
        "resilience.executor.retries": int(counters.get("pool.retries", 0)),
        "resilience.executor.restarts": int(counters.get("pool.restarts", 0)),
        "resilience.executor.timeouts": int(counters.get("pool.timeouts", 0)),
        "resilience.journal.record_s": seconds("bench.resilience.journal.record"),
        "resilience.journal.records": int(counters.get("journal.records", 0)),
        "resilience.journal.fsyncs": int(counters.get("journal.fsyncs", 0)),
        "resilience.journal.restore_s": seconds("bench.resilience.journal.restore"),
        "experiments.self_s": self_seconds("experiment.*"),
        "telemetry.overhead_frac": overhead_frac,
        "telemetry.unattributed_frac": 1.0 - covered / (w1 - w0) if w1 > w0 else 0.0,
    })
    return metrics
