"""Smoke test of the end-to-end benchmark at tiny scale.

Run from the repository root (about a minute on 2 CPUs)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

It runs all four workloads twice at 20k records x 2 traces, one rep
each, the first time with the traced pass.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE = ["--records", "20000", "--traces", "2", "--reps", "1", "--no-history"]


def _run(directory: Path, name: str, *extra: str):
    out = directory / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *SMOKE, "--json", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e")
    return _run(directory, "traced", "--trace"), _run(directory, "plain")


def test_result_line_reports_success(runs):
    for stdout, _ in runs:
        result = json.loads(stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_every_benchmark_metric_is_printed(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stdout = runs[0][0]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += ["failed_frac", "checks_failed", "mismatches"]
    for name in names:
        printed = re.findall(rf"^\s+{re.escape(name)}\s", stdout, re.MULTILINE)
        assert len(printed) == 4, f"{name} printed for {len(printed)} of 4 workloads"


def test_two_runs_give_equal_digests(runs):
    (_, first), (_, second) = runs
    assert set(first["workloads"]) == {"figures", "timing", "reference", "resume"}
    for workload, row in first["workloads"].items():
        assert row["digests"] == second["workloads"][workload]["digests"], workload


def test_only_the_traced_pass_wraps_entry_points(runs):
    every = sorted(layers.entry_points())
    for _, record in runs:
        for workload, row in record["workloads"].items():
            for label, wrapped in row["wrapped"].items():
                expected = every if label == "traced" else []
                assert sorted(wrapped) == expected, (workload, label)


def test_install_and_uninstall_restore_the_original_objects():
    originals = layers.entry_points()
    installed = layers.install()
    try:
        assert sorted(layers.changed(originals)) == sorted(originals)
    finally:
        layers.uninstall(installed)
    assert layers.changed(originals) == []


def test_self_time_merges_overlapping_children():
    spans = [
        {"id": "p", "parent": None, "t0": 0, "t1": 100},
        {"id": "a", "parent": "p", "t0": 10, "t1": 50},
        {"id": "b", "parent": "p", "t0": 30, "t1": 70},
        {"id": "c", "parent": "p", "t0": 90, "t1": 120},
    ]
    assert layers.self_ns(spans) == {"p": 100 - 60 - 10, "a": 40, "b": 40, "c": 30}


def test_seed_zero_is_the_paper_suite():
    import rep
    from repro.experiments.workloads import paper_trace_suite
    from repro.trace.store import trace_content_digest

    spec = {"mode": "pass", "resume": False, "traces": 2, "records": 5000, "seed": 0}
    ours = rep._traces(spec, HERE)
    assert [(t.name, t.warmup, trace_content_digest(t)) for t in ours] == [
        (t.name, t.warmup, trace_content_digest(t))
        for t in paper_trace_suite(records=5000, count=2)
    ]
