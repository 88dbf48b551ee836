"""Compare two end-to-end benchmark results, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py parent.json change.json
    python3 benchmarks/e2e/compare.py benchmarks/e2e/history.jsonl@-2 \\
        benchmarks/e2e/history.jsonl@-1

Each side is a file written by ``run.py --json`` or a row of
``history.jsonl`` (``PATH@INDEX``, Python indexing; a bare ``.jsonl``
path means its last row).  For every workload both sides ran, each
end-to-end metric gets its two medians, the change of B against A and
the metric's bound from ``BENCHMARK.json``, with a status:

* ``ok`` -- B is not worse than A by more than the bound;
* ``WORSE`` -- B is worse by more than the bound;
* ``unresolved`` -- the min-max spread of either side's reps exceeds the
  bound, so a difference of that size cannot be told from noise.

When both sides ran the same seed at the same scale their report
digests must also be equal.  Exits 1 on any ``WORSE`` metric or digest
difference, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent.parent


def load(source: str) -> Dict[str, Any]:
    """A ``run.py --json`` file, or one ``history.jsonl`` row (``PATH@INDEX``)."""
    path, _, index = source.partition("@")
    text = Path(path).read_text()
    if not path.endswith(".jsonl"):
        if index:
            raise ValueError(f"{source}: @INDEX applies to .jsonl history files only")
        return json.loads(text)
    rows = [line for line in text.splitlines() if line.strip()]
    return json.loads(rows[int(index) if index else -1])


def spread(summary: Dict[str, Any]) -> float:
    """Min-max range of the reps as a share of their median."""
    return (summary["max"] - summary["min"]) / summary["value"]


def compare(a: Dict[str, Any], b: Dict[str, Any], metrics: List[Dict[str, Any]]) -> List[str]:
    """Print the comparison; returns the failures (worse metrics, digests)."""
    failures = []
    same_inputs = a.get("seed") == b.get("seed") and a.get("default_scale") == b.get(
        "default_scale"
    )
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        row_a, row_b = a["workloads"][workload], b["workloads"][workload]
        print(f"== {workload} (reps {row_a['reps']} vs {row_b['reps']})")
        print(f"   {'metric':<20} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  status")
        for metric in metrics:
            name = metric["name"]
            left, right = row_a["metrics"][name], row_b["metrics"][name]
            change = right["value"] / left["value"] - 1.0
            worse_by = change if metric["better"] == "lower" else left["value"] / right["value"] - 1.0
            if max(spread(left), spread(right)) > metric["bound"]:
                status = "unresolved"
            elif worse_by > metric["bound"]:
                status = "WORSE"
                failures.append(f"{workload} {name}: worse by {worse_by:.1%}")
            else:
                status = "ok"
            print(f"   {name:<20} {left['value']:>12.6g} {right['value']:>12.6g} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {status}")
        same_scale = (row_a["records"], row_a["traces"]) == (row_b["records"], row_b["traces"])
        if same_inputs and same_scale:
            differing = sorted(
                eid for eid in set(row_a["digests"]) | set(row_b["digests"])
                if row_a["digests"].get(eid) != row_b["digests"].get(eid)
            )
            print(f"   digests: {'differ: ' + ', '.join(differing) if differing else 'equal'}")
            failures.extend(f"{workload} {eid}: report digest differs" for eid in differing)
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline: run.py --json file or history.jsonl[@INDEX]")
    parser.add_argument("b", help="candidate, same forms")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    failures = compare(load(args.a), load(args.b), metrics)
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
