"""RPR006 bad fixture: raw artifact writes outside the integrity layer.

The raw ``open(.., "w")`` hides one call below the public entry point,
so the diagnostic must carry the chain ``save_report -> _raw_dump ->
open(.., "w")``.  Writes *through* the raw handle are not re-flagged --
the open is the violation.  Function names deliberately avoid the
memo-pattern vocabulary so RPR008 stays silent, and the file
lives under ``experiments/`` which is outside RPR001's scope.
"""

import json
from pathlib import Path


def _render(report):
    return json.dumps(report, indent=2) + "\n"


def _raw_dump(report, path):
    with open(path, "w", encoding="utf-8") as handle:  # RPR006
        handle.write(_render(report))


def save_report(report, path):
    _raw_dump(report, path)


def save_summary(summary, path):
    Path(path).write_text(str(summary))  # RPR006
