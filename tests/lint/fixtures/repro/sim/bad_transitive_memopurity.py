"""RPR008 bad fixture: ambient reads entering memo roots through helpers.

The roots (``run_functional_grid``, ``grid_projection``) are textually
pure, but their helpers read the environment three and two calls down
respectively.  The diagnostic must print the full chain,
e.g. ``run_functional_grid -> _chunk_hint -> _read_knob ->
os.environ.get``.  Effects are chosen to be RPR008-exclusive:
non-``REPRO_`` env names (no RPR003), no clocks or RNG (no RPR001),
helpers without memo-pattern names (not roots themselves).
"""

import os


def _read_knob():
    return os.environ.get("MLCACHE_CHUNK")


def _chunk_hint():
    return _read_knob()


def _locale():
    return os.environ["LANG"]


def run_functional_grid(trace, configs):
    hint = _chunk_hint()  # RPR008
    return [(config, trace, hint) for config in configs]


def grid_projection(grid):
    return [(cell, _locale()) for cell in grid]  # RPR008
