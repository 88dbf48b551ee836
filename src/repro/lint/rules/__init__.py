"""Built-in lint rules.

Importing this package registers every rule with the engine's registry
(each module applies the :func:`repro.lint.engine.register` decorator at
import time).  ``engine.get_rules`` imports this package lazily, so rule
modules may import the engine without a cycle.

The per-file rules (RPR001-RPR003) live here; the project rules
(RPR006-RPR009), which own the call-graph contracts -- artifact writes,
lock discipline, memo purity and fork safety -- live in
:mod:`repro.lint.project.rules` and are imported here for registration
too.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    envreads,
    units,
)
from repro.lint.project import rules as project_rules  # noqa: F401

__all__ = [
    "determinism",
    "envreads",
    "units",
    "project_rules",
]
