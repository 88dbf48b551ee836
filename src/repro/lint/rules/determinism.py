"""RPR001: no ambient clocks or unseeded randomness in simulation code.

Byte-identical resume (the chaos drill) and memo-cache reuse both assume
that a simulated result is a pure function of the trace and the
configuration.  A single ``time.time()`` or module-level ``random.*``
call anywhere in ``sim/``, ``cache/`` or ``trace/`` breaks that
silently: the memo cache and checkpoint journal would replay a value the
simulator no longer reproduces.  Seeded generator *instances*
(``random.Random(seed)``, ``np.random.default_rng(seed)``) threaded
through arguments are the sanctioned pattern and are not flagged.

The clock, entropy and global-RNG calls come from the one sink table
in :mod:`repro.lint.project.indexer`, the same classification the
memo-purity rule (RPR008) propagates through the call graph; RPR008
leaves a line this rule reports to this rule.

Timing is not banned -- *ambient* timing is.  The one sanctioned clock
is :mod:`repro.core.clock` (``clock.monotonic_ns()``), whose readings
feed telemetry spans and manifests but never simulation results; the
project analysis treats it and the telemetry layer as effect barriers
(``SANCTIONED_RELPATHS`` in ``repro.lint.project.analysis``), so
``telemetry.span(...)`` in kernel code needs no ``noqa``.  Direct
``time.*`` reads in simulation code remain violations: route them
through ``repro.core.clock`` / ``repro.telemetry`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Finding, ModuleContext, Rule, dotted_name, register
from repro.lint.project.indexer import (
    CLOCK_SUFFIXES,
    ENTROPY_SUFFIXES,
    GLOBAL_RANDOM_SUFFIXES,
    matches_suffix,
)

#: Seeded-generator constructors that draw OS entropy when called
#: without a seed.
_SEEDABLE_CONSTRUCTORS = frozenset(
    ("random.Random", "np.random.default_rng", "numpy.random.default_rng")
)

_PURE = "results must be a pure function of (trace, config)"


@register
class DeterminismRule(Rule):
    rule_id = "RPR001"
    name = "determinism"
    severity = "error"
    scope = ("sim/", "cache/", "trace/")
    rationale = (
        "Simulation results are memoised and journaled keyed only by "
        "(trace, config); ambient clocks and unseeded randomness make "
        "cached results unreproducible and break nanosecond-identical "
        "resume."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            message = self._violation(dotted, node)
            if message is not None:
                yield self.finding(module, node, message)

    @staticmethod
    def _violation(dotted: str, node: ast.Call) -> Optional[str]:
        if matches_suffix(dotted, CLOCK_SUFFIXES):
            return (
                f"clock read {dotted}() in simulation code; {_PURE} -- "
                f"time only the sanctioned way, via repro.core.clock / "
                f"repro.telemetry spans"
            )
        if matches_suffix(dotted, ENTROPY_SUFFIXES):
            return f"{dotted}() draws platform entropy; {_PURE}"
        if matches_suffix(dotted, GLOBAL_RANDOM_SUFFIXES):
            return (
                f"{dotted}() uses the global random state; thread a seeded "
                f"random.Random(seed) / np.random.default_rng(seed) through "
                f"arguments"
            )
        if dotted in _SEEDABLE_CONSTRUCTORS and not node.args and not node.keywords:
            return f"{dotted}() without a seed draws OS entropy; pass an explicit seed"
        return None
