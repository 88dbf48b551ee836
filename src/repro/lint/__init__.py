"""Domain-aware static analysis for the repro tree.

Seven rules encode the repository's reproducibility contracts as
review-time checks (see ``docs/static-analysis.md``), one rule per
contract.  RPR001-RPR003 are per-file AST walks; RPR006-RPR009 run on
the project call graph and effect propagation, so each reports a
violation whether it sits in the function that owns the contract or in
a helper any number of calls down:

========  ======================  ============================================
RPR001    determinism             no ambient clocks / unseeded RNG in sim code
RPR002    unit-safety             no ``+``/``-``/compare across unit suffixes
RPR003    env-registry            every ``REPRO_*`` read goes through envcfg
RPR006    artifact-write-safety   raw disk writes only inside integrity.py
RPR007    lock-discipline         journal/cache mutations hold the lock
RPR008    memo-purity             memo-path functions read only their args
RPR009    fork-safety             pool callables are picklable and global-free
========  ======================  ============================================

Run it as ``mlcache lint`` or ``python -m repro.lint``; use
:func:`check_source` for in-memory checks (fixture tests) and
:func:`lint_paths` for trees.
"""

from repro.lint.engine import (
    Baseline,
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    all_rules,
    check_source,
    get_rules,
    lint_paths,
    noqa_rules,
    package_relpath,
    register,
)

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "all_rules",
    "check_source",
    "get_rules",
    "lint_paths",
    "noqa_rules",
    "package_relpath",
    "register",
]
