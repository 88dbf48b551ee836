"""Project-level analysis for ``repro.lint``: indexer, call graph, effects.

The per-file rules (RPR001-RPR003) see one module at a time; the
contracts that span calls -- memo purity, atomic artifact writes,
one-writer locking, fork safety -- are *call-graph* properties.  This
package owns them:

* :mod:`repro.lint.project.indexer` parses every module once into a
  compact :class:`~repro.lint.project.indexer.ModuleSummary` (functions,
  resolved call references, direct effect sites, lock regions) and
  caches summaries on disk keyed by per-file content digests, so warm
  runs re-parse only changed files.  Its sink table -- what counts as a
  clock, entropy, global-RNG or env read -- is the one RPR001 and RPR003
  match against too;
* :mod:`repro.lint.project.analysis` builds the symbol table and call
  graph over those summaries and runs the fixed-point effect propagator
  (the transitive ``EFFECT_KINDS`` per function, each with a witness
  call chain);
* :mod:`repro.lint.project.rules` ships the project rules RPR006-RPR009
  on top.

See ``docs/static-analysis.md`` for the architecture notes.
"""

from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.indexer import ModuleSummary, ProjectIndex

__all__ = ["ModuleSummary", "ProjectAnalysis", "ProjectIndex"]
