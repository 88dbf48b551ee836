"""RPR003: every ``REPRO_*`` environment read goes through the registry.

:mod:`repro.core.envcfg` is the single source of truth for the
repository's environment knobs -- name, type, default and the generated
docs table all come from its registrations.  Two things defeat that:

* a **direct read** (``os.environ.get("REPRO_X")``, ``os.getenv``,
  ``os.environ[...]``) anywhere outside ``core/envcfg.py`` -- the knob
  regrows private parsing rules and falls out of the docs;
* an **unregistered read** -- ``envcfg.get("REPRO_X")`` for a name with
  no ``register()`` entry.  This arm is what makes deleting a
  registration a lint failure at every surviving use site (instead of a
  runtime ``ValueError`` in whatever code path reads the knob first).

Both arms resolve one level of module-level constant indirection, so the
``WORKERS_ENV = "REPRO_SWEEP_WORKERS"`` idiom is seen through.  What
counts as a direct read comes from the sink table in
:mod:`repro.lint.project.indexer`, which the memo-purity rule (RPR008)
shares; RPR008 leaves a line this rule reports to this rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    module_string_constants,
    resolve_string,
)
from repro.lint.engine import register as register_rule
from repro.lint.project.indexer import (
    ENV_READ_SUFFIXES,
    ENVIRON_NAMES,
    matches_suffix,
)

#: envcfg accessors whose first argument names a variable.
_ENVCFG_ACCESSORS = frozenset(("get", "raw", "var"))


def _registered_names() -> frozenset:
    """The live registry (imported lazily so the linter can run even if
    the target tree's envcfg fails to import -- that surfaces as a
    different failure, not a lint crash)."""
    try:
        from repro.core.envcfg import registered_names
    except Exception:  # pragma: no cover - broken target tree
        return frozenset()
    return registered_names()


@register_rule
class EnvRegistryRule(Rule):
    rule_id = "RPR003"
    name = "env-registry"
    severity = "error"
    scope = ()
    exclude = ("core/envcfg.py",)
    rationale = (
        "Scattered os.environ reads gave every knob private parsing "
        "rules and no documentation; the envcfg registry gives each "
        "REPRO_* variable one typed definition that also generates the "
        "docs reference tables."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        constants = module_string_constants(module.tree)
        registered = _registered_names()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, constants, registered)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(module, node, constants)

    def _check_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        constants: dict,
        registered: frozenset,
    ) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None or not node.args:
            return
        name = resolve_string(node.args[0], constants)
        if name is None or not name.startswith("REPRO_"):
            return
        if matches_suffix(dotted, ENV_READ_SUFFIXES):
            yield self.finding(
                module,
                node,
                f"direct {dotted}({name!r}) read; route it through "
                f"repro.core.envcfg (envcfg.get/envcfg.raw)",
            )
            return
        accessor = self._envcfg_accessor(dotted)
        if accessor is not None and name not in registered:
            yield self.finding(
                module,
                node,
                f"envcfg.{accessor}({name!r}) reads a variable with no "
                f"registration in repro/core/envcfg.py; add a register() "
                f"entry (name, type, default, doc)",
            )

    def _check_subscript(
        self, module: ModuleContext, node: ast.Subscript, constants: dict
    ) -> Iterator[Finding]:
        dotted = dotted_name(node.value)
        if dotted not in ENVIRON_NAMES:
            return
        index: Optional[ast.expr] = node.slice
        if isinstance(index, ast.Index):  # pragma: no cover - py38 AST
            index = index.value
        name = resolve_string(index, constants) if index is not None else None
        if name is not None and name.startswith("REPRO_"):
            yield self.finding(
                module,
                node,
                f"direct {dotted}[{name!r}] access; route it through "
                f"repro.core.envcfg (envcfg.get/envcfg.raw)",
            )

    @staticmethod
    def _envcfg_accessor(dotted: str) -> Optional[str]:
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-2] == "envcfg":
            if parts[-1] in _ENVCFG_ACCESSORS:
                return parts[-1]
        return None
