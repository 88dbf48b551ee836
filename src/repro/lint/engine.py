"""The ``repro.lint`` framework: rules, findings, suppressions, baseline.

This module is the domain-aware static-analysis engine behind
``mlcache lint`` (see ``docs/static-analysis.md``).  It is deliberately
small: rules are AST visitors registered in a module-level registry;
the engine parses each file once, hands every applicable rule a
:class:`ModuleContext`, and post-processes the findings through two
suppression layers:

* **inline** -- a ``# repro: noqa RPR001`` comment on the flagged line
  suppresses the named rules there (``# repro: noqa`` with no ids
  suppresses every rule on the line).  Inline suppressions are for
  *intentional* exemptions and should carry an explanatory comment;
* **baseline** -- a committed JSON file of grandfathered finding
  fingerprints (path + rule + message, deliberately line-number-free so
  unrelated edits do not invalidate it).  New findings never match the
  baseline and fail the run; fixed findings make the baseline stale.

Scoping uses *package-relative* paths: ``src/repro/sim/fast.py`` is
matched as ``sim/fast.py``, so fixtures under
``tests/lint/fixtures/repro/sim/`` exercise exactly the scope rules the
real tree is held to.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.project.analysis import ProjectAnalysis

#: Recognised severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning")

#: Inline suppression grammar: ``# repro: noqa`` or ``# repro: noqa RPR001``
#: (ids comma- or space-separated; an optional colon after ``noqa``).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b:?\s*([A-Z]{3}\d{3}(?:[,\s]+[A-Z]{3}\d{3})*)?")

#: Rule id shape (three letters, three digits -- e.g. ``RPR001``).
_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Interprocedural rules attach a ``chain`` -- the witness call path
    from the flagged function down to the effectful leaf (bare symbol
    names, e.g. ``("run_functional", "_helper", "os.environ.get")``).
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    severity: str = "error"
    chain: Tuple[str, ...] = ()

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file.

        Chain-bearing findings fingerprint on a digest of the bare-name
        call chain instead of the message text: moving a helper between
        modules (or rewording the surrounding diagnostic) does not churn
        the baseline as long as the witness path is the same.
        """
        if self.chain:
            digest = hashlib.sha256(
                " -> ".join(self.chain).encode("utf-8")
            ).hexdigest()[:12]
            return f"{self.path}::{self.rule}::chain:{digest}"
        return f"{self.path}::{self.rule}::{self.message}"

    def render(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
        if self.chain:
            text += f" [chain: {' -> '.join(self.chain)}]"
        return text

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity,
            "message": self.message,
        }
        if self.chain:
            payload["chain"] = list(self.chain)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        chain_raw = payload.get("chain")
        chain = (
            tuple(str(part) for part in chain_raw)
            if isinstance(chain_raw, list)
            else ()
        )
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(str(payload["line"])),
            column=int(str(payload["column"])),
            message=str(payload["message"]),
            severity=str(payload.get("severity", "error")),
            chain=chain,
        )


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    #: Filesystem path (as given to the engine).
    path: Path
    #: Package-relative posix path ("sim/fast.py"); what scopes match.
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, source: Optional[str] = None) -> "ModuleContext":
        text = path.read_text() if source is None else source
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            relpath=package_relpath(path),
            source=text,
            tree=tree,
            lines=text.split("\n"),
        )


def package_relpath(path: Path) -> str:
    """The path relative to the innermost ``repro`` package directory.

    ``src/repro/sim/fast.py`` -> ``sim/fast.py``;
    ``tests/lint/fixtures/repro/sim/bad.py`` -> ``sim/bad.py``; a path
    with no ``repro`` directory falls back to its own name, which keeps
    scope-free rules working on arbitrary files.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            return "/".join(parts[i + 1:])
    return parts[-1]


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` is a tuple of package-relative prefixes the rule applies
    to (empty = everywhere); ``exclude`` wins over ``scope``.
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    #: One-paragraph rationale shown by ``--list-rules`` and the docs.
    rationale: str = ""
    #: Longer help shown by ``--explain RULEID`` (falls back to rationale).
    explain: str = ""
    scope: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    #: True for rules that need the project analysis (call graph +
    #: effect propagation); they implement :meth:`check_project`
    #: instead of :meth:`check`.
    requires_project: bool = False

    def applies_to(self, relpath: str) -> bool:
        if any(relpath.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, analysis: "ProjectAnalysis") -> Iterator[Finding]:
        """Project-wide findings; only called when ``requires_project``."""
        return iter(())

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    instance = cls()
    if not _RULE_ID_RE.match(instance.rule_id):
        raise ValueError(f"bad rule id {instance.rule_id!r} on {cls.__name__}")
    if instance.severity not in SEVERITIES:
        raise ValueError(f"bad severity {instance.severity!r} on {cls.__name__}")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"rule {instance.rule_id} registered twice")
    _REGISTRY[instance.rule_id] = instance
    return cls


def _load_builtin_rules() -> None:
    """Import the built-in rule package (registration happens on import).

    Lazy so rule modules can import this engine without a cycle.
    """
    import repro.lint.rules  # noqa: F401


def all_rules() -> List[Rule]:
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """The selected rules (all, when ``select`` is ``None``)."""
    if select is None:
        return all_rules()
    _load_builtin_rules()
    rules = []
    for rule_id in select:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise ValueError(f"unknown rule {rule_id!r} (known: {known})")
        rules.append(_REGISTRY[rule_id])
    return sorted(rules, key=lambda rule: rule.rule_id)


# -- inline suppressions -----------------------------------------------------


def noqa_rules(line_text: str) -> Optional[frozenset]:
    """Parse an inline suppression on one source line.

    Returns ``None`` when the line has no ``repro: noqa`` comment, an
    empty frozenset for a blanket suppression, or the frozenset of
    suppressed rule ids.
    """
    match = _NOQA_RE.search(line_text)
    if match is None:
        return None
    ids = match.group(1)
    if not ids:
        return frozenset()
    return frozenset(part for part in re.split(r"[,\s]+", ids.strip()) if part)


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans suppressions extend over: simple statements span all
    their physical lines; compound statements (``with``, ``if``, ``def``,
    ...) span only their header, so a noqa on a ``with`` line does not
    blanket the whole block."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body_start: Optional[int] = None
        for fieldname in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, fieldname, None) or ():
                lineno = getattr(child, "lineno", None)
                if lineno is not None:
                    body_start = (
                        lineno if body_start is None else min(body_start, lineno)
                    )
        if body_start is not None:
            end = max(start, body_start - 1)
        if end > start:
            spans.append((start, end))
    return spans


def noqa_line_map(
    tree: ast.AST, lines: Sequence[str]
) -> Dict[int, FrozenSet[str]]:
    """Per-line suppressions, extended across multi-line statements.

    A ``# repro: noqa RULEID`` anywhere inside a statement's physical
    line span suppresses that rule on *every* line of the statement, so
    a wrapped call flagged on its first line is covered by a trailing
    comment on its last.  Values follow :func:`noqa_rules`: an empty
    frozenset is a blanket suppression.
    """
    directives: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(lines, start=1):
        ids = noqa_rules(text)
        if ids is not None:
            directives[number] = ids
    if not directives:
        return {}
    result: Dict[int, FrozenSet[str]] = dict(directives)
    for start, end in _statement_spans(tree):
        found = [
            directives[number]
            for number in range(start, end + 1)
            if number in directives
        ]
        if not found:
            continue
        merged: FrozenSet[str] = (
            frozenset() if any(not ids for ids in found)
            else frozenset().union(*found)
        )
        for number in range(start, end + 1):
            previous = result.get(number)
            if previous is None:
                result[number] = merged
            elif not previous or not merged:
                result[number] = frozenset()
            else:
                result[number] = previous | merged
    return result


def apply_noqa_map(
    findings: Iterable[Finding], noqa_map: Dict[int, FrozenSet[str]]
) -> Tuple[List[Finding], Dict[str, int]]:
    """Drop findings whose line carries a matching inline suppression;
    returns the kept findings and the dropped count per rule id."""
    kept: List[Finding] = []
    suppressed: Dict[str, int] = {}
    for item in findings:
        suppression = noqa_map.get(item.line)
        if suppression is not None and (not suppression or item.rule in suppression):
            suppressed[item.rule] = suppressed.get(item.rule, 0) + 1
            continue
        kept.append(item)
    return kept, suppressed


# -- baseline ----------------------------------------------------------------


class Baseline:
    """Grandfathered finding fingerprints, with per-fingerprint counts."""

    VERSION = 1

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text())
        if payload.get("version") != cls.VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {payload.get('version')!r}"
            )
        counts = payload.get("findings", {})
        if not isinstance(counts, dict):
            raise ValueError(f"{path}: baseline 'findings' must be an object")
        return cls({str(key): int(value) for key, value in counts.items()})

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        counts: Dict[str, int] = {}
        for item in findings:
            counts[item.fingerprint] = counts.get(item.fingerprint, 0) + 1
        return cls(counts)

    def write(self, path: Path) -> None:
        from repro.resilience.integrity import atomic_write_text

        payload = {
            "version": self.VERSION,
            "findings": {key: self.counts[key] for key in sorted(self.counts)},
        }
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")

    def filter(self, findings: List[Finding]) -> Tuple[List[Finding], int]:
        """Drop findings covered by the baseline (bounded per fingerprint)."""
        remaining = dict(self.counts)
        kept: List[Finding] = []
        matched = 0
        for item in findings:
            if remaining.get(item.fingerprint, 0) > 0:
                remaining[item.fingerprint] -= 1
                matched += 1
            else:
                kept.append(item)
        return kept, matched


# -- the runner --------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files: int = 0
    suppressed: int = 0
    baselined: int = 0
    #: Files actually parsed this run (< ``files`` on a warm index).
    parsed: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "findings": [item.as_dict() for item in self.findings],
            "summary": {
                "files": self.files,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "parsed": self.parsed,
            },
        }


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ValueError(f"{path}: not a Python file or directory")
    return files


def syntax_error_finding(path: Path, exc: SyntaxError) -> Finding:
    """The RPR000 pseudo-finding for a file that does not parse."""
    return Finding(
        rule="RPR000",
        path=package_relpath(path),
        line=exc.lineno or 1,
        column=(exc.offset or 0) + 1 if exc.offset else 1,
        message=f"file does not parse: {exc.msg}",
    )


def check_module(module: ModuleContext, rules: Sequence[Rule]) -> List[Finding]:
    """Raw rule findings for one parsed module (no suppression layers).

    Project rules are skipped here -- they need the whole-program
    analysis and run through :meth:`Rule.check_project` instead.
    """
    findings: List[Finding] = []
    for rule in rules:
        if not rule.requires_project and rule.applies_to(module.relpath):
            findings.extend(rule.check(module))
    findings.sort(key=lambda item: (item.line, item.column, item.rule))
    return findings


def check_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a source string as if it lived at ``repro/<relpath>``.

    Inline ``noqa`` suppressions apply; there is no baseline.  The
    project rules run on the source as a one-module project.  This is
    the entry point the fixture tests use.
    """
    module = ModuleContext(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=ast.parse(source, filename=relpath),
        lines=source.split("\n"),
    )
    selected = get_rules() if rules is None else list(rules)
    noqa_map = noqa_line_map(module.tree, module.lines)
    findings, _ = apply_noqa_map(check_module(module, selected), noqa_map)
    project_rules = [rule for rule in selected if rule.requires_project]
    if project_rules:
        from repro.lint.project.analysis import ProjectAnalysis
        from repro.lint.project.indexer import ProjectIndex

        index = ProjectIndex.from_contexts([module])
        analysis = ProjectAnalysis.build(index)
        for rule in project_rules:
            extra, _ = apply_noqa_map(rule.check_project(analysis), noqa_map)
            findings.extend(extra)
    findings.sort(key=lambda item: (item.line, item.column, item.rule))
    return findings


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    *,
    cache_path: Optional[Path] = None,
    report_relpaths: Optional[Set[str]] = None,
    parse_hook: Optional[Callable[[Path], None]] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and post-process findings.

    The run goes through the digest-keyed project index (see
    :mod:`repro.lint.project`): per-module findings come from cached
    summaries when the file is unchanged, and the project rules run
    over the call graph.  ``report_relpaths`` limits *reported*
    findings to those package-relative paths (``--changed``) without
    narrowing the analysed project.  ``parse_hook`` is called once per
    actually-parsed file (test instrumentation).
    """
    from repro.lint.project.analysis import ProjectAnalysis
    from repro.lint.project.indexer import ProjectIndex

    rules = get_rules(select)
    files = iter_python_files([Path(p) for p in paths])
    index = ProjectIndex.build(files, cache_path=cache_path, parse_hook=parse_hook)
    selected_ids = {rule.rule_id for rule in rules}
    all_findings: List[Finding] = []
    suppressed = 0
    noqa_by_relpath: Dict[str, Dict[int, FrozenSet[str]]] = {}
    for summary in index.summaries:
        noqa_by_relpath.setdefault(summary.relpath, summary.noqa_map())
        suppressed += sum(
            count for rule_id, count in summary.suppressed.items()
            if rule_id in selected_ids
        )
        for payload in summary.findings:
            item = Finding.from_dict(payload)
            if item.rule == "RPR000" or item.rule in selected_ids:
                all_findings.append(item)
    project_rules = [rule for rule in rules if rule.requires_project]
    if project_rules:
        analysis = ProjectAnalysis.build(index)
        for rule in project_rules:
            by_path: Dict[str, List[Finding]] = {}
            for item in rule.check_project(analysis):
                by_path.setdefault(item.path, []).append(item)
            for relpath, scoped in by_path.items():
                kept, dropped = apply_noqa_map(
                    scoped, noqa_by_relpath.get(relpath, {})
                )
                suppressed += sum(dropped.values())
                all_findings.extend(kept)
    if report_relpaths is not None:
        all_findings = [f for f in all_findings if f.path in report_relpaths]
    baselined = 0
    if baseline is not None:
        all_findings, baselined = baseline.filter(all_findings)
    all_findings.sort(key=lambda item: (item.path, item.line, item.column, item.rule))
    return LintResult(
        findings=all_findings,
        files=len(files),
        suppressed=suppressed,
        baselined=baselined,
        parsed=index.parsed_count,
    )


# -- shared AST helpers (used by several rules) ------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (simple, unconditional).

    Lets rules resolve idioms like ``WORKERS_ENV = "REPRO_SWEEP_WORKERS"``
    followed by ``envcfg.get(WORKERS_ENV)``.
    """
    constants: Dict[str, str] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if (
            value is not None
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = value.value
    return constants


def resolve_string(
    node: ast.expr, constants: Dict[str, str]
) -> Optional[str]:
    """The string a call argument denotes, through one constant hop."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None
