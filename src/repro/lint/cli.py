"""Command-line front end for :mod:`repro.lint`.

Reachable two ways with identical semantics::

    mlcache lint [paths...]
    python -m repro.lint [paths...]

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage/configuration
error (unknown rule, unreadable baseline, bad path) *or* an engine
crash -- an analyzer exception must never masquerade as a clean pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.lint.engine import (
    Baseline,
    LintResult,
    all_rules,
    get_rules,
    lint_paths,
    package_relpath,
)

#: Baseline picked up automatically when it exists next to the cwd.
DEFAULT_BASELINE = Path("lint-baseline.json")

#: Project-index cache written when ``--cache`` is given with no path.
DEFAULT_CACHE = Path(".repro-lint-cache.json")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-aware static analysis for the repro tree "
        "(determinism, unit-safety, env-registry, plus the call-graph "
        "rules: artifact writes, lock discipline, memo purity, fork "
        "safety).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, e.g. --select RPR001)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=f"baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="run the project analysis (call graph + effect propagation); "
        "it always runs, the flag is accepted for existing invocations",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report findings only for files changed vs the git ref "
        "(default HEAD); the project index still covers the whole tree",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        type=Path,
        const=DEFAULT_CACHE,
        default=None,
        metavar="FILE",
        help="persist the digest-keyed project index so warm runs "
        f"re-parse only changed files (default file: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print the full documentation for one rule id and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        flavour = "project" if rule.requires_project else "per-file"
        lines.append(
            f"{rule.rule_id} {rule.name} [{rule.severity}] "
            f"({flavour}) scope: {scope}"
        )
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _explain_rule(rule_id: str) -> str:
    rule = get_rules([rule_id])[0]
    scope = ", ".join(rule.scope) if rule.scope else "everywhere"
    parts = [
        f"{rule.rule_id} {rule.name} [{rule.severity}] scope: {scope}",
        "",
        rule.rationale,
    ]
    if rule.explain:
        parts += ["", rule.explain]
    return "\n".join(parts)


def _render_text(result: LintResult) -> str:
    lines = [item.render() for item in result.findings]
    summary = (
        f"{result.files} file(s) checked ({result.parsed} parsed): "
        f"{len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed inline, {result.baselined} baselined"
    )
    lines.append(summary)
    return "\n".join(lines)


def _resolve_baseline(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    if DEFAULT_BASELINE.exists():
        return DEFAULT_BASELINE
    return None


def _git_lines(argv: List[str]) -> List[str]:
    try:
        completed = subprocess.run(
            argv, capture_output=True, text=True, check=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as error:
        detail = ""
        stderr = getattr(error, "stderr", "")
        if stderr:
            detail = f": {str(stderr).strip()}"
        raise ValueError(f"--changed: {' '.join(argv)} failed{detail}") from error
    return [line for line in completed.stdout.splitlines() if line.strip()]


def changed_relpaths(ref: str) -> Set[str]:
    """Package-relative paths of ``.py`` files changed vs ``ref`` (plus
    untracked ones), for ``--changed`` report scoping."""
    root_lines = _git_lines(["git", "rev-parse", "--show-toplevel"])
    if not root_lines:
        raise ValueError("--changed: not inside a git repository")
    root = Path(root_lines[0])
    names = _git_lines(["git", "diff", "--name-only", ref, "--", "*.py"])
    names += _git_lines(
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"]
    )
    return {package_relpath(root / name) for name in names}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN

    if args.explain is not None:
        try:
            print(_explain_rule(args.explain))
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_CLEAN

    raw_paths: List[str] = args.paths or ["src"]
    paths = [Path(p) for p in raw_paths]
    for path in paths:
        if not path.exists():
            print(f"repro-lint: path not found: {path}", file=sys.stderr)
            return EXIT_USAGE

    baseline_path = _resolve_baseline(args)

    report_relpaths: Optional[Set[str]] = None
    if args.changed is not None:
        try:
            report_relpaths = changed_relpaths(args.changed)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if args.write_baseline:
        if baseline_path is None:
            baseline_path = DEFAULT_BASELINE
        try:
            result = lint_paths(
                paths,
                select=args.select,
                baseline=None,
                cache_path=args.cache,
                report_relpaths=report_relpaths,
            )
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        Baseline.from_findings(result.findings).write(baseline_path)
        print(
            f"wrote {baseline_path} ({len(result.findings)} grandfathered "
            f"finding(s))"
        )
        return EXIT_CLEAN

    baseline = None
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"repro-lint: bad baseline {baseline_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        result = lint_paths(
            paths,
            select=args.select,
            baseline=baseline,
            cache_path=args.cache,
            report_relpaths=report_relpaths,
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # engine crash: loud exit 2, never "clean"
        print(
            f"repro-lint: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        traceback.print_exc(file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.format == "json":
            print(json.dumps(result.as_dict(), indent=2))
        else:
            print(_render_text(result))
    except BrokenPipeError:  # output piped into head/less and closed early
        sys.stderr.close()
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
