"""The project rules: RPR006-RPR009.

All four run on :class:`~repro.lint.project.analysis.ProjectAnalysis`
and attach the witness call chain to every finding, e.g.
``run_functional -> _helper -> os.environ.get``.  Each owns one
contract whole: a direct violation and one inherited through any depth
of calls are the same rule's finding.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.lint.engine import Finding, Rule, register
from repro.lint.project.analysis import (
    FunctionNode,
    ProjectAnalysis,
    Witness,
)
from repro.lint.project.indexer import CallArg

#: Human verbs for the effect kinds, used in diagnostics.
_EFFECT_VERBS: Dict[str, str] = {
    "reads-env": "reads the process environment",
    "reads-clock": "reads a clock",
    "reads-entropy": "draws entropy or global random state",
    "reads-file": "reads a file or stdin",
    "raw-disk-write": "performs a raw disk write",
    "spawns-process": "spawns a process",
    "mutates-global": "mutates global state",
}


def _finding(
    rule: Rule,
    node: FunctionNode,
    line: int,
    message: str,
    chain: Tuple[str, ...],
) -> Finding:
    return Finding(
        rule=rule.rule_id,
        path=node.relpath,
        line=line,
        column=1,
        message=message,
        severity=rule.severity,
        chain=chain,
    )


@register
class ArtifactWriteRule(Rule):
    """RPR006: artifact bytes reach disk only through the integrity layer."""

    rule_id = "RPR006"
    name = "artifact-write-safety"
    severity = "error"
    exclude = ("resilience/integrity.py",)
    requires_project = True
    rationale = (
        "Raw writes (open(.., 'w'), Path.write_text, json.dump, np.save) "
        "can tear on crash or ENOSPC and leave a half-written artifact "
        "that a resumed sweep would read as truth.  Every durable write "
        "must go through resilience.integrity.atomic_write_text/_bytes "
        "or atomic_writer (tmp file + fsync + rename); only integrity.py "
        "itself touches the raw primitives."
    )
    explain = (
        "The project analysis flags every raw disk-write sink outside "
        "resilience/integrity.py, wherever it hides in the call graph.  "
        "Writes through a ``with atomic_writer(path) as handle:`` handle "
        "are exempt.  Example diagnostic:\n\n"
        "  trace/dinero.py:31:1: RPR006 [error] raw artifact write "
        "(open(.., \"w\")) ... [chain: write_dinero -> open(.., \"w\")]\n\n"
        "Fix by routing the write through atomic_write_text, "
        "atomic_write_bytes or atomic_writer; deliberate raw writes "
        "(e.g. the chaos drill's vandalism) carry an explained "
        "``# repro: noqa RPR006``."
    )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for key in sorted(analysis.functions):
            node = analysis.functions[key]
            if not self.applies_to(node.relpath):
                continue
            for site in node.info.effects:
                if site.kind != "raw-disk-write":
                    continue
                chain = analysis.root_chain(key) + (site.detail,)
                yield _finding(
                    self,
                    node,
                    site.line,
                    f"raw artifact write ({site.detail}); route it through "
                    "resilience.integrity.atomic_write_text/_bytes or "
                    "atomic_writer",
                    chain,
                )


@register
class LockDisciplineRule(Rule):
    """RPR007: journal/cache mutations happen under the advisory lock."""

    rule_id = "RPR007"
    name = "lock-discipline"
    severity = "error"
    requires_project = True
    rationale = (
        "The sweep journal and the shared workloads trace cache follow a "
        "one-writer protocol: every mutation (write, rename, unlink, "
        "quarantine) must happen inside an AdvisoryLock/SweepJournal "
        "context.  A mutation reachable through a call path that never "
        "acquires the lock races concurrent sweeps sharing the cache."
    )
    explain = (
        "Applies to modules whose filename contains 'journal' or "
        "'workloads'.  A mutation site is discharged when it is "
        "lexically inside a lock region (``with AdvisoryLock(..)``, "
        "``lock.acquire(..) ... lock.release()``), when its class "
        "acquires the lock in ``__init__`` (SweepJournal), or when "
        "every call path into its function passes through such a "
        "region.  Otherwise the diagnostic shows one unlocked path:\n\n"
        "  resilience/journal.py:42:1: RPR007 [error] ... "
        "[chain: compact_journal -> _rewrite_segment -> atomic_write_text]"
    )

    @staticmethod
    def _guarded(relpath: str) -> bool:
        basename = relpath.rsplit("/", 1)[-1]
        return "journal" in basename or "workloads" in basename

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        unprotected = analysis.unprotected_chains()
        for key in sorted(analysis.functions):
            node = analysis.functions[key]
            if not self._guarded(node.relpath) or not self.applies_to(
                node.relpath
            ):
                continue
            if node.info.lock_guaranteed or key not in unprotected:
                continue
            seen: Set[Tuple[int, str]] = set()
            for site in node.info.effects:
                if site.kind not in ("raw-disk-write", "guarded-write"):
                    continue
                if site.locked or (site.line, site.detail) in seen:
                    continue
                seen.add((site.line, site.detail))
                chain = unprotected[key] + (site.detail,)
                yield _finding(
                    self,
                    node,
                    site.line,
                    f"mutation ({site.detail}) outside any AdvisoryLock/"
                    "SweepJournal context, reachable without a lock",
                    chain,
                )


#: Modules where *every* function is on (or one call away from) the
#: memoised path.
_STRICT_MODULES = frozenset(
    (
        "sim/memo.py",
        "sim/fast.py",
        "sim/functional.py",
        "sim/hierarchy.py",
        "sim/stackdist.py",
    )
)


def _memo_pattern_name(name: str) -> bool:
    if name in ("memo_key", "timing_key", "trace_fingerprint"):
        return True
    if name.endswith("_projection"):
        return True
    if name.startswith("run_functional"):
        return True
    return "memo" in name or "stackdist" in name


@register
class MemoPurityRule(Rule):
    """RPR008: memo-path functions read nothing ambient, at any depth."""

    rule_id = "RPR008"
    name = "memo-purity"
    severity = "error"
    scope = ("sim/",)
    requires_project = True
    rationale = (
        "The memo cache assumes result == f(trace, config); a memo-path "
        "function that reads env vars, files, clocks or entropy -- "
        "itself or through a helper any number of calls down -- makes "
        "two processes disagree under the same key, and the cache then "
        "replays the wrong answer as if it were reproducible."
    )
    explain = (
        "Roots are every function in the strict sim modules "
        "(memo/fast/functional/hierarchy/stackdist) plus memo-pattern "
        "names elsewhere under sim/ (memo_key, timing_key, "
        "trace_fingerprint, *_projection, run_functional*, *memo*, "
        "*stackdist*).  A root's own ambient reads are reported where "
        "they happen, except lines RPR001 or RPR003 already report; an "
        "inherited read is reported once per effect kind at the call "
        "that brings it in:\n\n"
        "  sim/fast.py:660:1: RPR008 [error] memo-path function "
        "'run_functional' transitively reads the process environment "
        "[chain: run_functional -> replay_chunk_records -> get -> "
        "os.environ.get]\n\n"
        "An inline ``# repro: noqa RPR008`` on the call line is an "
        "effect *barrier*: it vouches for that subtree and stops the "
        "propagation to callers (use with an explanatory comment)."
    )

    #: The kinds that poison a memo key: ambient *reads*.  Global
    #: mutation is excluded on purpose -- the memo layer's own
    #: idempotent cache fills are global writes, and a write never
    #: changes what f(args) returns (fork divergence is RPR009's job).
    _PURITY_KINDS = ("reads-env", "reads-clock", "reads-entropy", "reads-file")

    #: Per-file rules whose finding on a line already covers a direct read.
    _COVERING_RULES = ("RPR001", "RPR003")

    def _is_root(self, node: FunctionNode) -> bool:
        if node.relpath in _STRICT_MODULES:
            return True
        return node.relpath.startswith("sim/") and _memo_pattern_name(
            node.info.name
        )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        effects = analysis.effect_map(barrier_rule=self.rule_id)
        for key in sorted(analysis.functions):
            node = analysis.functions[key]
            if not self.applies_to(node.relpath) or not self._is_root(node):
                continue
            name = node.info.name
            covered = {
                int(str(item["line"]))
                for item in analysis.modules[node.module].findings
                if item.get("rule") in self._COVERING_RULES
            }
            for site in node.info.effects:
                if site.kind in self._PURITY_KINDS and site.line not in covered:
                    yield _finding(
                        self,
                        node,
                        site.line,
                        f"memo-path function '{name}' "
                        f"{_EFFECT_VERBS[site.kind]} ({site.detail}); "
                        "memoised results must depend only on the "
                        "function's arguments",
                        (name, site.detail),
                    )
            inherited: Dict[str, Witness] = {}
            for call, target in analysis.edges.get(key, ()):
                if target is None or analysis.noqa_barrier(
                    node, call.line, self.rule_id
                ):
                    continue
                callee = analysis.functions[target].info.name
                for kind, witness in effects[target].items():
                    if kind in self._PURITY_KINDS and kind not in inherited:
                        inherited[kind] = Witness(
                            kind=kind,
                            line=call.line,
                            chain=(callee,) + witness.chain,
                        )
            for kind, witness in inherited.items():
                yield _finding(
                    self,
                    node,
                    witness.line,
                    f"memo-path function '{name}' transitively "
                    f"{_EFFECT_VERBS[kind]}",
                    (name,) + witness.chain,
                )


@register
class ForkSafetyRule(Rule):
    """RPR009: pool callables are picklable and fork-safe, however they
    reach the pool."""

    rule_id = "RPR009"
    name = "fork-safety"
    severity = "error"
    requires_project = True
    rationale = (
        "Worker processes receive their compute callable at fork time; "
        "lambdas, closures, global mutation (at any call depth) and "
        "lock/file-handle defaults turn per-cell fault isolation into "
        "per-sweep heisenbugs -- whether the callable is written at the "
        "run_pooled/Process call or reaches it through a local or a "
        "wrapper."
    )
    explain = (
        "A parameter-flow fixed point marks every function parameter "
        "that ends up in a pool callable slot (run_pooled slot 1, "
        "Process(target=...)); each concrete value observed at "
        "a flowing slot is then checked: lambdas and nested functions "
        "are not picklable under spawn, callables that mutate module "
        "globals (directly or transitively) diverge between fork and "
        "spawn workers, and a lock or open file baked into a default "
        "argument crosses the fork in an undefined state."
        "\n\n  resilience/executor.py:90:1: RPR009 [error] ... "
        "[chain: compute -> _submit -> run_pooled]"
    )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        effects = analysis.effect_map()
        seen: Set[Tuple[str, int, str, str]] = set()
        for flow in analysis.pool_flow_sites():
            node = flow.caller
            if not self.applies_to(node.relpath):
                continue
            arg = flow.arg
            dedup = (node.key, flow.site.line, arg.slot, arg.name or "<lambda>")
            if dedup in seen:
                continue
            seen.add(dedup)
            chain = (arg.name or "lambda",) + flow.chain
            for message in self._violations(analysis, effects, node, arg):
                yield _finding(self, node, flow.site.line, message, chain)

    @staticmethod
    def _violations(
        analysis: ProjectAnalysis,
        effects: Dict[str, Dict[str, Witness]],
        node: FunctionNode,
        arg: CallArg,
    ) -> Iterator[str]:
        """What is wrong with the callable ``node`` hands to the pool."""
        if arg.kind == "lambda":
            yield (
                "lambda reaches the worker pool; workers need a "
                "module-level function"
            )
            return
        name = arg.name
        if name in node.info.lambda_locals:
            yield (
                f"'{name}' is bound to a lambda and reaches the worker "
                "pool; workers need a module-level function"
            )
            return
        target = analysis.resolve_local_name(node, name)
        if name in node.info.nested_names or (
            target is not None and analysis.functions[target].info.is_nested
        ):
            yield (
                f"nested function '{name}' reaches the worker pool; "
                "workers need a module-level function"
            )
            return
        if target is None:
            return
        info = analysis.functions[target].info
        witness = effects[target].get("mutates-global")
        if witness is not None:
            effect_path = " -> ".join((info.name,) + witness.chain)
            yield (
                f"pool callable '{name}' mutates global state "
                f"({effect_path}); workers must not rely on global mutation"
            )
        for call in info.unsafe_defaults:
            yield (
                f"pool callable '{name}' bakes {call}() into a default "
                "argument; locks and file handles must not cross the "
                "fork boundary"
            )
