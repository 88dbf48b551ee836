"""Call graph and fixed-point effect propagation over module summaries.

Builds the project symbol table (fully-qualified function names, with
import aliases resolved through re-export chains), the call graph, and
three derived analyses the interprocedural rules consume:

* :meth:`ProjectAnalysis.effect_map` -- per function, the transitive
  effect set (:data:`EFFECT_KINDS`), each with a witness: the call line where it enters
  the function and the bare-name chain down to the effectful leaf.
  A ``barrier_rule`` makes inline ``noqa`` for that rule an *effect
  barrier*: a suppressed call site does not propagate its effects to
  callers (the suppression vouches for the whole subtree).  Functions
  defined in :data:`SANCTIONED_RELPATHS` (the blessed clock and the
  telemetry layer) contribute no effects at all, independent of any
  barrier rule.
* :meth:`ProjectAnalysis.unprotected_chains` -- functions reachable
  from a call-graph root purely through call sites that are not inside
  an advisory-lock region (the lock-discipline reachability RPR007
  checks writes against).
* :meth:`ProjectAnalysis.pool_flow_sites` -- every concrete argument
  that flows into a worker-pool callable slot (``run_pooled`` /
  ``Process(target=...)``), including flows through
  wrapper functions and parameter positions (RPR009's input).

Direct effect sites are classified once, in the indexer's sink table
(:mod:`repro.lint.project.indexer`).

Everything is deterministic: functions iterate in sorted key order and
propagation only ever *adds* facts, so runs are stable and terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.project.indexer import (
    CallArg,
    CallSite,
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
)

#: Worker-pool entry points: call tail -> the callable's slot (a
#: positional index or a keyword name).
POOL_ENTRY_SLOTS: Dict[str, str] = {
    "run_pooled": "1",
    "Process": "target",
}

#: Effect kinds the propagator tracks (guarded-write sites are consumed
#: by the lock analysis instead, not propagated as effects).
EFFECT_KINDS: Tuple[str, ...] = (
    "reads-env",
    "reads-clock",
    "reads-entropy",
    "reads-file",
    "raw-disk-write",
    "spawns-process",
    "mutates-global",
)

#: Modules whose effects are sanctioned *by design* and never propagate
#: through the call graph: the one blessed monotonic clock
#: (``repro/core/clock.py``) and the telemetry layer built on it.  Their
#: clock reads, recorder-global mutations and sink appends are
#: observation-only -- readings land in spans, counters and manifests,
#: never in simulation results -- so a ``span(...)`` in a memoised
#: kernel must not mark that kernel impure (RPR008) or fork-unsafe
#: (RPR009).  This is the structural alternative to scattering ``noqa``
#: waivers over every instrumented call site; the modules themselves
#: stay small and auditable.
SANCTIONED_RELPATHS: Tuple[str, ...] = ("core/clock.py", "telemetry/")


def _sanctioned(relpath: str) -> bool:
    return relpath == "core/clock.py" or relpath.startswith("telemetry/")


@dataclass(frozen=True)
class Witness:
    """How an effect enters a function: the line of the responsible
    call (or direct site) and the bare-name chain to the leaf."""

    kind: str
    line: int
    chain: Tuple[str, ...]

    @property
    def inherited(self) -> bool:
        """True when the effect arrives through a call (chain has at
        least one function hop before the leaf detail)."""
        return len(self.chain) >= 2


@dataclass
class FunctionNode:
    """One function in the project graph."""

    key: str  # fully-qualified: "repro.sim.fast.run_functional"
    module: str
    relpath: str
    info: FunctionInfo


@dataclass
class PoolFlowSite:
    """A concrete value observed flowing into a pool callable slot."""

    caller: FunctionNode
    site: CallSite
    arg: CallArg
    chain: Tuple[str, ...]  # wrapper path ending at the entry point


@dataclass
class ProjectAnalysis:
    """The symbol table, call graph and analyses for one index."""

    index: ProjectIndex
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    #: caller key -> [(call site, resolved callee key or None)]
    edges: Dict[str, List[Tuple[CallSite, Optional[str]]]] = field(
        default_factory=dict
    )
    #: callee key -> [(caller key, call site)]
    callers: Dict[str, List[Tuple[str, CallSite]]] = field(default_factory=dict)

    @classmethod
    def build(cls, index: ProjectIndex) -> "ProjectAnalysis":
        analysis = cls(index=index)
        for summary in index.summaries:
            analysis.modules.setdefault(summary.module, summary)
            for info in summary.functions:
                key = f"{summary.module}.{info.qualname}"
                analysis.functions[key] = FunctionNode(
                    key=key,
                    module=summary.module,
                    relpath=summary.relpath,
                    info=info,
                )
        for key in sorted(analysis.functions):
            node = analysis.functions[key]
            edge_list: List[Tuple[CallSite, Optional[str]]] = []
            for site in node.info.calls:
                target = analysis.resolve_fq(site.resolved)
                if target == key:
                    target = None  # direct recursion adds nothing
                edge_list.append((site, target))
                if target is not None:
                    analysis.callers.setdefault(target, []).append((key, site))
            analysis.edges[key] = edge_list
        return analysis

    # -- resolution ----------------------------------------------------------

    def resolve_fq(self, ref: Optional[str], depth: int = 0) -> Optional[str]:
        """A fully-qualified reference to a function key, following
        import aliases and re-export chains (bounded hops)."""
        if ref is None or depth > 8:
            return None
        if ref in self.functions:
            return ref
        if f"{ref}.__init__" in self.functions:
            return f"{ref}.__init__"
        parts = ref.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            target = summary.imports.get(rest[0])
            if target is None:
                return None
            return self.resolve_fq(".".join([target] + rest[1:]), depth + 1)
        return None

    def resolve_local_name(
        self, node: FunctionNode, name: str
    ) -> Optional[str]:
        """A bare name inside ``node``'s module to a function key."""
        summary = self.modules.get(node.module)
        if summary is None:
            return None
        candidate = f"{node.module}.{name}"
        resolved = self.resolve_fq(candidate)
        if resolved is not None:
            return resolved
        target = summary.imports.get(name)
        return self.resolve_fq(target) if target else None

    def noqa_barrier(self, node: FunctionNode, line: int, rule_id: str) -> bool:
        summary = self.modules.get(node.module)
        if summary is None:
            return False
        ids = summary.noqa.get(line)
        return ids is not None and (not ids or rule_id in ids)

    # -- transitive effects --------------------------------------------------

    def effect_map(
        self, barrier_rule: Optional[str] = None
    ) -> Dict[str, Dict[str, Witness]]:
        """Per function, the transitive effect witnesses (fixed point)."""
        effects: Dict[str, Dict[str, Witness]] = {}
        for key in sorted(self.functions):
            node = self.functions[key]
            per: Dict[str, Witness] = {}
            if _sanctioned(node.relpath):
                # Sanctioned modules contribute no effects at all --
                # empty sets mean nothing propagates to callers, for
                # every consumer of this map regardless of barrier_rule.
                effects[key] = per
                continue
            for site in node.info.effects:
                if site.kind not in EFFECT_KINDS:
                    continue
                if barrier_rule is not None and self.noqa_barrier(
                    node, site.line, barrier_rule
                ):
                    continue
                per.setdefault(
                    site.kind,
                    Witness(kind=site.kind, line=site.line, chain=(site.detail,)),
                )
            effects[key] = per
        changed = True
        while changed:
            changed = False
            for key in sorted(self.functions):
                node = self.functions[key]
                own = effects[key]
                for site, target in self.edges.get(key, ()):
                    if target is None:
                        continue
                    if barrier_rule is not None and self.noqa_barrier(
                        node, site.line, barrier_rule
                    ):
                        continue
                    callee_name = self.functions[target].info.name
                    for kind, witness in effects[target].items():
                        if kind in own:
                            continue
                        own[kind] = Witness(
                            kind=kind,
                            line=site.line,
                            chain=(callee_name,) + witness.chain,
                        )
                        changed = True
        return effects

    # -- lock-discipline reachability ----------------------------------------

    def unprotected_chains(self) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from a call-graph root through call sites
        outside every advisory-lock region, with the witness chain.

        A function absent from the result is only ever entered with a
        lock held (or is a lock-guaranteed method): writes inside it are
        discharged.
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for key in sorted(self.functions):
            node = self.functions[key]
            if node.info.lock_guaranteed:
                continue
            if not self.callers.get(key):
                chains[key] = (node.info.name,)
                queue.append(key)
        while queue:
            key = queue.pop(0)
            for site, target in self.edges.get(key, ()):
                if target is None or site.locked:
                    continue
                callee = self.functions[target]
                if callee.info.lock_guaranteed or target in chains:
                    continue
                chains[target] = chains[key] + (callee.info.name,)
                queue.append(target)
        return chains

    # -- root chains (diagnostics) -------------------------------------------

    def root_chain(self, key: str) -> Tuple[str, ...]:
        """A shortest bare-name path from a call-graph root down to
        ``key`` (for diagnostics; ``key`` itself when it is a root)."""
        start = (self.functions[key].info.name,)
        visited: Set[str] = {key}
        frontier: List[Tuple[str, Tuple[str, ...]]] = [(key, start)]
        while frontier:
            current, chain = frontier.pop(0)
            incoming = self.callers.get(current, [])
            if not incoming:
                return chain
            for caller_key, _site in incoming:
                if caller_key in visited:
                    continue
                visited.add(caller_key)
                frontier.append(
                    (caller_key, (self.functions[caller_key].info.name,) + chain)
                )
        return start  # every ancestor sits on a cycle

    # -- pool-argument flow ----------------------------------------------------

    def pool_flow_sites(self) -> List[PoolFlowSite]:
        """Concrete values flowing into worker-pool callable slots,
        through any depth of wrapper functions (fixed point over the
        parameter-flow relation, then one collection pass)."""
        flows: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        changed = True
        while changed:
            changed = False
            for key in sorted(self.functions):
                node = self.functions[key]
                for site, target in self.edges.get(key, ()):
                    for slots, chain in self._flowing_slots(site, target, flows):
                        for arg in site.args:
                            if arg.slot not in slots:
                                continue
                            if (
                                arg.kind == "name"
                                and arg.name in node.info.params
                            ):
                                per = flows.setdefault(key, {})
                                if arg.name not in per:
                                    per[arg.name] = chain
                                    changed = True
        sites: List[PoolFlowSite] = []
        for key in sorted(self.functions):
            node = self.functions[key]
            for site, target in self.edges.get(key, ()):
                for slots, chain in self._flowing_slots(site, target, flows):
                    for arg in site.args:
                        if arg.slot not in slots:
                            continue
                        if arg.kind == "name" and arg.name in node.info.params:
                            continue  # propagated, checked at the outer caller
                        sites.append(
                            PoolFlowSite(
                                caller=node, site=site, arg=arg, chain=chain
                            )
                        )
        return sites

    def _flowing_slots(
        self,
        site: CallSite,
        target: Optional[str],
        flows: Dict[str, Dict[str, Tuple[str, ...]]],
    ) -> List[Tuple[Set[str], Tuple[str, ...]]]:
        """The callable-carrying slots of one call site: ``(accepted
        slot spellings, wrapper chain)`` pairs."""
        result: List[Tuple[Set[str], Tuple[str, ...]]] = []
        if site.tail in POOL_ENTRY_SLOTS:
            result.append(({POOL_ENTRY_SLOTS[site.tail]}, (site.tail,)))
        if target is not None and target in flows:
            callee = self.functions[target].info
            for param, chain in flows[target].items():
                slots: Set[str] = {param}
                if param in callee.params:
                    slots.add(str(callee.params.index(param)))
                result.append((slots, (callee.name,) + chain))
        return result
