"""The module indexer: one parse per file, digest-keyed summary cache.

Each Python module is reduced to a :class:`ModuleSummary` -- its import
alias table, one :class:`FunctionInfo` per function (direct effect
sites, resolved call references, lock regions, pool-relevant call
arguments), the statement-span noqa map, and the intraprocedural
findings.  Summaries are JSON-serialisable; :meth:`ProjectIndex.build`
persists them keyed by the file's content digest plus an engine salt
(the lint package's own source + the registered env-var names), so a
warm run re-parses only files whose bytes changed and a stale summary
is structurally impossible.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.engine import (
    ModuleContext,
    apply_noqa_map,
    check_module,
    dotted_name,
    get_rules,
    noqa_line_map,
    package_relpath,
    syntax_error_finding,
)

#: Bump when the summary shape or extraction logic changes.
CACHE_VERSION = 3

# -- the sink table ------------------------------------------------------------
#
# One classification of ambient reads for every rule: the indexer files
# direct effect sites by it, and RPR001 (determinism) and RPR003
# (env-registry) match their calls against the same lists.  Entries are
# dotted-name suffixes, matched by :func:`matches_suffix`.

#: Calls that read the process environment (``os.environ.get`` matches
#: the ``environ.get`` suffix).
ENV_READ_SUFFIXES: Tuple[str, ...] = (
    "os.getenv",
    "environ.get",
    "environ.setdefault",
)
#: Names denoting the environ mapping itself (subscripts, ``in`` tests).
ENVIRON_NAMES: FrozenSet[str] = frozenset(("os.environ", "environ"))
#: Calls that read a clock.
CLOCK_SUFFIXES: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)
#: Calls that draw platform entropy.
ENTROPY_SUFFIXES: Tuple[str, ...] = (
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
)
_STDLIB_RANDOM_FUNCS: Tuple[str, ...] = (
    "random", "randint", "randrange", "randbytes", "getrandbits", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "normalvariate",
    "gauss", "expovariate", "betavariate", "seed",
)
_NUMPY_RANDOM_FUNCS: Tuple[str, ...] = (
    "seed", "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
    "exponential", "poisson",
)
#: Calls that draw from (or reseed) a process-global RNG: the stdlib
#: ``random`` module functions and NumPy's legacy ``np.random`` ones.
#: Seeded generator instances are not sinks.
GLOBAL_RANDOM_SUFFIXES: Tuple[str, ...] = tuple(
    f"random.{name}" for name in _STDLIB_RANDOM_FUNCS
) + tuple(
    f"{module}.random.{name}"
    for module in ("np", "numpy")
    for name in _NUMPY_RANDOM_FUNCS
)


def matches_suffix(name: str, suffixes: Sequence[str]) -> bool:
    """True when dotted ``name`` is one of ``suffixes`` or ends with
    ``.`` + one of them (``dt.datetime.now`` matches ``datetime.now``)."""
    return any(name == s or name.endswith("." + s) for s in suffixes)


#: Dotted-name suffixes that spawn a process.
_SPAWN_SUFFIXES: Tuple[str, ...] = (
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.fork",
    "os.execv",
    "os.execve",
)
#: Default-argument constructors that must never cross a fork boundary.
_UNSAFE_DEFAULT_CALLS: FrozenSet[str] = frozenset(
    (
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "open",
    )
)
#: Call *tails* that are raw write sinks when applied to a path (not an
#: atomic handle): ``Path.write_text``, ``json.dump``, ``np.save``...
_WRITE_TAILS: FrozenSet[str] = frozenset(
    ("write_text", "write_bytes", "savetxt", "save", "savez", "savez_compressed")
)
#: Tails whose *second or first* argument is a file handle.
_HANDLE_SINK_TAILS: FrozenSet[str] = frozenset(("dump", "tofile"))
#: Tails that mutate durable state and must happen under a lock in the
#: guarded (journal / workloads-cache) modules -- the atomic-write
#: primitives included: atomicity makes a write safe against tearing,
#: the lock makes it safe against a concurrent writer.
_GUARDED_TAILS: FrozenSet[str] = frozenset(
    (
        "atomic_write_text",
        "atomic_write_bytes",
        "atomic_writer",
        "quarantine",
        "replace",
        "rename",
        "unlink",
        "save",
    )
)
#: Context-manager / lock names whose ``with`` block counts as locked.
_LOCK_CONTEXT_NAMES: FrozenSet[str] = frozenset(
    ("AdvisoryLock", "SweepJournal", "journaling", "acquire")
)


@dataclass
class CallArg:
    """One pool-relevant argument at a call site (a name or a lambda)."""

    slot: str  # positional index ("0", "1", ...) or keyword name
    kind: str  # "lambda" | "name"
    name: str  # the bare name ("" for a lambda literal)

    def to_dict(self) -> Dict[str, object]:
        return {"slot": self.slot, "kind": self.kind, "name": self.name}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CallArg":
        return cls(
            slot=str(payload["slot"]),
            kind=str(payload["kind"]),
            name=str(payload["name"]),
        )


@dataclass
class CallSite:
    """One call expression inside a function body."""

    raw: str  # the dotted name as written ("TraceStore.save", "open")
    tail: str  # last dotted component ("save", "open")
    resolved: Optional[str]  # module-qualified target, when determinable
    line: int
    locked: bool  # lexically inside an advisory-lock region
    args: List[CallArg] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "raw": self.raw,
            "tail": self.tail,
            "resolved": self.resolved,
            "line": self.line,
            "locked": self.locked,
            "args": [arg.to_dict() for arg in self.args],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CallSite":
        resolved = payload.get("resolved")
        args_raw = payload.get("args")
        return cls(
            raw=str(payload["raw"]),
            tail=str(payload["tail"]),
            resolved=None if resolved is None else str(resolved),
            line=int(str(payload["line"])),
            locked=bool(payload["locked"]),
            args=[
                CallArg.from_dict(item)
                for item in (args_raw if isinstance(args_raw, list) else [])
            ],
        )


@dataclass
class EffectSite:
    """One direct effect inside a function body."""

    kind: str  # one of analysis.EFFECT_KINDS, or "guarded-write"
    line: int
    detail: str  # e.g. 'os.environ.get', 'open(.., "w")'
    locked: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "line": self.line,
            "detail": self.detail,
            "locked": self.locked,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EffectSite":
        return cls(
            kind=str(payload["kind"]),
            line=int(str(payload["line"])),
            detail=str(payload["detail"]),
            locked=bool(payload["locked"]),
        )


@dataclass
class FunctionInfo:
    """The per-function summary the project analysis runs on."""

    qualname: str  # "f", "Cls.f", "outer.<locals>.inner"
    name: str
    lineno: int
    params: List[str]
    is_nested: bool
    lock_guaranteed: bool  # method of a class that locks in __init__
    class_name: Optional[str]
    mutated_globals: List[str]
    lambda_locals: List[str]  # local names bound to a lambda
    nested_names: List[str]
    unsafe_defaults: List[str]  # lock/handle constructors in defaults
    effects: List[EffectSite]
    calls: List[CallSite]

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "lineno": self.lineno,
            "params": self.params,
            "is_nested": self.is_nested,
            "lock_guaranteed": self.lock_guaranteed,
            "class_name": self.class_name,
            "mutated_globals": self.mutated_globals,
            "lambda_locals": self.lambda_locals,
            "nested_names": self.nested_names,
            "unsafe_defaults": self.unsafe_defaults,
            "effects": [site.to_dict() for site in self.effects],
            "calls": [site.to_dict() for site in self.calls],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FunctionInfo":
        class_name = payload.get("class_name")
        return cls(
            qualname=str(payload["qualname"]),
            name=str(payload["name"]),
            lineno=int(str(payload["lineno"])),
            params=[str(p) for p in _as_list(payload["params"])],
            is_nested=bool(payload["is_nested"]),
            lock_guaranteed=bool(payload["lock_guaranteed"]),
            class_name=None if class_name is None else str(class_name),
            mutated_globals=[str(p) for p in _as_list(payload["mutated_globals"])],
            lambda_locals=[str(p) for p in _as_list(payload["lambda_locals"])],
            nested_names=[str(p) for p in _as_list(payload["nested_names"])],
            unsafe_defaults=[
                str(p) for p in _as_list(payload["unsafe_defaults"])
            ],
            effects=[
                EffectSite.from_dict(item)
                for item in _as_list(payload["effects"])
            ],
            calls=[
                CallSite.from_dict(item) for item in _as_list(payload["calls"])
            ],
        )


def _as_list(value: object) -> List[object]:
    return value if isinstance(value, list) else []


@dataclass
class ModuleSummary:
    """Everything the project analysis keeps of one parsed module."""

    path: str  # filesystem path as given
    relpath: str  # package-relative ("sim/fast.py"); what scopes match
    module: str  # dotted name ("repro.sim.fast")
    digest: str  # sha256 of the file bytes
    imports: Dict[str, str]  # local name -> fully-qualified target
    functions: List[FunctionInfo]
    noqa: Dict[int, List[str]]  # line -> suppressed ids ([] = blanket)
    findings: List[Dict[str, object]]  # intra findings, post-noqa
    #: Intra findings dropped by inline noqa, per rule id (a run sums
    #: only the rules it selects).
    suppressed: Dict[str, int] = field(default_factory=dict)

    def noqa_map(self) -> Dict[int, FrozenSet[str]]:
        return {line: frozenset(ids) for line, ids in self.noqa.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "relpath": self.relpath,
            "module": self.module,
            "digest": self.digest,
            "imports": self.imports,
            "functions": [info.to_dict() for info in self.functions],
            "noqa": {str(line): ids for line, ids in self.noqa.items()},
            "findings": self.findings,
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModuleSummary":
        noqa_raw = payload.get("noqa")
        noqa: Dict[int, List[str]] = {}
        if isinstance(noqa_raw, dict):
            for key, value in noqa_raw.items():
                noqa[int(key)] = [str(item) for item in _as_list(value)]
        imports_raw = payload.get("imports")
        imports: Dict[str, str] = {}
        if isinstance(imports_raw, dict):
            imports = {str(k): str(v) for k, v in imports_raw.items()}
        findings = [
            item
            for item in _as_list(payload.get("findings"))
            if isinstance(item, dict)
        ]
        suppressed_raw = payload.get("suppressed")
        return cls(
            path=str(payload["path"]),
            relpath=str(payload["relpath"]),
            module=str(payload["module"]),
            digest=str(payload["digest"]),
            imports=imports,
            functions=[
                FunctionInfo.from_dict(item)
                for item in _as_list(payload.get("functions"))
                if isinstance(item, dict)
            ],
            noqa=noqa,
            findings=findings,
            suppressed={
                str(rule_id): int(str(count))
                for rule_id, count in suppressed_raw.items()
            } if isinstance(suppressed_raw, dict) else {},
        )


# -- module name / digest helpers --------------------------------------------


def module_dotted_name(path: Path, relpath: str) -> str:
    """``sim/fast.py`` -> ``repro.sim.fast``; ``lint/__init__.py`` ->
    ``repro.lint``.  Every indexed file is addressed as if it lived in
    the ``repro`` package -- fixtures included, which is exactly how the
    scope rules treat them too."""
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + [part for part in parts if part])


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- the per-function extraction walker --------------------------------------


def _walk_local(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs or
    classes (those are summarised separately).  Lambda bodies are walked:
    a lambda has no summary of its own, so its calls and effects count
    as the enclosing function's."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _call_tail(func: ast.expr) -> Optional[str]:
    """The last attribute component of a call target, for calls whose
    full dotted chain cannot be rendered (e.g. ``Cls(cfg).run(...)``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode string when this ``open(...)`` call writes, else None."""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value if any(c in mode.value for c in "wax+") else None
    if isinstance(mode, ast.IfExp):
        # ``"a" if resume else "w"`` -- writes on at least one branch.
        for branch in (mode.body, mode.orelse):
            if (
                isinstance(branch, ast.Constant)
                and isinstance(branch.value, str)
                and any(c in branch.value for c in "wax+")
            ):
                return branch.value
    return None


def _lock_intervals(fn_node: ast.AST) -> List[Tuple[int, int]]:
    """Line ranges of this function that execute under an advisory lock:
    ``with AdvisoryLock(...)`` / ``with lock.acquire()`` / ``with
    journaling(...)`` blocks, plus ``lock.acquire(...)`` ...
    ``lock.release()`` regions (the try/finally idiom)."""
    intervals: List[Tuple[int, int]] = []
    acquires: List[Tuple[int, str]] = []
    releases: List[Tuple[int, str]] = []
    end_line = getattr(fn_node, "end_lineno", None) or 10**9
    for node in _walk_local(fn_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                hit = False
                for sub in ast.walk(item.context_expr):
                    if isinstance(sub, ast.Call):
                        tail = _call_tail(sub.func)
                        if tail in _LOCK_CONTEXT_NAMES:
                            hit = True
                if hit:
                    intervals.append(
                        (node.lineno, getattr(node, "end_lineno", None) or node.lineno)
                    )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.endswith(".acquire"):
                acquires.append((node.lineno, name[: -len(".acquire")]))
            elif name.endswith(".release"):
                releases.append((node.lineno, name[: -len(".release")]))
    for acq_line, base in acquires:
        matching = [line for line, rbase in releases if rbase == base and line >= acq_line]
        intervals.append((acq_line, min(matching) if matching else end_line))
    return intervals


def _unsafe_defaults(fn_node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> List[str]:
    """Lock and file-handle constructors baked into default arguments."""
    defaults = list(fn_node.args.defaults)
    defaults += [d for d in fn_node.args.kw_defaults if d is not None]
    found: List[str] = []
    for default in defaults:
        for inner in ast.walk(default):
            if isinstance(inner, ast.Call):
                name = dotted_name(inner.func)
                if name is not None and name in _UNSAFE_DEFAULT_CALLS:
                    found.append(name)
    return found


def _in_intervals(line: int, intervals: Sequence[Tuple[int, int]]) -> bool:
    return any(lo <= line <= hi for lo, hi in intervals)


class _FunctionSummariser:
    """Extracts one :class:`FunctionInfo` from a function AST node."""

    def __init__(
        self,
        fn_node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        is_nested: bool,
        lock_guaranteed: bool,
        module: str,
        module_names: Set[str],
        imports: Dict[str, str],
    ) -> None:
        self.fn_node = fn_node
        self.qualname = qualname
        self.class_name = class_name
        self.is_nested = is_nested
        self.lock_guaranteed = lock_guaranteed
        self.module = module
        self.module_names = module_names
        self.imports = imports
        #: Names of functions defined inside this one (calls to them
        #: resolve to their ``<locals>`` qualname).
        self.local_defs: Set[str] = set()

    def _container_root(
        self, target: ast.AST, local_names: Set[str]
    ) -> Optional[str]:
        """Module-global name mutated by a ``X[k] = v`` / ``X.attr = v``
        store target, or ``None`` when the store is local.  Only
        container stores count: rebinding a bare name inside a function
        creates a local, it does not mutate the module."""
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return None
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in local_names or root not in self.module_names:
            return None
        return root

    def summarise(self) -> FunctionInfo:
        fn_node = self.fn_node
        assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = [arg.arg for arg in fn_node.args.posonlyargs]
        params += [arg.arg for arg in fn_node.args.args]
        params += [arg.arg for arg in fn_node.args.kwonlyargs]
        intervals = _lock_intervals(fn_node)
        atomic_handles, raw_handles, lambda_locals = self._bindings()
        nested_names = [
            child.name
            for child in ast.walk(fn_node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not fn_node
        ]
        self.local_defs = set(nested_names)
        effects: List[EffectSite] = []
        calls: List[CallSite] = []
        mutated: List[str] = []
        local_names = set(params)
        for node in _walk_local(fn_node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local_names.add(node.id)
        for node in _walk_local(fn_node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = self._container_root(target, local_names)
                    if root is None:
                        continue
                    mutated.append(root)
                    effects.append(
                        EffectSite(
                            kind="mutates-global",
                            line=node.lineno,
                            detail=f"{root}[...]",
                            locked=_in_intervals(node.lineno, intervals),
                        )
                    )
            if isinstance(node, ast.Global):
                mutated.extend(node.names)
                effects.append(
                    EffectSite(
                        kind="mutates-global",
                        line=node.lineno,
                        detail=f"global {', '.join(node.names)}",
                        locked=_in_intervals(node.lineno, intervals),
                    )
                )
            elif isinstance(node, ast.Subscript):
                target = dotted_name(node.value)
                if target in ENVIRON_NAMES:
                    effects.append(
                        EffectSite(
                            kind="reads-env",
                            line=node.lineno,
                            detail=f"{target}[...]",
                        )
                    )
            elif isinstance(node, ast.Compare):
                for comparator in node.comparators:
                    target = dotted_name(comparator)
                    if target in ENVIRON_NAMES and any(
                        isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
                    ):
                        effects.append(
                            EffectSite(
                                kind="reads-env",
                                line=node.lineno,
                                detail=f"in {target}",
                            )
                        )
            elif isinstance(node, ast.Call):
                self._visit_call(
                    node, intervals, atomic_handles, raw_handles, effects, calls
                )
        return FunctionInfo(
            qualname=self.qualname,
            name=self.qualname.rsplit(".", 1)[-1],
            lineno=getattr(fn_node, "lineno", 1),
            params=params,
            is_nested=self.is_nested,
            lock_guaranteed=self.lock_guaranteed,
            class_name=self.class_name,
            mutated_globals=sorted(set(mutated)),
            lambda_locals=sorted(lambda_locals),
            nested_names=sorted(set(nested_names)),
            unsafe_defaults=_unsafe_defaults(fn_node),
            effects=effects,
            calls=calls,
        )

    def _bindings(self) -> Tuple[Set[str], Set[str], Set[str]]:
        """Names bound to atomic-writer handles, raw open handles, and
        lambdas inside this function."""
        atomic: Set[str] = set()
        raw: Set[str] = set()
        lambdas: Set[str] = set()
        for node in _walk_local(self.fn_node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if not isinstance(item.optional_vars, ast.Name):
                        continue
                    expr = item.context_expr
                    if not isinstance(expr, ast.Call):
                        continue
                    tail = _call_tail(expr.func)
                    if tail == "atomic_writer":
                        atomic.add(item.optional_vars.id)
                    elif tail == "open":
                        raw.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    if isinstance(node.value, ast.Lambda):
                        lambdas.add(name)
                    elif (
                        isinstance(node.value, ast.Call)
                        and _call_tail(node.value.func) == "open"
                    ):
                        raw.add(name)
        return atomic, raw, lambdas

    def _resolve(self, raw: str) -> Optional[str]:
        """Module-local resolution of a dotted call target."""
        parts = raw.split(".")
        head = parts[0]
        if len(parts) == 1 and head in self.local_defs:
            return f"{self.module}.{self.qualname}.<locals>.{head}"
        if head == "self" and self.class_name and len(parts) == 2:
            return f"{self.module}.{self.class_name}.{parts[1]}"
        if head in self.module_names:
            return f"{self.module}.{raw}"
        if head in self.imports:
            rest = parts[1:]
            target = self.imports[head]
            return ".".join([target] + rest) if rest else target
        return None

    def _handle_arg(self, node: ast.Call, tail: str) -> Optional[ast.expr]:
        """The file-handle argument of a handle sink (``json.dump(obj,
        h)``, ``arr.tofile(h)``, ``np.save(h, arr)``)."""
        if tail == "dump" and len(node.args) >= 2:
            return node.args[1]
        if tail == "tofile" and node.args:
            return node.args[0]
        if tail in ("save", "savetxt", "savez", "savez_compressed") and node.args:
            return node.args[0]
        return None

    def _visit_call(
        self,
        node: ast.Call,
        intervals: Sequence[Tuple[int, int]],
        atomic_handles: Set[str],
        raw_handles: Set[str],
        effects: List[EffectSite],
        calls: List[CallSite],
    ) -> None:
        raw = dotted_name(node.func)
        tail = _call_tail(node.func)
        if tail is None:
            return
        name = raw if raw is not None else tail
        locked = self.lock_guaranteed or _in_intervals(node.lineno, intervals)

        def add(kind: str, detail: str) -> None:
            effects.append(
                EffectSite(kind=kind, line=node.lineno, detail=detail, locked=locked)
            )

        if matches_suffix(name, ENV_READ_SUFFIXES):
            add("reads-env", name)
        elif matches_suffix(name, CLOCK_SUFFIXES):
            add("reads-clock", name)
        elif matches_suffix(name, ENTROPY_SUFFIXES):
            add("reads-entropy", name)
        elif matches_suffix(name, GLOBAL_RANDOM_SUFFIXES):
            # A draw both reads entropy and advances shared state.
            add("reads-entropy", f"{name} (global RNG)")
            add("mutates-global", f"{name} (global RNG)")
        elif matches_suffix(name, _SPAWN_SUFFIXES):
            add("spawns-process", name)
        elif name == "input":
            add("reads-file", "input()")

        # Raw disk-write sinks, with the atomic-handle exemption.
        if name in ("open", "io.open"):
            mode = _open_write_mode(node)
            if mode is not None:
                add("raw-disk-write", f'open(.., "{mode}")')
            else:
                add("reads-file", "open(..)")
        elif tail in _HANDLE_SINK_TAILS or (
            tail in _WRITE_TAILS and tail not in ("write_text", "write_bytes")
        ):
            handle = self._handle_arg(node, tail)
            handle_name = handle.id if isinstance(handle, ast.Name) else None
            if handle_name in atomic_handles or handle_name in raw_handles:
                pass  # atomic (safe) or already flagged at its open()
            elif tail == "dump" and name.split(".")[0] in ("json", "pickle", "yaml"):
                add("raw-disk-write", name)
            elif tail != "dump" and name.split(".")[0] in ("np", "numpy"):
                add("raw-disk-write", name)
            elif tail == "tofile":
                add("raw-disk-write", name)
        elif tail in ("write_text", "write_bytes"):
            add("raw-disk-write", name)

        if tail in _GUARDED_TAILS:
            add("guarded-write", name)

        args: List[CallArg] = []
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Lambda):
                args.append(CallArg(slot=str(index), kind="lambda", name=""))
            elif isinstance(arg, ast.Name):
                args.append(CallArg(slot=str(index), kind="name", name=arg.id))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if isinstance(keyword.value, ast.Lambda):
                args.append(CallArg(slot=keyword.arg, kind="lambda", name=""))
            elif isinstance(keyword.value, ast.Name):
                args.append(
                    CallArg(slot=keyword.arg, kind="name", name=keyword.value.id)
                )
        calls.append(
            CallSite(
                raw=name,
                tail=tail,
                resolved=self._resolve(name) if raw is not None else None,
                line=node.lineno,
                locked=locked,
                args=args,
            )
        )


# -- module summarisation ----------------------------------------------------


def _module_imports(tree: ast.Module, module: str, is_package: bool) -> Dict[str, str]:
    """Local name -> fully-qualified target, module- and function-level."""
    package_parts = module.split(".") if is_package else module.split(".")[:-1]
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts)
            else:
                base = ""
            source = ".".join(part for part in (base, node.module or "") if part)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{source}.{alias.name}" if source else alias.name
    return imports


def _class_locks_in_init(class_node: ast.ClassDef) -> bool:
    """True when ``__init__`` binds ``self.X = AdvisoryLock(...)`` and
    calls ``self.X.acquire`` -- every method then runs lock-held (the
    :class:`SweepJournal` construction pattern)."""
    init = next(
        (
            child
            for child in class_node.body
            if isinstance(child, ast.FunctionDef) and child.name == "__init__"
        ),
        None,
    )
    if init is None:
        return False
    lock_attrs: Set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _call_tail(node.value.func) == "AdvisoryLock":
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        lock_attrs.add(target.attr)
    if not lock_attrs:
        return False
    for node in ast.walk(init):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name and name.endswith(".acquire"):
                base = name[: -len(".acquire")]
                if base.startswith("self.") and base[5:] in lock_attrs:
                    return True
    return False


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, str, Optional[str], bool, bool]]:
    """Yield ``(node, qualname, class_name, is_nested, lock_guaranteed)``
    for every function in the module, nested defs included."""

    def walk_nested(
        parent: ast.AST, prefix: str, class_name: Optional[str], guaranteed: bool
    ) -> Iterator[Tuple[ast.AST, str, Optional[str], bool, bool]]:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.<locals>.{child.name}"
                yield child, qualname, class_name, True, guaranteed
                yield from walk_nested(child, qualname, class_name, guaranteed)
            elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
                yield from walk_nested(child, prefix, class_name, guaranteed)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name, None, False, False
            yield from walk_nested(node, node.name, None, False)
        elif isinstance(node, ast.ClassDef):
            guaranteed = _class_locks_in_init(node)
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{child.name}"
                    yield child, qualname, node.name, False, guaranteed
                    yield from walk_nested(child, qualname, node.name, guaranteed)


def summarise_module(context: ModuleContext, digest: str) -> ModuleSummary:
    """Reduce one parsed module to its project summary (including the
    intraprocedural findings, so cached files skip rule re-runs too)."""
    module = module_dotted_name(context.path, context.relpath)
    is_package = context.path.name == "__init__.py"
    imports = _module_imports(context.tree, module, is_package)
    module_names: Set[str] = {
        node.name
        for node in context.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in context.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            module_names.add(node.target.id)
    functions: List[FunctionInfo] = []
    for fn_node, qualname, class_name, is_nested, guaranteed in _iter_functions(
        context.tree
    ):
        functions.append(
            _FunctionSummariser(
                fn_node=fn_node,
                qualname=qualname,
                class_name=class_name,
                is_nested=is_nested,
                lock_guaranteed=guaranteed,
                module=module,
                module_names=module_names,
                imports=imports,
            ).summarise()
        )
    noqa_map = noqa_line_map(context.tree, context.lines)
    intra_rules = [rule for rule in get_rules() if not rule.requires_project]
    findings, suppressed = apply_noqa_map(
        check_module(context, intra_rules), noqa_map
    )
    return ModuleSummary(
        path=str(context.path),
        relpath=context.relpath,
        module=module,
        digest=digest,
        imports=imports,
        functions=functions,
        noqa={line: sorted(ids) for line, ids in noqa_map.items()},
        findings=[item.as_dict() for item in findings],
        suppressed=suppressed,
    )


# -- the index and its disk cache --------------------------------------------


def _engine_salt() -> str:
    """Digest of everything that can change a summary besides the file
    itself: the lint package's own source and the env-var registry."""
    hasher = hashlib.sha256()
    hasher.update(str(CACHE_VERSION).encode())
    package_dir = Path(__file__).resolve().parent.parent
    for source in sorted(package_dir.rglob("*.py")):
        hasher.update(source.name.encode())
        try:
            hasher.update(source.read_bytes())
        except OSError:  # pragma: no cover - unreadable engine file
            pass
    try:
        from repro.core import envcfg

        hasher.update(",".join(sorted(envcfg.registered_names())).encode())
    except Exception:  # pragma: no cover - registry import trouble
        pass
    return hasher.hexdigest()


@dataclass
class ProjectIndex:
    """All module summaries for one run, plus cache bookkeeping."""

    summaries: List[ModuleSummary]
    parsed_count: int = 0

    def by_module(self) -> Dict[str, ModuleSummary]:
        return {summary.module: summary for summary in self.summaries}

    @classmethod
    def from_contexts(cls, contexts: Sequence[ModuleContext]) -> "ProjectIndex":
        summaries = [
            summarise_module(context, digest=file_digest(context.source.encode()))
            for context in contexts
        ]
        return cls(summaries=summaries, parsed_count=len(summaries))

    @classmethod
    def build(
        cls,
        files: Sequence[Path],
        cache_path: Optional[Path] = None,
        parse_hook: Optional[Callable[[Path], None]] = None,
    ) -> "ProjectIndex":
        """Summarise ``files``, re-parsing only digest-changed ones.

        The cache is advisory: unreadable or version/salt-mismatched
        caches are ignored wholesale, and any entry whose stored digest
        differs from the current file bytes is rebuilt, so a stale
        summary can never be served.
        """
        salt = _engine_salt()
        cached: Dict[str, Dict[str, object]] = {}
        if cache_path is not None and cache_path.exists():
            try:
                payload = json.loads(cache_path.read_text())
                files_obj = (
                    payload.get("files") if isinstance(payload, dict) else None
                )
                if (
                    isinstance(payload, dict)
                    and payload.get("version") == CACHE_VERSION
                    and payload.get("salt") == salt
                    and isinstance(files_obj, dict)
                ):
                    cached = {
                        str(key): value
                        for key, value in files_obj.items()
                        if isinstance(value, dict)
                    }
            except (OSError, ValueError):
                cached = {}
        summaries: List[ModuleSummary] = []
        parsed = 0
        fresh: Dict[str, Dict[str, object]] = {}
        for path in files:
            key = str(path.resolve())
            try:
                data = path.read_bytes()
            except OSError as error:
                raise ValueError(f"{path}: unreadable: {error}") from error
            digest = file_digest(data)
            entry = cached.get(key)
            restored: Optional[ModuleSummary] = None
            if entry is not None and entry.get("digest") == digest:
                summary_payload = entry.get("summary")
                if isinstance(summary_payload, dict):
                    try:
                        restored = ModuleSummary.from_dict(summary_payload)
                    except (KeyError, ValueError):
                        restored = None
            if restored is not None and entry is not None:
                summaries.append(restored)
                fresh[key] = entry
                continue
            parsed += 1
            if parse_hook is not None:
                parse_hook(path)
            try:
                context = ModuleContext.parse(path, source=data.decode("utf-8"))
            except SyntaxError as exc:
                summary = ModuleSummary(
                    path=str(path),
                    relpath=package_relpath(path),
                    module=module_dotted_name(path, package_relpath(path)),
                    digest=digest,
                    imports={},
                    functions=[],
                    noqa={},
                    findings=[syntax_error_finding(path, exc).as_dict()],
                )
            else:
                summary = summarise_module(context, digest)
            summaries.append(summary)
            fresh[key] = {"digest": digest, "summary": summary.to_dict()}
        index = cls(summaries=summaries, parsed_count=parsed)
        if cache_path is not None:
            payload_out = {
                "version": CACHE_VERSION,
                "salt": salt,
                "files": fresh,
            }
            try:
                from repro.resilience.integrity import atomic_write_text

                atomic_write_text(
                    cache_path, json.dumps(payload_out, indent=1) + "\n"
                )
            except OSError:  # pragma: no cover - cache is best-effort
                pass
        return index
