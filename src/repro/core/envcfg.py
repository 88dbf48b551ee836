"""Central registry of every ``REPRO_*`` environment variable.

Before this module, each knob was parsed wherever it happened to be
read: ``core/sweep.py`` parsed ``REPRO_SWEEP_WORKERS``,
``resilience/policy.py`` parsed ``REPRO_SWEEP_RETRIES`` and
``REPRO_SWEEP_TIMEOUT``, ``resilience/faults.py`` parsed the fault
knobs, and so on.  Scattered reads meant scattered parsing rules,
undocumented defaults, and no single place to answer "what knobs does
this system have?".

Now every variable is *registered* here exactly once -- name, type,
default, documentation -- and every read goes through :func:`get` (typed,
parsed, defaulted) or :func:`raw` (the uninterpreted string, for
manifests that record what the environment literally said).  The static
analysis pass (:mod:`repro.lint`, rule RPR003) enforces the discipline:
a direct ``os.environ`` read of a ``REPRO_*`` name anywhere else in the
tree is a lint error, and so is an :func:`get` call naming a variable
with no registration below.

The registry also renders itself to a markdown reference table
(:func:`markdown_table`); the tables in ``docs/resilience.md`` and
``docs/observability.md`` are generated from it and kept in sync by
``python -m repro.core.envcfg --check`` (run in CI) -- see
``docs/static-analysis.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "EnvVar",
    "register",
    "var",
    "get",
    "raw",
    "registered_names",
    "all_vars",
    "markdown_table",
    "rewrite_doc_tables",
]

#: Values (lower-cased, stripped) a boolean knob reads as *off*.
FALSY = frozenset(("", "0", "false", "off", "no"))


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable: name, type, default, docs."""

    name: str
    #: Human-readable type shown in the generated reference ("int",
    #: "float", "flag", ...).
    kind: str
    default: object
    #: One-line description for the generated docs table.
    doc: str
    #: ``(self, raw) -> value``; raises ``ValueError`` with a message that
    #: names the variable when ``raw`` does not parse.
    parse: Callable[["EnvVar", str], object]
    #: Docs grouping: the generated tables are per-section.
    section: str
    #: Whether a set-but-blank value means "unset" (most knobs) rather
    #: than being handed to the parser (``REPRO_AUDIT``, where blank is
    #: an explicit *off*).
    blank_is_unset: bool = True

    def raw(self) -> Optional[str]:
        """The uninterpreted environment string (``None`` when unset)."""
        return os.environ.get(self.name)

    def get(self) -> object:
        """The parsed, defaulted value of this variable right now."""
        value = os.environ.get(self.name)
        if value is None:
            return self.default
        if self.blank_is_unset and not value.strip():
            return self.default
        return self.parse(self, value)

    @property
    def default_text(self) -> str:
        """The default as shown in the generated reference."""
        if self.default is None:
            return "unset"
        if isinstance(self.default, str) and not self.default:
            return "empty"
        return repr(self.default)


# -- parsers -----------------------------------------------------------------
#
# Parsers raise ValueError messages that name the variable; several are
# pinned by tests (tests/resilience/test_workers_env.py and the
# isolation/fault suites), so the phrasing here is a compatibility
# surface, not a style choice.


def parse_int(minimum: Optional[int] = None) -> Callable[[EnvVar, str], int]:
    def parse(variable: EnvVar, text: str) -> int:
        try:
            value = int(text.strip())
        except ValueError:
            raise ValueError(
                f"{variable.name} must be an integer, got {text!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise ValueError(
                f"{variable.name} must be >= {minimum}, got {text!r}"
            )
        return value

    return parse


def parse_float(positive: bool = False) -> Callable[[EnvVar, str], float]:
    def parse(variable: EnvVar, text: str) -> float:
        try:
            value = float(text.strip())
        except ValueError:
            raise ValueError(
                f"{variable.name} must be a number, got {text!r}"
            ) from None
        if positive and value <= 0:
            raise ValueError(
                f"{variable.name} must be positive, got {text!r}"
            )
        return value

    return parse


def parse_bool(variable: EnvVar, text: str) -> bool:
    """Truthy unless the value reads as off (see :data:`FALSY`)."""
    return text.strip().lower() not in FALSY


def parse_str(variable: EnvVar, text: str) -> str:
    return text


def parse_choice(*options: str) -> Callable[[EnvVar, str], str]:
    def parse(variable: EnvVar, text: str) -> str:
        value = text.strip().lower()
        if value not in options:
            choices = "/".join(options)
            raise ValueError(
                f"{variable.name} must be one of {choices}, got {text!r}"
            )
        return value

    return parse


# -- the registry ------------------------------------------------------------

_REGISTRY: Dict[str, EnvVar] = {}


def register(
    name: str,
    *,
    kind: str,
    default: object,
    doc: str,
    parse: Callable[[EnvVar, str], object],
    section: str,
    blank_is_unset: bool = True,
) -> EnvVar:
    """Register one variable; exactly one registration per name."""
    if not name.startswith("REPRO_"):
        raise ValueError(
            f"envcfg registers REPRO_* variables only, got {name!r}"
        )
    if name in _REGISTRY:
        raise ValueError(f"{name} is registered twice in repro/core/envcfg.py")
    variable = EnvVar(
        name=name,
        kind=kind,
        default=default,
        doc=doc,
        parse=parse,
        section=section,
        blank_is_unset=blank_is_unset,
    )
    _REGISTRY[name] = variable
    return variable


def var(name: str) -> EnvVar:
    """The registration for ``name``; unregistered names fail loudly."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"{name} is not a registered environment variable; "
            f"add a register() entry in repro/core/envcfg.py"
        ) from None


def get(name: str) -> object:
    """The parsed, defaulted value of a registered variable."""
    return var(name).get()


def raw(name: str) -> Optional[str]:
    """The uninterpreted string of a registered variable (manifests)."""
    return var(name).raw()


def registered_names() -> frozenset:
    """Every registered variable name (the RPR003 lint rule reads this)."""
    return frozenset(_REGISTRY)


def all_vars(section: Optional[str] = None) -> List[EnvVar]:
    """Registrations, name-sorted, optionally filtered to one section."""
    selected = [
        variable
        for variable in _REGISTRY.values()
        if section is None or variable.section == section
    ]
    return sorted(selected, key=lambda variable: variable.name)


# -- registrations -----------------------------------------------------------
#
# One entry per variable.  The modules that consume these values import
# this registry; defaults live here and nowhere else.

AUDIT = register(
    "REPRO_AUDIT",
    kind="tri-state flag",
    default=None,
    doc=(
        "Force the conservation-law audits on (truthy) or off "
        "(`0`/`false`/`off`/`no`/blank); unset defers to \"running "
        "under pytest\"."
    ),
    parse=parse_bool,
    section="audit",
    blank_is_unset=False,
)

RECORDS = register(
    "REPRO_RECORDS",
    kind="int",
    default=250_000,
    doc="Records per synthetic trace in the standard workload suite.",
    parse=parse_int(minimum=1),
    section="workload",
)

TRACES = register(
    "REPRO_TRACES",
    kind="int",
    default=4,
    doc="Number of traces in the suite (clamped to 1..8; 8 = full paper suite).",
    parse=parse_int(),
    section="workload",
)

TRACE_CACHE = register(
    "REPRO_TRACE_CACHE",
    kind="path",
    default=None,
    doc="Directory for on-disk trace caching; unset disables it.",
    parse=parse_str,
    section="workload",
)

FULL = register(
    "REPRO_FULL",
    kind="flag",
    default=False,
    doc=(
        "Sweep the paper's full 4 KB - 4 MB L2 size axis instead of the "
        "benchmark-scale 512 KB cutoff."
    ),
    parse=parse_bool,
    section="workload",
)

SWEEP_WORKERS = register(
    "REPRO_SWEEP_WORKERS",
    kind="int",
    default=None,
    doc=(
        "Worker processes for the sweep executor (`0`/`1` force serial, "
        "values above 64 clamp); unset uses the CPU count."
    ),
    parse=parse_int(),
    section="sweep",
)

SWEEP_RETRIES = register(
    "REPRO_SWEEP_RETRIES",
    kind="int",
    default=2,
    doc=(
        "Retries per sweep cell after the first attempt "
        "(`0` disables retrying)."
    ),
    parse=parse_int(minimum=0),
    section="sweep",
)

SWEEP_TIMEOUT = register(
    "REPRO_SWEEP_TIMEOUT",
    kind="float (seconds)",
    default=None,
    doc=(
        "Per-cell wall-clock budget; a cell past it has its worker "
        "killed and is retried.  Unset disables timeouts."
    ),
    parse=parse_float(positive=True),
    section="sweep",
)

TRACE_CHUNK = register(
    "REPRO_TRACE_CHUNK",
    kind="int",
    default=0,
    doc=(
        "Records per chunk for streaming trace replay in the one replay "
        "driver behind the fast path and the stack-distance grid (bounds "
        "peak residency, count-identical); `0` replays the whole trace as "
        "one chunk."
    ),
    parse=parse_int(minimum=0),
    section="sweep",
)

SWEEP_CONTEXT = register(
    "REPRO_SWEEP_CONTEXT",
    kind="choice",
    default=None,
    doc=(
        "Multiprocessing start method for the sweep pool (`fork`, "
        "`spawn` or `forkserver`); unset prefers fork where available."
    ),
    parse=parse_choice("fork", "spawn", "forkserver"),
    section="sweep",
)

FAULTS = register(
    "REPRO_FAULTS",
    kind="spec",
    default="",
    doc=(
        "Fault-injection spec, `fault:probability` pairs, comma-separated "
        "(e.g. `worker_raise:0.2,corrupt_result:0.1`); empty disables "
        "injection."
    ),
    parse=parse_str,
    section="resilience",
)

FAULTS_SEED = register(
    "REPRO_FAULTS_SEED",
    kind="int",
    default=20240613,
    doc="Seed for the deterministic fault-injection draws.",
    parse=parse_int(),
    section="resilience",
)

FAULTS_HANG_S = register(
    "REPRO_FAULTS_HANG_S",
    kind="float (seconds)",
    default=30.0,
    doc="How long an injected `worker_hang` fault sleeps.",
    parse=parse_float(positive=True),
    section="resilience",
)

STORE_VERIFY = register(
    "REPRO_STORE_VERIFY",
    kind="flag",
    default=True,
    doc=(
        "Re-hash trace-store data segments against their recorded "
        "digests when the workload disk cache opens them (catches bit "
        "rot; corrupt stores quarantine and rebuild); `0` trusts the "
        "header alone."
    ),
    parse=parse_bool,
    section="storage",
)

LOCK_TIMEOUT_S = register(
    "REPRO_LOCK_TIMEOUT_S",
    kind="float (seconds)",
    default=600.0,
    doc=(
        "How long a sweep waits for another process's advisory lock on "
        "a shared trace-cache entry before failing with the holder's "
        "identity (the journal lock never waits)."
    ),
    parse=parse_float(positive=True),
    section="storage",
)

TELEMETRY = register(
    "REPRO_TELEMETRY",
    kind="flag",
    default=False,
    doc=(
        "Record sweep telemetry: timing spans from the planner, "
        "kernels, memo, journal, store and worker pool, plus counter "
        "totals, stream to a JSONL sink (see REPRO_TELEMETRY_PATH). Off "
        "by default; disabled spans are no-ops and no sink is opened. "
        "Counters count either way: run manifests read them."
    ),
    parse=parse_bool,
    section="telemetry",
)

TELEMETRY_PATH = register(
    "REPRO_TELEMETRY_PATH",
    kind="path",
    default="run.telemetry.jsonl",
    doc=(
        "Where the telemetry sink is written when REPRO_TELEMETRY is "
        "on. Only the supervisor process writes it; `mlcache telemetry "
        "report`/`export` and `mlcache doctor` read it."
    ),
    parse=parse_str,
    section="telemetry",
)


# -- generated documentation -------------------------------------------------

#: Marker lines bracketing a generated table inside a docs file.
_BEGIN = "<!-- envcfg:begin {section} -->"
_END = "<!-- envcfg:end {section} -->"


def markdown_table(section: Optional[str] = None) -> str:
    """A markdown reference table of the registered variables."""
    rows = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for variable in all_vars(section):
        rows.append(
            f"| `{variable.name}` | {variable.kind} "
            f"| {variable.default_text} | {variable.doc} |"
        )
    return "\n".join(rows)


def rewrite_doc_tables(text: str) -> str:
    """Regenerate every ``envcfg:begin``/``envcfg:end`` block in ``text``.

    Each block names a section; its contents are replaced by the
    generated table for that section.  Unknown sections raise so a typo
    in a marker cannot silently produce an empty table.
    """
    lines = text.split("\n")
    output: List[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        output.append(line)
        stripped = line.strip()
        if stripped.startswith("<!-- envcfg:begin ") and stripped.endswith(" -->"):
            section = stripped[len("<!-- envcfg:begin "):-len(" -->")].strip()
            if not any(v.section == section for v in _REGISTRY.values()):
                raise ValueError(f"unknown envcfg section {section!r} in docs")
            end_marker = _END.format(section=section)
            j = i + 1
            while j < len(lines) and lines[j].strip() != end_marker:
                j += 1
            if j >= len(lines):
                raise ValueError(
                    f"unterminated envcfg block for section {section!r}"
                )
            output.extend(markdown_table(section).split("\n"))
            output.append(lines[j])
            i = j + 1
            continue
        i += 1
    return "\n".join(output)


def _run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.core.envcfg``: print, update or check the docs."""
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.envcfg",
        description="Generated REPRO_* environment-variable reference.",
    )
    parser.add_argument("--section", default=None,
                        help="limit the printed table to one section")
    parser.add_argument("--update", nargs="*", type=Path, default=None,
                        help="rewrite the envcfg blocks in these docs files")
    parser.add_argument("--check", nargs="*", type=Path, default=None,
                        help="fail (exit 1) if any docs file is stale")
    args = parser.parse_args(argv)
    if args.update is None and args.check is None:
        print(markdown_table(args.section))
        return 0
    stale: List[str] = []
    for path in list(args.update or []) + list(args.check or []):
        text = path.read_text()
        regenerated = rewrite_doc_tables(text)
        if regenerated != text:
            if args.update is not None and path in args.update:
                # Atomic: a crash mid-update must not tear a docs file
                # the CI freshness gate then misreads as stale garbage.
                from repro.resilience.integrity import atomic_write_text

                atomic_write_text(path, regenerated)
                print(f"updated {path}")
            else:
                stale.append(str(path))
        else:
            print(f"ok {path}")
    for path_text in stale:
        print(f"STALE {path_text}: regenerate with "
              f"python -m repro.core.envcfg --update {path_text}")
    return 1 if stale else 0


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    raise SystemExit(_run_cli())
