"""Behavioural tests for the project rules RPR006-RPR009: witness
chains, cross-module propagation, noqa barriers, and one finding per
line."""

from pathlib import Path

from repro.lint import check_source, lint_paths, package_relpath

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


def _lint_fixture(relative):
    path = FIXTURES / relative
    return check_source(path.read_text(), package_relpath(path))


def _lint_tree(tmp_path, modules):
    root = tmp_path / "repro"
    for relative, source in modules.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_paths([root])


# -- witness chains ----------------------------------------------------------


def test_artifactwrite_chain_names_the_call_path():
    findings = _lint_fixture("experiments/bad_artifactwrite.py")
    assert findings[0].chain == ("save_report", "_raw_dump", 'open(.., "w")')
    assert "chain: save_report -> _raw_dump" in findings[0].render()


def test_lock_discipline_chain_shows_one_unlocked_path():
    (finding,) = _lint_fixture("resilience/bad_journal_locking.py")
    assert finding.chain == (
        "compact_journal", "_rewrite_segment", "atomic_write_text",
    )


def test_memopurity_chain_is_three_hops_deep():
    findings = _lint_fixture("sim/bad_transitive_memopurity.py")
    assert findings[0].chain == (
        "run_functional_grid", "_chunk_hint", "_read_knob", "os.environ.get",
    )


def test_forksafety_chain_traces_the_wrapper():
    findings = _lint_fixture("resilience/bad_transitive_forksafety.py")
    assert findings[1].chain == ("lambda", "_submit", "run_pooled")


# -- cross-module propagation ------------------------------------------------


def test_effects_propagate_across_modules(tmp_path):
    result = _lint_tree(tmp_path, {
        "sim/helpers_mod.py": (
            "import os\n\n"
            "def leak():\n"
            "    return os.environ.get('MLCACHE_X')\n"
        ),
        "sim/gridmod.py": (
            "from repro.sim.helpers_mod import leak\n\n"
            "def run_functional_x(trace):\n"
            "    return leak()\n"
        ),
    })
    (finding,) = result.findings
    assert finding.rule == "RPR008"
    assert finding.path == "sim/gridmod.py"
    assert finding.chain == ("run_functional_x", "leak", "os.environ.get")


#: One ambient read per helper, each a different sink of the shared table.
_PROBE_READS = {
    "rng": ("import random", "random.random()"),
    "bits": ("import random", "random.getrandbits(32)"),
    "normal": ("import numpy as np", "np.random.normal()"),
    "cpu": ("import time", "time.process_time()"),
    "salt": ("import os", "os.urandom(8)"),
    "knob": ("import os", "os.environ.get('MLCACHE_X')"),
}


def test_every_sink_kind_reaches_memo_roots_across_modules(tmp_path):
    """Memo roots under sim/ each call a core/ helper (outside RPR001's
    scope) making one ambient read: all six reach RPR008 with chains."""
    modules = {}
    for name, (imp, read) in _PROBE_READS.items():
        modules[f"core/probe_{name}.py"] = (
            f"{imp}\n\ndef {name}_read():\n    return {read}\n"
        )
        modules[f"sim/probe_{name}.py"] = (
            f"from repro.core.probe_{name} import {name}_read\n\n"
            f"def run_functional_{name}(trace):\n"
            f"    return (trace, {name}_read())\n"
        )
    result = _lint_tree(tmp_path, modules)
    chains = {
        finding.path: finding.chain
        for finding in result.findings
        if finding.rule == "RPR008"
    }
    assert len(result.findings) == len(chains) == 6
    for name, (_, read) in _PROBE_READS.items():
        call = read.split("(")[0]
        assert chains[f"sim/probe_{name}.py"][:2] == (
            f"run_functional_{name}", f"{name}_read",
        )
        assert chains[f"sim/probe_{name}.py"][2].startswith(call)


def test_memopurity_sees_lambda_bodies_and_nested_helpers():
    """A lambda has no summary of its own, so its reads are the
    enclosing root's; a nested helper's reads reach the root through
    the call."""
    source = (
        "import os\n\n"
        "def memo_key(cells):\n"
        "    def salt():\n"
        "        return os.getenv('HOME')\n"
        "    ordered = sorted(cells, key=lambda c: (c, os.getenv('USER')))\n"
        "    return (ordered, salt())\n"
    )
    findings = check_source(source, "sim/keys.py")
    assert [(f.rule, f.line, f.chain) for f in findings] == [
        ("RPR008", 6, ("memo_key", "os.getenv")),
        ("RPR008", 7, ("memo_key", "salt", "os.getenv")),
    ]


def test_raw_write_in_helper_module_blames_the_writer(tmp_path):
    result = _lint_tree(tmp_path, {
        "core/sink.py": (
            "def spill(path, text):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(text)\n"
        ),
        "core/caller.py": (
            "from repro.core.sink import spill\n\n"
            "def publish(path):\n"
            "    spill(path, 'x')\n"
        ),
    })
    (finding,) = result.findings
    assert finding.rule == "RPR006" and finding.path == "core/sink.py"


# -- noqa barriers -----------------------------------------------------------


_BARRIER_TEMPLATE = (
    "import os\n\n"
    "def _knob():\n"
    "    return os.environ.get('MLCACHE_X')\n\n"
    "def _hint():\n"
    "    return _knob(){noqa}\n\n"
    "def run_functional_grid(trace, configs):\n"
    "    return (_hint(), trace, configs)\n"
)


def test_rpr008_fires_without_the_barrier():
    findings = check_source(
        _BARRIER_TEMPLATE.format(noqa=""), "sim/barrier.py"
    )
    assert [f.rule for f in findings] == ["RPR008"]


def test_rpr008_noqa_is_an_effect_barrier():
    """A noqa'd call line vouches for the whole subtree: the effect must
    not resurface in callers further up."""
    findings = check_source(
        _BARRIER_TEMPLATE.format(noqa="  # repro: noqa RPR008 -- vouched"),
        "sim/barrier.py",
    )
    assert findings == []


# -- rule-specific discharge paths -------------------------------------------


def test_atomic_writer_handle_is_exempt():
    assert _lint_fixture("experiments/good_artifactwrite.py") == []


def test_class_lock_guarantee_discharges_methods():
    source = (
        "from repro.resilience.integrity import AdvisoryLock, atomic_write_text\n\n"
        "class SegmentJournal:\n"
        "    def __init__(self, path):\n"
        "        self.path = path\n"
        "        self._lock = AdvisoryLock(path.with_suffix('.lock'))\n"
        "        self._lock.acquire(timeout_s=5.0)\n\n"
        "    def record(self, line):\n"
        "        atomic_write_text(self.path, line)\n"
    )
    assert check_source(source, "resilience/journalfile.py") == []


def test_lock_region_traced_through_helpers():
    assert _lint_fixture("resilience/good_journal_locking.py") == []


def test_literal_lambda_at_the_entry_call_is_one_finding():
    """A lambda written literally at the pool entry call is reported
    once, by RPR009, with the one-hop chain."""
    source = (
        "def run_pooled(items, fn, workers=2):\n"
        "    return [fn(item) for item in items]\n\n"
        "def go(items):\n"
        "    return run_pooled(items, lambda item: item + 1)\n"
    )
    (finding,) = check_source(source, "resilience/poolmod.py")
    assert finding.rule == "RPR009"
    assert finding.chain == ("lambda", "run_pooled")


def test_memopurity_leaves_rpr001_lines_to_rpr001():
    """A direct clock read in a memo root is RPR001's line; RPR008 does
    not repeat it, but still reports the same kind inherited from a
    helper."""
    source = (
        "import time\n\n"
        "def _stamp():\n"
        "    return time.time()\n\n"
        "def run_functional_x(trace):\n"
        "    return (trace, time.time(), _stamp())\n"
    )
    findings = check_source(source, "sim/stamped.py")
    assert sorted((f.rule, f.line) for f in findings) == [
        ("RPR001", 4), ("RPR001", 7), ("RPR008", 7),
    ]
    (inherited,) = [f for f in findings if f.rule == "RPR008"]
    assert inherited.chain == ("run_functional_x", "_stamp", "time.time")
