"""Fixture-driven tests for the built-in lint rules.

Each rule has a ``bad_*`` fixture that must produce the expected
findings and a ``good_*`` fixture that must be completely clean (across
*all* rules -- a good fixture tripping an unrelated rule is a bug in
either the fixture or the rule).
"""

from pathlib import Path

import pytest

from repro.lint import check_source, get_rules, package_relpath

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


def _lint_fixture(relative):
    path = FIXTURES / relative
    return check_source(path.read_text(), package_relpath(path))


GOOD_FIXTURES = [
    "sim/good_determinism.py",
    "core/good_units.py",
    "core/good_envread.py",
    "resilience/good_forksafety.py",
    "sim/good_memopurity.py",
    "experiments/good_artifactwrite.py",
    "resilience/good_journal_locking.py",
    "sim/good_transitive_memopurity.py",
    "resilience/good_transitive_forksafety.py",
]

BAD_FIXTURES = {
    "sim/bad_determinism.py": ("RPR001", 8),
    "core/bad_units.py": ("RPR002", 4),
    "core/bad_envread.py": ("RPR003", 4),
    "resilience/bad_forksafety.py": ("RPR009", 5),
    "sim/bad_memopurity.py": ("RPR008", 4),
    "experiments/bad_artifactwrite.py": ("RPR006", 2),
    "resilience/bad_journal_locking.py": ("RPR007", 1),
    "sim/bad_transitive_memopurity.py": ("RPR008", 2),
    "resilience/bad_transitive_forksafety.py": ("RPR009", 3),
}


@pytest.mark.parametrize("relative", GOOD_FIXTURES)
def test_good_fixture_is_clean_across_all_rules(relative):
    assert _lint_fixture(relative) == []


@pytest.mark.parametrize("relative,expected", BAD_FIXTURES.items())
def test_bad_fixture_fires_its_rule(relative, expected):
    rule_id, count = expected
    findings = _lint_fixture(relative)
    assert [item.rule for item in findings] == [rule_id] * count


def test_bad_fixtures_annotate_every_flagged_line():
    """Each ``# RPR00x`` annotation in a bad fixture marks a real finding."""
    for relative, (rule_id, _) in BAD_FIXTURES.items():
        path = FIXTURES / relative
        flagged = {item.line for item in _lint_fixture(relative)}
        annotated = {
            i
            for i, line in enumerate(path.read_text().split("\n"), start=1)
            if f"# {rule_id}" in line
        }
        assert annotated <= flagged, f"{relative}: stale annotations"


# -- targeted in-memory cases ------------------------------------------------


def test_determinism_scope_excludes_experiments():
    source = "import time\n\ndef f():\n    return time.time()\n"
    assert check_source(source, "experiments/cli.py") == []
    assert [f.rule for f in check_source(source, "sim/x.py")] == ["RPR001"]


def test_determinism_message_names_the_call():
    source = "import time\n\ndef f():\n    return time.perf_counter()\n"
    (finding,) = check_source(source, "cache/x.py")
    assert "time.perf_counter" in finding.message


def test_units_product_is_a_conversion_not_a_violation():
    source = "def f(cycles, cycle_ns, base_ns):\n    return base_ns + cycles * cycle_ns\n"
    assert check_source(source, "sim/x.py") == []


def test_units_seconds_flavours_are_one_unit():
    source = "def f(deadline_s, grace_seconds):\n    return deadline_s + grace_seconds\n"
    assert check_source(source, "core/x.py") == []


def test_units_propagates_through_additive_subtrees():
    source = "def f(a_ns, b_ns, c_cycles):\n    return (a_ns + b_ns) + c_cycles\n"
    (finding,) = check_source(source, "core/x.py")
    assert finding.rule == "RPR002"
    assert "(ns)" in finding.message and "(cycles)" in finding.message


def test_envreads_sees_through_module_constants():
    source = (
        "import os\n"
        "KNOB = 'REPRO_HIDDEN'\n"
        "def f():\n"
        "    return os.getenv(KNOB)\n"
    )
    (finding,) = check_source(source, "core/x.py")
    assert finding.rule == "RPR003"
    assert "REPRO_HIDDEN" in finding.message


def test_envreads_registered_variable_is_clean():
    source = (
        "from repro.core import envcfg\n"
        "def f():\n"
        "    return envcfg.get('REPRO_SWEEP_WORKERS')\n"
    )
    assert check_source(source, "core/x.py") == []


def test_envreads_fires_when_registration_is_deleted(monkeypatch):
    """The acceptance criterion: de-registering a live variable makes
    every surviving ``envcfg.get`` use site a lint failure."""
    from repro.core import envcfg

    source = (
        "from repro.core import envcfg\n"
        "def f():\n"
        "    return envcfg.get('REPRO_SWEEP_WORKERS')\n"
    )
    assert check_source(source, "core/x.py") == []
    pruned = frozenset(
        name for name in envcfg.registered_names() if name != "REPRO_SWEEP_WORKERS"
    )
    monkeypatch.setattr(envcfg, "registered_names", lambda: pruned)
    (finding,) = check_source(source, "core/x.py")
    assert finding.rule == "RPR003"
    assert "no registration" in finding.message


def test_envreads_ignores_envcfg_module_itself():
    source = "import os\n\ndef f():\n    return os.getenv('REPRO_X')\n"
    assert check_source(source, "core/envcfg.py") == []


def test_forksafety_ignores_unknown_entry_points():
    source = "def f(apply, work):\n    return apply(lambda c: c, work)\n"
    assert check_source(source, "core/x.py", get_rules(["RPR009"])) == []


def test_memopurity_strict_module_checks_every_function():
    source = "import os\n\ndef helper():\n    return os.getenv('HOME')\n"
    (finding,) = check_source(source, "sim/memo.py", get_rules(["RPR008"]))
    assert finding.rule == "RPR008"
    assert finding.chain == ("helper", "os.getenv")
    assert check_source(source, "sim/other.py") == []
