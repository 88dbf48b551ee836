"""Engine-level tests: suppressions, baseline round-trip, scoping, registry."""

from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    check_source,
    get_rules,
    lint_paths,
    noqa_rules,
    package_relpath,
)
from repro.lint.engine import Finding


# -- inline suppressions -----------------------------------------------------


def test_noqa_parses_single_rule():
    assert noqa_rules("x = 1  # repro: noqa RPR001") == frozenset({"RPR001"})


def test_noqa_parses_multiple_rules():
    assert noqa_rules("x  # repro: noqa RPR001, RPR002") == frozenset(
        {"RPR001", "RPR002"}
    )


def test_noqa_blanket():
    assert noqa_rules("x = 1  # repro: noqa") == frozenset()


def test_noqa_absent():
    assert noqa_rules("x = 1  # a normal comment") is None


def test_noqa_with_trailing_explanation():
    assert noqa_rules(
        "t = time.time()  # repro: noqa RPR001 -- wall time for logs only"
    ) == frozenset({"RPR001"})


def test_inline_suppression_drops_the_named_rule():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa RPR001 -- display only\n"
    )
    assert check_source(source, "sim/x.py") == []


def test_inline_suppression_other_rule_does_not_apply():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: noqa RPR002\n"
    )
    assert [f.rule for f in check_source(source, "sim/x.py")] == ["RPR001"]


def test_noqa_on_last_line_covers_the_whole_statement():
    """Regression: a finding anchored to a multi-line statement's first
    line must honour a directive on any of the statement's lines."""
    source = (
        "import time\n"
        "def f():\n"
        "    return max(\n"
        "        time.time(),\n"
        "        0.0,\n"
        "    )  # repro: noqa RPR001 -- display only\n"
    )
    assert check_source(source, "sim/x.py") == []


def test_noqa_on_first_line_covers_later_lines():
    source = (
        "import time\n"
        "def f():\n"
        "    return max(  # repro: noqa RPR001\n"
        "        time.time(),\n"
        "        0.0,\n"
        "    )\n"
    )
    assert check_source(source, "sim/x.py") == []


def test_compound_statement_noqa_spans_the_header_only():
    """A directive on an ``if``/``with``/``def`` header must not leak
    into the suite -- that would be a file-wide blanket in disguise."""
    source = (
        "import time\n"
        "def f(x):\n"
        "    if x:  # repro: noqa RPR001\n"
        "        return time.time()\n"
        "    return 0\n"
    )
    assert [f.rule for f in check_source(source, "sim/x.py")] == ["RPR001"]


# -- baseline ----------------------------------------------------------------


def _finding(message="m", line=3):
    return Finding(
        rule="RPR001", path="sim/x.py", line=line, column=1, message=message
    )


def test_baseline_round_trip(tmp_path):
    findings = [_finding("a"), _finding("a", line=9), _finding("b")]
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).write(path)
    loaded = Baseline.load(path)
    kept, matched = loaded.filter(list(findings))
    assert kept == [] and matched == 3


def test_chain_fingerprint_ignores_lines_and_message():
    """Interprocedural findings baseline on the witness chain: moving a
    helper or rewording the diagnostic must not churn the baseline."""
    a = Finding(
        rule="RPR006", path="sim/x.py", line=3, column=1,
        message="raw artifact write", chain=("save", "_dump", 'open(.., "w")'),
    )
    b = Finding(
        rule="RPR006", path="sim/x.py", line=90, column=1,
        message="reworded", chain=("save", "_dump", 'open(.., "w")'),
    )
    assert a.fingerprint == b.fingerprint


def test_chain_fingerprint_distinguishes_chains():
    a = Finding(
        rule="RPR006", path="sim/x.py", line=3, column=1,
        message="m", chain=("save", "_dump"),
    )
    b = Finding(
        rule="RPR006", path="sim/x.py", line=3, column=1,
        message="m", chain=("save", "_other"),
    )
    assert a.fingerprint != b.fingerprint


def test_chain_round_trips_through_dict():
    a = Finding(
        rule="RPR009", path="core/x.py", line=7, column=1,
        message="m", chain=("f", "g", "run_pooled"),
    )
    assert Finding.from_dict(a.as_dict()) == a


def test_baseline_fingerprint_ignores_line_numbers():
    moved = [_finding("a", line=100)]
    baseline = Baseline.from_findings([_finding("a", line=3)])
    kept, matched = baseline.filter(moved)
    assert kept == [] and matched == 1


def test_baseline_counts_bound_matches():
    """Two identical findings with a baseline of one: one stays red."""
    baseline = Baseline.from_findings([_finding("a")])
    kept, matched = baseline.filter([_finding("a", line=3), _finding("a", line=9)])
    assert matched == 1 and len(kept) == 1


def test_baseline_never_covers_new_findings():
    baseline = Baseline.from_findings([_finding("old message")])
    kept, matched = baseline.filter([_finding("new message")])
    assert matched == 0 and len(kept) == 1


def test_baseline_missing_file_is_empty(tmp_path):
    baseline = Baseline.load(tmp_path / "missing.json")
    assert baseline.counts == {}


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "findings": {}}')
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


def test_lint_paths_applies_baseline(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    first = lint_paths([bad])
    assert first.exit_code == 1 and len(first.findings) == 1
    baseline = Baseline.from_findings(first.findings)
    second = lint_paths([bad], baseline=baseline)
    assert second.exit_code == 0 and second.baselined == 1


# -- scoping / paths ---------------------------------------------------------


def test_package_relpath_real_tree():
    assert package_relpath(Path("src/repro/sim/fast.py")) == "sim/fast.py"


def test_package_relpath_fixture_tree():
    path = Path("tests/lint/fixtures/repro/sim/bad_determinism.py")
    assert package_relpath(path) == "sim/bad_determinism.py"


def test_package_relpath_innermost_repro_wins():
    path = Path("repro/vendor/repro/cache/lru.py")
    assert package_relpath(path) == "cache/lru.py"


def test_package_relpath_fallback_is_filename():
    assert package_relpath(Path("scripts/tool.py")) == "tool.py"


# -- registry ----------------------------------------------------------------


def test_get_rules_returns_one_rule_per_contract():
    assert [rule.rule_id for rule in get_rules()] == [
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR006",
        "RPR007",
        "RPR008",
        "RPR009",
    ]


def test_project_rules_are_marked_as_such():
    flavours = {r.rule_id: r.requires_project for r in get_rules()}
    assert [rid for rid, proj in flavours.items() if proj] == [
        "RPR006",
        "RPR007",
        "RPR008",
        "RPR009",
    ]


def test_get_rules_select_subset():
    assert [r.rule_id for r in get_rules(["RPR003", "RPR001"])] == [
        "RPR001",
        "RPR003",
    ]


def test_get_rules_unknown_id():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rules(["RPR999"])


def test_every_rule_documents_itself():
    for rule in get_rules():
        assert rule.name and rule.rationale and rule.severity == "error"


# -- syntax errors -----------------------------------------------------------


def test_unparsable_file_is_a_finding_not_a_crash(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([bad])
    assert result.exit_code == 1
    (finding,) = result.findings
    assert finding.rule == "RPR000"
    assert "does not parse" in finding.message
