"""Meta-tests: the real source tree satisfies its own lint rules.

This is the check CI runs as a blocking job; keeping it in the test
suite too means a local ``pytest`` run catches a new violation before
the push does.
"""

from pathlib import Path

from repro.lint import Baseline, get_rules, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_source_tree_is_lint_clean():
    """The full check, project analysis included: src/ must be clean
    under every rule with the committed (empty) baseline."""
    result = lint_paths([SRC], baseline=Baseline.load(BASELINE))
    rendered = "\n".join(item.render() for item in result.findings)
    assert result.exit_code == 0, f"lint findings in src/:\n{rendered}"
    assert result.files > 50  # the whole tree was actually visited


def test_source_tree_is_clean_under_each_project_rule():
    """Per-rule pass so a regression names the contract it broke."""
    for rule_id in [r.rule_id for r in get_rules() if r.requires_project]:
        result = lint_paths([SRC], select=[rule_id])
        rendered = "\n".join(item.render() for item in result.findings)
        assert result.exit_code == 0, f"{rule_id} findings:\n{rendered}"


def test_committed_baseline_is_empty():
    """The tree starts clean; the baseline exists only as the mechanism
    for grandfathering future rule tightenings.  If a finding lands in
    it, this test forces the conversation."""
    assert Baseline.load(BASELINE).counts == {}


def test_fixture_scope_matches_real_scope():
    """Fixtures under tests/lint/fixtures/repro/ resolve to the same
    package-relative paths as real sources, so scoped rules are
    genuinely exercised."""
    from repro.lint import package_relpath

    fixture = Path("tests/lint/fixtures/repro/sim/bad_determinism.py")
    real = Path("src/repro/sim/memo.py")
    assert package_relpath(fixture).startswith("sim/")
    assert package_relpath(real).startswith("sim/")
