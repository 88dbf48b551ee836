"""CLI tests: exit codes, formats, baseline flags, project/changed
scoping, ``--explain``, engine-crash reporting, ``mlcache lint``."""

import json
import subprocess
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

FIXTURES = Path(__file__).parent / "fixtures" / "repro"
BAD = str(FIXTURES / "sim" / "bad_determinism.py")
GOOD = str(FIXTURES / "sim" / "good_determinism.py")


def test_clean_tree_exits_zero(capsys):
    assert main([GOOD, "--no-baseline"]) == EXIT_CLEAN
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one(capsys):
    assert main([BAD, "--no-baseline"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "RPR001" in out and "sim/bad_determinism.py" in out


def test_every_bad_fixture_fails():
    for path in sorted(FIXTURES.rglob("bad_*.py")):
        assert main([str(path), "--no-baseline"]) == EXIT_FINDINGS, path


def test_missing_path_is_usage_error(capsys):
    assert main(["does/not/exist.py"]) == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_unknown_rule_is_usage_error(capsys):
    assert main([GOOD, "--select", "RPR999", "--no-baseline"]) == EXIT_USAGE
    assert "unknown rule" in capsys.readouterr().err


def test_select_narrows_rules(capsys):
    # bad_determinism only violates RPR001; selecting RPR002 finds nothing.
    assert main([BAD, "--select", "RPR002", "--no-baseline"]) == EXIT_CLEAN


def test_json_format(capsys):
    assert main([BAD, "--format", "json", "--no-baseline"]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["files"] == 1
    assert payload["summary"]["findings"] == len(payload["findings"])
    assert {f["rule"] for f in payload["findings"]} == {"RPR001"}


def test_write_then_use_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([BAD, "--write-baseline", "--baseline", str(baseline)]) == EXIT_CLEAN
    assert baseline.exists()
    capsys.readouterr()
    assert main([BAD, "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "baselined" in capsys.readouterr().out


def test_corrupt_baseline_is_usage_error(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("not json")
    assert main([GOOD, "--baseline", str(baseline)]) == EXIT_USAGE
    assert "bad baseline" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("RPR")]
    assert listed == [
        "RPR001", "RPR002", "RPR003", "RPR006", "RPR007", "RPR008", "RPR009",
    ]
    assert "(project)" in out and "(per-file)" in out


# -- project analysis --------------------------------------------------------

BAD_PROJECT = str(FIXTURES / "sim" / "bad_transitive_memopurity.py")


def test_project_analysis_is_the_default(capsys):
    assert main([BAD_PROJECT, "--no-baseline"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "RPR008" in out and "[chain:" in out


# -- --explain ---------------------------------------------------------------


def test_explain_prints_the_rule_documentation(capsys):
    assert main(["--explain", "RPR008"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "memo-purity" in out
    assert "barrier" in out  # the noqa-barrier semantics are documented


def test_explain_unknown_rule_is_usage_error(capsys):
    assert main(["--explain", "RPR999"]) == EXIT_USAGE
    assert "unknown rule" in capsys.readouterr().err


# -- --changed ---------------------------------------------------------------


def _git(tmp_path, *argv):
    subprocess.run(
        ["git", *argv], cwd=tmp_path, check=True, capture_output=True,
        env={"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
    )


def test_changed_scopes_the_report_to_touched_files(tmp_path, monkeypatch, capsys):
    root = tmp_path / "repro" / "sim"
    root.mkdir(parents=True)
    committed = root / "old_bad.py"
    committed.write_text("import time\n\ndef f():\n    return time.time()\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    fresh = root / "new_bad.py"
    fresh.write_text("import time\n\ndef g():\n    return time.time()\n")
    monkeypatch.chdir(tmp_path)

    # Full run sees both files' findings; --changed reports only the
    # uncommitted one (the committed violation is outside the diff).
    assert main([str(tmp_path / "repro"), "--no-baseline"]) == EXIT_FINDINGS
    assert "old_bad.py" in capsys.readouterr().out
    assert main(
        [str(tmp_path / "repro"), "--changed", "--no-baseline"]
    ) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "new_bad.py" in out and "old_bad.py" not in out


def test_changed_outside_a_git_repo_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    (tmp_path / "x.py").write_text("pass\n")
    assert main([str(tmp_path / "x.py"), "--changed", "--no-baseline"]) == EXIT_USAGE
    assert "--changed" in capsys.readouterr().err


# -- engine crash ------------------------------------------------------------


def test_engine_crash_exits_two_not_clean(monkeypatch, capsys):
    from repro.lint.project.indexer import ProjectIndex

    def explode(*args, **kwargs):
        raise RuntimeError("boom in the analyzer")

    monkeypatch.setattr(ProjectIndex, "build", classmethod(explode))
    assert main([GOOD, "--no-baseline"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "internal error" in err and "boom in the analyzer" in err


def test_mlcache_lint_subcommand(capsys):
    from repro.experiments.cli import main as mlcache_main

    assert mlcache_main(["lint", GOOD, "--no-baseline"]) == EXIT_CLEAN
    assert mlcache_main(["lint", BAD, "--no-baseline"]) == EXIT_FINDINGS
    capsys.readouterr()
    assert mlcache_main(["lint", "--list-rules"]) == EXIT_CLEAN
    assert "RPR008" in capsys.readouterr().out
