"""Indexer cache tests: warm runs re-parse only changed files, and a
stale summary is structurally impossible (digest mismatch forces the
rebuild)."""

import json

from repro.lint import lint_paths
from repro.lint.project import ProjectIndex
from repro.lint.project.indexer import CACHE_VERSION


def _make_tree(tmp_path):
    root = tmp_path / "repro"
    (root / "sim").mkdir(parents=True)
    (root / "core").mkdir()
    clock = root / "sim" / "clocky.py"
    clock.write_text(
        "import time\n\ndef f():\n    return time.time()\n"
    )
    clean = root / "core" / "pure.py"
    clean.write_text("def g(x):\n    return x + 1\n")
    return root, clock, clean


def test_warm_build_parses_nothing(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    files = sorted(root.rglob("*.py"))

    cold_parsed = []
    cold = ProjectIndex.build(files, cache_path=cache, parse_hook=cold_parsed.append)
    assert sorted(cold_parsed) == files and cold.parsed_count == 2

    warm_parsed = []
    warm = ProjectIndex.build(files, cache_path=cache, parse_hook=warm_parsed.append)
    assert warm_parsed == [] and warm.parsed_count == 0
    assert [s.to_dict() for s in warm.summaries] == [
        s.to_dict() for s in cold.summaries
    ]


def test_mutating_one_file_reparses_only_that_file(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    files = sorted(root.rglob("*.py"))
    ProjectIndex.build(files, cache_path=cache)

    clean.write_text(
        "import os\n\ndef g(x):\n    return os.getenv('REPRO_SECRET')\n"
    )
    parsed = []
    index = ProjectIndex.build(files, cache_path=cache, parse_hook=parsed.append)
    assert parsed == [clean] and index.parsed_count == 1
    # The re-parse saw the *new* content: the fresh violation is in the
    # summary's stored findings, so a stale cached result is impossible.
    by_module = index.by_module()
    findings = by_module["repro.core.pure"].findings
    assert [f["rule"] for f in findings] == ["RPR003"]


def test_corrupted_digest_entry_forces_reparse(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    files = sorted(root.rglob("*.py"))
    ProjectIndex.build(files, cache_path=cache)

    payload = json.loads(cache.read_text())
    key = str(clock.resolve())
    payload["files"][key]["digest"] = "0" * 64
    cache.write_text(json.dumps(payload))

    parsed = []
    ProjectIndex.build(files, cache_path=cache, parse_hook=parsed.append)
    assert parsed == [clock]


def test_version_or_salt_mismatch_rebuilds_everything(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    files = sorted(root.rglob("*.py"))
    ProjectIndex.build(files, cache_path=cache)

    payload = json.loads(cache.read_text())
    payload["salt"] = "not-the-engine-salt"
    cache.write_text(json.dumps(payload))
    index = ProjectIndex.build(files, cache_path=cache)
    assert index.parsed_count == 2

    payload = json.loads(cache.read_text())
    assert payload["version"] == CACHE_VERSION
    payload["version"] = 99
    cache.write_text(json.dumps(payload))
    index = ProjectIndex.build(files, cache_path=cache)
    assert index.parsed_count == 2


def test_previous_version_cache_is_reparsed_not_trusted(tmp_path):
    """A cache written by the previous summary version -- one without
    ``reads-entropy`` effects -- is re-parsed, so the new effect shows."""
    root = tmp_path / "repro"
    (root / "core").mkdir(parents=True)
    draw = root / "core" / "draw.py"
    draw.write_text("import random\n\ndef pick():\n    return random.random()\n")
    cache = tmp_path / "cache.json"
    ProjectIndex.build([draw], cache_path=cache)

    payload = json.loads(cache.read_text())
    payload["version"] = CACHE_VERSION - 1
    for entry in payload["files"].values():
        for function in entry["summary"]["functions"]:
            function["effects"] = [
                site for site in function["effects"]
                if site["kind"] != "reads-entropy"
            ]
    cache.write_text(json.dumps(payload))

    parsed = []
    index = ProjectIndex.build([draw], cache_path=cache, parse_hook=parsed.append)
    assert parsed == [draw]
    (function,) = index.summaries[0].functions
    assert "reads-entropy" in {site.kind for site in function.effects}


def test_garbage_cache_is_ignored_not_fatal(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{ not json")
    files = sorted(root.rglob("*.py"))
    index = ProjectIndex.build(files, cache_path=cache)
    assert index.parsed_count == 2
    # ... and the build replaced it with a valid cache.
    assert json.loads(cache.read_text())["version"] == CACHE_VERSION


def test_lint_paths_reports_parse_counts_through_the_cache(tmp_path):
    root, clock, clean = _make_tree(tmp_path)
    cache = tmp_path / "cache.json"
    cold = lint_paths([root], cache_path=cache)
    assert cold.parsed == 2 and cold.files == 2
    warm = lint_paths([root], cache_path=cache)
    assert warm.parsed == 0 and warm.files == 2
    assert [f.fingerprint for f in warm.findings] == [
        f.fingerprint for f in cold.findings
    ]


def test_cached_summaries_preserve_noqa_suppressions(tmp_path):
    root = tmp_path / "repro"
    (root / "sim").mkdir(parents=True)
    mod = root / "sim" / "suppressed.py"
    mod.write_text(
        "import time\n\ndef f():\n"
        "    return time.time()  # repro: noqa RPR001 -- display only\n"
    )
    cache = tmp_path / "cache.json"
    cold = lint_paths([root], cache_path=cache)
    warm = lint_paths([root], cache_path=cache)
    assert cold.findings == [] and warm.findings == []
    assert cold.suppressed == warm.suppressed == 1


def test_suppressed_count_sums_only_the_selected_rules(tmp_path):
    """Regression: a run counted every noqa'd intra finding in its
    summaries, whatever ``--select`` named."""
    root = tmp_path / "repro"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "suppressed.py").write_text(
        "import time\n\ndef f():\n"
        "    return time.time()  # repro: noqa RPR001 -- display only\n"
    )
    cache = tmp_path / "cache.json"
    for _ in ("cold", "warm"):
        result = lint_paths([root], select=["RPR002"], cache_path=cache)
        assert result.findings == [] and result.suppressed == 0
    assert lint_paths([root], select=["RPR001"], cache_path=cache).suppressed == 1
