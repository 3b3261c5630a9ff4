"""End-to-end tests for the ``repro lint`` command-line driver.

Covers the acceptance surface: each committed fixture file exits
non-zero with the right rule id, ``--format json`` is parseable, the
baseline workflow grandfathers findings without hiding new ones, and
usage errors exit 2.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.lint import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "reprolint"

#: fixture file -> rule ids that must appear in its findings.
EXPECTED_RULES = {
    "bad_wallclock.py": {"D001"},
    "bad_random.py": {"D002"},
    "bad_entropy.py": {"D003"},
    "bad_set_iteration.py": {"D004"},
    "bad_dict_order.py": {"D005"},
    "bad_mutable_default.py": {"M001"},
    "bad_shared_default.py": {"M002"},
    "bad_event_time.py": {"T001", "T002"},
    "bad_naive_aware.py": {"T003"},
    "bad_flow_set.py": {"F001", "F002"},
    "bad_flow_time.py": {"U001", "U002"},
    "bad_contract.py": {"R001", "R002"},
    "bad_horizon_clip.py": {"H201", "H202", "H203"},
    "bad_columnar_barrier.py": {"B301", "B302"},
    "bad_atomic.py": {"A501", "A502", "A503"},
}


def lint_json(capsys, *argv):
    code = main([*argv, "--format", "json", "--no-baseline"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("fixture", sorted(EXPECTED_RULES))
def test_fixture_trips_expected_rules(capsys, fixture):
    code, report = lint_json(capsys, str(FIXTURES / fixture))
    assert code == 1
    found = {f["rule"] for f in report["findings"]}
    assert EXPECTED_RULES[fixture] <= found


def test_shipped_tree_is_clean(capsys):
    code, report = lint_json(capsys, str(REPO_ROOT / "src"))
    assert code == 0, report["findings"]
    assert report["findings"] == []
    assert report["files_checked"] > 50
    # The justified in-tree suppressions are reported, not hidden
    # (each carries a `-- reason`; S001 enforces that).
    suppressed = {
        (entry["rule"], Path(entry["path"]).name)
        for entry in report["suppressed"]
    }
    assert {
        ("D001", "clock.py"),
        ("D005", "figures.py"),
    } <= suppressed


def test_json_finding_shape(capsys):
    _, report = lint_json(capsys, str(FIXTURES / "bad_wallclock.py"))
    finding = report["findings"][0]
    assert set(finding) == {
        "rule", "path", "line", "column", "message", "snippet"
    }
    assert finding["line"] >= 1
    assert finding["snippet"]


def test_json_report_matches_golden(capsys, monkeypatch):
    """The full JSON report for one fixture, field for field.

    Run from the repo root on a relative path so every field —
    including the path-derived qualnames in R001 messages — is
    machine-independent.  Any change to the report schema or to the
    fixture's findings must update ``golden_bad_contract.json``
    deliberately.
    """
    monkeypatch.chdir(REPO_ROOT)
    _, report = lint_json(
        capsys, "tests/fixtures/reprolint/bad_contract.py", "--no-cache"
    )
    golden = json.loads(
        (FIXTURES / "golden_bad_contract.json").read_text(encoding="utf-8")
    )
    assert report == golden


def test_json_report_matches_golden_for_atomicity(capsys, monkeypatch):
    """Field-for-field golden for the atomicity tier (A501–A503):
    schema or finding changes must update ``golden_bad_atomic.json``
    deliberately."""
    monkeypatch.chdir(REPO_ROOT)
    _, report = lint_json(
        capsys, "tests/fixtures/reprolint/bad_atomic.py", "--no-cache"
    )
    golden = json.loads(
        (FIXTURES / "golden_bad_atomic.json").read_text(encoding="utf-8")
    )
    assert report == golden


def test_stats_reports_per_rule_timings(capsys):
    code = main(
        [
            str(FIXTURES / "bad_wallclock.py"),
            "--format",
            "json",
            "--no-baseline",
            "--no-cache",
            "--stats",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    stats = report["stats"]
    assert stats["total_seconds"] >= 0.0
    assert "D001" in stats["rules"]
    assert all(seconds >= 0.0 for seconds in stats["rules"].values())
    # Human mode renders the same numbers as a table.
    code = main(
        [
            str(FIXTURES / "bad_wallclock.py"),
            "--no-baseline",
            "--no-cache",
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "rule timings" in out
    assert "D001" in out


def test_jobs_is_unknown_flag(capsys):
    """Per-module rules run in-process; there is no worker pool to size."""
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "bad_wallclock.py"), "--jobs", "2"])
    assert excinfo.value.code == 2


def test_cache_flags_do_not_change_output(capsys, tmp_path):
    baseline_report = None
    for argv in (
        ["--no-cache"],
        ["--cache-dir", str(tmp_path / "cache")],
        ["--cache-dir", str(tmp_path / "cache")],  # warm pass
    ):
        code, report = lint_json(capsys, str(FIXTURES), *argv)
        assert code == 1
        if baseline_report is None:
            baseline_report = report
        else:
            assert report == baseline_report


def test_cache_misses_when_rule_scope_widens(capsys, tmp_path, monkeypatch):
    """Widening a rule's scope must not be masked by stale cache entries.

    Regression: extending ``OUTPUT_PACKAGES`` to ``repro.fleet`` left
    pre-extension "clean" cache entries valid by key, so D005 findings in
    unchanged fleet files stayed invisible until the file was edited.
    """
    from repro.devtools.base import REGISTRY

    pkg = tmp_path / "src" / "repro" / "newpkg"
    pkg.mkdir(parents=True)
    bad = pkg / "emit.py"
    bad.write_text(
        "def emit(d, out):\n"
        "    for k, v in d.items():\n"
        "        out.append((k, v))\n",
        encoding="utf-8",
    )
    cache = ["--cache-dir", str(tmp_path / "cache"), "--select", "D005"]

    # Out of scope: clean, and the clean result is cached.
    code, report = lint_json(capsys, str(bad), *cache)
    assert code == 0 and report["findings"] == []

    # Same file bytes, same selection — only the rule's scope widens.
    rule = REGISTRY["D005"]
    monkeypatch.setattr(
        type(rule), "scope", (*rule.scope, "newpkg"), raising=False
    )
    code, report = lint_json(capsys, str(bad), *cache)
    assert code == 1
    assert [f["rule"] for f in report["findings"]] == ["D005"]


def test_cache_misses_when_ruleset_version_bumps(
    capsys, tmp_path, monkeypatch
):
    """A RULESET_VERSION bump must invalidate every cached entry.

    Observable from outside: the bumped run cannot reuse the old key,
    so a second entry file appears for the same (path, text, rules).
    """
    bad = tmp_path / "stamped.py"
    bad.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
    cache_dir = tmp_path / "cache"
    argv = [str(bad), "--cache-dir", str(cache_dir), "--select", "D001"]

    code, report = lint_json(capsys, *argv)
    assert code == 1 and len(report["findings"]) == 1
    entries_before = set(cache_dir.glob("*.json"))
    assert len(entries_before) == 1

    import repro.devtools.cache as cache_module

    monkeypatch.setattr(
        cache_module, "RULESET_VERSION", "9999.99-test-bump"
    )
    code, report = lint_json(capsys, *argv)
    assert code == 1 and len(report["findings"]) == 1
    entries_after = set(cache_dir.glob("*.json"))
    assert entries_before < entries_after, (
        "version bump must rekey, not reuse, the cached entry"
    )


def test_changed_follows_a_git_rename(tmp_path, capsys, monkeypatch):
    """``--changed`` must lint a file under its *new* name after a git
    rename — the old-path cache entry cannot mask the move."""
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", "-C", str(tmp_path), *argv],
            check=True,
            capture_output=True,
        )

    (tmp_path / "pyproject.toml").write_text(
        "[tool.reprolint]\n" 'paths = ["pkg"]\n', encoding="utf-8"
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    original = pkg / "legacy.py"
    original.write_text("WIDTH = 4\n", encoding="utf-8")
    git("init", "-q")
    git("-c", "user.email=t@t", "-c", "user.name=t", "add", "-A")
    git(
        "-c", "user.email=t@t", "-c", "user.name=t",
        "commit", "-q", "-m", "seed",
    )
    monkeypatch.chdir(tmp_path)
    cache = ["--cache-dir", str(tmp_path / "cache")]

    # Clean at HEAD: nothing changed, nothing to lint, and the cache
    # holds an entry for the old path.
    code, report = lint_json(capsys, "--changed", "HEAD", *cache)
    assert code == 0 and report["findings"] == []

    git("mv", "pkg/legacy.py", "pkg/renamed.py")
    renamed = pkg / "renamed.py"
    renamed.write_text(
        "import time\nWIDTH = 4\nstamp = time.time()\n", encoding="utf-8"
    )

    code, report = lint_json(capsys, "--changed", "HEAD", *cache)
    assert code == 1
    assert [f["rule"] for f in report["findings"]] == ["D001"]
    assert report["findings"][0]["path"].endswith("renamed.py")


def test_shared_cache_dir_keeps_checkouts_apart(capsys, tmp_path):
    """Two checkouts pointing one ``--cache-dir`` at the same file
    *text* must not collide: the reported path is part of the key."""
    cache = ["--cache-dir", str(tmp_path / "cache"), "--select", "D001"]
    text = "import time\nstamp = time.time()\n"
    findings = []
    for checkout in ("checkout_a", "checkout_b"):
        root = tmp_path / checkout
        root.mkdir()
        bad = root / "stamped.py"
        bad.write_text(text, encoding="utf-8")
        code, report = lint_json(capsys, str(bad), *cache)
        assert code == 1
        findings.append(report["findings"])
    # Same bytes, different paths: each run reports its own path (the
    # second run did not replay checkout_a's cached finding).
    assert findings[0][0]["path"] != findings[1][0]["path"]
    assert findings[1][0]["path"].endswith("checkout_b/stamped.py")
    assert len(set((tmp_path / "cache").glob("*.json"))) == 2


def test_unknown_rule_id_is_usage_error(capsys):
    code = main([str(FIXTURES / "bad_wallclock.py"), "--select", "Z999"])
    assert code == 2


def test_missing_path_is_usage_error(capsys):
    code = main([str(FIXTURES / "no_such_file.py")])
    assert code == 2


def test_select_narrows_the_rule_set(capsys):
    code, report = lint_json(
        capsys, str(FIXTURES / "bad_wallclock.py"), "--select", "D002"
    )
    assert code == 0
    assert report["findings"] == []


def test_list_rules_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "D001", "D002", "D003", "D004", "D005",
        "M001", "M002",
        "E001", "E002",
        "T001", "T002", "T003", "S001", "X001",
        "F001", "F002", "U001", "U002", "R001", "R002",
        "H201", "H202", "H203",
        "B301", "B302",
        "A501", "A502", "A503",
    ):
        assert rule_id in out


def test_list_rules_has_no_worker_family(capsys):
    """Lint runs in one process; the worker-purity family is retired and
    the service's worker boundary is checked at runtime instead."""
    assert main(["--list-rules"]) == 0
    listed = {
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith(" ")
    }
    assert "D001" in listed
    assert not any(rule_id.startswith("W") for rule_id in listed)


def test_list_rules_has_no_codec_family(capsys):
    """The checkpoint codec is derived from the engine machines' state
    annotations, so the codec-drift rules are retired; the round-trip
    and completeness tests in ``test_stream_units.py`` check it at run
    time instead."""
    assert main(["--list-rules"]) == 0
    listed = {
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith(" ")
    }
    assert "D001" in listed
    assert not any(rule_id.startswith("C") for rule_id in listed)


def test_baseline_grandfathers_old_but_not_new(tmp_path, capsys, monkeypatch):
    # A fresh project directory with its own pyproject + a violation.
    (tmp_path / "pyproject.toml").write_text(
        "[tool.reprolint]\n"
        'paths = ["pkg"]\n'
        'baseline = "baseline.json"\n',
        encoding="utf-8",
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    bad = pkg / "legacy.py"
    bad.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    # Violation is live before the baseline exists...
    assert main([]) == 1
    capsys.readouterr()

    # ...and --update-baseline grandfathers it.
    assert main(["--update-baseline"]) == 0
    capsys.readouterr()

    # Baselined finding no longer fails the run, but stays visible.
    code = main(["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["findings"] == []
    assert [f["rule"] for f in report["baselined"]] == ["D001"]

    # The baseline survives a line shift (matched by snippet, not line).
    bad.write_text(
        "import time\n\n\nstamp = time.time()\n", encoding="utf-8"
    )
    assert main([]) == 0
    capsys.readouterr()

    # A new violation still fails even with the baseline in place.
    bad.write_text(
        "import time\nstamp = time.time()\nagain = time.time()\n",
        encoding="utf-8",
    )
    code = main(["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert len(report["findings"]) == 1
    assert len(report["baselined"]) == 1


def test_repo_cli_exposes_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    code = repro_main(["lint", "--list-rules"])
    assert code == 0
    assert "D001" in capsys.readouterr().out
