"""``repro lint`` / ``python -m repro.devtools.lint`` — the driver.

Collects Python files, runs every registered rule, applies suppression
comments, and reports the remainder in human or ``--format json`` form.
Exit status: 0 clean, 1 findings, 2 usage or configuration error — CI
treats any non-zero as a failed build.

Per-module rules run file by file and their results are cached on
disk keyed by *(file bytes, rule set)* (:mod:`repro.devtools.cache`);
project-wide rules — mutable-singleton classification — always run
over the full :class:`Project`.  ``--changed [REF]`` restricts
per-module linting to files differing from a git ref for fast
pre-commit runs, while the project-wide rules still see every file so
their cross-module class lookups stay sound.

Configuration lives in ``[tool.reprolint]`` in ``pyproject.toml``::

    [tool.reprolint]
    paths = ["src"]
    exclude = ["tests/fixtures"]
    cache_dir = ".reprolint-cache"
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools import rules as _rules  # noqa: F401  (registry side effect)
from repro.devtools.base import (
    REGISTRY,
    Finding,
    Project,
    Rule,
    SourceModule,
)
from repro.devtools.cache import LintCache

#: Directory names never descended into during file collection.
SKIP_DIRS = {"__pycache__", ".git", ".hg", ".tox", ".venv", "venv", "node_modules"}


@dataclass
class LintConfig:
    """Effective configuration after pyproject + CLI merging."""

    paths: List[str] = field(default_factory=lambda: ["src"])
    exclude: List[str] = field(default_factory=lambda: ["tests/fixtures"])
    cache_dir: str = ".reprolint-cache"
    root: str = "."


def find_pyproject(start: str) -> Optional[str]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = os.path.abspath(start)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def load_config(start: str = ".") -> LintConfig:
    """Read ``[tool.reprolint]``; missing file or section means defaults."""
    config = LintConfig()
    pyproject = find_pyproject(start)
    if pyproject is None:
        return config
    config.root = os.path.dirname(pyproject)
    try:
        import tomllib

        with open(pyproject, "rb") as handle:
            document = tomllib.load(handle)
    except ModuleNotFoundError:  # Python < 3.11 without tomli: defaults
        return config
    except (OSError, ValueError):
        return config
    section = document.get("tool", {}).get("reprolint", {})
    if isinstance(section.get("paths"), list):
        config.paths = [str(p) for p in section["paths"]]
    if isinstance(section.get("exclude"), list):
        config.exclude = [str(p) for p in section["exclude"]]
    if isinstance(section.get("cache_dir"), str):
        config.cache_dir = section["cache_dir"]
    return config


def collect_files(
    paths: Sequence[str], exclude: Sequence[str] = ()
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    normalized_excludes = [os.path.normpath(e).replace("\\", "/") for e in exclude]

    def excluded(path: str) -> bool:
        norm = os.path.normpath(path).replace("\\", "/")
        return any(fragment in norm for fragment in normalized_excludes)

    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and not excluded(path):
                found.add(os.path.normpath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if not excluded(full):
                    found.add(os.path.normpath(full))
    return sorted(found)


def load_project(files: Sequence[str]) -> Project:
    modules: List[SourceModule] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise SystemExit(f"cannot read {path}: {error}")
        modules.append(SourceModule(path, text))
    return Project(modules)


def split_rules(
    selected: Dict[str, Rule]
) -> Tuple[Dict[str, Rule], Dict[str, Rule]]:
    """(per-module, project-wide) partition of the selected rules."""
    local = {
        rule_id: rule
        for rule_id, rule in selected.items()
        if not rule.project_wide
    }
    wide = {
        rule_id: rule
        for rule_id, rule in selected.items()
        if rule.project_wide
    }
    return local, wide


def check_module_local(
    module: SourceModule,
    rule_ids: Sequence[str],
    timings: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """Raw per-module findings: the selected per-module rules plus the
    X001/S001 pseudo-rules.  Pure in *(module text, rule ids)* — this is
    the unit the cache stores.  When ``timings`` is given, each rule's
    wall time is accumulated into it (cache hits never get here, so they
    contribute zero by design)."""
    findings: List[Finding] = []
    if module.syntax_error is not None:
        findings.append(
            Finding(
                rule="X001",
                path=module.path,
                line=module.syntax_error.lineno or 1,
                column=(module.syntax_error.offset or 1) - 1,
                message=f"syntax error: {module.syntax_error.msg}",
                snippet=module.snippet(module.syntax_error.lineno or 1),
            )
        )
        return findings
    # Per-module rules by construction never look past `module`, so a
    # single-module project is sufficient here.
    local_project = Project([module])
    for rule_id in rule_ids:
        rule = REGISTRY[rule_id]
        if rule.applies_to(module):
            if timings is None:
                findings.extend(rule.check(module, local_project))
            else:
                started = time.perf_counter()
                findings.extend(rule.check(module, local_project))
                timings[rule_id] = timings.get(rule_id, 0.0) + (
                    time.perf_counter() - started
                )
    # Suppressions without a justification, or naming a rule that does
    # not exist, are findings themselves.
    known = {*REGISTRY, "S001", "X001", "all"}
    for suppression in module.suppressions.suppressions:
        problems = []
        if not suppression.reason:
            problems.append(
                "suppression without a reason; append `-- <why this is safe>`"
            )
        unknown = [rule for rule in suppression.rules if rule not in known]
        if unknown:
            problems.append(
                f"suppression names unknown rule id "
                f"{', '.join(unknown)}; it silences nothing"
            )
        for message in problems:
            findings.append(
                Finding(
                    rule="S001",
                    path=module.path,
                    line=suppression.line,
                    column=0,
                    message=message,
                    snippet=module.snippet(suppression.line),
                )
            )
    return findings


def lint_project(
    project: Project,
    rule_ids: Optional[Iterable[str]] = None,
    *,
    cache: Optional[LintCache] = None,
    targets: Optional[Set[str]] = None,
    stats: Optional[Dict[str, float]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Run the registry over a project.

    Per-module rules run only over ``targets`` (default: every module),
    with optional caching; project-wide rules always see the whole
    project.  Returns ``(active, suppressed)``: findings that count
    against the exit status, and findings silenced by suppression
    comments.  When ``stats`` is given, per-rule wall seconds are
    accumulated into it; cache hits contribute zero (the work they saved
    never ran).
    """
    selected = (
        {rule_id: REGISTRY[rule_id] for rule_id in rule_ids}
        if rule_ids is not None
        else dict(REGISTRY)
    )
    local_rules, wide_rules = split_rules(selected)
    local_ids = tuple(local_rules.keys())
    # Cache identity must cover each rule's *scope* too: widening a rule to
    # a new subpackage changes its findings for unchanged files, and stale
    # "clean" entries would otherwise keep masking them.
    cache_ids = tuple(
        rule_id if rule.scope is None else f"{rule_id}@{','.join(rule.scope)}"
        for rule_id, rule in local_rules.items()
    )

    target_modules = [
        module
        for module in project.modules
        if targets is None or module.path in targets
    ]

    raw: List[Finding] = []
    for module in target_modules:
        if cache is None:
            raw.extend(check_module_local(module, local_ids, stats))
            continue
        key = cache.key(module.path, module.text, cache_ids)
        findings = cache.get(key)
        if findings is None:
            findings = check_module_local(module, local_ids, stats)
            cache.put(key, findings)
        raw.extend(findings)

    # Project-wide rules: full project, never cached.
    for module in project.modules:
        if module.tree is None:
            continue
        for rule_id, rule in wide_rules.items():
            if not rule.applies_to(module):
                continue
            if stats is None:
                raw.extend(rule.check(module, project))
            else:
                started = time.perf_counter()
                raw.extend(rule.check(module, project))
                stats[rule_id] = stats.get(rule_id, 0.0) + (
                    time.perf_counter() - started
                )

    modules_by_path: Dict[str, SourceModule] = {
        module.path: module for module in project.modules
    }
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        module = modules_by_path.get(finding.path)
        if (
            finding.rule != "S001"
            and module is not None
            and module.suppressions.is_suppressed(finding.rule, finding.line)
        ):
            suppressed.append(finding)
        else:
            active.append(finding)
    active.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return active, suppressed


def git_changed_files(root: str, ref: str = "HEAD") -> Optional[Set[str]]:
    """Absolute paths of files differing from ``ref`` (tracked changes
    plus untracked files), or ``None`` when git cannot answer."""
    changed: Set[str] = set()
    commands = [
        ["git", "-C", root, "diff", "--name-only", "-z", ref, "--"],
        [
            "git",
            "-C",
            root,
            "ls-files",
            "--others",
            "--exclude-standard",
            "-z",
        ],
    ]
    for command in commands:
        try:
            result = subprocess.run(
                command,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        for name in result.stdout.split("\0"):
            if name:
                changed.add(os.path.abspath(os.path.join(root, name)))
    return changed


# ------------------------------------------------------------------ output
def render_human(
    active: Sequence[Finding],
    suppressed: Sequence[Finding],
    files_checked: int,
) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.column + 1}: {f.rule} {f.message}"
        for f in active
    ]
    summary = (
        f"{len(active)} finding{'s' if len(active) != 1 else ''} "
        f"({len(suppressed)} suppressed) "
        f"in {files_checked} file{'s' if files_checked != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    active: Sequence[Finding],
    suppressed: Sequence[Finding],
    files_checked: int,
) -> str:
    return json.dumps(
        {
            "version": 1,
            "files_checked": files_checked,
            "findings": [f.to_json() for f in active],
            "suppressed": [f.to_json() for f in suppressed],
        },
        indent=2,
    )


def render_stats(stats: Dict[str, float], total_seconds: float) -> str:
    """Per-rule timing table, slowest first (``--stats``)."""
    lines = ["rule timings (wall seconds, cache hits count as 0):"]
    for rule_id, seconds in sorted(
        stats.items(), key=lambda item: (-item[1], item[0])
    ):
        lines.append(f"  {rule_id:6s} {seconds:8.3f}s")
    accounted = sum(stats.values())
    lines.append(
        f"  total  {total_seconds:8.3f}s "
        f"({accounted:.3f}s in rule checks)"
    )
    return "\n".join(lines)


def render_rules() -> str:
    lines = []
    for rule in REGISTRY.values():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(f"{rule.id}  {rule.name}  [{scope}]")
        lines.append(f"      {rule.rationale}")
    lines.append(
        "S001  suppression-reason  [everywhere]\n"
        "      Every `# reprolint: disable=...` must justify itself with "
        "`-- <reason>` and name only rule ids that exist."
    )
    lines.append(
        "X001  syntax-error  [everywhere]\n"
        "      A file that does not parse cannot be certified."
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- CLI
def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared between ``python -m repro.devtools.lint`` and ``repro lint``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: [tool.reprolint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="lint only files differing from the git ref (default REF: "
        "HEAD); project-wide rules still see every file",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall time after the findings (cache hits "
        "contribute 0; in json mode the table is a `stats` object)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk per-file result cache",
    )
    parser.add_argument(
        "--cache-dir",
        help="cache directory (default: [tool.reprolint] cache_dir)",
    )


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rules())
        return 0

    config = load_config()
    # Paths given on the command line are linted as-is: the configured
    # exclusions only shape the default (config-driven) file walk, so
    # `repro lint tests/fixtures/...` can inspect a deliberately bad file.
    exclude = () if args.paths else tuple(config.exclude)
    paths = args.paths or [
        os.path.join(config.root, p) if not os.path.isabs(p) else p
        for p in config.paths
    ]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    rule_ids = None
    if args.select:
        rule_ids = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in rule_ids if r not in REGISTRY]
        if unknown:
            print(f"unknown rule id: {', '.join(unknown)}", file=sys.stderr)
            return 2

    files = collect_files(paths, exclude)
    project = load_project(files)

    targets: Optional[Set[str]] = None
    if args.changed is not None:
        changed = git_changed_files(config.root, args.changed)
        if changed is None:
            print(
                f"--changed: git could not diff against {args.changed!r}",
                file=sys.stderr,
            )
            return 2
        targets = {
            path for path in files if os.path.abspath(path) in changed
        }

    cache: Optional[LintCache] = None
    if not args.no_cache:
        cache_dir = args.cache_dir or (
            config.cache_dir
            if os.path.isabs(config.cache_dir)
            else os.path.join(config.root, config.cache_dir)
        )
        cache = LintCache(cache_dir)

    stats: Optional[Dict[str, float]] = {} if args.stats else None
    lint_started = time.perf_counter()
    active, suppressed = lint_project(
        project,
        rule_ids,
        cache=cache,
        targets=targets,
        stats=stats,
    )
    lint_seconds = time.perf_counter() - lint_started

    files_checked = len(targets) if targets is not None else len(files)
    if args.format == "json":
        document = json.loads(
            render_json(active, suppressed, files_checked)
        )
        if stats is not None:
            document["stats"] = {
                "total_seconds": lint_seconds,
                "rules": {k: stats[k] for k in sorted(stats)},
            }
        print(json.dumps(document, indent=2))
    else:
        print(render_human(active, suppressed, files_checked))
        if stats is not None:
            print(render_stats(stats, lint_seconds))
    return 1 if active else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project-specific static analysis for reproducibility "
        "invariants (see docs/static-analysis.md)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
