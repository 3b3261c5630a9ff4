"""Unit tests for the flow engine (CFG / dataflow / call graph), the
flow-sensitive rule families on inline fixtures, and the driver's
parallel / cached / ``--changed`` modes.
"""

import ast
import json
import subprocess
import textwrap

import pytest

import repro.devtools.rules  # noqa: F401  (registry side effect)
from repro.devtools.base import ImportMap, Project, REGISTRY, SourceModule
from repro.devtools.cache import LintCache
from repro.devtools.flow.callgraph import CallGraph, get_callgraph
from repro.devtools.flow.cfg import ENTRY, EXIT, build_cfg, iter_scopes
from repro.devtools.flow.dataflow import TagEvaluator, analyze_scope
from repro.devtools.lint import (
    collect_files,
    git_changed_files,
    lint_project,
    load_project,
    main,
)
from repro.devtools.rules.flowrules import SetFlowEvaluator


def function_scope(source: str, name: str = "f") -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name}")


def run_rule(rule_id: str, source: str, path: str = "scratch/mod.py"):
    module = SourceModule(path, textwrap.dedent(source))
    assert module.syntax_error is None, module.syntax_error
    project = Project([module])
    return list(REGISTRY[rule_id].check(module, project))


# ------------------------------------------------------------------- CFG
class TestCfg:
    def test_straight_line_chains_entry_to_exit(self):
        scope = function_scope("def f():\n    a = 1\n    b = 2\n")
        cfg = build_cfg(scope)
        assert cfg.succ[ENTRY] == [0]
        assert cfg.succ[0] == [1]
        assert EXIT in cfg.succ[1]

    def test_if_forks_and_rejoins(self):
        scope = function_scope(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        cfg = build_cfg(scope)
        # Node 0 is the `if` header; both arms precede the return.
        return_node = len(cfg.statements) - 1
        assert isinstance(cfg.statements[return_node], ast.Return)
        assert set(cfg.pred[return_node]) == {1, 2}

    def test_loop_has_back_edge_and_break_exit(self):
        scope = function_scope(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                return 0
            """
        )
        cfg = build_cfg(scope)
        loop = next(
            i for i, s in cfg.nodes() if isinstance(s, ast.For)
        )
        break_node = next(
            i for i, s in cfg.nodes() if isinstance(s, ast.Break)
        )
        return_node = next(
            i for i, s in cfg.nodes() if isinstance(s, ast.Return)
        )
        assert loop in cfg.succ[1]  # if-header falls back to the loop
        assert return_node in cfg.succ[break_node]
        assert return_node in cfg.succ[loop]  # normal exhaustion

    def test_try_body_edges_into_every_handler(self):
        scope = function_scope(
            """
            def f():
                try:
                    a = 1
                    b = 2
                except ValueError:
                    c = 3
                except KeyError:
                    d = 4
            """
        )
        cfg = build_cfg(scope)
        handlers = [
            i
            for i, s in cfg.nodes()
            if isinstance(s, ast.Assign)
            and s.targets[0].id in ("c", "d")  # type: ignore[union-attr]
        ]
        body = [
            i
            for i, s in cfg.nodes()
            if isinstance(s, ast.Assign)
            and s.targets[0].id in ("a", "b")  # type: ignore[union-attr]
        ]
        for handler in handlers:
            # Every try-body statement may raise into every handler.
            assert set(body) <= set(cfg.pred[handler])

    def test_iter_scopes_yields_module_then_functions(self):
        tree = ast.parse("def f():\n    def g():\n        pass\n")
        scopes = list(iter_scopes(tree))
        assert isinstance(scopes[0], ast.Module)
        assert {s.name for s in scopes[1:]} == {"f", "g"}


# -------------------------------------------------------------- dataflow
class TestDataflow:
    def analyze(self, source: str):
        scope = function_scope(source)
        imports = ImportMap({})
        evaluator = SetFlowEvaluator(imports, {})
        cfg, envs = analyze_scope(scope, evaluator)
        return cfg, envs, evaluator

    def env_at_return(self, source: str):
        cfg, envs, evaluator = self.analyze(source)
        node = next(
            i for i, s in cfg.nodes() if isinstance(s, ast.Return)
        )
        return envs[node]

    def test_alias_chain_propagates_tags(self):
        env = self.env_at_return(
            """
            def f(x):
                a = set(x)
                b = a
                c = b
                return c
            """
        )
        assert env["c"] == frozenset({"set"})

    def test_reassignment_kills_tags(self):
        env = self.env_at_return(
            """
            def f(x):
                a = set(x)
                a = sorted(a)
                return a
            """
        )
        assert env["a"] == frozenset()

    def test_tuple_unpacking_is_element_wise(self):
        env = self.env_at_return(
            """
            def f(x):
                a, b = set(x), 0
                return a
            """
        )
        assert env["a"] == frozenset({"set"})
        assert env["b"] == frozenset()

    def test_branches_join_as_union(self):
        env = self.env_at_return(
            """
            def f(x, flag):
                if flag:
                    a = set(x)
                else:
                    a = sorted(x)
                return a
            """
        )
        # May-analysis: the set tag survives the join.
        assert env["a"] == frozenset({"set"})

    def test_loop_reaches_fixpoint_with_back_edge(self):
        env = self.env_at_return(
            """
            def f(items):
                a = []
                for item in items:
                    a = set(a)
                return a
            """
        )
        assert "set" in env["a"]

    def test_annotation_seeds_parameter(self):
        cfg, envs, _ = self.analyze(
            """
            def f(x: set):
                return x
            """
        )
        node = next(
            i for i, s in cfg.nodes() if isinstance(s, ast.Return)
        )
        assert envs[node]["x"] == frozenset({"set"})


# ------------------------------------------------------------- callgraph
CALLGRAPH_SOURCE = '''
class Reader:
    def open(self, path, *, strict=True):
        return self._load(path)

    def _load(self, path):
        return path


def parse(text, *, strict=True):
    return text


def ingest(path, *, strict=True):
    reader = Reader()
    handle = reader.open(path, strict=strict)
    return parse(handle, strict=strict)
'''


class TestCallGraph:
    def graph(self, extra=()):
        modules = [SourceModule("scratch/mod.py", CALLGRAPH_SOURCE)]
        modules.extend(SourceModule(p, t) for p, t in extra)
        return CallGraph(Project(modules))

    def test_resolves_bare_same_module_call(self):
        graph = self.graph()
        callees = {
            e.callee for e in graph.edges_from["scratch.mod.ingest"]
        }
        assert "scratch.mod.parse" in callees

    def test_resolves_method_through_local_constructor_type(self):
        graph = self.graph()
        callees = {
            e.callee for e in graph.edges_from["scratch.mod.ingest"]
        }
        assert "scratch.mod.Reader.open" in callees

    def test_resolves_self_call_to_enclosing_class(self):
        graph = self.graph()
        callees = {
            e.callee for e in graph.edges_from["scratch.mod.Reader.open"]
        }
        assert "scratch.mod.Reader._load" in callees

    def test_resolves_imported_function(self):
        graph = self.graph(
            extra=[
                (
                    "scratch/other.py",
                    "from scratch.mod import parse\n"
                    "def entry(text):\n"
                    "    return parse(text)\n",
                )
            ]
        )
        callees = {
            e.callee for e in graph.edges_from["scratch.other.entry"]
        }
        assert "scratch.mod.parse" in callees

    def test_reachability_walks_transitively(self):
        graph = self.graph()
        reachable = graph.reachable_from(["scratch.mod.ingest"])
        assert "scratch.mod.Reader._load" in reachable
        assert "scratch.mod.parse" in reachable

    def test_graph_is_memoised_per_project(self):
        project = Project([SourceModule("scratch/mod.py", CALLGRAPH_SOURCE)])
        assert get_callgraph(project) is get_callgraph(project)


# ------------------------------------------------------- F/U rule corners
class TestFlowRuleCorners:
    def test_f001_does_not_duplicate_d004_territory(self):
        source = """
            def f(links):
                for link in set(links):
                    print(link)
            """
        assert run_rule("D004", source)
        assert run_rule("F001", source) == []

    def test_f001_sorted_kills_the_taint(self):
        assert (
            run_rule(
                "F001",
                """
                def f(links):
                    pool, n = set(links), 0
                    pool = sorted(pool)
                    for link in pool:
                        print(link)
                """,
            )
            == []
        )

    def test_f001_set_op_binop_is_tracked(self):
        hits = run_rule(
            "F001",
            """
            def f(a, b):
                merged, n = set(a) | set(b), 0
                return ",".join(merged)
            """,
        )
        assert [f.rule for f in hits] == ["F001"]

    def test_f002_requires_order_sensitive_body(self):
        assert (
            run_rule(
                "F002",
                """
                def f(d):
                    view = d.items()
                    total = 0
                    for k, v in view:
                        total += v
                    return total
                """,
            )
            == []
        )

    def test_u001_ambiguous_axis_is_not_reported(self):
        # `x` may be a datetime or a float after the join: staying
        # silent is the documented trade (zero false positives).
        assert (
            run_rule(
                "U001",
                """
                import datetime
                def f(flag, seconds: float):
                    if flag:
                        x = datetime.datetime(2010, 1, 1)
                    else:
                        x = 5.0
                    return x + seconds
                """,
            )
            == []
        )

    def test_u001_timedelta_plus_float_is_reported(self):
        hits = run_rule(
            "U001",
            """
            import datetime
            def f(seconds: float):
                span = datetime.timedelta(hours=1)
                return span + seconds
            """,
        )
        assert [f.rule for f in hits] == ["U001"]

    def test_u_rules_stay_quiet_on_float_axis_code(self):
        source = """
            def f(start: float, end: float):
                span = end - start
                return span > 3600.0
            """
        assert run_rule("U001", source) == []
        assert run_rule("U002", source) == []


# -------------------------------------------------------- R rule corners
class TestContractCorners:
    def test_r001_explicit_decision_is_not_flagged(self):
        assert (
            run_rule(
                "R001",
                """
                def parse(text, *, strict=True):
                    return text
                def ingest(path, *, strict=True):
                    return parse(path, strict=False)
                """,
            )
            == []
        )

    def test_r001_kwargs_forward_is_not_flagged(self):
        assert (
            run_rule(
                "R001",
                """
                def parse(text, *, strict=True):
                    return text
                def ingest(path, *, strict=True, **kwargs):
                    return parse(path, **kwargs)
                """,
            )
            == []
        )

    def test_r002_guard_only_use_still_fires(self):
        hits = run_rule(
            "R002",
            """
            def read(path, *, report=None):
                if report is not None:
                    pass
                return path
            """,
        )
        assert [f.rule for f in hits] == ["R002"]

    def test_r002_recording_into_the_ledger_counts(self):
        assert (
            run_rule(
                "R002",
                """
                def read(path, *, report=None):
                    if report is not None:
                        report.record(path)
                    return path
                """,
            )
            == []
        )

    def test_r002_stub_bodies_are_exempt(self):
        assert (
            run_rule(
                "R002",
                """
                def read(path, *, report=None):
                    raise NotImplementedError
                """,
            )
            == []
        )


# ------------------------------------------------------ cache / changed
def write_tree(root):
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    (pkg / "dirty.py").write_text(
        "import time\nSTAMP = time.time()\n", encoding="utf-8"
    )
    return pkg


class TestDriverModes:
    def test_cache_round_trip_is_identical_and_hits(self, tmp_path):
        write_tree(tmp_path)
        files = collect_files([str(tmp_path)])
        cache = LintCache(str(tmp_path / "cache"))
        first = lint_project(load_project(files), cache=cache)
        assert cache.hits == 0 and cache.misses == len(files)
        second = lint_project(load_project(files), cache=cache)
        assert cache.hits == len(files)
        assert first == second

    def test_findings_do_not_depend_on_file_order(self, tmp_path):
        pkg = write_tree(tmp_path)
        (pkg / "later.py").write_text(
            "import time\nLATER = time.time()\n", encoding="utf-8"
        )
        files = collect_files([str(tmp_path)])
        forward = lint_project(load_project(files))
        backward = lint_project(load_project(list(reversed(files))))
        assert forward == backward
        assert sum(f.rule == "D001" for f in forward[0]) == 2

    def test_warm_cache_stats_skip_per_module_rules(self, tmp_path):
        write_tree(tmp_path)
        files = collect_files([str(tmp_path)])
        cache = LintCache(str(tmp_path / "cache"))
        cold_stats, warm_stats = {}, {}
        lint_project(load_project(files), cache=cache, stats=cold_stats)
        lint_project(load_project(files), cache=cache, stats=warm_stats)
        assert cache.hits == len(files)
        assert "D001" in cold_stats
        # Cache hits never ran the per-module rules: they cost nothing.
        assert "D001" not in warm_stats

    def test_cache_misses_after_edit_and_rule_version_change(
        self, tmp_path, monkeypatch
    ):
        pkg = write_tree(tmp_path)
        files = collect_files([str(tmp_path)])
        cache = LintCache(str(tmp_path / "cache"))
        lint_project(load_project(files), cache=cache)
        # Editing a file invalidates exactly that file's entry.
        (pkg / "clean.py").write_text("VALUE = 2\n", encoding="utf-8")
        cache.hits = cache.misses = 0
        lint_project(load_project(files), cache=cache)
        assert cache.misses == 1 and cache.hits == len(files) - 1
        # Bumping the rule-set version invalidates everything.
        monkeypatch.setattr(
            "repro.devtools.cache.RULESET_VERSION", "test-bump"
        )
        cache.hits = cache.misses = 0
        lint_project(load_project(files), cache=cache)
        assert cache.hits == 0 and cache.misses == len(files)

    def test_targets_limit_per_module_rules_only(self, tmp_path):
        write_tree(tmp_path)
        files = collect_files([str(tmp_path)])
        project = load_project(files)
        clean_only = {f for f in files if f.endswith("clean.py")}
        active, _ = lint_project(project, targets=clean_only)
        # dirty.py's D001 is a per-module finding on a non-target file.
        assert not any(f.rule == "D001" for f in active)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        write_tree(tmp_path)
        files = collect_files([str(tmp_path)])
        cache = LintCache(str(tmp_path / "cache"))
        first = lint_project(load_project(files), cache=cache)
        for entry in (tmp_path / "cache").iterdir():
            entry.write_text("{not json", encoding="utf-8")
        cache.hits = cache.misses = 0
        second = lint_project(load_project(files), cache=cache)
        assert cache.hits == 0
        assert first == second


def git(root, *argv):
    subprocess.run(
        ["git", "-C", str(root), *argv],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
            "HOME": str(root),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def git_tree(tmp_path):
    write_tree(tmp_path)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChanged:
    def test_git_changed_files_sees_edits_and_untracked(self, git_tree):
        pkg = git_tree / "pkg"
        (pkg / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
        (pkg / "fresh.py").write_text("NEW = 1\n", encoding="utf-8")
        changed = git_changed_files(str(git_tree))
        assert changed is not None
        names = {p.rsplit("/", 1)[-1] for p in changed}
        assert names == {"clean.py", "fresh.py"}

    def test_git_changed_files_bad_ref_is_none(self, git_tree):
        assert git_changed_files(str(git_tree), "no-such-ref") is None

    def test_cli_changed_lints_only_differing_files(
        self, git_tree, capsys, monkeypatch
    ):
        (git_tree / "pyproject.toml").write_text(
            '[tool.reprolint]\npaths = ["pkg"]\n', encoding="utf-8"
        )
        monkeypatch.chdir(git_tree)
        # Nothing differs from HEAD (pyproject is untracked but not .py):
        code = main(["--changed", "--format", "json", "--no-baseline"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["files_checked"] == 0
        assert report["findings"] == []
        # Touch the dirty file: only it is linted, and its D001 returns.
        (git_tree / "pkg" / "dirty.py").write_text(
            "import time\nSTAMP = time.time()\nAGAIN = time.time()\n",
            encoding="utf-8",
        )
        code = main(["--changed", "--format", "json", "--no-baseline"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["files_checked"] == 1
        assert {f["rule"] for f in report["findings"]} == {"D001"}

    def test_cli_changed_bad_ref_is_usage_error(
        self, git_tree, capsys, monkeypatch
    ):
        (git_tree / "pyproject.toml").write_text(
            '[tool.reprolint]\npaths = ["pkg"]\n', encoding="utf-8"
        )
        monkeypatch.chdir(git_tree)
        assert main(["--changed", "no-such-ref"]) == 2
