"""AST-injection proofs for the flow rule families, on the real code.

Each test takes the *shipped* source of a real module, injects the bug
class its rule exists for into a copy of the AST, and shows the rule
fires, then checks that the unmodified module is clean.

* D004 — an aliased set iteration injected into ``core/matching.py``
  (the alias hides the set from a syntactic match; the dataflow sees
  it);
* R002 — the ``report=`` forward severed in ``syslog/collector.py``.
"""

import ast
from pathlib import Path

import repro.devtools.rules  # noqa: F401  (registry side effect)
from repro.devtools.base import Project, REGISTRY, SourceModule

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
MATCHING_PATH = SRC / "repro" / "core" / "matching.py"
COLLECTOR_PATH = SRC / "repro" / "syslog" / "collector.py"


def src_modules(replaced_path: Path, replaced_text: str):
    """Every module under ``src/``, with one file's text replaced."""
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        text = (
            replaced_text
            if path == replaced_path
            else path.read_text(encoding="utf-8")
        )
        modules.append(SourceModule(str(path), text))
    return modules


def run_rule(rule_id: str, modules, only_path: Path):
    project = Project(modules)
    module = next(m for m in modules if m.path == str(only_path))
    assert module.syntax_error is None
    return list(REGISTRY[rule_id].check(module, project))


def append_function(source: str, function_source: str) -> str:
    tree = ast.parse(source)
    tree.body.extend(ast.parse(function_source).body)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


# ------------------------------------------------------------------ D004
INJECTED_SET_ALIAS = '''
def _injected_severity_order(failures):
    pool, seen = set(failures), 0
    names = []
    for failure in pool:
        names.append(failure)
        seen += 1
    return names, seen
'''


def test_aliased_set_iteration_in_matching_trips_d004():
    drifted = append_function(
        MATCHING_PATH.read_text(encoding="utf-8"), INJECTED_SET_ALIAS
    )
    modules = src_modules(MATCHING_PATH, drifted)
    hits = run_rule("D004", modules, MATCHING_PATH)
    assert hits, "D004 should fire on the aliased set iteration"
    # Reported once, at the loop that consumes the tuple-bound alias.
    assert [f.snippet for f in hits] == ["for failure in pool:"]


def test_shipped_matching_is_clean_for_d004():
    modules = src_modules(MATCHING_PATH, MATCHING_PATH.read_text("utf-8"))
    assert run_rule("D004", modules, MATCHING_PATH) == []


# ------------------------------------------------------------------ R002
def drop_keyword(source: str, function_name: str, keyword: str) -> str:
    """Remove ``keyword=...`` from every call inside ``function_name``."""
    tree = ast.parse(source)
    dropped = 0
    for node in ast.walk(tree):
        if not (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == function_name
        ):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                before = len(call.keywords)
                call.keywords = [
                    k for k in call.keywords if k.arg != keyword
                ]
                dropped += before - len(call.keywords)
    assert dropped, f"no `{keyword}=` keyword found in {function_name}"
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def test_severed_report_forward_in_collector_trips_r002():
    drifted = drop_keyword(
        COLLECTOR_PATH.read_text(encoding="utf-8"), "read_log", "report"
    )
    modules = src_modules(COLLECTOR_PATH, drifted)
    hits = run_rule("R002", modules, COLLECTOR_PATH)
    assert hits, "R002 should fire when read_log stops forwarding report"
    assert any("read_log" in f.message for f in hits)


def test_shipped_collector_is_clean_for_r002():
    modules = src_modules(COLLECTOR_PATH, COLLECTOR_PATH.read_text("utf-8"))
    assert run_rule("R002", modules, COLLECTOR_PATH) == []
