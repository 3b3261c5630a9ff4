"""AST-injection proofs for the atomicity tier (A501–A503).

Style of ``tests/test_devtools_psafety_proofs.py``: each test takes the
*shipped* source of a real module, injects the exact bug class the rule
family exists for into a copy of the AST, and shows the rule fires —
paired with shipped-tree checks proving the finding is the injection,
not background noise.

* A501 — the rename that seals ``write_json_atomic`` severed in
  ``util/atomic.py`` (the one writer ``service/files.py`` re-exports and
  ``save_checkpoint`` publishes through), and an early return planted
  before it;
* A502 — a bare truncating write injected into ``service/worker.py``;
* A503 — an f-string ledger reason injected into the same worker.
"""

import ast
from pathlib import Path

import repro.devtools.rules  # noqa: F401  (registry side effect)
from repro.devtools.base import Project, REGISTRY, SourceModule

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FILES_PATH = SRC / "repro" / "util" / "atomic.py"
SERVICE_FILES_PATH = SRC / "repro" / "service" / "files.py"
WORKER_PATH = SRC / "repro" / "service" / "worker.py"


def src_modules(replaced_path: Path, replaced_text: str):
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


def append_source(source: str, injected: str) -> str:
    tree = ast.parse(source)
    tree.body.extend(ast.parse(injected).body)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


# ------------------------------------------------------------- A501
class _ReplaceDropper(ast.NodeTransformer):
    """Sever the rename that seals ``write_json_atomic``."""

    def __init__(self):
        self.dropped = 0

    def visit_Expr(self, node):
        if (
            isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "os.replace"
        ):
            self.dropped += 1
            return None
        return node


def test_severed_rename_in_files_trips_a501():
    dropper = _ReplaceDropper()
    tree = dropper.visit(ast.parse(FILES_PATH.read_text(encoding="utf-8")))
    assert dropper.dropped == 1
    ast.fix_missing_locations(tree)
    modules = src_modules(FILES_PATH, ast.unparse(tree))
    hits = run_rule("A501", modules, FILES_PATH)
    assert hits, "A501 should fire once the rename is severed"
    assert any("os.replace" in f.message for f in hits)


def test_early_return_before_rename_trips_a501():
    """A conditional return between the write and the rename: the
    happy path still seals, the early path leaks — a may-analysis
    must flag it."""
    source = FILES_PATH.read_text(encoding="utf-8")
    tree = ast.parse(source)
    planted = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == "write_json_atomic"
        ):
            node.body.insert(
                -1,
                ast.parse("if not document:\n    return").body[0],
            )
            planted += 1
    assert planted == 1
    ast.fix_missing_locations(tree)
    modules = src_modules(FILES_PATH, ast.unparse(tree))
    hits = run_rule("A501", modules, FILES_PATH)
    assert hits, "A501 should fire on the unsealed early return"


def test_shipped_service_files_are_clean_for_a_rules():
    modules = src_modules(FILES_PATH, FILES_PATH.read_text("utf-8"))
    for path in (FILES_PATH, SERVICE_FILES_PATH):
        for rule_id in ("A501", "A502", "A503"):
            assert run_rule(rule_id, modules, path) == []


def test_writer_module_is_in_a501_a502_scope():
    # The shared writer lives outside repro.service/repro.stream; the
    # severed-rename and bare-write proofs only mean something if the
    # rules actually visit it.
    module = SourceModule(str(FILES_PATH), FILES_PATH.read_text("utf-8"))
    for rule_id in ("A501", "A502"):
        assert REGISTRY[rule_id].applies_to(module)


def test_a501_a502_messages_name_only_the_rename_writer():
    """``save_checkpoint`` appends its results segment before publishing
    the frontier through ``write_json_atomic``; only the latter is a
    rename-atomic writer, so only it may be recommended."""
    fixture = REPO_ROOT / "tests" / "fixtures" / "reprolint" / "bad_atomic.py"
    module = SourceModule(str(fixture), fixture.read_text("utf-8"))
    project = Project([module])
    for rule_id in ("A501", "A502"):
        hits = list(REGISTRY[rule_id].check(module, project))
        assert hits, f"{rule_id} should fire on the fixture"
        for finding in hits:
            assert "write_json_atomic" in finding.message
            assert "save_checkpoint" not in finding.message


# ------------------------------------------------------------- A502
INJECTED_BARE_WRITE = '''
def _injected_dump_state(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(repr(document))
'''


def test_injected_bare_write_in_worker_trips_a502():
    drifted = append_source(
        WORKER_PATH.read_text(encoding="utf-8"), INJECTED_BARE_WRITE
    )
    modules = src_modules(WORKER_PATH, drifted)
    hits = run_rule("A502", modules, WORKER_PATH)
    assert hits, "A502 should fire on the truncating in-place write"
    assert any("'w'" in f.message for f in hits)


# ------------------------------------------------------------- A503
def test_computed_ledger_reason_in_worker_trips_a503():
    source = WORKER_PATH.read_text(encoding="utf-8")
    assert 'reason or "malformed-line"' in source
    drifted = source.replace(
        'reason or "malformed-line"',
        'f"malformed: {reason}"',
        1,
    )
    modules = src_modules(WORKER_PATH, drifted)
    hits = run_rule("A503", modules, WORKER_PATH)
    assert hits, "A503 should fire on the f-string reason"
    assert any("named constant" in f.message for f in hits)


def test_shipped_worker_is_clean_for_a_rules():
    modules = src_modules(WORKER_PATH, WORKER_PATH.read_text("utf-8"))
    for rule_id in ("A501", "A502", "A503"):
        assert run_rule(rule_id, modules, WORKER_PATH) == []
