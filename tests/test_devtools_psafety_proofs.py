"""AST-injection proofs for the horizon and barrier tiers, on the real code.

Style of ``tests/test_devtools_flow_proofs.py``: each test takes the
*shipped* source of a real module, injects the bug class its rule
family exists for into a copy of the AST, and shows the rule fires —
paired with a shipped-tree check proving the finding is the injection,
not background noise.

* H201–H203 — the PR 6 bug class: horizon guards dropped from
  ``fleet/generate.py``, unclipped generators appended to
  ``stream/engine.py``;
* B301/B302 — the scalar barrier severed / element access
  reintroduced in ``columnar/ingest.py``.
"""

import ast
from pathlib import Path

import repro.devtools.rules  # noqa: F401  (registry side effect)
from repro.devtools.base import Project, REGISTRY, SourceModule

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
GENERATE_PATH = SRC / "repro" / "fleet" / "generate.py"
ENGINE_PATH = SRC / "repro" / "stream" / "engine.py"
INGEST_PATH = SRC / "repro" / "columnar" / "ingest.py"


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


# ------------------------------------------------------------- H202
class _GuardDropper(ast.NodeTransformer):
    """Remove ``if gen >= spec.horizon_end: continue`` rejection guards
    — the exact shape of the PR 6 chatter fix."""

    def __init__(self):
        self.dropped = 0

    def visit_If(self, node):
        self.generic_visit(node)
        if (
            ast.unparse(node.test) == "gen >= spec.horizon_end"
            and not node.orelse
            and all(isinstance(s, ast.Continue) for s in node.body)
        ):
            self.dropped += 1
            return None
        return node


class _WhileBoundDropper(ast.NodeTransformer):
    """Drop the ``... and tick < spec.horizon_end`` conjunct from loop
    headers — the refresh-sweep half of the PR 6 bug class."""

    def __init__(self):
        self.dropped = 0

    def visit_While(self, node):
        self.generic_visit(node)
        if isinstance(node.test, ast.BoolOp) and isinstance(
            node.test.op, ast.And
        ):
            kept = [
                value
                for value in node.test.values
                if "horizon_end" not in ast.unparse(value)
            ]
            if len(kept) != len(node.test.values) and kept:
                self.dropped += 1
                node.test = (
                    kept[0]
                    if len(kept) == 1
                    else ast.BoolOp(op=ast.And(), values=kept)
                )
        return node


def test_dropped_chatter_guard_in_generate_trips_h202():
    dropper = _GuardDropper()
    tree = dropper.visit(
        ast.parse(GENERATE_PATH.read_text(encoding="utf-8"))
    )
    assert dropper.dropped >= 1
    ast.fix_missing_locations(tree)
    modules = src_modules(GENERATE_PATH, ast.unparse(tree))
    hits = run_rule("H202", modules, GENERATE_PATH)
    assert any(
        "pool.append((gen + delay, line))" in f.snippet for f in hits
    ), "H202 should fire on the now-unguarded chatter append"


def test_dropped_while_bound_in_generate_trips_h202():
    dropper = _WhileBoundDropper()
    tree = dropper.visit(
        ast.parse(GENERATE_PATH.read_text(encoding="utf-8"))
    )
    assert dropper.dropped >= 1
    ast.fix_missing_locations(tree)
    modules = src_modules(GENERATE_PATH, ast.unparse(tree))
    hits = run_rule("H202", modules, GENERATE_PATH)
    assert any(
        "slice_events.append" in f.snippet for f in hits
    ), "H202 should fire on the refresh append once the bound is gone"


def test_shipped_generate_is_clean_for_h_rules():
    modules = src_modules(GENERATE_PATH, GENERATE_PATH.read_text("utf-8"))
    for rule_id in ("H201", "H202", "H203"):
        assert run_rule(rule_id, modules, GENERATE_PATH) == []


# ------------------------------------------------------- H201 / H203
INJECTED_UNCLIPPED_YIELD = '''
def _injected_jitter_feed(rng, horizon_end):
    t = 0.0
    while t < horizon_end:
        stamp = t + rng.uniform(0.0, 1.0)
        yield (stamp, 'ev')
        t = t + 1.0
'''

INJECTED_HALF_GUARD = '''
def _injected_half_guard(rng, horizon_end, strict_edge):
    t = 0.0
    while t < horizon_end:
        stamp = t + rng.uniform(0.0, 1.0)
        t = t + 1.0
        if strict_edge:
            if stamp >= horizon_end:
                continue
        yield (stamp, 'ev')
'''


def test_injected_unclipped_yield_in_engine_trips_h201():
    drifted = append_source(
        ENGINE_PATH.read_text(encoding="utf-8"), INJECTED_UNCLIPPED_YIELD
    )
    modules = src_modules(ENGINE_PATH, drifted)
    hits = run_rule("H201", modules, ENGINE_PATH)
    assert hits, "H201 should fire on the unclipped jittered yield"
    assert any("yield (stamp, 'ev')" in f.snippet for f in hits)


def test_injected_half_guard_in_engine_trips_h203_not_h201():
    """A guard behind ``if strict_edge`` covers some paths only: the
    must-analysis rejects it (H203) while the may-analysis stops it
    from reading as fully unguarded (no H201)."""
    drifted = append_source(
        ENGINE_PATH.read_text(encoding="utf-8"), INJECTED_HALF_GUARD
    )
    modules = src_modules(ENGINE_PATH, drifted)
    h203 = run_rule("H203", modules, ENGINE_PATH)
    assert any("yield (stamp, 'ev')" in f.snippet for f in h203)
    assert run_rule("H201", modules, ENGINE_PATH) == []


def test_shipped_engine_is_clean_for_h_rules():
    modules = src_modules(ENGINE_PATH, ENGINE_PATH.read_text("utf-8"))
    for rule_id in ("H201", "H202", "H203"):
        assert run_rule(rule_id, modules, ENGINE_PATH) == []


# ------------------------------------------------------------- B301
class _BarrierDropper(ast.NodeTransformer):
    def __init__(self):
        self.dropped = 0

    def visit_Expr(self, node):
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "scalar_line"
        ):
            self.dropped += 1
            return ast.Pass()
        return node


def test_severed_barrier_in_ingest_trips_b301():
    dropper = _BarrierDropper()
    tree = dropper.visit(
        ast.parse(INGEST_PATH.read_text(encoding="utf-8"))
    )
    assert dropper.dropped >= 1
    ast.fix_missing_locations(tree)
    modules = src_modules(INGEST_PATH, ast.unparse(tree))
    hits = run_rule("B301", modules, INGEST_PATH)
    assert any(
        "slow_idx.tolist()" in f.snippet for f in hits
    ), "B301 should fire on the barrier-less slow-line loop"


# ------------------------------------------------------------- B302
def test_reintroduced_element_access_in_ingest_trips_b302():
    """Reverts the shipped fix: back to boxing ``ends[slow_line]`` per
    slow line instead of indexing the pre-converted list."""
    source = INGEST_PATH.read_text(encoding="utf-8")
    assert "end_all[slow_line]" in source
    drifted = source.replace(
        "end_all[slow_line]", "int(ends[slow_line])"
    )
    modules = src_modules(INGEST_PATH, drifted)
    hits = run_rule("B302", modules, INGEST_PATH)
    assert any("ends[slow_line]" in f.snippet for f in hits)


def test_shipped_ingest_is_clean_for_b_rules():
    modules = src_modules(INGEST_PATH, INGEST_PATH.read_text("utf-8"))
    assert run_rule("B301", modules, INGEST_PATH) == []
    assert run_rule("B302", modules, INGEST_PATH) == []
