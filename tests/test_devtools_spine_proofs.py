"""AST-injection proofs for the semantic-drift and atomicity tiers.

Style of ``tests/test_devtools_psafety_proofs.py``: each test takes the
*shipped* source of a real module, injects the exact bug class the rule
family exists for into a copy of the AST, and shows the rule fires —
paired with shipped-tree checks proving the finding is the injection,
not background noise.

* S401 — the flap phase deleted from ``core/pipeline.py`` (an engine
  quietly dropping a funnel stage), and the columnar-only ingest parser
  called from the streaming engine (a cross-mode impl leak);
* S402 — the merge window replaced by a literal ``300.0`` in
  ``stream/engine.py``, and a non-canonical failure sort key planted
  in the same engine's final report;
* S403 — the sanitise/match stages swapped in ``run_analysis``
  (``core/pipeline.py``);
* S404 — a new function calling the flap phase from a module no
  execution mode reaches;
* S405 — a re-grown private twin registered for an engine-core phase:
  the sink-reachability and one-implementation checks both fire;
* A501/A502/A503 — the rename-atomic discipline severed in
  ``service/files.py``, a bare truncating write and an f-string ledger
  reason injected into ``service/worker.py``.
"""

import ast
from pathlib import Path

import repro.devtools.rules  # noqa: F401  (registry side effect)
from repro.devtools.base import Project, REGISTRY, SourceModule

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
PIPELINE_PATH = SRC / "repro" / "core" / "pipeline.py"
ENGINE_PATH = SRC / "repro" / "stream" / "engine.py"
SANITIZE_PATH = SRC / "repro" / "engine" / "sanitize.py"
FLAPPING_PATH = SRC / "repro" / "core" / "flapping.py"
STATS_PATH = SRC / "repro" / "core" / "statistics.py"
FILES_PATH = SRC / "repro" / "service" / "files.py"
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


# ------------------------------------------------------------- S401
class _FlapPhaseDropper(ast.NodeTransformer):
    """Delete the ``detect_flap_episodes`` assignment from the batch
    pipeline — an engine silently losing a funnel stage."""

    def __init__(self):
        self.dropped = 0

    def visit_Assign(self, node):
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "detect_flap_episodes"
        ):
            self.dropped += 1
            return None
        return node


def test_dropped_flap_phase_in_pipeline_trips_s401():
    dropper = _FlapPhaseDropper()
    tree = dropper.visit(
        ast.parse(PIPELINE_PATH.read_text(encoding="utf-8"))
    )
    assert dropper.dropped == 1
    ast.fix_missing_locations(tree)
    # The flap result feeds flap_intervals below; sever that read too so
    # the drifted module still parses into a runnable-looking pipeline.
    text = ast.unparse(tree).replace(
        "flap_intervals(episodes, horizon_start=horizon_start)",
        "flap_intervals([], horizon_start=horizon_start)",
    )
    modules = src_modules(PIPELINE_PATH, text)
    hits = run_rule("S401", modules, PIPELINE_PATH)
    assert hits, "S401 should fire when a mode drops the flap phase"
    assert any(
        "`flaps`" in f.message and "never reaches" in f.message
        for f in hits
    )


def test_cross_mode_impl_leak_in_engine_trips_s401():
    """The streaming engine calling the columnar-only parser is an
    implementation no stream-mode correspondence registers."""
    source = ENGINE_PATH.read_text(encoding="utf-8")
    tree = ast.parse(source)
    planted = 0
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == "stream_dataset"
        ):
            node.body[:0] = ast.parse(
                "from repro.columnar.ingest import parse_log_columnar\n"
                "parse_log_columnar('')\n"
            ).body
            planted += 1
    assert planted == 1
    ast.fix_missing_locations(tree)
    modules = src_modules(ENGINE_PATH, ast.unparse(tree))
    hits = run_rule("S401", modules, ENGINE_PATH)
    assert hits, "S401 should fire on the unregistered ingest twin"
    assert any(
        "parse_log_columnar" in f.message and "`stream`" in f.message
        for f in hits
    )


def test_shipped_tree_is_clean_for_s_rules():
    modules = src_modules(PIPELINE_PATH, PIPELINE_PATH.read_text("utf-8"))
    project = Project(modules)
    for rule_id in ("S401", "S402", "S403", "S404", "S405"):
        rule = REGISTRY[rule_id]
        hits = [
            f
            for m in modules
            if m.tree is not None
            for f in rule.check(m, project)
        ]
        assert hits == [], f"{rule_id} must be quiet on the shipped tree"


# ------------------------------------------------------------- S402
class _MergeWindowHardcoder(ast.NodeTransformer):
    """Replace the syslog merge window with a literal 300.0 in the
    engine's ``RunMerger`` construction — binding-site constant drift."""

    def __init__(self):
        self.planted = 0

    def visit_Call(self, node):
        self.generic_visit(node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "RunMerger"
            and node.args
            and self.planted == 0
        ):
            node.args[0] = ast.copy_location(
                ast.Constant(value=300.0), node.args[0]
            )
            self.planted += 1
        return node


def test_hardcoded_merge_window_in_engine_trips_s402():
    hardcoder = _MergeWindowHardcoder()
    tree = hardcoder.visit(
        ast.parse(ENGINE_PATH.read_text(encoding="utf-8"))
    )
    assert hardcoder.planted == 1
    ast.fix_missing_locations(tree)
    modules = src_modules(ENGINE_PATH, ast.unparse(tree))
    hits = run_rule("S402", modules, ENGINE_PATH)
    assert hits, "S402 should fire on the literal merge window"
    assert any(
        "300.0" in f.message and "`merge`" in f.message for f in hits
    )


def test_noncanonical_sort_key_in_stream_engine_trips_s402():
    source = ENGINE_PATH.read_text(encoding="utf-8")
    assert source.count("key = failure_sort_key") == 1
    drifted = source.replace(
        "key = failure_sort_key", "key = lambda f: (f.link, f.start)"
    )
    modules = src_modules(ENGINE_PATH, drifted)
    hits = run_rule("S402", modules, ENGINE_PATH)
    assert hits, "S402 should fire on the link-first tie-breaker"
    assert any("('link', 'start')" in f.message for f in hits)


# ------------------------------------------------------------- S403
class _StageSwapper(ast.NodeTransformer):
    """Swap the first sanitise and match stages inside ``run_analysis``:
    the drifted pipeline matches failures before sanitising them."""

    def __init__(self):
        self.swapped = 0

    def visit_FunctionDef(self, node):
        self.generic_visit(node)
        if node.name != "run_analysis":
            return node

        def stage_of(stmt):
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Name
                ):
                    if inner.func.id == "sanitize_failures":
                        return "sanitize"
                    if inner.func.id == "match_failures":
                        return "match"
            return None

        for container in ast.walk(node):
            body = getattr(container, "body", None)
            if not isinstance(body, list):
                continue
            stages = [stage_of(stmt) for stmt in body]
            if "sanitize" in stages and "match" in stages:
                i = stages.index("sanitize")
                j = stages.index("match")
                if i < j and self.swapped == 0:
                    body[i], body[j] = body[j], body[i]
                    self.swapped += 1
        return node


def test_swapped_stages_in_pipeline_trips_s403():
    swapper = _StageSwapper()
    tree = swapper.visit(
        ast.parse(PIPELINE_PATH.read_text(encoding="utf-8"))
    )
    assert swapper.swapped == 1
    ast.fix_missing_locations(tree)
    modules = src_modules(PIPELINE_PATH, ast.unparse(tree))
    # The out-of-order phase is recorded at its implementation's call
    # site — classify_failure inside the engine sanitiser — so the
    # finding anchors there, not in the drifted pipeline module.
    hits = run_rule("S403", modules, SANITIZE_PATH)
    assert hits, "S403 should fire on the match-before-sanitise order"
    assert any(
        "`sanitize`" in f.message and "`match`" in f.message
        for f in hits
    )


# ------------------------------------------------------------- S404
INJECTED_SIDE_ANALYSIS = '''
def _injected_offline_flaps(failures):
    from repro.engine.flaps import FlapDetector
    detector = FlapDetector(600.0)
    for failure in failures:
        detector.feed(failure)
    detector.flush()
    return detector.result()
'''


def test_injected_unregistered_caller_trips_s404():
    drifted = append_source(
        STATS_PATH.read_text(encoding="utf-8"), INJECTED_SIDE_ANALYSIS
    )
    modules = src_modules(STATS_PATH, drifted)
    hits = run_rule("S404", modules, STATS_PATH)
    assert hits, "S404 should fire on the unregistered entry point"
    assert any("_injected_offline_flaps" in f.message for f in hits)
    assert any("FlapDetector.feed" in f.message for f in hits)


# ------------------------------------------------------------- S405
def test_regrown_twin_correspondence_trips_s405(monkeypatch):
    """Registering a second implementation for an engine-core phase is
    exactly the re-grown triplication S405 exists to block: the twin
    never reaches the phase sink, and the mode resolves the phase to
    two implementations."""
    import repro.devtools.spine as spine

    corr = dict(spine.CORRESPONDENCES)
    corr[("batch", "flaps")] = spine.Correspondence(
        ("repro.core.flapping.flap_intervals",),
        "injected: a re-grown private flap engine",
    )
    monkeypatch.setattr(spine, "CORRESPONDENCES", corr)
    modules = src_modules(FLAPPING_PATH, FLAPPING_PATH.read_text("utf-8"))
    hits = run_rule("S405", modules, FLAPPING_PATH)
    assert hits, "S405 should fire on the re-grown twin"
    assert any("never reaches the phase sink" in f.message for f in hits)
    assert any("distinct" in f.message for f in hits)


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
    for rule_id in ("A501", "A502", "A503"):
        assert run_rule(rule_id, modules, FILES_PATH) == []


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
