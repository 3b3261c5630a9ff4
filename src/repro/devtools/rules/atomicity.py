"""Atomic-persistence rules (A501–A503) for the always-on service layer.

The service survives crashes by contract: every state file a reader can
observe is either the previous complete document or the next complete
document (rename-atomic writes), and every shed or degraded input is
attributed in the ledger with a typed reason.  Chaos tests prove the
contract for the shapes they inject; these rules keep the *code* unable
to leave the discipline quietly:

* **A501** — a function that opens a ``.tmp`` sibling file must pass
  through :func:`os.replace` on every control-flow path that reaches
  the function exit.  Checked as a may-analysis over the statement CFG:
  if the exit is reachable from the open without crossing a replace,
  some path publishes nothing (the temp file leaks and the target
  keeps stale state) — the torn-write bug, one ``return`` at a time.
* **A502** — truncating ``open(..., "w"/"wb")`` anywhere outside the
  blessed atomic writers.  Writing a checkpointed path in place is the
  bug the whole temp-file dance exists to prevent; readers can observe
  the empty or half-written file.
* **A503** — ledger ``.record(...)`` calls must pass a *typed* reason:
  a named constant, an attribute, a string literal, or an ``or``-chain
  of those.  A computed reason (f-string, call result) defeats the
  ledger's aggregation by reason and the acceptance gates built on it.

Scopes: A501/A502 cover ``repro.service`` and ``repro.stream`` (the two
packages that persist state) and ``repro.util``, which hosts the shared
writer; A503 covers ``repro.service``.  As with
every rule, standalone fixture files outside the ``repro`` package are
always in scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.base import (
    Finding,
    ImportMap,
    Project,
    Rule,
    SourceModule,
    call_name,
    register,
)
from repro.devtools.flow.cfg import EXIT, build_cfg, iter_scopes

#: Functions allowed to open files in truncating write mode: the one
#: rename-atomic writer (:mod:`repro.util.atomic`) every other write
#: must route through.  ``save_checkpoint`` publishes its frontier
#: through it and only appends to its results segment.
ATOMIC_WRITER_NAMES = frozenset({"write_json_atomic"})

#: ``open`` modes that truncate or replace the target in place.
_TRUNCATING_PREFIXES = ("w", "x")


def _contains_tmp_literal(node: ast.AST) -> bool:
    """Does an expression mention a ``.tmp``-suffixed string?"""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.endswith(".tmp")
        ):
            return True
    return False


def _statement_calls(statement: ast.stmt) -> Iterator[ast.Call]:
    """Calls evaluated by one CFG statement node, nested scopes skipped
    (a nested function's body belongs to its own CFG).  A function
    definition — whether the node itself or a child — contributes
    nothing: its body is analysed as its own scope."""

    def walk(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from walk(child)

    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    yield from walk(statement)


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open``-style call, if spelled."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: undecidable, stay quiet


def _is_open_call(call: ast.Call, imports: ImportMap) -> bool:
    name = call_name(call, imports)
    if name == "open":
        return True
    return (
        isinstance(call.func, ast.Attribute) and call.func.attr == "open"
    )


class _FunctionScopes:
    """Each function scope of a module with its enclosing-name stack."""

    def __init__(self, tree: ast.Module) -> None:
        self.scopes: List[Tuple[ast.AST, Tuple[str, ...]]] = [(tree, ())]

        def collect(node: ast.AST, stack: Tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested = stack + (child.name,)
                    self.scopes.append((child, nested))
                    collect(child, nested)
                else:
                    collect(child, stack)

        collect(tree, ())


@register
class SeveredAtomicWriteRule(Rule):
    id = "A501"
    name = "tmp-write-without-rename"
    rationale = (
        "A sibling `.tmp` file exists to be renamed over the target in "
        "one atomic step; a control-flow path from the open to the "
        "function exit that never reaches os.replace publishes nothing "
        "on that path — the target keeps stale state and the temp file "
        "leaks, which is precisely the torn-state failure the service's "
        "crash contract forbids."
    )
    scope = ("service", "stream", "util")

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for scope in iter_scopes(module.tree):
            yield from self._check_scope(module, scope, imports)

    def _check_scope(
        self, module: SourceModule, scope: ast.AST, imports: ImportMap
    ) -> Iterator[Finding]:
        body = getattr(scope, "body", None)
        if not isinstance(body, list):
            return
        # Local names bound to `.tmp` paths in this scope.
        tmp_names: Set[str] = set()
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Assign) and _contains_tmp_literal(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tmp_names.add(target.id)

        def is_tmp_path(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name) and expr.id in tmp_names:
                return True
            return _contains_tmp_literal(expr)

        cfg = build_cfg(scope)
        open_sites: List[Tuple[int, ast.Call]] = []
        replace_nodes: Set[int] = set()
        for index, statement in cfg.nodes():
            for call in _statement_calls(statement):
                if (
                    _is_open_call(call, imports)
                    and call.args
                    and is_tmp_path(call.args[0])
                ):
                    open_sites.append((index, call))
                if call_name(call, imports) == "os.replace":
                    replace_nodes.add(index)

        for index, call in open_sites:
            if self._exit_reachable_without_replace(
                cfg, index, replace_nodes
            ):
                yield module.finding(
                    "A501",
                    call,
                    "temp-file write is not sealed by os.replace on "
                    "every path to the function exit; a return or "
                    "raise that skips the rename leaves the target "
                    "stale and the .tmp file leaked — route the write "
                    "through write_json_atomic or rename on every path",
                )

    @staticmethod
    def _exit_reachable_without_replace(
        cfg: "object", start: int, replace_nodes: Set[int]
    ) -> bool:
        frontier = [start]
        seen: Set[int] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            if node != start and node in replace_nodes:
                continue  # sealed on this path
            for successor in cfg.succ.get(node, []):  # type: ignore[attr-defined]
                if successor == EXIT:
                    return True
                frontier.append(successor)
        return False


@register
class BareTruncatingOpenRule(Rule):
    id = "A502"
    name = "bare-truncating-open"
    rationale = (
        "open(path, 'w') truncates in place: a reader — or a crash — "
        "between the truncate and the final flush observes an empty or "
        "half-written file.  State that anything else reads must go "
        "through the rename-atomic writer (write_json_atomic, which "
        "save_checkpoint uses); append-mode journals and reads are exempt."
    )
    scope = ("service", "stream", "util")

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for scope, names in _FunctionScopes(module.tree).scopes:
            if any(name in ATOMIC_WRITER_NAMES for name in names):
                continue  # the blessed writers' own truncating open
            for statement in getattr(scope, "body", []):
                for call in _statement_calls(statement):
                    if not _is_open_call(call, imports):
                        continue
                    mode = _open_mode(call)
                    if mode is None or not mode.startswith(
                        _TRUNCATING_PREFIXES
                    ):
                        continue
                    yield module.finding(
                        "A502",
                        call,
                        f"truncating open(..., {mode!r}) outside the "
                        f"rename-atomic writers; readers can observe "
                        f"the torn intermediate state — use "
                        f"write_json_atomic (or an append-mode journal)",
                    )


@register
class UntypedShedReasonRule(Rule):
    id = "A503"
    name = "untyped-shed-reason"
    rationale = (
        "The ledger aggregates losses by reason; acceptance gates and "
        "dashboards key on those strings.  A computed reason (f-string, "
        "call result, concatenation) creates an unbounded reason "
        "vocabulary that nothing downstream can assert on — pass a "
        "named constant or literal, and put variability in `sample`."
    )
    scope = ("service",)

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
            ):
                continue
            reason: Optional[ast.expr] = None
            if len(node.args) >= 2:
                reason = node.args[1]
            for kw in node.keywords:
                if kw.arg == "reason":
                    reason = kw.value
            if reason is None or _is_typed_reason(reason):
                continue
            yield module.finding(
                "A503",
                reason,
                "ledger reason is computed at the call site; pass a "
                "named constant, attribute, or string literal (an "
                "`or`-chain of those is fine) and carry the detail in "
                "`sample=` instead",
            )


def _is_typed_reason(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return True
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return True
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
        return all(_is_typed_reason(value) for value in expr.values)
    return False
