"""Ingestion-contract rules (R001–R002).

PR 3's hardening promise (``docs/robustness.md``) is a *threading*
contract: every public ingestion entry point accepts ``strict=`` and
``report=`` and forwards them down to the parsers, so lenient mode and
the drop ledger work end to end.  Nothing type-checks that — a refactor
that stops forwarding ``strict`` at one hop silently resets the mode to
the callee's default, and a ``report=`` parameter that is accepted but
never passed on severs the ledger while every signature still looks
right.

R001 is interprocedural: it walks the
:mod:`repro.devtools.flow.callgraph` from the public ingestion entry
points and flags any reachable call where both caller and callee accept
``strict`` but the call passes none (an explicit ``strict=False`` is a
*decision* and is fine; saying nothing is the bug).  R002 is local:
a ``report`` parameter that is never forwarded, recorded into, or
aliased — comparisons against ``None`` and bare truthiness guards do
not count as uses.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.devtools.base import (
    Finding,
    Project,
    Rule,
    SourceModule,
    register,
)
from repro.devtools.flow.callgraph import CallGraph, get_callgraph

#: Packages forming the ingestion surface (syslog/IS-IS readers, the
#: stream sources, the batch pipeline, and the dataset loaders).
CONTRACT_PACKAGES = (
    "core", "stream", "syslog", "isis", "simulation", "fleet",
    "columnar", "service",
)


def _ingestion_roots(graph: CallGraph) -> List[str]:
    """Public functions/methods in the ingestion packages (and in any
    file outside the ``repro`` package, so fixtures are exercisable)."""
    roots = []
    for qualname, info in graph.functions.items():
        subpackage = info.module.repro_subpackage()
        if subpackage is not None and subpackage not in CONTRACT_PACKAGES:
            continue
        if info.is_public:
            roots.append(qualname)
    return roots


def _reachable(project: Project) -> Set[str]:
    cached = project.cache.get("contract_reachable")
    if isinstance(cached, set):
        return cached
    graph = get_callgraph(project)
    reachable = graph.reachable_from(_ingestion_roots(graph))
    project.cache["contract_reachable"] = reachable
    return reachable


def _call_mentions_strict(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "strict" or keyword.arg is None:  # **kwargs
            return True
    return any(isinstance(arg, ast.Starred) for arg in call.args)


@register
class StrictForwardRule(Rule):
    id = "R001"
    name = "strict-not-forwarded"
    rationale = (
        "On a call path from a public ingestion entry point, a caller "
        "that accepts `strict=` but calls a `strict`-accepting parser "
        "without passing it silently resets lenient/strict mode to the "
        "callee's default — the caller's choice is dropped mid-path."
    )
    scope = CONTRACT_PACKAGES
    project_wide = True

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        graph = get_callgraph(project)
        reachable = _reachable(project)
        for edge in graph.edges:
            caller = graph.functions[edge.caller]
            if caller.module is not module:
                continue
            if edge.caller not in reachable:
                continue
            if "strict" not in caller.parameters:
                continue
            callee = graph.functions.get(edge.callee)
            if callee is None or "strict" not in callee.parameters:
                continue
            if _call_mentions_strict(edge.call):
                continue
            yield module.finding(
                self.id,
                edge.call,
                f"`{callee.qualname}` accepts `strict=` but this call "
                f"from `{caller.qualname}` (reachable from a public "
                f"ingestion entry point) does not forward the caller's "
                f"`strict` — pass `strict=strict` or an explicit "
                f"decision",
            )


def _is_stub_body(body: List[ast.stmt]) -> bool:
    """Docstring-only / ``pass`` / ``...`` / ``raise`` bodies — protocol
    or abstract methods that legitimately ignore their parameters."""
    for statement in body:
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        if isinstance(statement, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def _guard_only_use(
    name_node: ast.Name, parents: Dict[ast.AST, ast.AST]
) -> bool:
    """Is this load nothing but a None-check / truthiness guard?"""
    parent = parents.get(name_node)
    if isinstance(parent, ast.Compare):
        others = [parent.left] + list(parent.comparators)
        others = [o for o in others if o is not name_node]
        return all(
            isinstance(o, ast.Constant) and o.value is None for o in others
        )
    if isinstance(parent, (ast.If, ast.While)) and parent.test is name_node:
        return True
    if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
        return True
    return False


@register
class ReportSeveredRule(Rule):
    id = "R002"
    name = "report-ledger-severed"
    rationale = (
        "A `report=` parameter that is accepted but never forwarded nor "
        "recorded into looks hardened at every call site while the drop "
        "ledger silently receives nothing — the exact failure mode the "
        "PR 3 contract exists to prevent."
    )
    scope = CONTRACT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            arguments = node.args
            parameters = (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            )
            if not any(p.arg == "report" for p in parameters):
                continue
            if _is_stub_body(node.body):
                continue
            if self._has_meaningful_use(node):
                continue
            yield module.finding(
                self.id,
                node,
                f"`{node.name}` accepts `report=` but never forwards it "
                f"or records into it; drops below this point vanish "
                f"without attribution — thread it through or remove the "
                f"parameter",
            )

    def _has_meaningful_use(self, function: ast.AST) -> bool:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(function):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Name)
                and node.id == "report"
                and isinstance(node.ctx, ast.Load)
                and not _guard_only_use(node, parents)
            ):
                return True
        return False
