"""The ingestion-contract rule (R002).

The drop ledger is the ingest mode (``docs/robustness.md``): every
ingestion entry point takes one ``report=`` keyword, raises without a
ledger and quarantines into it with one, so lenient mode and the drop
ledger work end to end only if each layer hands its ``report`` on.
Nothing type-checks that — a ``report=`` parameter that is accepted but
never passed on severs the ledger (and silently turns the layers below
it strict) while every signature still looks right.

R002 is local: it flags a ``report`` parameter that is never forwarded,
recorded into, or aliased — comparisons against ``None`` and bare
truthiness guards do not count as uses.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from repro.devtools.base import (
    Finding,
    Project,
    Rule,
    SourceModule,
    register,
)

#: Packages forming the ingestion surface (syslog/IS-IS readers, the
#: stream sources, the batch pipeline, and the dataset loaders).
CONTRACT_PACKAGES = (
    "core", "stream", "syslog", "isis", "simulation", "fleet",
    "columnar", "service",
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
