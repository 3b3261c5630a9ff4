"""Columnar-barrier rules (B301–B302).

The columnar ingest fast path is only byte-identical to the scalar
parser because of two disciplines.  First, **barrier closure**: every
line the vectorised classifier cannot *prove* it handles is routed
through the scalar parser — a loop draining the classification-failure
index set must actually call the barrier (B301); dropping that call
silently diverges the fast path on exactly the hard lines.  Second,
**no scalar array access on the hot path**: indexing a numpy array
element-wise inside a per-line Python loop costs a boxed scalar per
line and reintroduces the O(n) Python overhead the columnar path
exists to avoid — batch-convert with ``.tolist()`` before the loop
(B302).
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
from repro.devtools.flow.cfg import iter_scopes, owned_expressions
from repro.devtools.flow.dataflow import (
    EMPTY,
    Env,
    Tags,
    TagEvaluator,
    analyze_scope,
)

#: Package owning the columnar fast path.
COLUMNAR_PACKAGES = ("columnar",)

NDARRAY = frozenset({"ndarray"})
LINELIST = frozenset({"linelist"})
SLOWSET = frozenset({"ndarray", "slowset"})

#: Scalar-parser entry points that constitute the barrier.
BARRIER_CALLS = frozenset(
    {
        "scalar_line",
        "parse_syslog_line",
        "try_parse_syslog_line",
        "parse_log",
    }
)

#: ndarray methods whose result is a plain Python object, ending the
#: array taint (everything else on an array is assumed another array).
_SCALARISING_METHODS = frozenset({"tolist", "item", "tobytes", "sum"})


class ArrayEvaluator(TagEvaluator):
    """Tags numpy arrays, per-line lists, and failure index sets."""

    def call(self, node: ast.Call, env: Env) -> Tags:
        dotted = call_name(node, self.imports)
        if dotted is not None and dotted.startswith("numpy."):
            if dotted == "numpy.flatnonzero" and any(
                isinstance(child, ast.Invert)
                for argument in node.args
                for child in ast.walk(argument)
            ):
                # The complement of the proven-fast mask: the set of
                # classification failures the barrier must drain.
                return SLOWSET
            return NDARRAY
        if dotted in ("zip", "enumerate", "reversed"):
            tags: Tags = EMPTY
            for argument in node.args:
                tags |= self.evaluate(argument, env)
            return tags
        if isinstance(node.func, ast.Attribute):
            receiver = self.evaluate(node.func.value, env)
            if "ndarray" in receiver:
                if node.func.attr == "tolist":
                    # A tolist'ed failure set still identifies the
                    # per-line slow loop it feeds.
                    return LINELIST | (receiver & frozenset({"slowset"}))
                if node.func.attr in _SCALARISING_METHODS:
                    return EMPTY
                return NDARRAY
        return EMPTY

    def binop(self, node: ast.BinOp, left: Tags, right: Tags) -> Tags:
        if "ndarray" in left or "ndarray" in right:
            return NDARRAY
        return EMPTY

    def annotation(self, node: Optional[ast.AST]) -> Tags:
        if node is None:
            return EMPTY
        for child in ast.walk(node):
            text = None
            if isinstance(child, ast.Name):
                text = child.id
            elif isinstance(child, ast.Attribute):
                text = child.attr
            elif isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ):
                text = child.value
            if text is not None and "ndarray" in text:
                return NDARRAY
        return EMPTY

    def evaluate(self, node: ast.AST, env: Env) -> Tags:
        if isinstance(node, ast.Subscript):
            value = self.evaluate(node.value, env)
            if "ndarray" in value:
                # Any subscript of an array is conservatively an array
                # (masks, fancy indexing, slices).
                return NDARRAY
            return EMPTY
        return super().evaluate(node, env)


def _contains_barrier_call(body: List[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                name: Optional[str] = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in BARRIER_CALLS:
                    return True
    return False


@register
class BarrierClosureRule(Rule):
    id = "B301"
    name = "classification-failure-misses-barrier"
    rationale = (
        "Lines the vectorised classifier rejects (`np.flatnonzero(~fast "
        "& ...)`) are exactly the ones the fast path cannot prove it "
        "parses identically; a loop draining that set without calling "
        "the scalar parser barrier silently diverges the columnar path "
        "on the hardest inputs."
    )
    scope = COLUMNAR_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for scope in iter_scopes(module.tree):
            evaluator = ArrayEvaluator(imports)
            cfg, in_envs = analyze_scope(scope, evaluator)
            for node_id, statement in cfg.nodes():
                if not isinstance(statement, (ast.For, ast.AsyncFor)):
                    continue
                env = in_envs.get(node_id, {})
                tags = evaluator.evaluate(statement.iter, env)
                if "slowset" not in tags:
                    continue
                if _contains_barrier_call(statement.body):
                    continue
                yield module.finding(
                    self.id,
                    statement,
                    "loop over the classification-failure index set "
                    "never reaches the scalar parser barrier; rejected "
                    "lines must be re-parsed scalar or the columnar "
                    "path diverges — call the barrier in this loop",
                )


@register
class ScalarArrayAccessRule(Rule):
    id = "B302"
    name = "array-element-access-in-line-loop"
    rationale = (
        "Indexing a numpy array element-wise inside a per-line Python "
        "loop boxes one scalar per line — the exact overhead the "
        "columnar path exists to amortise.  Batch-convert with "
        "`.tolist()` before the loop and index the plain list."
    )
    scope = COLUMNAR_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for scope in iter_scopes(module.tree):
            evaluator = ArrayEvaluator(imports)
            cfg, in_envs = analyze_scope(scope, evaluator)
            loops: List[Tuple[int, int]] = []
            for node_id, statement in cfg.nodes():
                if not isinstance(statement, (ast.For, ast.AsyncFor)):
                    continue
                env = in_envs.get(node_id, {})
                tags = evaluator.evaluate(statement.iter, env)
                if not tags & frozenset(
                    {"linelist", "slowset", "ndarray"}
                ):
                    continue
                end = getattr(statement, "end_lineno", None)
                if end is not None:
                    loops.append((statement.lineno, end))
            if not loops:
                continue
            seen: Set[Tuple[int, int]] = set()
            for node_id, statement in cfg.nodes():
                line = getattr(statement, "lineno", 0)
                if not any(
                    start < line <= end for start, end in loops
                ):
                    continue
                env = in_envs.get(node_id, {})
                for expression in owned_expressions(statement):
                    for node in ast.walk(expression):
                        if not (
                            isinstance(node, ast.Subscript)
                            and isinstance(node.ctx, ast.Load)
                            and not self._is_slice(node.slice)
                        ):
                            continue
                        value_tags = evaluator.evaluate(node.value, env)
                        if "ndarray" not in value_tags:
                            continue
                        position = (node.lineno, node.col_offset)
                        if position in seen:
                            continue
                        seen.add(position)
                        yield module.finding(
                            self.id,
                            node,
                            "numpy array indexed element-wise inside a "
                            "per-line loop; each access boxes a numpy "
                            "scalar — hoist `.tolist()` above the loop "
                            "and index the plain list",
                        )

    @staticmethod
    def _is_slice(index: ast.AST) -> bool:
        if isinstance(index, ast.Slice):
            return True
        if isinstance(index, ast.Tuple):
            return any(
                isinstance(element, ast.Slice) for element in index.elts
            )
        return False
