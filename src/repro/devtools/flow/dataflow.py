"""A forward worklist solver over small abstract lattices.

The flow rules all need the same question answered: *what kind of value
can this local name hold at this program point?* — where "kind" is a
small set of tags (``{"set"}``, ``{"sampled"}``, …) and the interesting
part is how values flow through chains of local assignments, tuple
unpacking, conditionals, and loops.

The abstract domain is deliberately tiny: an environment maps each
local name to a **frozenset of tags**; joining two environments unions
the tag sets name by name (a may-analysis — if a name *can* hold a set
on some path, iterating it is already a reproducibility hazard).  An
absent name / empty set means "nothing known".  Reassignment rebinds
(kills) a name on that path, which is the flow-sensitivity a syntactic
match lacks: ``s = set(x); s = sorted(s)`` leaves ``s`` with no set
tag, while ``t = s`` one line earlier propagates it.

:class:`TagEvaluator` turns expressions into tag sets and is the only
piece a rule family customises; :class:`ForwardDataflow` runs the
worklist over a :class:`~repro.devtools.flow.cfg.CFG` and returns the
environment *entering* every statement node.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.devtools.base import ImportMap, dotted_name
from repro.devtools.flow.cfg import (
    CFG,
    ENTRY,
    build_cfg,
    owned_expressions,
    scope_parameters,
)

Tags = FrozenSet[str]
Env = Dict[str, Tags]

EMPTY: Tags = frozenset()


def join_envs(left: Env, right: Env) -> Env:
    """Name-wise union of two environments."""
    if not left:
        return dict(right)
    if not right:
        return dict(left)
    merged = dict(left)
    for name, tags in right.items():
        merged[name] = merged.get(name, EMPTY) | tags
    return merged


def meet_envs(left: Env, right: Env) -> Env:
    """Name-wise intersection: a name survives only when bound in both
    environments, keeping the tags common to both paths."""
    return {
        name: left[name] & right[name]
        for name in left
        if name in right
    }


class TagEvaluator:
    """Maps expressions to tag sets; rule families override the hooks.

    The base class handles the structural cases every domain shares —
    names come from the environment (falling back to
    :meth:`name_constant` for imported module-level constants),
    conditionals join their arms, parenthesised/unary shells are
    transparent — and delegates calls, operators, and annotations to the
    hooks.
    """

    def __init__(self, imports: ImportMap) -> None:
        self.imports = imports

    # ----------------------------------------------------------- hooks
    def name_constant(self, dotted: str) -> Tags:
        """Tags of a name resolved through the imports (e.g. a known
        module-level constant); the environment takes precedence."""
        return EMPTY

    def call(self, node: ast.Call, env: Env) -> Tags:
        return EMPTY

    def binop(self, node: ast.BinOp, left: Tags, right: Tags) -> Tags:
        return EMPTY

    def annotation(self, node: Optional[ast.AST]) -> Tags:
        return EMPTY

    def iter_element(self, tags: Tags) -> Tags:
        """Tags of one element drawn from an iterable with ``tags``."""
        return EMPTY

    def augmented(self, old: Tags, op: ast.operator, value: Tags) -> Tags:
        """``x op= v``: by default the name keeps its tags (``s |= t``
        leaves a set a set)."""
        return old

    # ------------------------------------------------------- evaluation
    def evaluate(self, node: ast.AST, env: Env) -> Tags:
        if isinstance(node, ast.Name):
            if node.id in env:
                # Presence matters, not truthiness: a local binding with
                # no tags still shadows a module-level constant.
                return env[node.id]
            return self.name_constant(self.imports.resolve(node.id))
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                if head not in env:
                    return self.name_constant(self.imports.resolve(dotted))
            return EMPTY
        if isinstance(node, ast.IfExp):
            return self.evaluate(node.body, env) | self.evaluate(
                node.orelse, env
            )
        if isinstance(node, ast.BoolOp):
            tags: Tags = EMPTY
            for value in node.values:
                tags |= self.evaluate(value, env)
            return tags
        if isinstance(node, ast.NamedExpr):
            return self.evaluate(node.value, env)
        if isinstance(node, ast.Await):
            return self.evaluate(node.value, env)
        if isinstance(node, ast.UnaryOp):
            return self.evaluate(node.operand, env)
        if isinstance(node, ast.BinOp):
            return self.binop(
                node,
                self.evaluate(node.left, env),
                self.evaluate(node.right, env),
            )
        if isinstance(node, ast.Call):
            return self.call(node, env)
        return EMPTY


class ForwardDataflow:
    """The worklist solver: one evaluator, one CFG, a fixpoint."""

    #: Safety valve — tag lattices are finite so termination is
    #: guaranteed, but a bound keeps a pathological scope cheap.
    MAX_VISITS_PER_NODE = 64

    def __init__(self, evaluator: TagEvaluator) -> None:
        self.evaluator = evaluator

    def run(self, cfg: CFG, initial: Env) -> Dict[int, Env]:
        """Environments *entering* each node (``ENTRY``'s out is
        ``initial``, typically built from parameter annotations)."""
        out: Dict[int, Env] = {ENTRY: dict(initial)}
        in_env: Dict[int, Env] = {}
        visits: Dict[int, int] = {}
        worklist: List[int] = [node for node, _ in cfg.nodes()]
        pending = set(worklist)
        while worklist:
            node = worklist.pop(0)
            pending.discard(node)
            if visits.get(node, 0) >= self.MAX_VISITS_PER_NODE:
                continue
            visits[node] = visits.get(node, 0) + 1
            entering = self.join_predecessors(
                cfg.pred.get(node, []), out
            )
            in_env[node] = entering
            leaving = self.transfer(cfg.statements[node], entering)
            if leaving != out.get(node):
                out[node] = leaving
                for successor in cfg.succ.get(node, []):
                    if successor >= 0 and successor not in pending:
                        worklist.append(successor)
                        pending.add(successor)
        return in_env

    # ------------------------------------------------------------ join
    def join_predecessors(
        self, predecessors: List[int], out: Dict[int, Env]
    ) -> Env:
        """Combine predecessor out-environments (may-direction: union,
        an unvisited predecessor contributes nothing)."""
        entering: Env = {}
        for predecessor in predecessors:
            entering = join_envs(entering, out.get(predecessor, {}))
        return entering

    # -------------------------------------------------------- transfer
    def transfer(self, statement: ast.stmt, env: Env) -> Env:
        env = dict(env)
        evaluate = self.evaluator.evaluate

        if isinstance(statement, ast.Assign):
            tags = evaluate(statement.value, env)
            for target in statement.targets:
                self._bind(target, statement.value, tags, env)
        elif isinstance(statement, ast.AnnAssign):
            tags = self.evaluator.annotation(statement.annotation)
            if statement.value is not None:
                tags = tags | evaluate(statement.value, env)
            if isinstance(statement.target, ast.Name):
                env[statement.target.id] = tags
        elif isinstance(statement, ast.AugAssign):
            if isinstance(statement.target, ast.Name):
                name = statement.target.id
                env[name] = self.evaluator.augmented(
                    env.get(name, EMPTY),
                    statement.op,
                    evaluate(statement.value, env),
                )
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            element = self.evaluator.iter_element(
                evaluate(statement.iter, env)
            )
            self._bind(statement.target, None, element, env)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None, EMPTY, env)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(statement, ast.Import):
            for alias in statement.names:
                env[alias.asname or alias.name.split(".")[0]] = EMPTY
        elif isinstance(statement, ast.ImportFrom):
            for alias in statement.names:
                local = alias.asname or alias.name
                dotted = (
                    f"{statement.module}.{alias.name}"
                    if statement.module
                    else alias.name
                )
                # A known constant keeps its tags through a local import.
                env[local] = self.evaluator.name_constant(dotted)
        elif isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            env[statement.name] = EMPTY
        elif isinstance(statement, (ast.Global, ast.Nonlocal)):
            for name in statement.names:
                env[name] = EMPTY

        # Walrus assignments anywhere in the node's own expressions.
        for expression in owned_expressions(statement):
            for walrus in ast.walk(expression):
                if isinstance(walrus, ast.NamedExpr) and isinstance(
                    walrus.target, ast.Name
                ):
                    env[walrus.target.id] = evaluate(walrus.value, env)
        return env

    def _bind(
        self,
        target: ast.AST,
        value: Optional[ast.AST],
        tags: Tags,
        env: Env,
    ) -> None:
        """Bind one assignment target, element-wise where possible."""
        if isinstance(target, ast.Name):
            env[target.id] = tags
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, None, EMPTY, env)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements: List[Optional[ast.AST]]
            if (
                isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                and not any(isinstance(t, ast.Starred) for t in target.elts)
            ):
                # `a, b = set(x), 0` — carry each element's own tags.
                elements = list(value.elts)
                for sub_target, sub_value in zip(target.elts, elements):
                    sub_tags = (
                        self.evaluator.evaluate(sub_value, env)
                        if sub_value is not None
                        else EMPTY
                    )
                    self._bind(sub_target, sub_value, sub_tags, env)
            else:
                element = self.evaluator.iter_element(tags)
                for sub_target in target.elts:
                    self._bind(sub_target, None, element, env)
            return
        # Attribute / subscript targets do not touch the local env.


class MustForwardDataflow(ForwardDataflow):
    """The must-direction solver: a fact holds at a node only when it
    holds on *every* path reaching it.

    Predecessor environments are **intersected** (:func:`meet_envs`)
    instead of unioned, and predecessors the worklist has not yet
    computed are skipped — the optimistic top element — so loop
    back-edges start permissive and the fixpoint only ever removes
    facts after the first sweep.  The transfer function is shared with
    the may-direction solver, so reassignment still kills: ``x = ...``
    rebinds ``x`` to the tags of its new value on that path.  The
    H-rules use this to prove a sampled timestamp is clipped to the
    horizon on *all* CFG paths, not just some.
    """

    def join_predecessors(
        self, predecessors: List[int], out: Dict[int, Env]
    ) -> Env:
        computed = [
            out[predecessor]
            for predecessor in predecessors
            if predecessor in out
        ]
        if not computed:
            return {}
        entering = dict(computed[0])
        for env in computed[1:]:
            entering = meet_envs(entering, env)
        return entering


def analyze_scope(
    scope: ast.AST, evaluator: TagEvaluator
) -> Tuple[CFG, Dict[int, Env]]:
    """CFG + per-node entry environments of one scope.

    The initial environment is built from the scope's parameter
    annotations via the evaluator's :meth:`TagEvaluator.annotation`
    hook (empty for a module scope).
    """
    cfg = build_cfg(scope)
    initial: Env = {}
    for parameter in scope_parameters(scope):
        # Bind every parameter (tagged or not) so a parameter that
        # shadows a module-level constant is seen as the parameter.
        initial[parameter.arg] = evaluator.annotation(parameter.annotation)
    solver = ForwardDataflow(evaluator)
    return cfg, solver.run(cfg, initial)
