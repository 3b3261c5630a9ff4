"""Determinism rules (D001–D005).

Byte-reproducibility is the project's core methodological claim: the
same traces must yield the same Table 2/3 numbers on every run.  These
rules ban the constructs that break that silently — wall-clock reads,
shared/unseeded randomness, and iteration orders the interpreter does
not pin down.  They are scoped to the output-producing packages
(``OUTPUT_PACKAGES``); files outside the ``repro`` package are always
checked so fixtures can exercise them.

D004/D005 track the unordered *value* rather than its spelling: they run
the :mod:`repro.devtools.flow` dataflow solver with a tiny lattice
(``{"set"}``/``{"dictview"}`` tags), so ``for x in set(...)`` and the
same set reached through a rebind, a tuple unpacking, a conditional or
an alias chain are one hazard with one finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.devtools.base import (
    OUTPUT_PACKAGES,
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
    ForwardDataflow,
    TagEvaluator,
    Tags,
    analyze_scope,
)

#: Canonical callables that read the wall clock or process timers.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: ``random`` module functions that draw from the shared global generator.
MODULE_RANDOM_CALLS = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.paretovariate",
    "random.weibullvariate",
    "random.lognormvariate",
    "random.vonmisesvariate",
    "random.triangular",
    "random.getrandbits",
    "random.seed",
    "random.randbytes",
}

#: Entropy sources that are nondeterministic by design.
ENTROPY_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
}


def _is_datetime_wallclock(dotted: str) -> bool:
    """``datetime.now()`` / ``date.today()`` / ``utcnow`` chains."""
    parts = dotted.split(".")
    if parts[-1] not in ("now", "today", "utcnow"):
        return False
    return any(part in ("datetime", "date") for part in parts[:-1])


@register
class WallClockRule(Rule):
    id = "D001"
    name = "wall-clock"
    rationale = (
        "Reading the wall clock makes output depend on when the analysis "
        "runs; all time in this project is event time carried by the data."
    )
    scope = OUTPUT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node, imports)
            if dotted is None:
                continue
            if dotted in WALL_CLOCK_CALLS or _is_datetime_wallclock(dotted):
                yield module.finding(
                    self.id,
                    node,
                    f"wall-clock read `{dotted}()`: derive times from "
                    f"event data, not from when the code runs",
                )


@register
class SharedRandomRule(Rule):
    id = "D002"
    name = "unseeded-random"
    rationale = (
        "The global `random` module generator (and an unseeded "
        "`random.Random()`) is shared, order-sensitive state; every "
        "stream must come from `repro.util.rand.child_rng`."
    )
    scope = OUTPUT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node, imports)
            if dotted is None:
                continue
            if dotted in MODULE_RANDOM_CALLS:
                yield module.finding(
                    self.id,
                    node,
                    f"`{dotted}()` draws from the shared module-level "
                    f"generator; derive a stream with "
                    f"`repro.util.rand.child_rng` instead",
                )
            elif dotted == "random.Random" and not node.args and not node.keywords:
                yield module.finding(
                    self.id,
                    node,
                    "`random.Random()` without a seed is seeded from the "
                    "OS; pass an explicit seed (see "
                    "`repro.util.rand.child_rng`)",
                )


@register
class EntropyRule(Rule):
    id = "D003"
    name = "os-entropy"
    rationale = (
        "`os.urandom`, `uuid.uuid4` and `SystemRandom` are nondeterministic "
        "by construction and can never appear on an output path."
    )
    scope = OUTPUT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node, imports)
            if dotted is None:
                continue
            if dotted in ENTROPY_CALLS or dotted.startswith("secrets."):
                yield module.finding(
                    self.id,
                    node,
                    f"`{dotted}()` is OS entropy: results cannot be "
                    f"reproduced from the trace and the seed",
                )


SET = frozenset({"set"})
DICTVIEW = frozenset({"dictview"})

#: Set methods whose result is again a set.
_SET_PRODUCING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

#: Calls that launder a set into a defined order (the sanctioned fixes).
_ORDERING_CALLS = {"sorted", "len", "sum", "min", "max", "any", "all"}


class SetFlowEvaluator(TagEvaluator):
    """Tags values that are sets or dict views, through local flow."""

    def __init__(self, imports: ImportMap, module_env: Env) -> None:
        super().__init__(imports)
        self.module_env = module_env

    def name_constant(self, dotted: str) -> Tags:
        return self.module_env.get(dotted, EMPTY)

    def evaluate(self, node: ast.AST, env: Env) -> Tags:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return SET
        return super().evaluate(node, env)

    def call(self, node: ast.Call, env: Env) -> Tags:
        dotted = call_name(node, self.imports)
        if dotted in ("set", "frozenset"):
            return SET
        if dotted in _ORDERING_CALLS or dotted in ("list", "tuple"):
            # The result is ordered (or scalar); the set taint ends here.
            return EMPTY
        if isinstance(node.func, ast.Attribute):
            receiver = self.evaluate(node.func.value, env)
            attr = node.func.attr
            if (
                attr in ("keys", "values", "items")
                and not node.args
                and not node.keywords
            ):
                return DICTVIEW
            if attr in _SET_PRODUCING_METHODS and "set" in receiver:
                return SET
        return EMPTY

    def binop(self, node: ast.BinOp, left: Tags, right: Tags) -> Tags:
        if isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            if "set" in left or "set" in right:
                return SET
        return EMPTY

    def annotation(self, node) -> Tags:
        if node is None:
            return EMPTY
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ):
                name = child.value.rsplit(".", 1)[-1].split("[", 1)[0]
            if name and name.lower() in (
                "set",
                "frozenset",
                "abstractset",
                "mutableset",
            ):
                return SET
        return EMPTY


def module_constant_env(module: SourceModule, imports: ImportMap) -> Env:
    """Tags of module-level straight-line constants, for use as the
    fallback environment inside function scopes."""
    assert module.tree is not None
    solver = ForwardDataflow(SetFlowEvaluator(imports, {}))
    env: Env = {}
    for statement in module.tree.body:
        env = solver.transfer(statement, env)
    return {name: tags for name, tags in env.items() if tags}


def set_flow(
    module: SourceModule, project: Project
) -> List[Tuple[SetFlowEvaluator, ast.stmt, Env]]:
    """Every statement of the module with the set/dict-view tags of the
    locals entering it, solved once per project object and shared by
    D004 and D005."""
    cache_key = f"set_flow:{module.path}"
    cached = project.cache.get(cache_key)
    if isinstance(cached, list):
        return cached
    flow = list(_solve_set_flow(module))
    project.cache[cache_key] = flow
    return flow


def _solve_set_flow(
    module: SourceModule,
) -> Iterator[Tuple[SetFlowEvaluator, ast.stmt, Env]]:
    """The dataflow behind :func:`set_flow`: the module, class and
    function bodies, each solved as its own scope."""
    assert module.tree is not None
    imports = ImportMap.from_tree(module.tree)
    module_env = module_constant_env(module, imports)
    scopes = list(iter_scopes(module.tree))
    scopes.extend(
        node for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)
    )
    for scope in scopes:
        evaluator = SetFlowEvaluator(imports, module_env)
        cfg, in_envs = analyze_scope(scope, evaluator)
        for node_id, statement in cfg.nodes():
            yield evaluator, statement, in_envs.get(node_id, {})


def _iteration_sites(
    statement: ast.stmt,
) -> List[Tuple[ast.AST, ast.AST]]:
    """(anchor, iterated expression) pairs consumed in defined order by
    this statement: for-loops, non-set comprehensions, `list`/`tuple`
    conversions and `.join`."""
    sites: List[Tuple[ast.AST, ast.AST]] = []
    if isinstance(statement, (ast.For, ast.AsyncFor)):
        sites.append((statement, statement.iter))
    for expression in owned_expressions(statement):
        for node in ast.walk(expression):
            if isinstance(
                node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
            ):
                # A SetComp over a set stays unordered — no hazard.
                for generator in node.generators:
                    sites.append((generator.iter, generator.iter))
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                ):
                    sites.append((node, node.args[0]))
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                ):
                    sites.append((node, node.args[0]))
    return sites


@register
class SetIterationRule(Rule):
    id = "D004"
    name = "set-iteration"
    rationale = (
        "Set iteration order depends on string hash randomisation "
        "(PYTHONHASHSEED); iterating a set into anything ordered makes "
        "output vary across runs.  The set value is tracked through "
        "assignments, tuple unpacking and aliases.  Wrap the set in "
        "`sorted(...)`."
    )
    scope = OUTPUT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for evaluator, statement, env in set_flow(module, project):
            for anchor, iterated in _iteration_sites(statement):
                if "set" in evaluator.evaluate(iterated, env):
                    yield module.finding(
                        self.id,
                        anchor,
                        "iteration over a value that flows from a set "
                        "construction; set order is undefined — wrap the "
                        "set in `sorted(...)` before iterating",
                    )


def _body_is_order_sensitive(body: list) -> bool:
    """Does a loop body build ordered output (append/extend/yield/write)?"""
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "append",
                    "extend",
                    "appendleft",
                    "write",
                    "writelines",
                ):
                    return True
                if isinstance(node.func, ast.Name) and node.func.id == "print":
                    return True
    return False


@register
class DictOrderRule(Rule):
    id = "D005"
    name = "dict-order"
    rationale = (
        "Iterating `.keys()`/`.values()`/`.items()` relies on insertion "
        "order; where the loop builds ordered output, sort the items (or "
        "justify why insertion order is deterministic).  The view is "
        "tracked through local assignments."
    )
    scope = OUTPUT_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for evaluator, statement, env in set_flow(module, project):
            if not isinstance(statement, (ast.For, ast.AsyncFor)):
                continue
            if "dictview" not in evaluator.evaluate(statement.iter, env):
                continue
            if _body_is_order_sensitive(statement.body):
                yield module.finding(
                    self.id,
                    statement,
                    "order-sensitive loop over a value that flows from "
                    "`.keys()`/`.values()`/`.items()`; the output order "
                    "is dict insertion order — iterate `sorted(...)` or "
                    "justify with a suppression",
                )
