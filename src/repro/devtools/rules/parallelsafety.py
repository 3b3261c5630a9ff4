"""Worker-purity rules (W001–W004).

Two places hand work to other processes: ``repro lint --jobs N``
fans per-file rule checks over a ``multiprocessing.Pool``
(:mod:`repro.devtools.lint`), and the service supervisor runs each
tenant's pipeline as a ``multiprocessing.Process`` target
(:mod:`repro.service.supervisor`).  Both promise that the process
boundary never changes a result, and that promise rests on the
functions shipped to workers being *pure plumbing*: no mutation of
module globals or class attributes (the mutation happens in a forked
process and silently vanishes — W001), no closing over open file
handles or RNG instances (they do not survive pickling, or worse, they
do and desynchronise — W002), no reads of module state that some
function mutates at runtime (the worker sees whatever its process
happens to hold — W003), and arguments/returns that actually pickle
(W004, a structural walk via :mod:`repro.devtools.flow.picklewalk`).

The worker set is computed interprocedurally: every
``ProcessPoolExecutor``/``multiprocessing.Pool`` dispatch site and
every ``multiprocessing.Process(target=...)`` construction in the
project is found (receiver bindings through assignments and ``with``
items, plus explicit ``# reprolint: dispatch`` annotations for sites
the binding scan cannot see), the dispatched functions become roots,
and the call graph closes them under reachability.  Findings anchor in
the module that *defines* the offending function, so suppressions sit
next to the code they justify.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.base import (
    Finding,
    ImportMap,
    Project,
    Rule,
    SourceModule,
    call_name,
    dotted_name,
    register,
)
from repro.devtools.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    get_callgraph,
    module_dotted_name,
)
from repro.devtools.flow.cfg import scope_parameters
from repro.devtools.flow.picklewalk import unpicklable_names

#: Pool constructors whose instances dispatch work to other processes.
POOL_FACTORIES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

#: Pool methods whose first positional argument runs in a worker.
DISPATCH_METHODS = frozenset(
    {
        "submit",
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

#: Constructors whose ``target=`` keyword runs in a worker process.
PROCESS_FACTORIES = frozenset(
    {
        "multiprocessing.Process",
        "multiprocessing.context.Process",
        "multiprocessing.process.Process",
        "multiprocessing.process.BaseProcess",
    }
)

#: Marker comment naming a line as a dispatch site the receiver-binding
#: scan cannot prove (wrapped pools, dynamically chosen executors).
DISPATCH_MARKER = "reprolint: dispatch"

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
    }
)

#: Module-level values of these shapes are *mutable module state*.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)

#: Module-level values of these shapes are process-bound handles: open
#: files and RNG instances must not be closed over by workers.
_HANDLE_FACTORIES = frozenset(
    {
        "open",
        "io.open",
        "gzip.open",
        "bz2.open",
        "lzma.open",
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)


def _process_target(
    call: ast.Call, imports: ImportMap
) -> Optional[ast.expr]:
    """The ``target=`` expression of a ``multiprocessing.Process(...)``
    construction, ``None`` when the call is not one (or has no target)."""
    if call_name(call, imports) not in PROCESS_FACTORIES:
        return None
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    return None


def _binding_kind(
    value: Optional[ast.expr], imports: ImportMap
) -> Optional[str]:
    """``"mutable"``/``"handle"`` classification of one module-level
    assigned value, ``None`` when it is neither."""
    if value is None:
        return None
    if isinstance(
        value,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return "mutable"
    if isinstance(value, ast.Call):
        name = call_name(value, imports)
        if name is None:
            return None
        if name in _MUTABLE_FACTORIES:
            return "mutable"
        if name in _HANDLE_FACTORIES or name.split(".")[-1] == "child_rng":
            return "handle"
    return None


class _FunctionScan:
    """Module-state references of one function body."""

    def __init__(self) -> None:
        #: (canonical dotted name, anchor node) per mutation site.
        self.state_mutations: List[Tuple[str, ast.AST]] = []
        #: Anchor nodes of ``ClassName.attr = ...`` / ``cls.attr = ...``.
        self.class_mutations: List[ast.AST] = []
        #: (canonical dotted name, anchor node) per read site.
        self.state_reads: List[Tuple[str, ast.AST]] = []


class _SafetyAnalysis:
    """The once-per-project interprocedural pass behind W001–W004."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph: CallGraph = get_callgraph(project)
        self._imports: Dict[str, ImportMap] = {}
        self._module_prefix: Dict[str, str] = {}
        #: canonical dotted binding name -> "mutable" | "handle".
        self.binding_kind: Dict[str, str] = {}
        #: canonical names some project function rebinds or mutates.
        self.runtime_mutable: Set[str] = set()
        self.dispatch_sites: List[
            Tuple[SourceModule, ast.Call, ast.expr, Optional[str]]
        ] = []
        self.roots: Set[str] = set()
        self.findings: Dict[str, List[Finding]] = {
            "W001": [],
            "W002": [],
            "W003": [],
            "W004": [],
        }
        self._scans: Dict[str, _FunctionScan] = {}
        self._collect_bindings()
        self._collect_dispatch_sites()
        self._scan_all_functions()
        self._emit()

    # ------------------------------------------------------- bindings
    def _collect_bindings(self) -> None:
        for module in self.project.modules:
            if module.tree is None:
                continue
            imports = ImportMap.from_tree(module.tree)
            self._imports[module.path] = imports
            prefix = module_dotted_name(module)
            self._module_prefix[module.path] = prefix
            for statement in module.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(statement, ast.Assign):
                    targets, value = statement.targets, statement.value
                elif isinstance(statement, ast.AnnAssign):
                    targets, value = [statement.target], statement.value
                kind = _binding_kind(value, imports)
                if kind is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.binding_kind[f"{prefix}.{target.id}"] = kind

    # -------------------------------------------------- dispatch sites
    def _collect_dispatch_sites(self) -> None:
        seen: Set[Tuple[str, int, int]] = set()
        for info in self.graph.functions.values():
            imports = self._imports.get(info.module.path)
            if imports is None:
                continue
            pools = self._pool_receivers(info.node, imports)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in DISPATCH_METHODS
                    and node.args
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                ):
                    self._add_site(info.module, node, seen, info)
                    continue
                target = _process_target(node, imports)
                if target is not None:
                    self._add_site(
                        info.module, node, seen, info, worker=target
                    )
        # Annotated sites: a `# reprolint: dispatch` marker makes every
        # method call on that line a dispatch site regardless of how
        # the pool object was obtained.
        for module in self.project.modules:
            if module.tree is None:
                continue
            marked = {
                index + 1
                for index, line in enumerate(module.lines)
                if DISPATCH_MARKER in line
            }
            if not marked:
                continue
            imports = self._imports.get(module.path)
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call) and node.lineno in marked
                ):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in DISPATCH_METHODS
                    and node.args
                ):
                    self._add_site(module, node, seen, None)
                elif imports is not None:
                    target = _process_target(node, imports)
                    if target is not None:
                        self._add_site(
                            module, node, seen, None, worker=target
                        )

    def _pool_receivers(
        self, function: ast.AST, imports: ImportMap
    ) -> Set[str]:
        pools: Set[str] = set()
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and call_name(node.value, imports) in POOL_FACTORIES
            ):
                pools.add(node.targets[0].id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and call_name(item.context_expr, imports)
                        in POOL_FACTORIES
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        pools.add(item.optional_vars.id)
        return pools

    def _add_site(
        self,
        module: SourceModule,
        call: ast.Call,
        seen: Set[Tuple[str, int, int]],
        enclosing: Optional[FunctionInfo],
        worker: Optional[ast.expr] = None,
    ) -> None:
        key = (module.path, call.lineno, call.col_offset)
        if key in seen:
            return
        seen.add(key)
        worker = self._worker_expression(
            call.args[0] if worker is None else worker, module
        )
        qualname: Optional[str] = None
        if isinstance(worker, ast.Lambda):
            self.findings["W002"].append(
                module.finding(
                    "W002",
                    call,
                    "a lambda is dispatched to a process pool; lambdas "
                    "do not pickle and their closure is invisible to the "
                    "purity check — dispatch a module-level function",
                )
            )
        else:
            dotted = dotted_name(worker)
            if dotted is not None:
                if enclosing is not None and self._is_nested_def(
                    enclosing.node, dotted
                ):
                    self.findings["W002"].append(
                        module.finding(
                            "W002",
                            call,
                            f"nested function `{dotted}` is dispatched to "
                            "a process pool; its closure does not pickle "
                            "— hoist it to module level",
                        )
                    )
                else:
                    qualname = self.graph.resolve_callable(dotted, module)
        self.dispatch_sites.append((module, call, worker, qualname))
        if qualname is not None:
            self.roots.add(qualname)

    @staticmethod
    def _worker_expression(expr: ast.expr, module: SourceModule) -> ast.expr:
        """See through ``functools.partial(f, ...)`` to ``f``."""
        if isinstance(expr, ast.Call) and expr.args:
            dotted = dotted_name(expr.func)
            if dotted is not None and dotted.split(".")[-1] == "partial":
                return _SafetyAnalysis._worker_expression(
                    expr.args[0], module
                )
        return expr

    @staticmethod
    def _is_nested_def(enclosing: ast.AST, name: str) -> bool:
        if "." in name:
            return False
        for node in ast.walk(enclosing):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not enclosing
                and node.name == name
            ):
                return True
        return False

    # ----------------------------------------------------- body scans
    def _scan_all_functions(self) -> None:
        for qualname, info in self.graph.functions.items():
            scan = self._scan_function(info)
            self._scans[qualname] = scan
            for canonical, _ in scan.state_mutations:
                self.runtime_mutable.add(canonical)

    def _scan_function(self, info: FunctionInfo) -> _FunctionScan:
        scan = _FunctionScan()
        imports = self._imports.get(info.module.path)
        if imports is None:
            return scan
        declared_global: Set[str] = set()
        shadows: Set[str] = {p.arg for p in scope_parameters(info.node)}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                shadows.add(node.id)
        shadows -= declared_global
        aliases = self._local_aliases(
            info, imports, shadows, declared_global
        )

        def state_of(expr: ast.expr) -> Optional[str]:
            return self._state_canonical(
                expr, info, imports, shadows, declared_global, aliases
            )

        prefix = self._module_prefix[info.module.path]
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._scan_store(
                        target, node, prefix, declared_global, state_of, scan
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        canonical = state_of(target.value)
                        if canonical is not None:
                            scan.state_mutations.append((canonical, node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                canonical = state_of(node.func.value)
                if canonical is not None:
                    scan.state_mutations.append((canonical, node))
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                canonical = state_of(node)
                if canonical is not None:
                    scan.state_reads.append((canonical, node))
        return scan

    def _scan_store(
        self,
        target: ast.expr,
        anchor: ast.AST,
        prefix: str,
        declared_global: Set[str],
        state_of,
        scan: _FunctionScan,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                canonical = f"{prefix}.{target.id}"
                scan.state_mutations.append((canonical, anchor))
        elif isinstance(target, ast.Subscript):
            canonical = state_of(target.value)
            if canonical is not None:
                scan.state_mutations.append((canonical, anchor))
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "cls":
                    scan.class_mutations.append(anchor)
                elif base.id != "self":
                    # `ClassName.attr = ...`: a store whose receiver is a
                    # known project class mutates shared class state.
                    if self.project.find_class(base.id) is not None:
                        scan.class_mutations.append(anchor)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store(
                    element, anchor, prefix, declared_global, state_of, scan
                )

    def _local_aliases(
        self,
        info: FunctionInfo,
        imports: ImportMap,
        shadows: Set[str],
        declared_global: Set[str],
    ) -> Dict[str, str]:
        """Locals assigned (transitively) from a module-state binding —
        ``cache = _CISCO_CACHE`` makes ``cache`` an alias."""
        aliases: Dict[str, str] = {}
        for _ in range(3):
            changed = False
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Name)
                ):
                    continue
                source = node.value.id
                canonical = aliases.get(source)
                if canonical is None:
                    canonical = self._name_canonical(
                        source, info, imports, shadows, declared_global
                    )
                target = node.targets[0].id
                if canonical is not None and aliases.get(target) != canonical:
                    aliases[target] = canonical
                    changed = True
            if not changed:
                break
        return aliases

    def _name_canonical(
        self,
        name: str,
        info: FunctionInfo,
        imports: ImportMap,
        shadows: Set[str],
        declared_global: Set[str],
    ) -> Optional[str]:
        if name in shadows and name not in declared_global:
            return None
        own = f"{self._module_prefix[info.module.path]}.{name}"
        if own in self.binding_kind:
            return own
        resolved = imports.resolve(name)
        if resolved != name and resolved in self.binding_kind:
            return resolved
        return None

    def _state_canonical(
        self,
        expr: ast.expr,
        info: FunctionInfo,
        imports: ImportMap,
        shadows: Set[str],
        declared_global: Set[str],
        aliases: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            return self._name_canonical(
                expr.id, info, imports, shadows, declared_global
            )
        dotted = dotted_name(expr)
        if dotted is not None and "." in dotted:
            head = dotted.split(".")[0]
            if head in shadows or head in aliases:
                return None
            resolved = imports.resolve(dotted)
            if resolved in self.binding_kind:
                return resolved
        return None

    # ------------------------------------------------------- findings
    def _emit(self) -> None:
        reachable = self.graph.reachable_from(sorted(self.roots))
        for qualname in sorted(reachable):
            info = self.graph.functions[qualname]
            scan = self._scans.get(qualname)
            if scan is None:
                continue
            self._emit_w001(info, scan)
            self._emit_w002(info, scan)
            self._emit_w003(info, scan)
        for qualname in sorted(self.roots):
            self._emit_w004(self.graph.functions[qualname])

    def _emit_w001(self, info: FunctionInfo, scan: _FunctionScan) -> None:
        first: Dict[str, ast.AST] = {}
        for canonical, node in scan.state_mutations:
            anchor = first.get(canonical)
            if anchor is None or node.lineno < anchor.lineno:
                first[canonical] = node
        for canonical in sorted(first):
            self.findings["W001"].append(
                info.module.finding(
                    "W001",
                    first[canonical],
                    f"worker-reachable `{info.qualname}` mutates module "
                    f"state `{canonical}`; the mutation happens in a "
                    f"pool worker's process and is invisible to the "
                    f"parent — results depend on per-process history",
                )
            )
        for node in scan.class_mutations:
            self.findings["W001"].append(
                info.module.finding(
                    "W001",
                    node,
                    f"worker-reachable `{info.qualname}` assigns a class "
                    f"attribute; class objects are per-process, so the "
                    f"store neither propagates back nor reaches sibling "
                    f"workers",
                )
            )

    def _emit_w002(self, info: FunctionInfo, scan: _FunctionScan) -> None:
        first: Dict[str, ast.AST] = {}
        for canonical, node in scan.state_reads:
            if self.binding_kind.get(canonical) != "handle":
                continue
            anchor = first.get(canonical)
            if anchor is None or node.lineno < anchor.lineno:
                first[canonical] = node
        for canonical in sorted(first):
            self.findings["W002"].append(
                info.module.finding(
                    "W002",
                    first[canonical],
                    f"worker-reachable `{info.qualname}` uses module-"
                    f"level handle `{canonical}` (open file or RNG "
                    f"instance); each worker process holds its own copy, "
                    f"so positions/streams silently diverge from the "
                    f"parent — open the handle or derive the RNG inside "
                    f"the worker",
                )
            )

    def _emit_w003(self, info: FunctionInfo, scan: _FunctionScan) -> None:
        first: Dict[str, ast.AST] = {}
        for canonical, node in scan.state_reads:
            if canonical not in self.runtime_mutable:
                continue
            if self.binding_kind.get(canonical) == "handle":
                continue  # W002's territory.
            anchor = first.get(canonical)
            if anchor is None or node.lineno < anchor.lineno:
                first[canonical] = node
        for canonical in sorted(first):
            self.findings["W003"].append(
                info.module.finding(
                    "W003",
                    first[canonical],
                    f"worker-reachable `{info.qualname}` reads module "
                    f"state `{canonical}` that project code mutates at "
                    f"runtime; a worker process sees whatever its copy "
                    f"happens to hold, not the parent's — pass the value "
                    f"as an argument or freeze the binding",
                )
            )

    def _emit_w004(self, info: FunctionInfo) -> None:
        imports = self._imports.get(info.module.path)
        if imports is None:
            return
        for parameter in scope_parameters(info.node):
            offenders = unpicklable_names(
                parameter.annotation, imports, self.project
            )
            for offender in offenders:
                self.findings["W004"].append(
                    info.module.finding(
                        "W004",
                        parameter,
                        f"dispatched worker `{info.qualname}` parameter "
                        f"`{parameter.arg}` is annotated with "
                        f"unpicklable `{offender}`; it cannot cross the "
                        f"process boundary",
                    )
                )
        returns = getattr(info.node, "returns", None)
        for offender in unpicklable_names(returns, imports, self.project):
            self.findings["W004"].append(
                info.module.finding(
                    "W004",
                    returns if returns is not None else info.node,
                    f"dispatched worker `{info.qualname}` return type "
                    f"mentions unpicklable `{offender}`; the result "
                    f"cannot cross the process boundary",
                )
            )


def _analysis(project: Project) -> _SafetyAnalysis:
    cached = project.cache.get("parallel_safety")
    if not isinstance(cached, _SafetyAnalysis):
        cached = _SafetyAnalysis(project)
        project.cache["parallel_safety"] = cached
    return cached


class _WorkerRule(Rule):
    """Shared driver: findings come from the memoised project pass."""

    scope = None
    project_wide = True

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for finding in _analysis(project).findings[self.id]:
            if finding.path == module.path:
                yield finding


@register
class WorkerGlobalMutationRule(_WorkerRule):
    id = "W001"
    name = "worker-mutates-global-state"
    rationale = (
        "A function reachable from a process-pool dispatch site that "
        "mutates module globals or class attributes does so in the "
        "worker's own process: the parent never sees the write, sibling "
        "workers each see their own, and a pooled run silently diverges "
        "from an in-process one."
    )


@register
class WorkerHandleCaptureRule(_WorkerRule):
    id = "W002"
    name = "worker-captures-handle"
    rationale = (
        "Open file handles and RNG instances reached from a worker — "
        "via module globals, closures, or lambda dispatch — either fail "
        "to pickle or fork into desynchronised copies; both make a "
        "worker's result depend on which process computed it."
    )


@register
class WorkerMutableReadRule(_WorkerRule):
    id = "W003"
    name = "worker-reads-mutable-state"
    rationale = (
        "Module state that any project function mutates at runtime is "
        "per-process: a worker reads whatever its copy holds at fork/"
        "spawn time, not what the parent computed since.  Pass the "
        "value explicitly or make the binding frozen-after-import."
    )


@register
class WorkerPicklabilityRule(_WorkerRule):
    id = "W004"
    name = "worker-unpicklable-signature"
    rationale = (
        "Arguments and returns of a dispatched worker are pickled "
        "across the process boundary; a Callable/Iterator/handle in the "
        "signature fails at runtime deep inside multiprocessing, far "
        "from the dispatch site that caused it."
    )
