"""A project-wide call graph resolved through the :class:`Project`.

The interprocedural R-rules ask a question no single module can answer:
*does every call path from a public ingestion entry point down to a
``strict``-accepting parser actually forward the caller's ``strict``?*
Answering it needs to know, for each call site, which project function
it lands on — across modules, through import aliases, and through
method receivers.

Resolution is deliberately modest and sound-for-our-purposes:

* bare names — same-module functions, then import aliases
  (``from repro.core.pipeline import run_analysis``);
* ``self.m`` / ``cls.m`` — the enclosing class, then its base classes
  by name;
* ``ClassName.method`` and fully-dotted
  ``repro.pkg.module.ClassName.method`` spellings;
* ``ClassName(...)`` — the class's ``__init__``;
* ``obj.method`` where ``obj`` is a parameter annotated with a project
  class or a local assigned from ``ClassName(...)``;
* ``self.attr.method`` where ``attr`` is inferred from the class body:
  ``self.attr: T`` annotations, ``self.attr = ClassName(...)`` and
  ``self.attr = name`` assignments (``name`` locally typed).

Anything else (dynamic dispatch, subscripted receivers such as
``self.mergers[key].feed(...)``, callables in containers) produces no
edge, which for the R-rules means no finding — a miss, never a false
positive.  The graph is memoised on ``project.cache`` so every rule in
one lint run shares a single build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, TypeGuard, Union

from repro.devtools.base import ImportMap, Project, SourceModule, dotted_name
from repro.devtools.flow.cfg import scope_parameters

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_self_attr(node: ast.expr) -> TypeGuard[ast.Attribute]:
    """``self.attr`` / ``cls.attr`` as an assignment target."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    )


def module_dotted_name(module: SourceModule) -> str:
    """A stable dotted name for a module: ``repro.core.matching`` for a
    file under the ``repro`` package, the slash-to-dot path otherwise
    (fixtures keep distinct identities without needing a package)."""
    parts = module.path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index, part in enumerate(parts):
        if part == "repro":
            return ".".join(parts[index:])
    return ".".join(part for part in parts if part not in ("", "."))


@dataclass
class FunctionInfo:
    """One module-level function or method known to the graph."""

    qualname: str
    name: str
    class_name: Optional[str]
    module: SourceModule
    node: FunctionNode
    parameters: Tuple[str, ...]

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class CallEdge:
    """One resolved call site: ``caller``'s body invokes ``callee``."""

    caller: str
    callee: str
    call: ast.Call


class CallGraph:
    """Functions + resolved call edges of one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.edges: List[CallEdge] = []
        self.edges_from: Dict[str, List[CallEdge]] = {}
        self._imports: Dict[str, ImportMap] = {}
        self._module_names: Dict[str, str] = {}
        #: Package re-exports: ``repro.columnar.parse_log_columnar``
        #: -> ``repro.columnar.ingest.parse_log_columnar`` for a
        #: ``from repro.columnar.ingest import ...`` in the package
        #: ``__init__``.  Without these, a call imported through the
        #: package facade resolves to a qualname the graph never defines
        #: and the edge is silently dropped.
        self.reexports: Dict[str, str] = {}
        #: class name -> attribute name -> inferred project classes, from
        #: ``self.attr`` annotations/assignments across the class body.
        self._attr_types_cache: Dict[str, Dict[str, Set[str]]] = {}
        self._collect()
        self._connect()

    # ------------------------------------------------------ collection
    def _collect(self) -> None:
        for module in self.project.modules:
            if module.tree is None:
                continue
            self._imports[module.path] = ImportMap.from_tree(module.tree)
            prefix = module_dotted_name(module)
            self._module_names[module.path] = prefix
            if module.path.replace("\\", "/").endswith("/__init__.py"):
                for statement in module.tree.body:
                    if (
                        isinstance(statement, ast.ImportFrom)
                        and statement.module
                        and statement.level == 0
                    ):
                        for alias in statement.names:
                            local = alias.asname or alias.name
                            self.reexports[f"{prefix}.{local}"] = (
                                f"{statement.module}.{alias.name}"
                            )
            for statement in module.tree.body:
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._add(module, statement, prefix, None)
                elif isinstance(statement, ast.ClassDef):
                    for member in statement.body:
                        if isinstance(
                            member, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._add(
                                module,
                                member,
                                f"{prefix}.{statement.name}",
                                statement.name,
                            )

    def _add(
        self,
        module: SourceModule,
        node: FunctionNode,
        prefix: str,
        class_name: Optional[str],
    ) -> None:
        info = FunctionInfo(
            qualname=f"{prefix}.{node.name}",
            name=node.name,
            class_name=class_name,
            module=module,
            node=node,
            parameters=tuple(p.arg for p in scope_parameters(node)),
        )
        # First definition wins, mirroring Project.find_class.
        self.functions.setdefault(info.qualname, info)

    # ------------------------------------------------------ connection
    def _connect(self) -> None:
        for info in list(self.functions.values()):
            imports = self._imports[info.module.path]
            local_types = self._local_class_types(info, imports)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                callees = self._resolve(dotted, info, imports, local_types)
                for callee in callees:
                    edge = CallEdge(
                        caller=info.qualname, callee=callee, call=node
                    )
                    self.edges.append(edge)
                    self.edges_from.setdefault(info.qualname, []).append(
                        edge
                    )

    def _resolve(
        self,
        dotted: str,
        info: FunctionInfo,
        imports: ImportMap,
        local_types: Dict[str, Set[str]],
    ) -> List[str]:
        parts = dotted.split(".")
        head = parts[0]

        if head in ("self", "cls") and info.class_name and len(parts) == 2:
            found = self._method(info.class_name, parts[1])
            return [found] if found else []

        # ``self.attr.method`` — through the class's inferred attribute
        # types (``self.matcher = Matcher(...)`` et al.).
        if head in ("self", "cls") and info.class_name and len(parts) == 3:
            targets = []
            attr_types = self._attr_types(info.class_name)
            for class_name in sorted(attr_types.get(parts[1], set())):
                found = self._method(class_name, parts[2])
                if found:
                    targets.append(found)
            return targets

        if head in local_types and len(parts) == 2:
            targets = []
            for class_name in sorted(local_types[head]):
                found = self._method(class_name, parts[1])
                if found:
                    targets.append(found)
            return targets

        resolved = imports.resolve(dotted)
        # Chase package-``__init__`` re-exports to the defining module
        # (alias-of-alias bounded; cycles terminate via the bound).
        for _ in range(4):
            if resolved in self.functions:
                return [resolved]
            target = self.reexports.get(resolved)
            if target is None or target == resolved:
                break
            resolved = target
        if resolved in self.functions:
            return [resolved]
        # ``ClassName(...)`` — with the class imported or module-local.
        constructor = self._constructor(resolved)
        if constructor:
            return [constructor]

        if len(parts) == 1:
            prefix = self._module_names[info.module.path]
            local = f"{prefix}.{dotted}"
            if local in self.functions:
                return [local]
            found = self._constructor(dotted)
            return [found] if found else []

        if len(parts) == 2:
            found = self._method(head, parts[1])
            return [found] if found else []
        return []

    def _constructor(self, name: str) -> Optional[str]:
        """``__init__`` of a class spelled bare or fully dotted."""
        bare = name.split(".")[-1]
        entry = self.project.find_class(bare)
        if entry is None:
            return None
        module, class_def = entry
        qual = f"{self._class_prefix(module, class_def)}.__init__"
        return qual if qual in self.functions else None

    def _method(
        self, class_name: str, method: str, depth: int = 0
    ) -> Optional[str]:
        """A method looked up on a class, then its named bases."""
        if depth > 8:
            return None
        entry = self.project.find_class(class_name)
        if entry is None:
            return None
        module, class_def = entry
        qual = f"{self._class_prefix(module, class_def)}.{method}"
        if qual in self.functions:
            return qual
        for base in class_def.bases:
            base_name = dotted_name(base)
            if base_name is None:
                continue
            found = self._method(
                base_name.split(".")[-1], method, depth + 1
            )
            if found:
                return found
        return None

    def _class_prefix(
        self, module: SourceModule, class_def: ast.ClassDef
    ) -> str:
        prefix = self._module_names.get(module.path)
        if prefix is None:
            prefix = module_dotted_name(module)
        return f"{prefix}.{class_def.name}"

    def _local_class_types(
        self, info: FunctionInfo, imports: ImportMap
    ) -> Dict[str, Set[str]]:
        """Names in ``info`` known to hold instances of project classes:
        annotated parameters and ``x = ClassName(...)`` locals."""
        return self._scope_class_types(info.node, imports)

    def _scope_class_types(
        self, scope: FunctionNode, imports: ImportMap
    ) -> Dict[str, Set[str]]:
        """Per-scope name typing: annotated parameters, annotated locals,
        and (multi-target) assignments from ``ClassName(...)``.  The
        multi-target case matters for the streaming engine's
        ``timeline = self.timelines[ch][link] = TimelineBuilder(...)``
        idiom — every ``Name`` target receives the constructed type."""
        types: Dict[str, Set[str]] = {}
        for parameter in scope_parameters(scope):
            for class_name in self._annotation_classes(parameter.annotation):
                types.setdefault(parameter.arg, set()).add(class_name)
        for node in ast.walk(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
                if isinstance(node.target, ast.Name):
                    for class_name in self._annotation_classes(
                        node.annotation
                    ):
                        types.setdefault(node.target.id, set()).add(
                            class_name
                        )
            name_targets = [t for t in targets if isinstance(t, ast.Name)]
            if not name_targets or not isinstance(value, ast.Call):
                continue
            dotted = dotted_name(value.func)
            if dotted is None:
                continue
            bare = imports.resolve(dotted).split(".")[-1]
            if self.project.find_class(bare) is not None:
                for target in name_targets:
                    types.setdefault(target.id, set()).add(bare)
        return types

    def _attr_types(self, class_name: str) -> Dict[str, Set[str]]:
        """Project classes each ``self.attr`` of ``class_name`` may hold,
        inferred over the whole class body: ``self.attr: T`` annotations
        (container annotations contribute their element classes),
        ``self.attr = ClassName(...)`` constructions, and
        ``self.attr = name`` where ``name`` is locally typed."""
        cached = self._attr_types_cache.get(class_name)
        if cached is not None:
            return cached
        types: Dict[str, Set[str]] = {}
        # Pre-seed the cache so a self-referential attribute type cannot
        # recurse through ``_scope_class_types``.
        self._attr_types_cache[class_name] = types
        entry = self.project.find_class(class_name)
        if entry is None:
            return types
        module, class_def = entry
        imports = self._imports.get(module.path)
        if imports is None and module.tree is not None:
            imports = ImportMap.from_tree(module.tree)
        if imports is None:
            return types
        for member in class_def.body:
            if not isinstance(
                member, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            local = self._scope_class_types(member, imports)
            for node in ast.walk(member):
                if isinstance(node, ast.AnnAssign) and _is_self_attr(
                    node.target
                ):
                    for cname in self._annotation_classes(node.annotation):
                        types.setdefault(node.target.attr, set()).add(cname)
                elif isinstance(node, ast.Assign):
                    attrs = [
                        target.attr
                        for target in node.targets
                        if _is_self_attr(target)
                    ]
                    if not attrs:
                        continue
                    for cname in self._value_classes(
                        node.value, imports, local
                    ):
                        for attr in attrs:
                            types.setdefault(attr, set()).add(cname)
        return types

    def _value_classes(
        self,
        value: Optional[ast.expr],
        imports: ImportMap,
        local: Dict[str, Set[str]],
    ) -> Set[str]:
        """Project classes a right-hand side may construct or forward."""
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                bare = imports.resolve(dotted).split(".")[-1]
                if self.project.find_class(bare) is not None:
                    return {bare}
            return set()
        if isinstance(value, ast.Name):
            return set(local.get(value.id, set()))
        return set()

    def _annotation_classes(
        self, annotation: Optional[ast.AST]
    ) -> List[str]:
        """Project-class names mentioned by an annotation, seeing
        through ``Optional[...]``/unions and string annotations."""
        if annotation is None:
            return []
        names: List[str] = []
        stack: List[ast.AST] = [annotation]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                try:
                    stack.append(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    continue
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    if self.project.find_class(child.id) is not None:
                        names.append(child.id)
                elif isinstance(child, ast.Attribute):
                    if (
                        self.project.find_class(child.attr) is not None
                    ):
                        names.append(child.attr)
        return names

    # ----------------------------------------------------- reachability
    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from ``roots`` over call edges,
        roots included (when they exist in the graph)."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self.edges_from.get(current, []):
                if edge.callee not in seen:
                    stack.append(edge.callee)
        return seen


def get_callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once per lint run."""
    graph = project.cache.get("callgraph")
    if not isinstance(graph, CallGraph):
        graph = CallGraph(project)
        project.cache["callgraph"] = graph
    return graph
