"""Core vocabulary of the ``reprolint`` static-analysis framework.

The paper's results are only trustworthy if re-running the pipeline over
the same traces always yields the same bytes (``docs/streaming.md``
promises the same for checkpoint/resume).  The rules in
:mod:`repro.devtools.rules` encode the project-specific invariants that
guard that promise; this module holds the pieces they share:

:class:`Finding`
    One rule violation, anchored to a file/line.
:class:`SourceModule`
    A parsed source file plus its suppression comments.
:class:`Project`
    Every module of one lint run — cross-file rules (mutable-singleton
    classification) resolve class names through it.
:class:`Rule` and :func:`register`
    The rule interface and the registry the CLI iterates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.devtools.suppress import FileSuppressions, parse_suppressions

#: Subpackages of ``repro`` whose output feeds the paper's tables; the
#: determinism rules are scoped to these (plus any file outside the
#: ``repro`` package, so fixtures and scripts are always checked).
OUTPUT_PACKAGES = (
    "core", "stream", "simulation", "fleet", "columnar", "service",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }


class SourceModule:
    """A parsed Python source file.

    ``path`` is the path findings are reported under; ``tree`` is ``None``
    when the file does not parse (the driver reports that as its own
    finding instead of crashing the run).
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text, filename=path)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = error
        self.suppressions: FileSuppressions = parse_suppressions(self.lines)

    def snippet(self, line: int) -> str:
        """The stripped source text of a 1-based line (for reports)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` in this module."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            column=column,
            message=message,
            snippet=self.snippet(line),
        )

    def repro_subpackage(self) -> Optional[str]:
        """The ``repro`` subpackage this file belongs to, if any.

        ``.../src/repro/core/events.py`` -> ``"core"``;
        ``.../src/repro/cli.py`` -> ``""`` (top level);
        a path outside the ``repro`` package -> ``None``.
        """
        parts = self.path.replace("\\", "/").split("/")
        for i, part in enumerate(parts[:-1]):
            if part == "repro":
                rest = parts[i + 1 : -1]
                return rest[0] if rest else ""
        return None


class Project:
    """All modules of one lint run, with cross-module class lookup."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)
        #: Scratch space for expensive per-module artefacts (the set-flow
        #: and horizon analyses) so several rules share one solve.
        self.cache: Dict[str, object] = {}
        self._classes: Dict[str, Tuple[SourceModule, ast.ClassDef]] = {}
        for module in self.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    # First definition wins; duplicate class names across
                    # modules are rare and ambiguous anyway.
                    self._classes.setdefault(node.name, (module, node))

    def find_class(
        self, name: str
    ) -> Optional[Tuple[SourceModule, ast.ClassDef]]:
        return self._classes.get(name)


class Rule:
    """One invariant check.  Subclasses set the metadata and ``check``.

    ``scope`` restricts the rule to specific ``repro`` subpackages;
    files outside the ``repro`` package (fixtures, scripts) are always in
    scope so the rule set is exercisable from tests.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    scope: Optional[Tuple[str, ...]] = None
    #: Rules whose findings depend on *other* modules (class lookups)
    #: must run over the full :class:`Project`; per-module
    #: rules have their results cached per file.
    project_wide: bool = False

    def applies_to(self, module: SourceModule) -> bool:
        if self.scope is None:
            return True
        subpackage = module.repro_subpackage()
        return subpackage is None or subpackage in self.scope

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        raise NotImplementedError


#: rule id -> rule instance, in registration order.
REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule
    return rule_cls


@dataclass
class ImportMap:
    """Module-level import aliases, for resolving dotted call names.

    ``import random`` maps ``random -> random``;
    ``from random import Random as R`` maps ``R -> random.Random``.
    """

    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return cls(aliases)

    def resolve(self, dotted: str) -> str:
        """Canonicalise a dotted name through the import aliases."""
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """The canonical dotted name a call resolves to, if derivable."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return imports.resolve(dotted)
