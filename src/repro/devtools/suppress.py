"""Suppression comments: the escape hatch every rule honours.

Two forms, both requiring a justification after ``--``:

``# reprolint: disable=D004 -- result re-sorted by caller``
    Suppresses the listed rules (comma separated, or ``all``) on the
    physical line the comment sits on.

``# reprolint: disable-file=D005 -- insertion order is sorted``
    Suppresses the listed rules for the whole file; conventionally placed
    near the top.

A suppression without a justification is itself reported (rule S001):
grandfathering a finding must leave a trail the next reader can audit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment."""

    line: int
    file_wide: bool
    rules: Tuple[str, ...]
    reason: Optional[str]

    def covers(self, rule_id: str, line: int) -> bool:
        if "all" not in self.rules and rule_id not in self.rules:
            return False
        return self.file_wide or line == self.line


@dataclass
class FileSuppressions:
    """Every suppression in one file, queryable per finding."""

    suppressions: List[Suppression] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return any(s.covers(rule_id, line) for s in self.suppressions)

    def missing_reasons(self) -> List[Suppression]:
        return [s for s in self.suppressions if not s.reason]

    def used_rule_ids(self) -> Set[str]:
        used: Set[str] = set()
        for suppression in self.suppressions:
            used.update(suppression.rules)
        return used

    def by_line(self) -> Dict[int, List[Suppression]]:
        index: Dict[int, List[Suppression]] = {}
        for suppression in self.suppressions:
            index.setdefault(suppression.line, []).append(suppression)
        return index


def parse_suppressions(lines: Sequence[str]) -> FileSuppressions:
    """Scan source lines for ``# reprolint:`` comments."""
    result = FileSuppressions()
    for number, text in enumerate(lines, start=1):
        if "reprolint" not in text:
            continue
        match = SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        if not rules:
            continue
        result.suppressions.append(
            Suppression(
                line=number,
                file_wide=match.group("kind") == "disable-file",
                rules=rules,
                reason=match.group("reason"),
            )
        )
    return result
